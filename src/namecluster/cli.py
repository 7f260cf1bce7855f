"""Command-line interface: analyze, sweep, demography, infer, validate-config.

Configuration comes from an INI-style file with one section per module
(onomasticon, hypothesis, rules, analysis, sweep, output); command-line
flags override file values. Output is an aligned text table or
line-delimited JSON records carrying exact fractions alongside decimals;
both are byte-deterministic for identical inputs. Exit codes: 0 success,
1 computation contract violation, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction

# sensitivity, demography and inference are imported by the commands that run
# them, so that a CLI start loads only what its subcommand needs
from .candidates import build_spec, load_hypothesis_config
from .onomasticon import InputError, format_decimal, format_fraction, \
    load_onomasticon, parse_flag, parse_fraction
from .scoring import (RULE_PARSERS, ContractViolation, RuleLedger,
                      TombConfiguration, score)
from .tailspace import enumerate_tail, tuple_space_size

SIG = 4  # default report precision for tail areas


class ConfigError(InputError):
    """A setting from the command line or the --config file is unusable."""


def read_config(path):
    """The parsed --config file, or None when none is given."""
    if not path:
        return None
    import configparser
    # no interpolation: a '%' in a value is a character, not a reference
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if parser.read(path):
            return parser
    except configparser.Error as exc:
        raise ConfigError(" ".join(f"config file {path}: {exc}".split())) from exc
    raise ConfigError(f"config file not found: {path}")


def setting(config, args, section, key, default=None, parse=None):
    """The flag, else the --config value, else ``default``; typed by ``parse``."""
    raw = getattr(args, key, None)
    if raw is None:
        raw = default if config is None else config.get(section, key, fallback=default)
    return raw if raw is None or parse is None else parse_value(key, raw, parse)


# what each setting parser accepts, for the error message
EXPECTED = {int: "an integer", parse_fraction: "a fraction a/b or a decimal",
            parse_flag: "on/off, true/false, 1/0 or yes/no"}


def parse_value(key, raw, parse=parse_fraction):
    """``parse(raw)`` for setting ``key``; a bad value raises ConfigError."""
    try:
        return parse(raw)
    except ValueError as exc:
        message = f"--{key.replace('_', '-')} must be {EXPECTED[parse]}, got {raw!r}"
        reason = " ".join(str(exc).split())
        if EXPECTED[parse] not in reason:  # the parser's reason adds something
            message += f" ({reason})"
        raise ConfigError(message) from None


def settings_given(config, args, section, parsers) -> dict:
    """{key: parsers[key](value)} for each key a flag or --config value sets."""
    values = {key: setting(config, args, section, key, parse=parse)
              for key, parse in parsers.items()}
    return {key: value for key, value in values.items() if value is not None}


DEMOGRAPHY_PARSERS = {
    "total_deceased": int, "tomb_size": int, "non_jewish_fraction": parse_fraction,
    "juvenile_fraction": parse_fraction, "literacy_affluence_fraction": parse_fraction,
    "female_male_inscription_ratio": parse_fraction}


def load_analysis_inputs(config, args):
    onom_source = setting(config, args, "onomasticon", "source", "bundled")
    hyp_source = setting(config, args, "hypothesis", "file", "bundled")
    onom = load_onomasticon(onom_source)
    name, descriptors, observed_fields = load_hypothesis_config(hyp_source)
    if observed_fields is None:
        raise ConfigError("hypothesis config lacks an 'observed' record")
    try:
        observed = TombConfiguration(**observed_fields)
    except TypeError as exc:
        raise ConfigError(f"bad observed record: {exc}") from exc
    rules = RuleLedger(**settings_given(config, args, "rules", RULE_PARSERS))
    return onom, name, descriptors, observed, rules, parse_n2(config, args)


def parse_n2(config, args) -> int:
    """The number of candidate tombs: an integer of at least 1."""
    n2 = setting(config, args, "analysis", "n2", "1100", int)
    if n2 < 1:
        raise ConfigError(f"--n2 must be an integer >= 1, got {n2}")
    return n2


def emit(rows, fmt, out):
    """rows: list of (field, exact Fraction, sig)."""
    if fmt == "records":
        for field, value, sig in rows:
            out.write(json.dumps({"field": field, "decimal": format_decimal(value, sig),
                                  "fraction": format_fraction(value)}) + "\n")
    else:
        width = max(len(field) for field, _, _ in rows)
        for field, value, sig in rows:
            out.write(f"{field.ljust(width)}  {format_decimal(value, sig)}\n")


def cmd_analyze(config, args, out):
    onom, name, descriptors, observed, rules, n2 = \
        load_analysis_inputs(config, args)
    spec = build_spec(onom, descriptors)
    observed_rr = score(observed, spec, rules).value
    result = enumerate_tail(spec, rules, observed_rr)
    rows = [
        ("observed-rr", result.observed_rr, SIG),
        ("valid-mass-ratio", result.valid_ratio, SIG),
        ("proportion", result.proportion, SIG),
        ("adjusted-area", n2 * result.proportion, SIG),
    ]
    if args.format == "records":
        rows += [("tuple-space", Fraction(tuple_space_size(spec)), 10),
                 ("valid-mass", result.valid_mass, 10),
                 ("tail-mass", result.tail_mass, 10)]
    emit(rows, args.format, out)
    return 0


def cmd_sweep(config, args, out):
    from .sensitivity import load_suite, run_suite
    onom, name, descriptors, observed, rules, n2 = \
        load_analysis_inputs(config, args)
    suite_source = setting(config, args, "sweep", "suite", "bundled")
    suite = load_suite(suite_source)
    reports = run_suite(onom, descriptors, rules, observed, suite, n2=n2)
    if args.format == "records":
        for r in reports:
            record = {"scenario": r.name}
            if r.error:
                record["error"] = r.error
            else:
                record["adjusted"] = format_decimal(r.adjusted_area, SIG)
                record["adjusted_fraction"] = format_fraction(r.adjusted_area)
                record["observed_rr_fraction"] = format_fraction(r.observed_rr)
                record["reference"] = r.reference
                record["match"] = r.matches_reference
            out.write(json.dumps(record) + "\n")
    else:
        width = max(len(r.name) for r in reports) if reports else 8
        out.write(f"{'scenario'.ljust(width)}  {'adjusted':>10}  {'reference':>10}  match\n")
        for r in reports:
            if r.error:
                out.write(f"{r.name.ljust(width)}  error: {r.error}\n")
                continue
            ref = r.reference if r.reference is not None else "-"
            match = {True: "yes", False: "NO", None: "-"}[r.matches_reference]
            out.write(f"{r.name.ljust(width)}  {format_decimal(r.adjusted_area, SIG):>10}"
                      f"  {ref:>10}  {match}\n")
    return 0


def cmd_demography(config, args, out):
    from .demography import DemographyParams, run_pipeline
    result = run_pipeline(DemographyParams(
        **settings_given(config, args, "demography", DEMOGRAPHY_PARSERS)))
    # the reported figures, in the result's field order; not the raw values
    rows = [(name.replace("_", "-"), Fraction(value), 6)
            for name, value in result._asdict().items() if not name.endswith("_raw")]
    emit(rows, args.format, out)
    return 0


def cmd_infer(config, args, out):
    from .inference import (InferenceError, adjusted_p, beta_of,
                            odds_lower_bound, posterior_odds, theta_lower_bound)
    q = setting(config, args, "inference", "q", parse=parse_fraction)
    if q is None:
        raise ConfigError("infer requires --q")
    if not 0 <= q <= 1:
        raise ConfigError("--q must be a tail area between 0 and 1")
    n2 = parse_n2(config, args)
    if (args.theta or args.alpha) and beta_of(q, n2) >= 1:
        raise InferenceError("(n2-1)*q must be below 1 for the bound formulas")
    rows = [("adjusted-p", adjusted_p(q, n2), SIG),
            ("beta", beta_of(q, n2), SIG)]
    for theta in args.theta or []:
        t = parse_value("theta", theta)
        rows.append((f"odds[theta={theta}]", posterior_odds(t, n2, q), SIG))
    for alpha in args.alpha or []:
        a = parse_value("alpha", alpha)
        rows.append((f"theta-bound[alpha={alpha}]",
                     theta_lower_bound(a, n2, q), SIG))
        rows.append((f"odds-bound[alpha={alpha}]",
                     odds_lower_bound(a, n2, q), SIG))
    emit(rows, args.format, out)
    return 0


def cmd_validate_config(config, args, out):
    from .sensitivity import load_suite
    onom, name, descriptors, observed, rules, _ = \
        load_analysis_inputs(config, args)
    spec = build_spec(onom, descriptors)
    score(observed, spec, rules)  # must be a valid configuration
    suite_source = setting(config, args, "sweep", "suite", None)
    n_scenarios = len(load_suite(suite_source)) if suite_source else 0
    out.write(f"ok: hypothesis '{name}' with "
              f"{len(spec.women)} women / {len(spec.men)} men categories")
    if n_scenarios:
        out.write(f"; suite of {n_scenarios} scenarios")
    out.write("\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="namecluster",
        description="Exact-enumeration significance analysis for tomb name clusters")
    parser.add_argument("--config", help="INI config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, parsers):
        for key in parsers:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key)

    def common(p):
        p.add_argument("--onomasticon", dest="source",
                       help="onomasticon table path or 'bundled'")
        p.add_argument("--hypothesis", dest="file",
                       help="hypothesis config path or 'bundled'")
        p.add_argument("--n2", help="number of candidate tombs")
        p.add_argument("--format", help="table or records")
        flags(p, RULE_PARSERS)

    common(sub.add_parser("analyze", help="headline figures for the baseline"))
    p = sub.add_parser("sweep", help="run the sensitivity scenario suite")
    common(p)
    p.add_argument("--suite", help="scenario suite path or 'bundled'")
    p = sub.add_parser("demography", help="population pipeline")
    p.add_argument("--format", help="table or records")
    flags(p, DEMOGRAPHY_PARSERS)
    p = sub.add_parser("infer", help="p-value, odds and confidence bounds")
    p.add_argument("--q", help="tail area, exact fraction or decimal")
    p.add_argument("--n2")
    p.add_argument("--theta", action="append", help="P(B|A); repeatable")
    p.add_argument("--alpha", action="append", help="confidence complement; repeatable")
    p.add_argument("--format", help="table or records")
    p = sub.add_parser("validate-config", help="parse and check all inputs")
    common(p)
    p.add_argument("--suite", help="scenario suite path or 'bundled'")
    return parser


COMMANDS = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "demography": cmd_demography,
    "infer": cmd_infer,
    "validate-config": cmd_validate_config,
}


def warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI shows it on stderr: one line, no source."""
    return f"warning: {message}\n"


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, warning_line
    try:
        config = read_config(args.config)
        args.format = setting(config, args, "output", "format", "table")
        if args.format not in ("table", "records"):
            raise ConfigError(f"--format must be table or records, got {args.format!r}")
        return COMMANDS[args.command](config, args, out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, ValueError, OverflowError) as exc:
        # OverflowError: a number too large for a float; the reports print
        # such figures exactly, so none is known to reach this
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
