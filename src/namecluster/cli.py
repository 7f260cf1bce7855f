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
import configparser
import json
import sys
from fractions import Fraction

from .candidates import SpecificationError, build_spec, load_hypothesis_config
from .demography import DemographyParams, ParameterError, run_pipeline
from .inference import (InferenceError, adjusted_p, beta_of, odds_lower_bound,
                        posterior_odds, theta_lower_bound)
from .onomasticon import OnomasticonError, format_fraction, load_onomasticon, \
    parse_fraction
from .scoring import ContractViolation, RuleLedger, TombConfiguration, score
from .sensitivity import load_suite, run_suite
from .tailspace import enumerate_tail, tuple_space_size

SIG = 4  # default report precision for tail areas


def dec(value, sig: int = SIG) -> str:
    return f"{float(value):.{sig}g}"


class ConfigError(Exception):
    pass


def read_config(path):
    parser = configparser.ConfigParser()
    if path:
        loaded = parser.read(path)
        if not loaded:
            raise ConfigError(f"config file not found: {path}")
    return parser


def setting(config, args, section, key, default=None):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if config.has_option(section, key):
        return config.get(section, key)
    return default


def build_rules(config, args) -> RuleLedger:
    def flag(name, default):
        raw = setting(config, args, "rules", name, default)
        if isinstance(raw, bool):
            return raw
        return str(raw).lower() in ("on", "true", "1", "yes")

    return RuleLedger(
        bonus_divisor=parse_fraction(str(setting(config, args, "rules",
                                                 "bonus_divisor", "6/5"))),
        unknown_son_factor=parse_fraction(str(setting(config, args, "rules",
                                                      "unknown_son_factor", "5"))),
        require_yeshua_in_tomb=flag("require_yeshua_in_tomb", "off"),
        allow_father_yeshua=flag("allow_father_yeshua", "off"),
        count_unknown_sons=flag("count_unknown_sons", "on"))


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
    rules = build_rules(config, args)
    return onom, name, descriptors, observed, rules, parse_n2(config, args)


def parse_n2(config, args) -> int:
    """The number of candidate tombs: an integer of at least 1."""
    raw = setting(config, args, "analysis", "n2", "1100")
    try:
        n2 = int(raw)
    except ValueError:
        n2 = 0
    if n2 < 1:
        raise ConfigError(f"n2 must be an integer >= 1, got {raw!r}")
    return n2


def emit(rows, fmt, out):
    """rows: list of (field, exact Fraction or str, sig)."""
    if fmt == "records":
        for field, value, sig in rows:
            record = {"field": field}
            if isinstance(value, Fraction):
                record["decimal"] = dec(value, sig)
                record["fraction"] = format_fraction(value)
            else:
                record["value"] = str(value)
            out.write(json.dumps(record) + "\n")
    else:
        width = max(len(field) for field, _, _ in rows)
        for field, value, sig in rows:
            shown = dec(value, sig) if isinstance(value, Fraction) else str(value)
            out.write(f"{field.ljust(width)}  {shown}\n")


def cmd_analyze(config, args, out):
    onom, name, descriptors, observed, rules, n2 = \
        load_analysis_inputs(config, args)
    spec = build_spec(onom, descriptors, name=name)
    observed_rr = score(observed, spec, rules).value
    result = enumerate_tail(spec, rules, observed_rr)
    rows = [
        ("observed-rr", result.observed_rr, SIG),
        ("valid-mass-ratio", result.valid_ratio, SIG),
        ("proportion", result.proportion, SIG),
        ("adjusted-area", n2 * result.proportion, SIG),
    ]
    fmt = setting(config, args, "output", "format", "table")
    if fmt == "records":
        rows += [("tuple-space", Fraction(tuple_space_size(spec)), 10),
                 ("valid-mass", result.valid_mass, 10),
                 ("tail-mass", result.tail_mass, 10)]
    emit(rows, fmt, out)
    return 0


def cmd_sweep(config, args, out):
    onom, name, descriptors, observed, rules, n2 = \
        load_analysis_inputs(config, args)
    suite_source = setting(config, args, "sweep", "suite", "bundled")
    suite = load_suite(suite_source)
    reports = run_suite(onom, descriptors, rules, observed, suite, n2=n2)
    fmt = setting(config, args, "output", "format", "table")
    if fmt == "records":
        for r in reports:
            record = {"scenario": r.name}
            if r.error:
                record["error"] = r.error
            else:
                record["adjusted"] = dec(r.adjusted_area, SIG)
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
            out.write(f"{r.name.ljust(width)}  {dec(r.adjusted_area):>10}"
                      f"  {ref:>10}  {match}\n")
    return 0


def cmd_demography(config, args, out):
    kwargs = {}
    for name in ("total_deceased", "tomb_size"):
        raw = setting(config, args, "demography", name)
        if raw is not None:
            kwargs[name] = int(raw)
    for name in ("non_jewish_fraction", "juvenile_fraction",
                 "literacy_affluence_fraction", "female_male_inscription_ratio"):
        raw = setting(config, args, "demography", name)
        if raw is not None:
            kwargs[name] = parse_fraction(str(raw))
    result = run_pipeline(DemographyParams(**kwargs))
    rows = [
        ("deceased-per-gender", Fraction(result.deceased_per_gender), 6),
        ("adult-jewish-per-gender", Fraction(result.adult_jewish_per_gender), 6),
        ("inscribed-males", Fraction(result.inscribed_males), 6),
        ("inscribed-females", Fraction(result.inscribed_females), 6),
        ("trials", Fraction(result.trials), 6),
        ("excavated", Fraction(result.excavated), 6),
        ("full-population-tombs", Fraction(result.full_population_tombs), 6),
    ]
    emit(rows, setting(config, args, "output", "format", "table"), out)
    return 0


def cmd_infer(config, args, out):
    raw_q = setting(config, args, "inference", "q")
    if raw_q is None:
        raise ConfigError("infer requires --q")
    q = parse_fraction(str(raw_q))
    n2 = parse_n2(config, args)
    if (args.theta or args.alpha) and beta_of(q, n2) >= 1:
        raise InferenceError("(n2-1)*q must be below 1 for the bound formulas")
    rows = [("adjusted-p", adjusted_p(q, n2), SIG),
            ("beta", beta_of(q, n2), SIG)]
    for theta in args.theta or []:
        t = parse_fraction(theta)
        rows.append((f"odds[theta={theta}]", posterior_odds(t, n2, q), SIG))
    for alpha in args.alpha or []:
        a = parse_fraction(alpha)
        rows.append((f"theta-bound[alpha={alpha}]",
                     theta_lower_bound(a, n2, q), SIG))
        rows.append((f"odds-bound[alpha={alpha}]",
                     odds_lower_bound(a, n2, q), SIG))
    emit(rows, setting(config, args, "output", "format", "table"), out)
    return 0


def cmd_validate_config(config, args, out):
    onom, name, descriptors, observed, rules, _ = \
        load_analysis_inputs(config, args)
    spec = build_spec(onom, descriptors, name=name)
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

    def common(p):
        p.add_argument("--onomasticon", dest="source",
                       help="onomasticon table path or 'bundled'")
        p.add_argument("--hypothesis", dest="file",
                       help="hypothesis config path or 'bundled'")
        p.add_argument("--n2", help="number of candidate tombs")
        p.add_argument("--format", help="table or records")
        p.add_argument("--bonus-divisor", dest="bonus_divisor")
        p.add_argument("--unknown-son-factor", dest="unknown_son_factor")
        p.add_argument("--require-yeshua-in-tomb", dest="require_yeshua_in_tomb")
        p.add_argument("--allow-father-yeshua", dest="allow_father_yeshua")
        p.add_argument("--count-unknown-sons", dest="count_unknown_sons")

    common(sub.add_parser("analyze", help="headline figures for the baseline"))
    p = sub.add_parser("sweep", help="run the sensitivity scenario suite")
    common(p)
    p.add_argument("--suite", help="scenario suite path or 'bundled'")
    p = sub.add_parser("demography", help="population pipeline")
    p.add_argument("--format", help="table or records")
    p.add_argument("--total-deceased", dest="total_deceased")
    p.add_argument("--tomb-size", dest="tomb_size")
    p.add_argument("--non-jewish-fraction", dest="non_jewish_fraction")
    p.add_argument("--juvenile-fraction", dest="juvenile_fraction")
    p.add_argument("--literacy-affluence-fraction", dest="literacy_affluence_fraction")
    p.add_argument("--female-male-inscription-ratio",
                   dest="female_male_inscription_ratio")
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


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        config = read_config(args.config)
        return COMMANDS[args.command](config, args, out)
    except (ConfigError, OnomasticonError, SpecificationError, ParameterError,
            InferenceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, ValueError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
