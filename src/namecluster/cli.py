"""Command-line interface: analyze, sweep, demography, infer, validate-config.

``namecluster [--config PATH] COMMAND [--flag VALUE | --flag=VALUE]...`` is
read against COMMANDS, the table of each command's flags: a flag's name
matches exactly, the word after it is its value, verbatim, and ``--config``
may also follow the command. Flags override the INI-style ``--config`` file
(one section per module, holding only keys in CONFIG_KEYS). Output is an
aligned text table or JSON records of exact fractions with decimals,
byte-deterministic for identical inputs. Exit codes: 0 success, 1 computation
contract violation (or a closed stdout), 2 input error; an error is one
``error: ...`` line on stderr.
"""

from __future__ import annotations

import os
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

# sensitivity, demography and inference are imported by the commands that run
# them, so that a CLI start loads only what its subcommand needs
from .candidates import build_spec, load_hypothesis_config
from .onomasticon import InputError, format_decimal, format_fraction, \
    load_onomasticon, parse_flag, parse_fraction, source_path
from .scoring import RULE_PARSERS, RuleLedger, TombConfiguration, score, validate
from .tailspace import enumerate_tail, tuple_space_size

SIG = 4  # default report precision for tail areas


def read_config(path):
    """The parsed --config file, or None when none is given."""
    if not path:
        return None
    import configparser
    # no interpolation: a '%' in a value is a character, not a reference
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path)
    except (configparser.Error, ValueError) as exc:  # also not text, a NUL in the path
        raise InputError(" ".join(f"config file {path}: {exc}".split())) from exc
    if not found:
        raise InputError(f"config file not found: {path}")
    for section in (parser.default_section, *parser.sections()):
        for key in parser[section]:
            if key not in CONFIG_KEYS.get(section, ()):
                raise InputError(f"config file {path}: [{section}] {key}: unknown key")
    return parser


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
    """``parse(raw)`` for setting ``key``; a bad value raises InputError."""
    try:
        return parse(raw)
    except ValueError as exc:
        message = f"--{key.replace('_', '-')} must be {EXPECTED[parse]}, got {raw!r}"
        reason = " ".join(str(exc).split())
        if EXPECTED[parse] not in reason:  # the parser's reason adds something
            message += f" ({reason})"
        raise InputError(message) from None


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
    onom = load_onomasticon(setting(config, args, "onomasticon", "source", "bundled"))
    name, descriptors, observed_fields = load_hypothesis_config(
        setting(config, args, "hypothesis", "file", "bundled"))
    if observed_fields is None:
        raise InputError("hypothesis config lacks an 'observed' record")
    try:
        observed = TombConfiguration(**observed_fields)
    except TypeError as exc:
        raise InputError(f"bad observed record: {exc}") from exc
    rules = RuleLedger(**settings_given(config, args, "rules", RULE_PARSERS))
    return onom, name, descriptors, observed, rules, parse_n2(config, args)


def parse_n2(config, args) -> int:
    """The number of candidate tombs: an integer of at least 1."""
    n2 = setting(config, args, "analysis", "n2", "1100", int)
    if n2 < 1:
        raise InputError(f"--n2 must be an integer >= 1, got {n2}")
    return n2


def scored_inputs(config, args):
    """(name, spec, rules, observed RR, n2); an impossible observed is an input error."""
    onom, name, descriptors, observed, rules, n2 = load_analysis_inputs(config, args)
    hypothesis = source_path(setting(config, args, "hypothesis", "file", "bundled"),
                             "baseline.cfg")
    try:
        spec = build_spec(onom, descriptors)
    except InputError as exc:  # a candidate the table cannot realize
        raise InputError(f"{hypothesis}: {exc}") from exc
    try:
        reason = validate(observed, spec)
    except InputError as exc:  # a label the hypothesis lacks
        raise InputError(f"{hypothesis}: observed: {exc}") from exc
    if reason is not None:
        raise InputError(f"observed: {reason}")
    return name, spec, rules, score(observed, spec, rules).value, n2


class JsonText(dict):
    """What json.dumps writes for each code point, as str.translate looks it
    up: printable ASCII as itself, seven short escapes, else ``\\uXXXX``, and
    above U+FFFF the ``\\uXXXX`` of each half of its surrogate pair."""

    def __missing__(self, n):
        if n > 0xFFFF:
            return self[0xD800 | (n - 0x10000) >> 10] + self[0xDC00 | n & 0x3FF]
        return f"\\u{n:04x}"


JSON_TEXT = JsonText({n: chr(n) for n in range(32, 127)})
JSON_TEXT.update({ord(c): "\\" + e for c, e in zip('"\\\n\r\t\b\f', '"\\nrtbf')})
LITERALS = {None: "null", True: "true", False: "false"}


def quoted(text: str) -> str:
    """``text`` as json.dumps writes a str; text it keeps as it is skips the table."""
    if not (text.isascii() and text.isprintable()) or '"' in text or "\\" in text:
        text = text.translate(JSON_TEXT)
    return f'"{text}"'


def record_line(record: dict) -> str:
    """``json.dumps(record) + "\\n"`` for str keys and str, bool or None values;
    importing json would cost each records start 2.5 ms."""
    return "{%s}\n" % ", ".join(
        f"{quoted(key)}: {quoted(value) if isinstance(value, str) else LITERALS[value]}"
        for key, value in record.items())


def emit(rows, fmt, out):
    """rows: list of (field, exact Fraction, sig)."""
    if fmt == "records":
        for field, value, sig in rows:
            out.write(record_line({"field": field, "decimal": format_decimal(value, sig),
                                   "fraction": format_fraction(value)}))
    else:
        width = max(len(field) for field, _, _ in rows)
        for field, value, sig in rows:
            out.write(f"{field.ljust(width)}  {format_decimal(value, sig)}\n")


def cmd_analyze(config, args, out):
    name, spec, rules, observed_rr, n2 = scored_inputs(config, args)
    result = enumerate_tail(spec, rules, observed_rr)
    adjusted = n2 * result.proportion
    if adjusted > 1:  # the paper's n2*q, reported as it is
        warnings.warn("n2*q exceeds 1; adjusted-area is the unclamped n2*q")
    rows = [
        ("observed-rr", result.observed_rr, SIG),
        ("valid-mass-ratio", result.valid_ratio, SIG),
        ("proportion", result.proportion, SIG),
        ("adjusted-area", adjusted, SIG),
    ]
    if args.format == "records":
        rows += [("tuple-space", Fraction(tuple_space_size(spec)), 10),
                 ("valid-mass", result.valid_mass, 10),
                 ("tail-mass", result.tail_mass, 10)]
    emit(rows, args.format, out)
    return 0


def cmd_sweep(config, args, out):
    from .sensitivity import load_suite, run_suite
    onom, name, descriptors, observed, rules, n2 = load_analysis_inputs(config, args)
    suite = load_suite(setting(config, args, "sweep", "suite", "bundled"))
    reports = run_suite(onom, descriptors, rules, observed, suite, n2=n2)
    above = sum(not r.error and r.adjusted_area > 1 for r in reports)
    if above:  # one line for the run, however many scenarios exceed 1
        warnings.warn(f"n2*q exceeds 1 in {above} of {len(reports)} scenarios; "
                      "adjusted is the unclamped n2*q")
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
            out.write(record_line(record))
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
    from .inference import (adjusted_p, beta_of, odds_lower_bound, posterior_odds,
                            theta_lower_bound)
    q = setting(config, args, "inference", "q", parse=parse_fraction)
    if q is None:
        raise InputError("infer requires --q")
    if not 0 <= q <= 1:
        raise InputError("--q must be a tail area between 0 and 1")
    n2 = parse_n2(config, args)
    given = [setting(config, args, "inference", key) for key in REPEATED]
    # a flag's values come as a list, a --config value as one string
    thetas, alphas = ([value] if isinstance(value, str) else value or []
                      for value in given)
    if (thetas or alphas) and beta_of(q, n2) >= 1:
        raise InputError("(n2-1)*q must be below 1 for the bound formulas")
    rows = [("adjusted-p", adjusted_p(q, n2), SIG),
            ("beta", beta_of(q, n2), SIG)]
    for theta in thetas:
        t = parse_value("theta", theta)
        rows.append((f"odds[theta={theta}]", posterior_odds(t, n2, q), SIG))
    for alpha in alphas:
        a = parse_value("alpha", alpha)
        rows.append((f"theta-bound[alpha={alpha}]",
                     theta_lower_bound(a, n2, q), SIG))
        rows.append((f"odds-bound[alpha={alpha}]",
                     odds_lower_bound(a, n2, q), SIG))
    emit(rows, args.format, out)
    return 0


def cmd_validate_config(config, args, out):
    from .sensitivity import load_suite
    name, spec, *_ = scored_inputs(config, args)
    suite_source = setting(config, args, "sweep", "suite", None)
    n_scenarios = len(load_suite(suite_source)) if suite_source else 0
    suite = f"; suite of {n_scenarios} scenarios" if n_scenarios else ""
    out.write(f"ok: hypothesis '{name}' with {len(spec.women)} women / "
              f"{len(spec.men)} men categories{suite}\n")
    return 0


def typed(parsers) -> dict:
    """{--flag: (attribute, value parser)} for the settings that ``parsers`` read."""
    return {f"--{key.replace('_', '-')}": (key, parse) for key, parse in parsers.items()}


COMMON = {"--config": ("config", "INI config file; flags override it"),
          "--format": ("format", "table or records")}
ANALYSIS = {**COMMON, "--onomasticon": ("source", "onomasticon table path or 'bundled'"),
            "--hypothesis": ("file", "hypothesis config path or 'bundled'"),
            "--n2": ("n2", "number of candidate tombs"), **typed(RULE_PARSERS)}
SUITE = {"--suite": ("suite", "scenario suite path or 'bundled'")}
REPEATED = ("theta", "alpha")  # attributes that collect every value given
# the keys of each --config section: every setting some command reads, so
# that one file serves all commands
CONFIG_KEYS = {"onomasticon": ("source",), "hypothesis": ("file",),
               "analysis": ("n2",), "rules": tuple(RULE_PARSERS), "sweep": ("suite",),
               "demography": tuple(DEMOGRAPHY_PARSERS), "inference": ("q", *REPEATED),
               "output": ("format",)}

# command: (function, summary, {flag: (attribute, help text or value parser)})
COMMANDS = {
    "analyze": (cmd_analyze, "headline figures for the baseline", ANALYSIS),
    "sweep": (cmd_sweep, "run the sensitivity scenario suite", {**ANALYSIS, **SUITE}),
    "demography": (cmd_demography, "population pipeline",
                   {**COMMON, **typed(DEMOGRAPHY_PARSERS)}),
    "infer": (cmd_infer, "p-value, odds and confidence bounds", {
        **COMMON, "--q": ("q", "tail area in [0, 1]"), "--n2": ANALYSIS["--n2"],
        "--theta": ("theta", "P(B|A) in (0, 1]; repeatable"),
        "--alpha": ("alpha", "confidence complement in (0, 1); repeatable")}),
    "validate-config": (cmd_validate_config, "parse and check all inputs",
                        {**ANALYSIS, **SUITE}),
}


def parse_args(argv) -> SimpleNamespace:
    """The words of the grammar as attributes: a flag's value, its last value,
    a list for a REPEATED flag, or None. ``-h``/``--help`` ends the reading."""
    args = SimpleNamespace(command=None, config=None, help=False)
    flags, words = {"--config": COMMON["--config"]}, iter(argv)
    commands = f"the commands are {', '.join(COMMANDS)}"
    for word in words:
        flag, eq, value = word.partition("=")
        if word in ("-h", "--help"):
            args.help = True
            break
        if args.command is None and word in COMMANDS:
            args.command, flags = word, COMMANDS[word][2]
            vars(args).update({k: getattr(args, k, None) for k, _ in flags.values()})
        elif not word.startswith("--"):
            raise InputError(f"stray word {word!r}" if args.command
                             else f"unknown command {word!r}; {commands}")
        elif flag not in flags:
            raise InputError(f"unknown flag {flag!r} for {args.command}" if args.command
                             else f"unknown flag {flag!r} before the command")
        elif not eq and (value := next(words, None)) is None:
            raise InputError(f"{flag} needs a value")
        else:
            key = flags[flag][0]
            setattr(args, key, (getattr(args, key) or []) + [value]
                    if key in REPEATED else value)
    if args.command is None and not args.help:
        raise InputError(f"no command; {commands}")
    return args


def help_text(command) -> str:
    """The command list, or ``command``'s flags, as COMMANDS gives them."""
    if command is None:
        head = "usage: namecluster [--config PATH] COMMAND [--flag VALUE]...\ncommands:"
        rows = {name: summary for name, (_, summary, _) in COMMANDS.items()}
    else:
        head = f"usage: namecluster {command} [--flag VALUE]...\n{COMMANDS[command][1]}:"
        rows = {f"{flag} VALUE": EXPECTED.get(text, text)
                for flag, (_, text) in COMMANDS[command][2].items()}
    width = max(map(len, rows))
    return "\n".join([head] + [f"  {k.ljust(width)}  {v}" for k, v in rows.items()]) + "\n"


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    # a warning is one stderr line, without its source
    formatwarning, warnings.formatwarning = \
        warnings.formatwarning, lambda message, *_: f"warning: {message}\n"
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.help:
            out.write(help_text(args.command))
            return 0
        config = read_config(args.config)
        args.format = setting(config, args, "output", "format", "table")
        if args.format not in ("table", "records"):
            raise InputError(f"--format must be table or records, got {args.format!r}")
        code = COMMANDS[args.command][0](config, args, out)
        out.flush()  # a closed stdout fails here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # stdout was closed, as by `namecluster sweep | head -1`: point it at
        # devnull, as the signal module's docs advise, so the final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:  # ContractViolation is a ValueError
        # OverflowError: a number too large for a float; the reports print
        # such figures exactly, so none is known to reach this
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
