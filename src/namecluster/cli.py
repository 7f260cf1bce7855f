"""Command-line interface: analyze, sweep, demography, infer, validate-config.

``namecluster [--config PATH] COMMAND [--flag VALUE | --flag=VALUE]...`` is
read against COMMANDS, the table of each command's flags: a flag's name
matches exactly, the word after it is its value, verbatim, and ``--config``
may also follow the command. Each setting in SETTINGS is resolved once: its
flag, else its key in the INI-style ``--config`` file, else its default.
Output is an aligned text table or JSON records of exact fractions with
decimals, byte-deterministic for identical inputs. Exit codes: 0 success, 1
computation contract violation (or a closed stdout), 2 input error; an error
is one ``error: ...`` line on stderr.
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
            if key not in SETTINGS or SETTINGS[key][0] != section:
                raise InputError(f"config file {path}: [{section}] {key}: unknown key")
    return parser


# what each setting parser accepts, for the error message and the help
EXPECTED = {int: "an integer", parse_fraction: "a fraction a/b or a decimal",
            parse_flag: "on/off, true/false, 1/0 or yes/no"}


def parse_value(key, raw, parse):
    """``parse(raw)`` for setting ``key``; a bad value raises InputError."""
    try:
        return parse(raw)
    except ValueError as exc:
        message = f"--{key.replace('_', '-')} must be {EXPECTED[parse]}, got {raw!r}"
        reason = " ".join(str(exc).split())
        if EXPECTED[parse] not in reason:  # the parser's reason adds something
            message += f" ({reason})"
        raise InputError(message) from None


DEMOGRAPHY_PARSERS = {
    "total_deceased": int, "tomb_size": int, "non_jewish_fraction": parse_fraction,
    "juvenile_fraction": parse_fraction, "literacy_affluence_fraction": parse_fraction,
    "female_male_inscription_ratio": parse_fraction}

# key: (--config section, default, value parser, help or None for EXPECTED);
# a --config file may set any of them, so that one file serves all commands
SETTINGS = {
    "config": (None, None, None, "INI config file; flags override it"),
    "format": ("output", "table", None, "table or records"),
    "source": ("onomasticon", "bundled", None, "onomasticon table path or 'bundled'"),
    "file": ("hypothesis", "bundled", None, "hypothesis config path or 'bundled'"),
    "n2": ("analysis", "1100", int, "number of candidate tombs"),
    **{key: ("rules", None, parse, None) for key, parse in RULE_PARSERS.items()},
    # no default: validate-config checks a suite only when one is named
    "suite": ("sweep", None, None, "scenario suite path or 'bundled'"),
    **{key: ("demography", None, parse, None)
       for key, parse in DEMOGRAPHY_PARSERS.items()},
    "q": ("inference", None, parse_fraction, "tail area in [0, 1]"),
    "theta": ("inference", (), parse_fraction, "P(B|A) in (0, 1]; repeatable"),
    "alpha": ("inference", (), parse_fraction, "confidence complement in (0, 1); repeatable"),
}
REPEATED = ("theta", "alpha")  # settings that collect every value given


def resolve(args, config) -> None:
    """Set each setting of ``args.command`` to the flag, else the --config
    value, else the default, typed by its parser. A REPEATED setting becomes
    a list of (word, value) pairs, so that a report names the word as given."""
    for key in COMMANDS[args.command][2].values():
        section, default, parse, _ = SETTINGS[key]
        value = getattr(args, key)
        if value is None:  # with a config, args.config is set: "config" is not looked up
            value = default if config is None else config.get(section, key, fallback=default)
        if key in REPEATED:
            words = [value] if isinstance(value, str) else value
            value = [(word, parse_value(key, word, parse)) for word in words]
        elif value is not None and parse is not None:
            value = parse_value(key, value, parse)
        setattr(args, key, value)


def given(args, keys) -> dict:
    """{key: value} for each of ``keys`` that a flag or --config value sets."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def load_analysis_inputs(args):
    onom = load_onomasticon(args.source)
    name, descriptors, observed_fields = load_hypothesis_config(args.file)
    if observed_fields is None:
        raise InputError("hypothesis config lacks an 'observed' record")
    try:
        observed = TombConfiguration(**observed_fields)
    except TypeError as exc:
        raise InputError(f"bad observed record: {exc}") from exc
    rules = RuleLedger(**given(args, RULE_PARSERS))
    return onom, name, descriptors, observed, rules, check_n2(args.n2)


def check_n2(n2: int) -> int:
    """The number of candidate tombs, which must be at least 1."""
    if n2 < 1:
        raise InputError(f"--n2 must be an integer >= 1, got {n2}")
    return n2


def scored_inputs(args):
    """(name, spec, rules, observed RR, n2); an impossible observed is an input error."""
    onom, name, descriptors, observed, rules, n2 = load_analysis_inputs(args)
    hypothesis = source_path(args.file, "baseline.cfg")
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


def cmd_analyze(args, out):
    name, spec, rules, observed_rr, n2 = scored_inputs(args)
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


def cmd_sweep(args, out):
    from .sensitivity import load_suite, run_suite
    onom, name, descriptors, observed, rules, n2 = load_analysis_inputs(args)
    suite = load_suite("bundled" if args.suite is None else args.suite)
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


def cmd_demography(args, out):
    from .demography import DemographyParams, run_pipeline
    result = run_pipeline(DemographyParams(**given(args, DEMOGRAPHY_PARSERS)))
    # the reported figures, in the result's field order; not the raw values
    rows = [(name.replace("_", "-"), Fraction(value), 6)
            for name, value in result._asdict().items() if not name.endswith("_raw")]
    emit(rows, args.format, out)
    return 0


def cmd_infer(args, out):
    from .inference import (adjusted_p, beta_of, odds_lower_bound, posterior_odds,
                            theta_lower_bound)
    q = args.q
    if q is None:
        raise InputError("infer requires --q")
    if not 0 <= q <= 1:
        raise InputError("--q must be a tail area between 0 and 1")
    n2 = check_n2(args.n2)
    if (args.theta or args.alpha) and beta_of(q, n2) >= 1:
        raise InputError("(n2-1)*q must be below 1 for the bound formulas")
    rows = [("adjusted-p", adjusted_p(q, n2), SIG),
            ("beta", beta_of(q, n2), SIG)]
    for word, theta in args.theta:
        rows.append((f"odds[theta={word}]", posterior_odds(theta, n2, q), SIG))
    for word, alpha in args.alpha:
        rows.append((f"theta-bound[alpha={word}]",
                     theta_lower_bound(alpha, n2, q), SIG))
        rows.append((f"odds-bound[alpha={word}]",
                     odds_lower_bound(alpha, n2, q), SIG))
    emit(rows, args.format, out)
    return 0


def cmd_validate_config(args, out):
    from .sensitivity import load_suite
    name, spec, *_ = scored_inputs(args)
    n_scenarios = len(load_suite(args.suite)) if args.suite else 0
    suite = f"; suite of {n_scenarios} scenarios" if n_scenarios else ""
    out.write(f"ok: hypothesis '{name}' with {len(spec.women)} women / "
              f"{len(spec.men)} men categories{suite}\n")
    return 0


def flags(*keys) -> dict:
    """{--flag: key}: --key with - for _, but an input file's flag names its file."""
    files = {"source": "--onomasticon", "file": "--hypothesis"}
    return {files.get(key, f"--{key.replace('_', '-')}"): key for key in keys}


ANALYSIS = ("config", "format", "source", "file", "n2", *RULE_PARSERS)

# command: (function, summary, {flag: the key of its setting})
COMMANDS = {
    "analyze": (cmd_analyze, "headline figures for the baseline", flags(*ANALYSIS)),
    "sweep": (cmd_sweep, "run the sensitivity scenario suite", flags(*ANALYSIS, "suite")),
    "demography": (cmd_demography, "population pipeline",
                   flags("config", "format", *DEMOGRAPHY_PARSERS)),
    "infer": (cmd_infer, "p-value, odds and confidence bounds",
              flags("config", "format", "q", "n2", *REPEATED)),
    "validate-config": (cmd_validate_config, "parse and check all inputs",
                        flags(*ANALYSIS, "suite")),
}


def parse_args(argv) -> SimpleNamespace:
    """The words of the grammar as attributes: a flag's value, its last value,
    a list for a REPEATED flag, or None. ``-h``/``--help`` ends the reading."""
    args = SimpleNamespace(command=None, config=None, help=False)
    known, words = flags("config"), iter(argv)
    commands = f"the commands are {', '.join(COMMANDS)}"
    for word in words:
        flag, eq, value = word.partition("=")
        if word in ("-h", "--help"):
            args.help = True
            break
        if args.command is None and word in COMMANDS:
            args.command, known = word, COMMANDS[word][2]
            vars(args).update({key: getattr(args, key, None) for key in known.values()})
        elif not word.startswith("--"):
            raise InputError(f"stray word {word!r}" if args.command
                             else f"unknown command {word!r}; {commands}")
        elif flag not in known:
            raise InputError(f"unknown flag {flag!r} for {args.command}" if args.command
                             else f"unknown flag {flag!r} before the command")
        elif not eq and (value := next(words, None)) is None:
            raise InputError(f"{flag} needs a value")
        else:
            key = known[flag]
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
        rows = {f"{flag} VALUE": SETTINGS[key][3] or EXPECTED[SETTINGS[key][2]]
                for flag, key in COMMANDS[command][2].items()}
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
        resolve(args, read_config(args.config))
        if args.format not in ("table", "records"):
            raise InputError(f"--format must be table or records, got {args.format!r}")
        code = COMMANDS[args.command][0](args, out)
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
