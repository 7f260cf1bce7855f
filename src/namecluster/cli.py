"""Command-line interface: analyze, explain, sweep, demography, infer.

``namecluster COMMAND [--flag VALUE | --flag=VALUE]...`` is read against
COMMANDS, the table of each command's flags: a flag's name matches exactly,
and the word after it is its value, verbatim. Each setting in SETTINGS is
resolved once: its flag, else its default, checked against onomasticon.BOUNDS.
Output is an aligned text table or JSON records of exact fractions with
decimals, byte-deterministic for identical inputs. Exit codes: 0 success, 1
computation error (or a closed stdout), 2 input error; an error is one
``error: ...`` line on stderr.

Of the commands only analyze is here: the others and the help screen are in
commands.py, which only they load, so an analyze start compiles none of it.
"""

from __future__ import annotations

import os
import sys
import warnings
# the C escaper that json.dumps calls, without the cost of importing json
from _json import encode_basestring_ascii as quoted
from types import SimpleNamespace

from .candidates import BUNDLED_HYPOTHESIS, load_hypothesis_config
from .onomasticon import BOUNDS, InputError, format_decimal, format_fraction, \
    load_onomasticon, parse_flag, parse_fraction, source_path
from .scoring import RULE_PARSERS, RuleLedger
from .tailspace import analyze

SIG = 4  # default report precision for tail areas


# what each setting parser accepts, for the error message and the help
EXPECTED = {int: "an integer", parse_fraction: "a fraction a/b or a decimal",
            parse_flag: "on/off, true/false, 1/0 or yes/no"}


def flag_of(key) -> str:
    """--key with - for _."""
    return f"--{key.replace('_', '-')}"


def parse_value(key, raw, parse):
    """``parse(raw)`` for setting ``key``; a bad value, or one outside the
    setting's BOUNDS, raises InputError naming the flag and the word."""
    try:
        value = parse(raw)
    except ValueError as exc:
        message = f"{flag_of(key)} must be {EXPECTED[parse]}, got {raw!r}"
        reason = " ".join(str(exc).split())
        if EXPECTED[parse] not in reason:  # the parser's reason adds something
            message += f" ({reason})"
        raise InputError(message) from None
    if key in BOUNDS and not BOUNDS[key][1](value):
        raise InputError(f"{flag_of(key)} must {BOUNDS[key][0]}, got {raw!r}")
    return value


DEMOGRAPHY_PARSERS = {
    "total_deceased": int, "tomb_size": int, "non_jewish_fraction": parse_fraction,
    "juvenile_fraction": parse_fraction, "literacy_affluence_fraction": parse_fraction,
    "female_male_inscription_ratio": parse_fraction}

# key: (default, value parser, help or None for EXPECTED)
SETTINGS = {
    "format": ("table", None, "table or records"),
    "onomasticon": ("bundled", None, "onomasticon table path or 'bundled'"),
    "hypothesis": ("bundled", None, "hypothesis config path or 'bundled'"),
    "n2": ("1100", int, "number of candidate tombs"),
    **{key: (None, parse, None) for key, parse in RULE_PARSERS.items()},
    "suite": ("bundled", None, "scenario suite path or 'bundled'"),
    **{key: (None, parse, None) for key, parse in DEMOGRAPHY_PARSERS.items()},
    "q": (None, parse_fraction, "tail area in [0, 1]"),
    "theta": ((), parse_fraction, "P(B|A) in (0, 1]; repeatable"),
    "alpha": ((), parse_fraction, "confidence complement in (0, 1); repeatable"),
}
REPEATED = ("theta", "alpha")  # settings that collect every value given


def resolve(args) -> None:
    """Set each setting of ``args.command`` to the flag, else the default, each
    word read by parse_value. A REPEATED setting becomes a list of (word, value)
    pairs, so a report names the word as given."""
    for key in COMMANDS[args.command][2].values():
        default, parse, _ = SETTINGS[key]
        value = getattr(args, key, default)
        if key in REPEATED:
            value = [(word, parse_value(key, word, parse)) for word in value]
        elif value is not None:
            value = parse_value(key, value, parse or str)
        setattr(args, key, value)


def given(args, keys) -> dict:
    """{key: value} for each of ``keys`` that a flag sets."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def load_analysis_inputs(args):
    onom = load_onomasticon(args.onomasticon)
    descriptors, observed = load_hypothesis_config(args.hypothesis)
    return onom, descriptors, observed, RuleLedger(**given(args, RULE_PARSERS))


def analyzed_inputs(args):
    """(rules, observed configuration, and tailspace.analyze's spec, RRValue
    and TailResult); an error of the analysis names the hypothesis."""
    onom, descriptors, observed, rules = load_analysis_inputs(args)
    try:
        return (rules, observed, *analyze(onom, descriptors, rules, observed))
    except InputError as exc:  # its candidates, its observed tomb, a space of no valid mass
        raise InputError(f"{source_path(args.hypothesis, BUNDLED_HYPOTHESIS)}: {exc}") from exc


LITERALS = {None: "null", True: "true", False: "false"}


def record_line(record: dict) -> str:
    """``json.dumps(record) + "\\n"`` for str keys and str, bool or None values."""
    return "{%s}\n" % ", ".join(
        f"{quoted(key)}: {quoted(value) if isinstance(value, str) else LITERALS[value]}"
        for key, value in record.items())


def as_written(text, out) -> str:
    """``text`` as ``out`` writes it, so that a table pads what is shown."""
    encoding, errors = getattr(out, "encoding", None), getattr(out, "errors", None)
    return text if encoding is None else text.encode(encoding, errors).decode(encoding, errors)


def emit(rows, fmt, out):
    """rows: list of (field, exact Fraction, sig)."""
    if fmt == "records":
        for field, value, sig in rows:
            out.write(record_line({"field": field, "decimal": format_decimal(value, sig),
                                   "fraction": format_fraction(value)}))
    else:
        fields = [as_written(field, out) for field, _, _ in rows]
        width = max(map(len, fields))
        for field, (_, value, sig) in zip(fields, rows):
            out.write(f"{field.ljust(width)}  {format_decimal(value, sig)}\n")


def cmd_analyze(args, out):
    *_, scored, result = analyzed_inputs(args)
    adjusted = args.n2 * result.proportion
    if adjusted > 1:  # the paper's n2*q, reported as it is
        warnings.warn("n2*q exceeds 1; adjusted-area is the unclamped n2*q")
    rows = [("observed-rr", scored.value, SIG), ("valid-mass-ratio", result.valid_ratio, SIG),
            ("proportion", result.proportion, SIG), ("adjusted-area", adjusted, SIG)]
    if args.format == "records":
        rows += [("tuple-space", result.total_mass, 10),
                 ("valid-mass", result.valid_mass, 10),
                 ("tail-mass", result.tail_mass, 10)]
    emit(rows, args.format, out)
    return 0


def flags(*keys) -> dict:
    """{--flag: key}, each flag as flag_of names it."""
    return {flag_of(key): key for key in keys}


def deferred(name):
    """A function that runs ``commands.<name>``, importing commands.py first."""
    def run(args, out):
        from importlib import import_module
        return getattr(import_module(f"{__package__}.commands"), name)(args, out)
    return run


ANALYSIS = ("onomasticon", "hypothesis", "n2", *RULE_PARSERS)  # the inputs of an analysis

# command: (function, summary, {flag: the key of its setting})
COMMANDS = {
    "analyze": (cmd_analyze, "headline figures for the baseline",
                flags("format", *ANALYSIS)),
    # n2 aside: explain prints no area
    "explain": (deferred("cmd_explain"), "the observed RR's factors and their rules",
                flags("format", *(key for key in ANALYSIS if key != "n2"))),
    "sweep": (deferred("cmd_sweep"), "run the sensitivity scenario suite",
              flags("format", *ANALYSIS, "suite")),
    "demography": (deferred("cmd_demography"), "population pipeline",
                   flags("format", *DEMOGRAPHY_PARSERS)),
    "infer": (deferred("cmd_infer"), "p-value, odds and confidence bounds",
              flags("format", "q", "n2", *REPEATED)),
}


def parse_args(argv) -> SimpleNamespace:
    """The words of the grammar as attributes: a flag's value, its last value,
    or a list for a REPEATED flag; a flag not given sets none. ``-h``/``--help``
    ends the reading."""
    args = SimpleNamespace(command=None, help=False)
    known, words = {}, iter(argv)
    commands = f"the commands are {', '.join(COMMANDS)}"
    for word in words:
        flag, eq, value = word.partition("=")
        if word in ("-h", "--help"):
            args.help = True
            break
        if args.command is None and word in COMMANDS:
            args.command, known = word, COMMANDS[word][2]
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
            setattr(args, key, getattr(args, key, []) + [value] if key in REPEATED else value)
    if args.command is None and not args.help:
        raise InputError(f"no command; {commands}")
    return args


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    # a warning is one stderr line, without its source
    formatwarning, warnings.formatwarning = \
        warnings.formatwarning, lambda message, *_: f"warning: {message}\n"
    with warnings.catch_warnings():  # each call shows its own, not once a process
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
            if args.help:
                from .commands import help_text
                out.write(help_text(args.command))
                return 0
            resolve(args)
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
        except (ValueError, OverflowError) as exc:  # a fault of the computation
            # OverflowError: a number too large for a float; the reports print
            # such figures exactly, so none is known to reach this
            print(f"computation error: {exc}", file=sys.stderr)
            return 1
        finally:
            warnings.formatwarning = formatwarning

