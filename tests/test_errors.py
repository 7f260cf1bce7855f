"""Every input error that the CLI reports, one row each, and every ``raise`` reached.

A row is (argv, outcome) or (argv, outcome, edit); argv is a str split at
whitespace, or a list of words. ``edit`` is (file, old, new): a copy of the
bundled ``file`` with ``old`` replaced by ``new``, or with the rows ``new``
appended when ``old`` is None. A file that is not bundled starts empty; bytes
are written as they are. In argv and the outcome, ``{path}`` is the copy,
``{row}`` the line on which ``new`` ends and ``{data}`` the bundled data.
A row's test id is its input: argv as written (a list of words shell-quoted),
then ``| file + new`` for an append or ``| file: old -> new`` for a
replacement. No id comes from the outcome, and no two are equal, so pytest
numbers none and adding or removing a row renames no other.

A str outcome is the stderr line after ``error: `` of an exit 2 with an empty
stdout. A dict is the one record of ``sweep --format records``, a fault in one
scenario, with exit 0 and an empty stderr. Each row runs in-process through
``cli.main``, with deprecation warnings made errors. The reach check runs every
row under a line tracer: each ``raise`` in the package is reached by a row, or
is in LIBRARY_ONLY with why no input reaches it and a library test that does.
"""

import ast
import importlib
import io
import json
import os
import shlex
import sys
import warnings
from contextlib import redirect_stderr
from functools import reduce
from pathlib import Path

import pytest

import namecluster
from namecluster.cli import main
from namecluster.onomasticon import DATA

PACKAGE = os.path.dirname(namecluster.__file__)  # as the frames of its code name it
COMMAND_LIST = "the commands are analyze, explain, sweep, demography, infer"
TABLE, HYPOTHESIS, SUITE = "onomasticon.tsv", "baseline.cfg", "scenarios.cfg"
FILE = {"--onomasticon": TABLE, "--hypothesis": HYPOTHESIS, "--suite": SUITE}
TOO_MANY = "too many values to unpack (expected "


def new_file(text, name="new.cfg"):
    return name, None, text


def from_flag(argv, flag, word, line):
    """The rows of ``argv flag word`` and ``argv flag=word``."""
    return [(argv.split() + [flag, word], line), (argv.split() + [f"{flag}={word}"], line)]


def on_each(commands, argv, outcome, edit):
    return [(f"{command} {argv}", outcome, edit) for command in commands]


BOTH = ("analyze", "explain")  # the commands that stop at a bad hypothesis
ROWS = [
    # the flag reader
    ("analyze --bogus 1", "unknown flag '--bogus' for analyze"),
    ("bogus", f"unknown command 'bogus'; {COMMAND_LIST}"),
    ("validate-config", f"unknown command 'validate-config'; {COMMAND_LIST}"),
    ("", f"no command; {COMMAND_LIST}"),
    ("analyze --n2", "--n2 needs a value"),
    ("analyze stray", "stray word 'stray'"),
    ("analyze --n 5", "unknown flag '--n' for analyze"),  # no prefix matching
    ("--format records analyze", "unknown flag '--format' before the command"),
    # settings come from flags alone: there is no config file
    ("--config x.cfg analyze", "unknown flag '--config' before the command"),
    ("analyze --config x.cfg", "unknown flag '--config' for analyze"),
    ("infer --q 1/9 --suite bundled", "unknown flag '--suite' for infer"),
    ("explain --n2 5", "unknown flag '--n2' for explain"),
    # the word after a flag is its value, verbatim
    ("demography --juvenile-fraction -1/2",
     "--juvenile-fraction must lie in [0,1], got '-1/2'"),
    ("analyze --hypothesis --help", "--help: [Errno 2] No such file or directory: '--help'"),
    # a flag's value: a word its parser rejects, with the parser's reason
    *[(f"{command} --n2 {word}", f"--n2 must be an integer >= 1, got {word!r}")
      for command in ("analyze", "infer --q 1/9") for word in ("0", "-5")],
    ("analyze --n2=0", "--n2 must be an integer >= 1, got '0'"),
    *[(f"{argv} {word}", f"{argv.split()[-1]} must be an integer, got {word!r} "
       f"(invalid literal for int() with base 10: {word!r})") for argv, word in (
        ("analyze --n2", "abc"), ("infer --q 1/9 --n2", "abc"),
        ("demography --total-deceased", "1e3"))],
    *[(f"{argv} {word}", f"{argv.split()[-1]} must be a fraction a/b or a decimal, got "
       f"{word!r} ({why})") for argv, word, why in (
        ("analyze --bonus-divisor", "1/0", "zero denominator"),
        ("analyze --bonus-divisor", "abc", "Invalid literal for Fraction: 'abc'"),
        ("analyze --unknown-son-factor", "1/0", "zero denominator"),
        ("infer --q", "1/0", "zero denominator"),
        ("infer --q 1/9999 --alpha", "1/0", "zero denominator"),
        ("infer --q 1/9999 --theta", "1/0", "zero denominator"),
        ("infer --q", "1e-999999999", "decimal exponent beyond ±4300: '1e-999999999'"),
        ("infer --q", "1e4301", "decimal exponent beyond ±4300: '1e4301'"),
        ("infer --q", "1e-5000", "decimal exponent beyond ±4300: '1e-5000'"),
        ("demography --juvenile-fraction", "1e-16000000",
         "decimal exponent beyond ±4300: '1e-16000000'"))],
    *[(f"{command} --format bogus", "--format must be table or records, got 'bogus'")
      for command in ("analyze", "explain", "sweep", "demography", "infer --q 1/9")],
    *[(f"{command} --allow-father-yeshua maybe",
       "--allow-father-yeshua must be on/off, true/false, 1/0 or yes/no, got 'maybe'")
      for command in ("analyze", "explain")],
    ("analyze --bonus-divisor 50%", "--bonus-divisor must be a fraction a/b or a decimal, "
     "got '50%' (Invalid literal for Fraction: '50%')"),
    ("sweep --count-unknown-sons enabled",
     "--count-unknown-sons must be on/off, true/false, 1/0 or yes/no, got 'enabled'"),
    ("infer --q 2", "--q must be a tail area between 0 and 1, got '2'"),
    ("infer --q=2", "--q must be a tail area between 0 and 1, got '2'"),
    ("infer --q=-1/9", "--q must be a tail area between 0 and 1, got '-1/9'"),
    ("infer --q 1e400", "--q must be a tail area between 0 and 1, got '1e400'"),
    ("infer --q 1/100000 --alpha 2", "--alpha must lie in (0,1), got '2'"),
    ("infer --q 1/100000 --alpha=0", "--alpha must lie in (0,1), got '0'"),
    # a range, from its flag in both spellings
    *[row for argv, flag, word, must in (
        ("analyze", "--bonus-divisor", "1/2", "be >= 1"),
        ("analyze", "--unknown-son-factor", "0", "be >= 1"),
        ("infer --q 1/99999", "--theta", "0", "lie in (0,1]"),
        ("infer --q 1/99999", "--alpha", "2", "lie in (0,1)"),
        ("demography", "--juvenile-fraction", "2", "lie in [0,1]"),
        ("demography", "--tomb-size", "0", "be positive"),
        ("demography", "--total-deceased", "-1", "be nonnegative"))
      for row in from_flag(argv, flag, word, f"{flag} must {must}, got {word!r}")],
    # an empty path, which would read as the current directory
    *[row for command, flag in (("analyze", "--onomasticon"), ("analyze", "--hypothesis"),
                                ("sweep", "--suite"))
      for row in from_flag(command, flag, "", f"{flag} must name a file, got ''")],
    # infer
    ("infer", "infer requires --q"),
    ("infer --q 3/2", "--q must be a tail area between 0 and 1, got '3/2'"),
    ("infer --q 1/9 --alpha abc", "--alpha must be a fraction a/b or a decimal, got 'abc' "
     "(Invalid literal for Fraction: 'abc')"),
    *[(f"infer --q {q} --n2 {n2} {flag}", f"{named} gives {infinite}")
      for q, n2, named in (("1/2", "1", "n2 = 1"), ("0", "1100", "q = 0"))
      for flag, infinite in (("--theta 1/2", "infinite odds"),
                             ("--alpha 1/20", "an infinite bound"))],
    # files that cannot be read
    *[row for flag in ("--onomasticon", "--hypothesis", "--suite") for row in (
        (f"sweep {flag} {{data}}", "{data}: [Errno 21] Is a directory: '{data}'"),
        (f"sweep {flag} {{path}}", "{path}: 'utf-8' codec can't decode byte 0xff in "
         "position 0: invalid start byte", new_file(b"\xff\xfe\x00")),
        (f"sweep {flag} /nonexistent/x.cfg", "/nonexistent/x.cfg: [Errno 2] No such file or "
         "directory: '/nonexistent/x.cfg'"))],
    ("analyze --hypothesis /nonexistent/h.cfg",
     "/nonexistent/h.cfg: [Errno 2] No such file or directory: '/nonexistent/h.cfg'"),
    ("analyze --hypothesis a\0b", "a\0b: embedded null byte"),
    # the onomasticon table: a bad row appended, so only the last row is wrong
    *[("analyze --onomasticon {path}", f"{{path}}: row {{row}}: {line}", (TABLE, None, row))
      for row, line in (
        ("generic Foo male abc", "total_persons: Invalid literal for Fraction: 'abc'"),
        ("generic Foo male 5 x", "ossuary_persons: Invalid literal for Fraction: 'x'"),
        # a row of the table's earlier grammar: a generic's option, a slice's K
        ("generic Mariam female 74 44 rahmani=18", "too many values to unpack (expected 1)"),
        ("slice Mariam MM 1 44", "too many values to unpack (expected 3)"),
        ("total male abc", "male_total: invalid literal for int() with base 10: 'abc'"),
        ("total Female 5", "gender: expected female or male, got 'Female'"),
        ("total Male abc", "gender: expected female or male, got 'Male'"),  # not Male_total
        ("total female 10", "female_total: given twice"),
        ("total female 0", "female_total must be positive"),
        ("total male -5", "male_total must be positive"),
        ("generic Joseph female 3 1", "generic: Joseph: duplicate name"),
        ("slice Mariam X x", "ossuary_matching: Invalid literal for Fraction: 'x'"),
        ("slice Mariam X 1/0", "ossuary_matching: zero denominator"),
        ("slice Mariam X -1", "ossuary_matching: Mariam/X: must satisfy 0 <= k <= K"),
        ("slice Nobody X 1", "slice generic: Nobody: unknown"),
        ("slice Mariam X 40", "slices of Mariam: implied counts exceed the generic total"),
        ("slice Mariam MM 20", "slice: Mariam/MM: duplicate label"),
        # K is the generic's alone, so a slice needs a generic with K > 0
        ("slice Cleopas x 1", "slice Cleopas/x: the generic's ossuary count is undetermined"),
        ("generic Zero male 5 0\nslice Zero z 0", "slice Zero/z: no ossuary bearers (K = 0)"),
        ("generic Zed male -5", "total_persons: Zed: negative"),
        ("generic Zed male 5 -1", "ossuary_persons: Zed: negative"),
        ("generic Zed Male 5", "gender: Zed: 'Male'"),
        ("bogus x", "unknown record kind 'bogus'"))],
    # a female Yeshua above the male one: one name is one generic
    ("analyze --onomasticon {path}", "{path}: row {row}: generic: Yeshua: duplicate name",
     (TABLE, "generic\tYeshua\tmale", "generic Yeshua female 3 1\ngeneric\tYeshua\tmale")),
    *[("analyze --onomasticon {path}", f"{{path}}: {line}",
       new_file(f"total female 10\n{row}", "onom.tsv")) for row, line in (
        ("generic X female 1/0", "row 2: total_persons: zero denominator"),
        ("generic X female 5 10", "row 2: ossuary_persons: X: exceeds total_persons"),
        ("generic X female 10 5\nslice X x 6",
         "row 3: ossuary_matching: X/x: must satisfy 0 <= k <= K"),
        ("generic X female 1", "missing 'total' record for one or both genders"))],
    ("analyze --onomasticon {path}", "{path}: row 1: not enough values to unpack "
     "(expected at least 3, got 2)", new_file("generic Broken female", "onom.tsv")),
    ("analyze --onomasticon {path}",
     "{data}/baseline.cfg: candidate mary_magdalene: slice: Mariam/MM: unknown",
     (TABLE, "slice\tMariam\tMM\t1\n", "")),
    # the hypothesis: its candidates
    *[("analyze --hypothesis {path}", f"{{path}}: row 2: {line}",
       new_file(f"# t\ncandidate p female Mariam slice:MM {option}")) for option, line in (
        ("weight=1/0", "weight: zero denominator"), ("rr=1/0", "rr: zero denominator"),
        ("scale=1/0", "scale: zero denominator"), ("weigth=1/2", "unknown option 'weigth'"),
        ("label", "expected key=value, got 'label'"),
        ("label=", "expected key=value, got 'label='"))],
    *[("analyze --hypothesis {path}", f"{{path}}: {line}", (HYPOTHESIS, old, new))
      for old, new, line in (
        ("Yeshua generic", "Yeshua generic weight=2", "category Yeshua: weight outside [0,1]"),
        ("male Yeshua", "Male Yeshua", "candidate yeshua: unknown gender 'Male'"),
        ("Yeshua generic", "Yeshua generic rr=2", "category Yeshua: rr outside (0,1]"),
        ("male Yeshua", "female Yeshua", "candidate yeshua: Yeshua is male"),
        ("Yeshua generic", "Yeshua generic weight=99/100 rr=1/2",
         "male candidates: weights exceed 1"),
        ("slice:Marya", "slice:Marya scale=4",
         "candidate mariam_sister: negative residual of Mariam"),
        ("residual label=Mariam", "residual label=Mariam rr=1/1000",
         "category Mariam: residual weight exceeds the generic rr"),
        # a class word other than generic, residual or slice:<label>
        *[(old, new, f"row {{row}}: class: expected generic, residual or slice:<label>, "
                     f"got {word!r}") for old, new, word in (
            ("Mariam slice:MM", "Mariam MM", "MM"),
            ("Yaakov generic", "Yaakov slice:generic", "slice:generic"),
            ("slice:MM", "slice:", "slice:"),
            ("Salome generic", "Salome generc", "generc"))])],
    *[row for old, new, line in (
        ("Mariam slice:MM", "Mariam slice:ZZ",
         "candidate mary_magdalene: slice: Mariam/ZZ: unknown"),
        ("Yaakov generic", "Jacob generic",
         "candidate james_brother: generic: Jacob: unknown"),
        # a second candidate that draws the persons of the generic Joseph
        ("\nobserved", "\ncandidate x male Joseph generic label=J2\nobserved",
         "candidates joseph_father and x: both draw persons of Joseph"))
      for row in on_each(BOTH, "--hypothesis {path}", f"{{path}}: {line}",
                         (HYPOTHESIS, old, new))],
    # a row of the hypothesis's earlier grammar, which named the hypothesis
    ("analyze --hypothesis {path}", "{path}: row {row}: unknown record kind 'name'",
     (HYPOTHESIS, None, "name baseline")),
    # a new person whose label, like yeshua's, resolves to Yeshua
    ("analyze --hypothesis {path}", "{path}: male categories: Yeshua: duplicate label",
     (HYPOTHESIS, None, "candidate jesus male Yeshua generic")),
    # the hypothesis: its observed record
    *on_each(BOTH, "--hypothesis {path}", "{path}: observed: duplicate woman",
             (HYPOTHESIS, "woman2=Marya", "woman2=MM")),
    *[row for old, new, named in (("woman1=MM", "woman1=Nobody", "female/Nobody"),
                                  ("son=Yeshua", "son=Mariam", "male/Mariam"))
      for row in on_each(BOTH, "--hypothesis {path}",
                         f"{{path}}: observed: category: {named}: unknown",
                         (HYPOTHESIS, old, new))],
    ("analyze --hypothesis {path}", "{path}: row {row}: expected key=value, got 'son='",
     (HYPOTHESIS, "son=Yeshua", "son=")),
    *on_each(("analyze", "sweep"), "--hypothesis {path}",
             "{path}: row {row}: observed: missing singleton1, singleton2, father, son",
             (HYPOTHESIS, " singleton1=Yoseh singleton2=Other father=Yosef son=Yeshua", "")),
    *on_each(("analyze", "sweep"), "--hypothesis {path}",
             "{path}: hypothesis config lacks an 'observed' record",
             (HYPOTHESIS, "\nobserved", "\n# observed")),
    # a space whose realism-valid tombs all have zero mass
    *[row for women, men in ((" weight=1 rr=1/2", ""), ("", " weight=1 rr=1/2"))
      for row in on_each(BOTH, "--hypothesis {path}",
                         "{path}: no realism-valid tomb has positive mass",
                         new_file(f"candidate p female Mariam generic{women}\ncandidate j "
                                  f"male Yeshua generic{men}\nobserved woman1=Mariam "
                                  "woman2=Other singleton1=Yeshua singleton2=Other "
                                  "father=Other son=Other"))],
    # a field too many, or an option given twice: the bundled file with one
    # row appended, so only that row is wrong
    *[(f"sweep {flag} {{path}}", f"{{path}}: row {{row}}: {line}",
       (FILE[flag], None, row)) for flag, row, line in (
        ("--onomasticon", "total female 317 193 junk", TOO_MANY + "2)"),
        ("--suite", "scenario a b", TOO_MANY + "1)"),
        ("--suite", "reference 1 2", TOO_MANY + "1)"),
        ("--suite", "remove mary_magdalene extra", TOO_MANY + "1)"),
        ("--suite", "scale mary_magdalene 2 3", TOO_MANY + "2)"),
        ("--hypothesis", "candidate simon male Simon generic rr=1/2 rr=101/2509",
         "rr: given twice"),
        ("--hypothesis", "observed son=Yeshua son=Yeshua", "son: given twice"),
        ("--hypothesis", "candidate yeshua male Yeshua generic",
         "candidate: yeshua: given twice"),
        ("--hypothesis", "observed woman1=Salome woman2=Marya singleton1=Yoseh "
         "singleton2=Other father=Yosef son=Yeshua", "observed: given twice"),
        ("--suite", "reference 0.5", "reference: given twice"),
        ("--suite", "add joanna2 female Joanna generic weight=1/9 weight=1/8",
         "weight: given twice"))],
    # the suite: a bad row of its one scenario, refused before any scenario
    # runs, also in records, where a scenario's own fault is a record
    *[row for delta, line in (
        ("scale mary_magdalene x", "scale: Invalid literal for Fraction: 'x'"),
        ("reference abc", "reference: Invalid literal for Fraction: 'abc'"),
        ("add joanna female Joanna generic weigth=1/2", "unknown option 'weigth'"),
        ("add joanna female Joanna generic label", "expected key=value, got 'label'"),
        ("add joanna female Joanna generic label=", "expected key=value, got 'label='"),
        ("add joanna female Joanna generc",
         "class: expected generic, residual or slice:<label>, got 'generc'"),
        ("set bonus_divisor abc", "bonus_divisor: Invalid literal for Fraction: 'abc'"),
        ("set bonus_divisor 1/0", "bonus_divisor: zero denominator"),
        ("set bogus 1", "unknown rule parameter 'bogus'"),
        ("set count_unknown_sons maybe",
         "count_unknown_sons: expected on/off, true/false, 1/0 or yes/no, got 'maybe'"),
        ("set bonus_divisor 1/2", "bonus_divisor must be >= 1"),
        ("scenario s", "scenario: s: given twice"))
      for row in on_each(("sweep", "sweep --format records"), "--suite {path}",
                         f"{{path}}: row 2: {line}", new_file(f"scenario s\n{delta}"))],
    ("sweep --suite {path}", "{path}: row 1: 'remove' record before the first scenario",
     new_file("remove x")),
    # the suite: a fault in one scenario, reported in its record
    *[("sweep --format records --suite {path}", {"scenario": "s", "error": error},
       new_file(f"scenario s\n{deltas}")) for deltas, error in (
        ("add yeshua male Yeshua generic", "candidate: yeshua: given twice"),
        ("remove nobody", "no candidate named nobody"),
        ("remove mary_magdalene\nremove mary_mother\nremove mariam_sister"
         "\nremove salome_sister\nadd a female Mariam slice:MM weight=1 rr=1/2"
         "\nadd b female Mariam slice:Marya weight=0 rr=1/2",
         "no realism-valid tomb has positive mass"))],
]


def words(argv):
    return argv.split() if isinstance(argv, str) else argv


def row_id(row):
    """The row's input as written: argv, then its edit, if any."""
    argv, _, *edit = row
    text = argv if isinstance(argv, str) else shlex.join(argv)
    for name, old, new in edit:
        text += f" | {name} + {new}" if old is None else f" | {name}: {old} -> {new}"
    return text


def run(row, tmp_path):
    """(exit code, stdout, stderr, {placeholder: value}) of one row."""
    argv, outcome, *edit = row
    values = {"data": DATA}
    for name, old, new in edit:
        path = values["path"] = tmp_path / name
        if isinstance(new, bytes):
            path.write_bytes(new)
            continue
        base = (DATA / name).read_text(encoding="utf-8") if (DATA / name).exists() else ""
        at = len(base) if old is None else base.index(old)
        path.write_text(base[:at] + new + ("\n" if old is None else base[at + len(old):]),
                        encoding="utf-8")
        values["row"] = (base[:at] + new).count("\n") + 1
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err):
        warnings.simplefilter("error", DeprecationWarning)
        code = main([word.format(**values) for word in words(argv)], out=out)
    return code, out.getvalue(), err.getvalue(), values


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_row(row, tmp_path):
    code, out, err, values = run(row, tmp_path)
    if isinstance(row[1], dict):
        assert (code, out, err) == (0, json.dumps(row[1]) + "\n", "")
    else:
        assert (code, out, err) == (2, "", f"error: {row[1].format(**values)}\n")


def test_no_two_rows_run_one_input():
    inputs = [(tuple(words(argv)), tuple(edit)) for argv, _, *edit in ROWS]
    assert len(set(inputs)) == len(inputs)


def test_no_two_rows_share_an_id():
    # pytest would number the rows of a shared id by position
    ids = [row_id(row) for row in ROWS]
    assert len(set(ids)) == len(ids)


def raises():
    """{(file, source text): its lines} of each raise in the package."""
    found = {}
    for path in Path(PACKAGE).glob("*.py"):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise):
                found[path.name, ast.get_source_segment(text, node)] = range(
                    node.lineno, node.end_lineno + 1)
    return found


# (file, a text of its raise): (why no input reaches it, a library test that does)
LIBRARY_ONLY = {
    ("candidates.py", "weights must sum to 1"): (
        "build_categories makes Other the complement",
        "test_candidates.py::test_a_spec_takes_weights_that_sum_to_exactly_1"),
    ("candidates.py", "exactly one Other"): (
        "a candidate labelled Other trips the duplicate-label check first",
        "test_candidates.py::TestSpecEdits::test_categories_without_other_rejected"),
    ("onomasticon.py", "the path is empty"): (
        "BOUNDS rejects the empty path first",
        "test_onomasticon.py::TestParsing::test_an_empty_path_names_the_table"),
    ("scoring.py", "must be True or False"): (
        "every reader parses a switch to a bool",
        "test_value_types.py::test_replace_checks_the_ledger"),
    ("sensitivity.py", "unknown delta verb"): (
        "the suite reader makes only known verbs",
        "test_sensitivity.py::TestScenarioSemantics::"
        "test_an_unknown_delta_verb_names_its_scenario"),
    ("tailspace.py", "observed RR must be positive"): (
        "score multiplies RRs in (0,1] and divides by a divisor >= 1",
        "test_tailspace.py::TestBaselineEnumeration::test_nonpositive_observed_rejected"),
}


def test_every_raise_is_reached_by_a_row_or_library_only(tmp_path):
    reached = set()  # (file, line) of each line run in the package

    def line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if os.path.dirname(frame.f_code.co_filename) == PACKAGE else None

    found, before = raises(), sys.gettrace()
    sys.settrace(call)
    try:
        for row in ROWS:
            run(row, tmp_path)
    finally:
        sys.settrace(before)
    unreached = {key for key, lines in found.items()
                 if not any((os.path.join(PACKAGE, key[0]), n) in reached for n in lines)}
    listed = set()
    for (file, text), (_, test) in LIBRARY_ONLY.items():
        key, = (key for key in found if key[0] == file and text in key[1])
        listed.add(key)
        module, *names = test.split("::")  # the test exists
        assert callable(reduce(getattr, names, importlib.import_module(module[:-3])))
    assert not unreached - listed, "raises that no row reaches"
    assert not listed - unreached, "LIBRARY_ONLY raises that a row reaches"
