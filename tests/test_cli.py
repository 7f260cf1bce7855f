"""Command-line surface: output formats, determinism, exit codes."""

import ast
import functools
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namecluster import cli
from namecluster.cli import COMMANDS, SETTINGS, main
from namecluster.onomasticon import parse_flag, parse_fraction

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestAnalyze:
    def test_headline_table(self):
        code, text = run_cli("analyze")
        assert code == 0
        lines = text.splitlines()
        assert lines[0].split() == ["observed-rr", "1.449e-08"]
        assert lines[1].split() == ["valid-mass-ratio", "0.906"]
        assert lines[2].split() == ["proportion", "5.491e-07"]
        assert lines[3].split() == ["adjusted-area", "0.0006041"]

    def test_records_mode_is_exact_and_round_trips(self):
        code, text = run_cli("analyze", "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in text.splitlines()]
        by_field = {r["field"]: r for r in records}
        assert by_field["tuple-space"]["fraction"] == "3982182593561618329"
        for record in records:
            sig = len(record["decimal"].lstrip("-0.").split("e")[0].replace(".", ""))
            redrawn = f"{float(parse_fraction(record['fraction'])):.{sig}g}"
            assert redrawn == record["decimal"]

    def test_byte_determinism(self, tmp_path):
        assert run_cli("analyze") == run_cli("analyze")
        suite = tmp_path / "suite.cfg"
        suite.write_text("scenario a\nset bonus_divisor 1\nreference 0.000726\n\n"
                         "scenario b\nscale mary_magdalene 2\nreference 0.000953\n",
                         encoding="utf-8")
        first = run_cli("sweep", "--suite", str(suite), "--format", "records")
        assert first == run_cli("sweep", "--suite", str(suite), "--format", "records")

    def test_rule_override_flag(self):
        code, text = run_cli("analyze", "--bonus-divisor", "1")
        assert code == 0
        assert "0.000726" in text

    @pytest.mark.parametrize("on, off", [("on", "off"), ("TRUE", "False"),
                                         ("1", "0"), ("Yes", "no")])
    def test_every_flag_spelling_reads_the_same(self, on, off):
        assert run_cli("analyze", "--bonus-divisor", "1",
                       "--require-yeshua-in-tomb", on,
                       "--count-unknown-sons", off) \
            == run_cli("analyze", "--bonus-divisor", "1",
                       "--require-yeshua-in-tomb", "on",
                       "--count-unknown-sons", "off")

    @pytest.mark.parametrize("q", ["0", "1", "1e-4300"])
    def test_q_at_its_bounds_is_accepted(self, q):
        assert run_cli("infer", "--q", q, "--n2", "1")[0] == 0


@settings(max_examples=150, deadline=None)
@given(argv=st.sampled_from([["analyze", "--bonus-divisor"], ["infer", "--q"],
                             ["demography", "--total-deceased"],
                             ["analyze", "--format"]]),
       value=st.text())
def test_arbitrary_flag_text_ends_in_an_exit_code(argv, value):
    command, flag = argv
    assert main([command, f"{flag}={value}"], out=io.StringIO()) in (0, 1, 2)


class TestFlagReader:
    """The grammar COMMAND [--flag VALUE | --flag=VALUE]..."""

    def test_repeated_flags(self):
        assert run_cli("analyze", "--bonus-divisor", "6/5", "--bonus-divisor", "1") \
            == run_cli("analyze", "--bonus-divisor=1")
        code, text = run_cli("infer", "--q", "1/9999999", "--theta", "1",
                             "--theta=1/2", "--alpha", "1/20")
        assert code == 0
        assert [line.split()[0] for line in text.splitlines()] == [
            "adjusted-p", "beta", "odds[theta=1]", "odds[theta=1/2]",
            "theta-bound[alpha=1/20]", "odds-bound[alpha=1/20]"]

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--help", "analyze"]])
    def test_help_lists_the_commands(self, argv):
        code, text = run_cli(*argv)
        assert code == 0
        assert text.startswith("usage: namecluster COMMAND")
        assert [line.split()[0] for line in text.splitlines()[2:]] == list(COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_help_lists_its_flags(self, command):
        code, text = run_cli(command, "-h", "--bogus")
        assert code == 0
        listed = [line.split()[0] for line in text.splitlines()[2:]]
        assert listed == list(COMMANDS[command][2])
        assert "--format" in listed
        assert ("--n2" in listed) == (command not in ("demography", "explain"))


# every word the reader knows, and some it does not
WORDS = sorted({*COMMANDS, "-h", *(flag for _, _, flags in COMMANDS.values()
                                   for flag in flags)})


@settings(max_examples=120, deadline=None)
@given(argv=st.lists(st.one_of(st.sampled_from(WORDS), st.text(max_size=8)),
                     max_size=6))
def test_arbitrary_argv_ends_in_an_exit_code(argv):
    assert main(argv, out=io.StringIO()) in (0, 1, 2)


# the help screens, word for word: `namecluster --help` and each `COMMAND --help`
HELP = {
    "": (
        "usage: namecluster COMMAND [--flag VALUE]...\n"
        "commands:\n"
        "  analyze     headline figures for the baseline\n"
        "  explain     the observed RR's factors and their rules\n"
        "  sweep       run the sensitivity scenario suite\n"
        "  demography  population pipeline\n"
        "  infer       p-value, odds and confidence bounds\n"),
    "analyze": (
        "usage: namecluster analyze [--flag VALUE]...\n"
        "headline figures for the baseline:\n"
        "  --format VALUE                  table or records\n"
        "  --onomasticon VALUE             onomasticon table path or 'bundled'\n"
        "  --hypothesis VALUE              hypothesis config path or 'bundled'\n"
        "  --n2 VALUE                      number of candidate tombs\n"
        "  --bonus-divisor VALUE           a fraction a/b or a decimal\n"
        "  --unknown-son-factor VALUE      a fraction a/b or a decimal\n"
        "  --require-yeshua-in-tomb VALUE  on/off, true/false, 1/0 or yes/no\n"
        "  --allow-father-yeshua VALUE     on/off, true/false, 1/0 or yes/no\n"
        "  --count-unknown-sons VALUE      on/off, true/false, 1/0 or yes/no\n"),
    "explain": (
        "usage: namecluster explain [--flag VALUE]...\n"
        "the observed RR's factors and their rules:\n"
        "  --format VALUE                  table or records\n"
        "  --onomasticon VALUE             onomasticon table path or 'bundled'\n"
        "  --hypothesis VALUE              hypothesis config path or 'bundled'\n"
        "  --bonus-divisor VALUE           a fraction a/b or a decimal\n"
        "  --unknown-son-factor VALUE      a fraction a/b or a decimal\n"
        "  --require-yeshua-in-tomb VALUE  on/off, true/false, 1/0 or yes/no\n"
        "  --allow-father-yeshua VALUE     on/off, true/false, 1/0 or yes/no\n"
        "  --count-unknown-sons VALUE      on/off, true/false, 1/0 or yes/no\n"),
    "sweep": (
        "usage: namecluster sweep [--flag VALUE]...\n"
        "run the sensitivity scenario suite:\n"
        "  --format VALUE                  table or records\n"
        "  --onomasticon VALUE             onomasticon table path or 'bundled'\n"
        "  --hypothesis VALUE              hypothesis config path or 'bundled'\n"
        "  --n2 VALUE                      number of candidate tombs\n"
        "  --bonus-divisor VALUE           a fraction a/b or a decimal\n"
        "  --unknown-son-factor VALUE      a fraction a/b or a decimal\n"
        "  --require-yeshua-in-tomb VALUE  on/off, true/false, 1/0 or yes/no\n"
        "  --allow-father-yeshua VALUE     on/off, true/false, 1/0 or yes/no\n"
        "  --count-unknown-sons VALUE      on/off, true/false, 1/0 or yes/no\n"
        "  --suite VALUE                   scenario suite path or 'bundled'\n"),
    "demography": (
        "usage: namecluster demography [--flag VALUE]...\n"
        "population pipeline:\n"
        "  --format VALUE                         table or records\n"
        "  --total-deceased VALUE                 an integer\n"
        "  --tomb-size VALUE                      an integer\n"
        "  --non-jewish-fraction VALUE            a fraction a/b or a decimal\n"
        "  --juvenile-fraction VALUE              a fraction a/b or a decimal\n"
        "  --literacy-affluence-fraction VALUE    a fraction a/b or a decimal\n"
        "  --female-male-inscription-ratio VALUE  a fraction a/b or a decimal\n"),
    "infer": (
        "usage: namecluster infer [--flag VALUE]...\n"
        "p-value, odds and confidence bounds:\n"
        "  --format VALUE  table or records\n"
        "  --q VALUE       tail area in [0, 1]\n"
        "  --n2 VALUE      number of candidate tombs\n"
        "  --theta VALUE   P(B|A) in (0, 1]; repeatable\n"
        "  --alpha VALUE   confidence complement in (0, 1); repeatable\n"),
}


@pytest.mark.parametrize("command", list(HELP), ids=["top", *COMMANDS])
def test_help_screens_are_word_for_word(command):
    assert run_cli(*filter(None, [command, "--help"])) == (0, HELP[command])


def records_of(*argv):
    """{field: exact value} of ``argv`` run with --format records."""
    code, text = run_cli(*argv, "--format", "records")
    assert code == 0
    return {r["field"]: Fraction(r["fraction"]) for r in map(json.loads, text.splitlines())}


class TestExplain:
    def test_records_of_the_bundled_inputs(self):
        explained = records_of("explain")
        for gender in ("female", "male"):
            weights = [v for f, v in explained.items() if f.startswith(f"weight[{gender}/")]
            assert len(weights) == 5 and sum(weights) == 1
        # the observed father Yosef is no singleton and a Yoseh is present
        assert explained["father[Yosef] R8"] == Fraction(17, 193)
        assert explained["son[Yeshua] R8"] == Fraction(101, 2509)
        assert explained["unknown-son-factor R8"] == 1
        assert explained["bonus-divisor R14"] == explained["bonus-applied"] == Fraction(6, 5)
        assert list(explained)[-5:] == ["women-part", "singleton-part",
                                        "generational-part", "bonus-applied", "value"]
        assert explained["value"] == records_of("analyze")["observed-rr"]

    @pytest.mark.parametrize("argv", [
        [], ["--bonus-divisor", "7/3", "--unknown-son-factor", "5/2"]],
        ids=["bundled", "fractional-rules"])
    def test_the_table_has_the_records_rows(self, argv):
        code, text = run_cli("explain", *argv)
        assert code == 0
        assert [line.rsplit(None, 1)[0] for line in text.splitlines()] == list(
            records_of("explain", *argv))

    def test_rule_flags_reach_the_factors(self):
        argv = ["--bonus-divisor", "7/3", "--unknown-son-factor", "5/2"]
        explained = records_of("explain", *argv)
        assert explained["bonus-divisor R14"] == Fraction(7, 3)
        assert explained["value"] == records_of("analyze", *argv)["observed-rr"]


class TestSweep:
    def test_table_has_all_rows_and_match_column(self):
        code, text = run_cli("sweep")
        lines = text.splitlines()
        assert code == 0
        assert lines[0].split()[:2] == ["scenario", "adjusted"]
        assert len(lines) == 1 + 42
        assert "require-yeshua" in lines[1]
        assert lines[1].rstrip().endswith("yes")

    def test_records_mode(self):
        code, text = run_cli("sweep", "--format", "records")
        records = [json.loads(line) for line in text.splitlines()]
        assert code == 0
        assert len(records) == 42
        first = records[0]
        assert first["scenario"] == "require-yeshua"
        assert first["match"] is True
        assert parse_fraction(first["adjusted_fraction"]) > 0

    def test_records_of_hostile_scenario_names_parse_back(self, tmp_path):
        names = ['say"hi"', "back\\slash", "café", "smile😀", 'all"\\é😀']
        suite = tmp_path / "suite.cfg"
        suite.write_text("".join(f"scenario {name}\nset bonus_divisor 1\n\n"
                                 for name in names), encoding="utf-8")
        code, text = run_cli("sweep", "--suite", str(suite), "--format", "records")
        assert code == 0
        assert [json.loads(line)["scenario"] for line in text.splitlines()] == names
        assert text.isascii()

    @pytest.mark.parametrize("delta, error", [
        ("remove nobody", "no candidate named nobody"),
        ("add x male Joseph generic label=J2",
         "candidates joseph_father and x: both draw persons of Joseph")],
        ids=["unknown-person", "overlap"])
    def test_bad_delta_errors_only_its_row(self, delta, error, tmp_path):
        suite = tmp_path / "suite.cfg"
        suite.write_text(f"scenario broken\n{delta}\n\n"
                         "scenario fine\nset bonus_divisor 1\nreference 0.000726\n",
                         encoding="utf-8")
        code, text = run_cli("sweep", "--suite", str(suite))
        assert code == 0
        lines = text.splitlines()
        assert lines[1].split(None, 1) == ["broken", f"error: {error}"]
        assert lines[2].rstrip().endswith("yes")
        code, text = run_cli("sweep", "--suite", str(suite), "--format", "records")
        assert code == 0
        assert json.loads(text.splitlines()[0]) == {"scenario": "broken", "error": error}

    def test_each_row_is_named_from_its_scenario_in_suite_order(self, tmp_path):
        # ok, failing, ok: the reports hold no names, so each row must take
        # its name and reference from the scenario at its position
        suite = tmp_path / "suite.cfg"
        suite.write_text("scenario first\nset bonus_divisor 1\nreference 0.000726\n"
                         "scenario bad\nremove nobody\nreference 0.5\n"
                         "scenario last\nremove salome_sister\n", encoding="utf-8")
        code, text = run_cli("sweep", "--suite", str(suite))
        assert code == 0
        assert [row.split() for row in text.splitlines()[1:]] == [
            ["first", "0.0007261", "0.000726", "yes"],
            ["bad", "error:", "no", "candidate", "named", "nobody"],
            ["last", "0.0003673", "-", "-"]]
        code, text = run_cli("sweep", "--suite", str(suite), "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in text.splitlines()]
        assert [record["scenario"] for record in records] == ["first", "bad", "last"]
        assert [record.get("reference") for record in records] == ["0.000726", None, None]
        assert records[1] == {"scenario": "bad", "error": "no candidate named nobody"}

    @pytest.mark.parametrize("old, new, error", [
        ("woman2=Marya", "woman2=MM", "observed: duplicate woman"),
        ("Mariam slice:MM", "Mariam slice:ZZ",
         "candidate mary_magdalene: slice: Mariam/ZZ: unknown"),
        ("Yaakov generic", "Jacob generic", "candidate james_brother: generic: Jacob: unknown"),
        # a second candidate that draws the persons of the generic Joseph
        ("\nobserved", "\ncandidate x male Joseph generic label=J2\nobserved",
         "candidates joseph_father and x: both draw persons of Joseph")],
        ids=["impossible-observed", "unknown-slice", "unknown-generic", "overlap"])
    def test_a_bad_hypothesis_errors_every_row(self, old, new, error, tmp_path):
        hypothesis = tmp_path / "h.cfg"
        baseline = (SRC / "namecluster" / "data" / "baseline.cfg").read_text(encoding="utf-8")
        hypothesis.write_text(baseline.replace(old, new), encoding="utf-8")
        code, text = run_cli("sweep", "--hypothesis", str(hypothesis))
        rows = text.splitlines()[1:]
        assert code == 0 and len(rows) == 42
        assert all(row.split(None, 1)[1] == f"error: {error}" for row in rows)

    @pytest.mark.parametrize("suite, env", [
        ("# nothing here\n", {}), ("scenario a\n\nscenario bb\n", {}),
        ("scenario café\n", ASCII_LOCALE)],
        ids=["empty", "short-names", "escaped-name"])
    def test_the_header_aligns_with_its_rows(self, suite, env, tmp_path):
        # names shorter than the word "scenario" still leave the columns
        # aligned, and so does a name that stdout writes escaped ("caf\xe9")
        path = tmp_path / "suite.cfg"
        path.write_text(suite, encoding="utf-8")
        run = run_python("-m", "namecluster", "sweep", "--suite", str(path), **env)
        header, *rows = run.stdout.splitlines()
        assert (run.returncode, run.stderr) == (0, "")
        assert len(rows) == suite.count("scenario")
        end = header.index("adjusted") + len("adjusted")
        for row in rows:
            name, figure = row.split()[:2]
            assert row.index(figure, len(name)) + len(figure) == end


class TestDemographyAndInfer:
    def test_demography_defaults(self):
        code, text = run_cli("demography")
        assert code == 0
        values = dict(line.split() for line in text.splitlines())
        assert values["deceased-per-gender"] == "66100"
        assert values["inscribed-males"] == "4370"
        assert values["inscribed-females"] == "2185"
        assert values["trials"] == "1100"

    def test_infer_grid(self):
        code, text = run_cli(
            "infer", "--q", "253644329313582025/461894801863030415245482",
            "--theta", "1", "--alpha", "1/20")
        assert code == 0
        values = dict(line.split() for line in text.splitlines())
        assert values["adjusted-p"] == "0.0006041"
        assert values["odds[theta=1]"] == "1657"
        assert values["theta-bound[alpha=1/20]"] == "0.04943"
        assert values["odds-bound[alpha=1/20]"] == "81.9"

    def test_overlarge_adjusted_p_is_clamped(self):
        with pytest.warns(UserWarning, match="clamped"):
            code, text = run_cli("infer", "--q", "1/2", "--n2", "1000")
        assert code == 0
        assert text.splitlines()[0].split()[1] == "1"

    def test_odds_at_beta_of_one_or_more_are_theta_over_beta(self):
        # beta = 9 * 1/3 = 3; the odds need no bound formula
        with pytest.warns(UserWarning, match="clamped"):
            code, text = run_cli("infer", "--q", "1/3", "--n2", "10", "--theta", "1")
        assert code == 0
        values = dict(line.split() for line in text.splitlines())
        assert (values["beta"], values["odds[theta=1]"]) == ("3", "0.3333")


class TestFiguresBeyondTheFloatRange:
    BIG = str(10 ** 400)

    def test_records_of_fractions_beyond_the_int_to_str_limit(self):
        code, text = run_cli("infer", "--q", "1e-4300", "--theta", "1",
                             "--alpha", "1/20", "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["field"] for r in records] == [
            "adjusted-p", "beta", "odds[theta=1]", "theta-bound[alpha=1/20]",
            "odds-bound[alpha=1/20]"]
        power = "1" + "0" * 4300  # 10**4300, 4,301 digits
        assert records[1]["fraction"] == "1099/" + power
        assert records[2]["fraction"] == power + "/1099"

    def test_infer_tiny_q(self):
        code, text = run_cli("infer", "--q", "1e-400", "--theta", "1")
        assert code == 0
        assert dict(line.split() for line in text.splitlines()) == {
            "adjusted-p": "1.1e-397", "beta": "1.099e-397",
            "odds[theta=1]": "9.099e+396"}

    def test_analyze_huge_n2(self):
        with pytest.warns(UserWarning, match=r"n2\*q exceeds 1"):
            code, text = run_cli("analyze", "--n2", self.BIG, "--format", "records")
        assert code == 0
        by_field = {r["field"]: r for r in map(json.loads, text.splitlines())}
        area = by_field["adjusted-area"]
        assert area["decimal"] == "5.491e+393"
        assert parse_fraction(area["fraction"]) \
            == 10 ** 400 * parse_fraction(by_field["proportion"]["fraction"])
        with pytest.warns(UserWarning, match=r"n2\*q exceeds 1"):
            assert run_cli("analyze", "--n2", self.BIG)[0] == 0

    def test_sweep_huge_n2(self):
        with pytest.warns(UserWarning, match=r"n2\*q exceeds 1"):
            code, text = run_cli("sweep", "--n2", self.BIG, "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 42
        assert records[0]["adjusted"] == "5.018e+393"
        assert all(r["match"] is False for r in records)
        with pytest.warns(UserWarning, match=r"n2\*q exceeds 1"):
            assert run_cli("sweep", "--n2", self.BIG)[0] == 0

    def test_demography_huge_total(self):
        code, text = run_cli("demography", "--total-deceased", self.BIG)
        assert code == 0
        assert dict(line.split() for line in text.splitlines())[
            "deceased-per-gender"] == "5e+399"


def run_python(*args, **env):
    """``python args`` in a fresh interpreter that imports this checkout's src,
    with the environment variables ``env`` set; its output is read as UTF-8."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, encoding="utf-8",
                          timeout=120, env=dict(os.environ, PYTHONPATH=path, **env))


def run_process(*argv):
    """``python -m namecluster argv`` in a fresh interpreter."""
    return run_python("-m", "namecluster", *argv)


WARNINGS = [
    (["infer", "--q", "1/3", "--n2", "10"],
     ["warning: n2*q exceeds 1; reporting the clamped bound 1"]),
    (["infer", "--q", "1/3000", "--n2", "10", "--alpha", "1/1000"],
     ["warning: alpha <= beta: the bound degenerates to 0"] * 2),
    # the adjusted area stays the paper's unclamped n2*q; only stderr tells
    (["analyze", "--n2", "10000000"],
     ["warning: n2*q exceeds 1; adjusted-area is the unclamped n2*q"]),
    (["sweep", "--n2", "10000000"],
     ["warning: n2*q exceeds 1 in 42 of 42 scenarios; adjusted is the unclamped n2*q"]),
    # beta = 999/2 >= 1: each bound degenerates to 0 under its own alpha <= beta
    (["infer", "--q", "1/2", "--n2", "1000", "--alpha", "1/20"],
     ["warning: n2*q exceeds 1; reporting the clamped bound 1"]
     + ["warning: alpha <= beta: the bound degenerates to 0"] * 2),
]


@pytest.mark.parametrize("argv, warning", WARNINGS)
def test_warnings_are_one_stderr_line_each(argv, warning):
    run = run_process(*argv)
    with pytest.warns(UserWarning):
        assert (run.returncode, run.stdout) == run_cli(*argv)
    assert run.returncode == 0
    assert run.stderr.splitlines() == warning


@pytest.mark.parametrize("argv, warning", WARNINGS)
def test_each_main_call_shows_its_own_warnings(argv, warning):
    # Python shows a warning once per code location and interpreter by default
    code = ("import io\nfrom namecluster.cli import main\n"
            f"for _ in range(2):\n    main({argv!r}, out=io.StringIO())\n")
    run = run_python("-c", code)
    assert (run.returncode, run.stdout) == (0, "")
    assert run.stderr.splitlines() == warning * 2


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_the_bundled_n2_gives_an_empty_stderr(command):
    run = run_process(command, "--format", "records")
    assert run.returncode == 0
    assert run.stdout == (ROOT / "perfbench" / "expected"
                          / f"{command}.records").read_text(encoding="utf-8")
    assert run.stderr == ""


@pytest.mark.parametrize("argv", [
    "analyze", "explain", "sweep", "demography", "infer --q 1/9999",
    "infer --q 5.491387e-7 --theta 1 --alpha 1/20", "analyze --format records",
    "explain --format records", "sweep --format records", "demography --format records",
    "infer --q 1/9999 --format records",
    "infer --q 5.491387e-7 --theta 1 --alpha 1/20 --format records",
    "--help", "analyze --help", "explain --help", "sweep --help", "demography --help",
    "infer --help"])
def test_no_command_reads_a_file_in_the_locale_encoding(argv):
    # every command in each format, and every help screen, with deprecation
    # warnings made errors too
    words = argv.split()
    run = run_python("-W", "error::DeprecationWarning", "-X", "warn_default_encoding",
                     "-W", "error::EncodingWarning", "-m", "namecluster", *words)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == run_cli(*words)[1]



def test_a_suite_reads_the_same_under_an_ascii_locale(tmp_path):
    suite = tmp_path / "u.cfg"
    suite.write_text("scenario café\nset bonus_divisor 1\n", encoding="utf-8")
    argv = ("-m", "namecluster", "sweep", "--suite", str(suite), "--format", "records")
    utf8 = run_python(*argv, PYTHONUTF8="1")
    ascii_ = run_python(*argv, **ASCII_LOCALE)
    assert (utf8.returncode, utf8.stderr) == (ascii_.returncode, ascii_.stderr) == (0, "")
    assert ascii_.stdout == utf8.stdout
    assert json.loads(utf8.stdout)["scenario"] == "café"
    # a table writes what the locale cannot encode as a backslash escape
    utf8 = run_python(*argv[:-2], PYTHONUTF8="1")
    ascii_ = run_python(*argv[:-2], **ASCII_LOCALE)
    assert (utf8.returncode, utf8.stderr) == (ascii_.returncode, ascii_.stderr) == (0, "")
    assert utf8.stdout.splitlines()[1].split()[0] == "café"
    assert ascii_.stdout.splitlines()[1].split()[0] == "caf\\xe9"


def test_a_non_ascii_label_is_explained_under_an_ascii_locale(tmp_path):
    hypothesis = tmp_path / "h.cfg"
    baseline = (SRC / "namecluster" / "data" / "baseline.cfg").read_text(encoding="utf-8")
    hypothesis.write_text(baseline.replace("female Salome generic",
                                           "female Salome generic label=Salomé"),
                          encoding="utf-8")
    run = run_python("-m", "namecluster", "explain", "--hypothesis", str(hypothesis),
                     **ASCII_LOCALE)
    assert (run.returncode, run.stderr) == (0, "")
    assert "weight[female/Salom\\xe9]" in run.stdout.split()
    assert run.stdout.isascii()
    # each figure starts in the one column after the escaped fields
    assert len({line.rindex(" ") for line in run.stdout.splitlines()}) == 1


class TestRecordLine:
    """cli.record_line writes exactly what json.dumps writes, plus a newline."""

    # st.characters() alone seldom draws a text of printable ASCII only, in
    # which a quote or a backslash must still be escaped, and a surrogate
    # (category Cs) almost never
    TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12) \
        | st.text(st.characters() | st.characters(categories=["Cs"]), max_size=12)

    @settings(max_examples=400, deadline=None)
    @given(record=st.dictionaries(TEXT, st.one_of(TEXT, st.none(), st.booleans()),
                                  max_size=5))
    def test_equals_json_dumps(self, record):
        assert cli.record_line(record) == json.dumps(record) + "\n"

    @pytest.mark.parametrize("text, written", [
        ('"\\\n\r\t\b\f', '"\\"\\\\\\n\\r\\t\\b\\f"'),
        ("\x00\x1f\x7f é", '"\\u0000\\u001f\\u007f \\u00e9"'),
        ("😀", '"\\ud83d\\ude00"'),
        ("\ud800", '"\\ud800"')])
    def test_escapes(self, text, written):
        assert cli.record_line({"k": text, "n": None, "t": True, "f": False}) \
            == f'{{"k": {written}, "n": null, "t": true, "f": false}}\n'


def test_a_closed_stdout_ends_without_a_word_on_stderr(tmp_path):
    # a table far longer than a pipe holds, so the reader closes mid-write
    suite = tmp_path / "long.cfg"
    suite.write_text("".join(f"scenario {'s' * 200}{i}\nremove nobody\n"
                             for i in range(1000)), encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with subprocess.Popen([sys.executable, "-m", "namecluster", "sweep",
                           "--suite", str(suite)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=path)) as run:
        assert run.stdout.readline().startswith(b"scenario ")
        run.stdout.close()
        assert run.wait(timeout=120) == 1
        assert run.stderr.read() == b""


class TestExitPath:
    """``python -m namecluster`` and the installed script run __main__.run:
    main, then gc.freeze, then Python's own exit."""

    SCRIPT = ("import atexit, runpy, sys\n"
              "atexit.register(print, 'atexit ran')\n"
              "sys.argv = ['namecluster', *{argv!r}]\n"
              "runpy.run_module('namecluster', run_name='__main__', alter_sys=True)\n")

    @pytest.mark.parametrize("argv, code, err", [
        (["analyze"], 0, ""),
        (["analyze", "--bogus", "1"], 2, "error: unknown flag '--bogus' for analyze\n")])
    def test_an_atexit_handler_runs_and_the_exit_code_is_mains(self, argv, code, err):
        run = run_python("-c", self.SCRIPT.format(argv=argv))
        out = io.StringIO()
        assert run.returncode == code == main(argv, out=out)
        assert run.stdout == out.getvalue() + "atexit ran\n"
        assert run.stderr == err

    def test_main_in_process_leaves_the_collector_as_it_was(self):
        enabled = gc.isenabled()
        assert run_cli("analyze")[0] == 0
        assert main(["analyze", "--bogus", "1"], out=io.StringIO()) == 2
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() == enabled

    @pytest.mark.parametrize("fault", [ValueError("observed RR must be positive"),
                                       OverflowError("integer division result too large")])
    def test_a_fault_of_the_computation_exits_1_with_one_line(self, fault, monkeypatch,
                                                              capsys):
        def fails(args, out):
            raise fault
        _, summary, flags = COMMANDS["analyze"]
        monkeypatch.setitem(COMMANDS, "analyze", (fails, summary, flags))
        assert run_cli("analyze") == (1, "")
        assert capsys.readouterr().err == f"computation error: {fault}\n"

    def test_importing_the_entry_runs_nothing(self):
        run = run_python("-c", "import namecluster.__main__")
        assert (run.returncode, run.stdout, run.stderr) == (0, "", "")

    def test_the_installed_script_calls_the_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        with open(ROOT / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["scripts"]["namecluster"] == "namecluster.__main__:run"


# a good value of each typed setting, one that changes the output, and a bad
# value for each parser
GOOD = {"n2": "1000", "bonus_divisor": "1", "unknown_son_factor": "2",
        "require_yeshua_in_tomb": "on", "allow_father_yeshua": "on",
        "count_unknown_sons": "off", "total_deceased": "50000", "tomb_size": "4",
        "non_jewish_fraction": "1/10", "juvenile_fraction": "1/3",
        "literacy_affluence_fraction": "1/5", "female_male_inscription_ratio": "1/3",
        "q": "1/99999", "theta": "1/2", "alpha": "1/20"}
BAD = {int: "1e3", parse_fraction: "1/0", parse_flag: "maybe"}


@pytest.mark.parametrize("key", [key for key, (_, parse, _) in SETTINGS.items()
                                 if parse is not None])
def test_every_typed_setting_reads_its_flag(key, capsys):
    _, parse, _ = SETTINGS[key]
    # the first command that reads the setting, with the --q that infer needs
    argv = [next(name for name, (_, _, flags) in COMMANDS.items() if key in flags.values())]
    if argv == ["infer"] and key != "q":
        argv += ["--q", "1/99999"]
    flag = cli.flag_of(key)
    # a bad value: exit 2 and one line, which names the flag
    assert run_cli(*argv, flag, BAD[parse]) == (2, "")
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and flag in err
    # a good value: an output that is not the default's
    code, text = run_cli(*argv, flag, GOOD[key])
    assert code == 0 and text != run_cli(*argv)[1]


@functools.cache
def modules_loaded_by(*argv):
    """Modules a fresh interpreter loads to run ``main(argv)``, started once
    per distinct ``argv``."""
    run = run_python("-c", "import io, sys\nbefore = set(sys.modules)\n"
                           "from namecluster.cli import main\n"
                           f"main({list(argv)!r}, out=io.StringIO())\n"
                           "print(*sorted(set(sys.modules) - before))")
    assert run.returncode == 0, run.stderr
    return frozenset(run.stdout.split())


def referred_names(tree):
    """The words that ``tree`` refers to: its names, attributes, import aliases
    and strings, since deferred looks a command up by its name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


class TestImports:
    UNUSED_BY_ANALYZE = {"namecluster.sensitivity", "namecluster.demography",
                         "namecluster.inference", "namecluster.commands",
                         "configparser", "argparse", "gettext", "locale"}

    def test_analyze_loads_only_what_it_runs(self):
        loaded = modules_loaded_by("analyze", "--format", "records")
        assert "namecluster.tailspace" in loaded
        assert not loaded & self.UNUSED_BY_ANALYZE

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["analyze", "--format", "records"], ["sweep"],
        ["sweep", "--format", "records"], ["demography", "--format", "records"],
        ["infer", "--q", "1/9999", "--theta", "1", "--format", "records"],
        ["explain", "--format", "records"]],
        ids=["analyze", "analyze-records", "sweep", "sweep-records",
             "demography-records", "infer-records", "explain-records"])
    def test_no_command_loads_json(self, argv):
        # records are written by cli.record_line; json would cost 2.5 ms a start.
        # Settings come from flags alone, so no start reads an INI file either
        assert not modules_loaded_by(*argv) & {"json", "configparser"}

    def test_explain_loads_only_what_it_runs(self):
        loaded = modules_loaded_by("explain", "--format", "records")
        assert "namecluster.commands" in loaded
        assert not loaded & {"namecluster.sensitivity", "namecluster.demography",
                             "namecluster.inference", "configparser"}

    def test_sweep_loads_sensitivity(self):
        assert "namecluster.sensitivity" in modules_loaded_by("sweep")

    @pytest.mark.parametrize("argv", [["sweep"], ["demography"],
                                      ["infer", "--q", "1/9999"], ["--help"]],
                             ids=["sweep", "demography", "infer", "help"])
    def test_every_other_command_and_the_help_load_commands(self, argv):
        # analyze alone runs without compiling the other commands' code
        assert "namecluster.commands" in modules_loaded_by(*argv)

    @pytest.mark.parametrize("argv", [["analyze"], ["sweep"], ["demography"], ["explain"]])
    def test_no_command_loads_dataclasses(self, argv):
        # the value types subclass collections.namedtuple, about 0.2 ms each to
        # build; dataclasses would bring inspect, ast, dis and tokenize into
        # every start
        assert "dataclasses" not in modules_loaded_by(*argv)

    @pytest.mark.parametrize("argv", [["analyze"], ["sweep"], ["demography"],
                                      ["infer", "--q", "1/9999", "--theta", "1"],
                                      ["explain"]],
                             ids=["analyze", "sweep", "demography", "infer", "explain"])
    def test_no_command_loads_argparse(self, argv):
        # the flags are read from COMMANDS; argparse would bring gettext and locale
        assert not modules_loaded_by(*argv) & {"argparse", "gettext", "locale"}

    def test_every_public_name_has_a_caller(self):
        # each top-level def or class without a leading _ is referred to in
        # src/namecluster/ outside its own definition
        public, referred = set(), set()
        for path in (SRC / "namecluster").glob("*.py"):
            for statement in ast.parse(path.read_text(encoding="utf-8")).body:
                name = getattr(statement, "name", "_")
                if not name.startswith("_"):
                    public.add(name)
                referred.update(word for word in referred_names(statement) if word != name)
        assert not public - referred

    def test_src_stays_within_its_line_budget(self):
        # ROADMAP item 7: what the planned features may add, net, to src/
        lines = sum(path.read_bytes().count(b"\n")
                    for path in (SRC / "namecluster").glob("*.py"))
        assert lines <= 2235
