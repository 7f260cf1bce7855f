"""Command-line surface: output formats, determinism, exit codes."""

import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import namecluster
from namecluster import cli
from namecluster.cli import COMMANDS, SETTINGS, main
from namecluster.demography import DemographyParams
from namecluster.onomasticon import parse_flag, parse_fraction
from namecluster.scoring import RuleLedger

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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
                         "scenario b\nscale mary_magdalene 2\nreference 0.000953\n")
        first = run_cli("sweep", "--suite", str(suite), "--format", "records")
        assert first == run_cli("sweep", "--suite", str(suite), "--format", "records")

    def test_missing_hypothesis_file_exits_2(self, capsys):
        code, _ = run_cli("analyze", "--hypothesis", "/nonexistent/h.cfg")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_rule_override_flag(self):
        code, text = run_cli("analyze", "--bonus-divisor", "1")
        assert code == 0
        assert "0.000726" in text

    @pytest.mark.parametrize("command", [["analyze"], ["infer", "--q", "1/9"]],
                             ids=["analyze", "infer"])
    @pytest.mark.parametrize("value", ["0", "-5", "abc"])
    def test_bad_n2_exits_2_naming_n2(self, command, value, capsys):
        code, text = run_cli(*command, "--n2", value)
        assert (code, text) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "n2" in err[0]

    @pytest.mark.parametrize("argv, flag", [
        (["analyze", "--bonus-divisor", "1/0"], "--bonus-divisor"),
        (["analyze", "--bonus-divisor", "abc"], "--bonus-divisor"),
        (["analyze", "--unknown-son-factor", "1/0"], "--unknown-son-factor"),
        (["infer", "--q", "1/0"], "--q"),
        (["infer", "--q", "1/9999", "--alpha", "1/0"], "--alpha"),
        (["infer", "--q", "1/9999", "--theta", "1/0"], "--theta"),
        (["demography", "--total-deceased", "1e3"], "--total-deceased"),
        (["analyze", "--format", "bogus"], "--format"),
        (["sweep", "--format", "bogus"], "--format"),
        (["demography", "--format", "bogus"], "--format"),
        (["infer", "--q", "1/9", "--format", "bogus"], "--format"),
        (["analyze", "--allow-father-yeshua", "maybe"], "--allow-father-yeshua"),
        (["sweep", "--count-unknown-sons", "enabled"], "--count-unknown-sons"),
        (["infer", "--q", "1e-999999999"], "--q"),
        (["infer", "--q", "1e4301"], "--q"),
        (["demography", "--juvenile-fraction", "1e-16000000"],
         "--juvenile-fraction"),
        (["infer", "--q", "2"], "--q"),
        (["infer", "--q=-1/9"], "--q"),
        (["infer", "--q", "1e400"], "--q"),
        (["infer", "--q", "1e-5000"], "--q must be a fraction a/b or a decimal, "
                                      "got '1e-5000' (decimal exponent beyond"),
    ])
    def test_bad_flag_value_exits_2_naming_the_flag(self, argv, flag, capsys):
        code, text = run_cli(*argv)
        assert (code, text) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and flag in err[0]

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

    @pytest.mark.parametrize("alpha", [["--alpha", "2"], ["--alpha=0"]])
    def test_alpha_outside_0_1_exits_2(self, alpha, capsys):
        # a bound for alpha = 2 read 2.011: a probability above 1
        assert run_cli("infer", "--q", "1/100000", *alpha) == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            "error: alpha must lie in (0,1)"]


@settings(max_examples=150, deadline=None)
@given(argv=st.sampled_from([["analyze", "--bonus-divisor"], ["infer", "--q"],
                             ["demography", "--total-deceased"],
                             ["analyze", "--format"]]),
       value=st.text())
def test_arbitrary_flag_text_ends_in_an_exit_code(argv, value):
    command, flag = argv
    assert main([command, f"{flag}={value}"], out=io.StringIO()) in (0, 1, 2)


class TestFlagReader:
    """The grammar [--config PATH] COMMAND [--flag VALUE | --flag=VALUE]..."""

    @pytest.mark.parametrize("argv, word", [
        (["analyze", "--bogus", "1"], "'--bogus'"),
        (["bogus"], "'bogus'"),
        ([], "no command"),
        (["analyze", "--n2"], "--n2"),
        (["analyze", "stray"], "'stray'"),
        (["analyze", "--n", "5"], "'--n'"),  # no prefix matching: not --n2
        (["--format", "records", "analyze"], "'--format'"),
        (["infer", "--q", "1/9", "--suite", "bundled"], "'--suite'"),
    ], ids=["unknown-flag", "unknown-command", "no-command", "flag-without-value",
            "stray-word", "flag-prefix", "flag-before-command", "other-command-flag"])
    def test_bad_word_exits_2_with_one_line_naming_it(self, argv, word, capsys):
        assert run_cli(*argv) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and word in err[0]

    def test_the_word_after_a_flag_is_its_value_verbatim(self, capsys):
        assert run_cli("demography", "--juvenile-fraction", "-1/2") == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            "error: juvenile_fraction outside [0,1]"]
        code, text = run_cli("analyze", "--hypothesis", "--help")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith("error: --help: ")

    def test_repeated_flags(self):
        assert run_cli("analyze", "--bonus-divisor", "6/5", "--bonus-divisor", "1") \
            == run_cli("analyze", "--bonus-divisor=1")
        code, text = run_cli("infer", "--q", "1/9999999", "--theta", "1",
                             "--theta=1/2", "--alpha", "1/20")
        assert code == 0
        assert [line.split()[0] for line in text.splitlines()] == [
            "adjusted-p", "beta", "odds[theta=1]", "odds[theta=1/2]",
            "theta-bound[alpha=1/20]", "odds-bound[alpha=1/20]"]

    def test_readme_config_command_runs_verbatim(self, tmp_path, monkeypatch):
        readme = (ROOT / "README.md").read_text().splitlines()
        line, = (line for line in readme
                 if line.startswith("namecluster validate-config --config"))
        (tmp_path / "run.cfg").write_text("[rules]\nbonus_divisor = 1\n")
        monkeypatch.chdir(tmp_path)
        code, text = run_cli(*line.partition("#")[0].split()[1:])
        assert code == 0 and text.startswith("ok:") and "42 scenarios" in text

    def test_config_on_either_side_of_the_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[rules]\nbonus_divisor = 1\n")
        before = run_cli("--config", str(cfg), "analyze")
        assert before == run_cli("analyze", f"--config={cfg}")
        assert before[0] == 0 and "0.000726" in before[1]

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--help", "analyze"]])
    def test_help_lists_the_commands(self, argv):
        code, text = run_cli(*argv)
        assert code == 0
        assert text.startswith("usage: namecluster [--config PATH] COMMAND")
        assert [line.split()[0] for line in text.splitlines()[2:]] == list(COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_help_lists_its_flags(self, command):
        code, text = run_cli(command, "--format", "records", "-h", "--bogus")
        assert code == 0
        listed = [line.split()[0] for line in text.splitlines()[2:]]
        assert listed == list(COMMANDS[command][2])
        assert {"--config", "--format"} <= set(listed)
        assert ("--n2" in listed) == (command != "demography")

    def test_unreadable_config_or_path_exits_2(self, tmp_path, capsys):
        binary = tmp_path / "run.cfg"
        binary.write_bytes(b"\xff\xfe[rules]\n")
        for argv in (["--config", str(binary), "analyze"],
                     ["analyze", "--hypothesis", "a\0b"],
                     ["analyze", "--config", "a\0b"]):
            assert run_cli(*argv) == (2, "")
            assert len(capsys.readouterr().err.splitlines()) == 1


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
        "usage: namecluster [--config PATH] COMMAND [--flag VALUE]...\n"
        "commands:\n"
        "  analyze          headline figures for the baseline\n"
        "  sweep            run the sensitivity scenario suite\n"
        "  demography       population pipeline\n"
        "  infer            p-value, odds and confidence bounds\n"
        "  validate-config  parse and check all inputs\n"),
    "analyze": (
        "usage: namecluster analyze [--flag VALUE]...\n"
        "headline figures for the baseline:\n"
        "  --config VALUE                  INI config file; flags override it\n"
        "  --format VALUE                  table or records\n"
        "  --onomasticon VALUE             onomasticon table path or 'bundled'\n"
        "  --hypothesis VALUE              hypothesis config path or 'bundled'\n"
        "  --n2 VALUE                      number of candidate tombs\n"
        "  --bonus-divisor VALUE           a fraction a/b or a decimal\n"
        "  --unknown-son-factor VALUE      a fraction a/b or a decimal\n"
        "  --require-yeshua-in-tomb VALUE  on/off, true/false, 1/0 or yes/no\n"
        "  --allow-father-yeshua VALUE     on/off, true/false, 1/0 or yes/no\n"
        "  --count-unknown-sons VALUE      on/off, true/false, 1/0 or yes/no\n"),
    "sweep": (
        "usage: namecluster sweep [--flag VALUE]...\n"
        "run the sensitivity scenario suite:\n"
        "  --config VALUE                  INI config file; flags override it\n"
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
        "  --config VALUE                         INI config file; flags override it\n"
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
        "  --config VALUE  INI config file; flags override it\n"
        "  --format VALUE  table or records\n"
        "  --q VALUE       tail area in [0, 1]\n"
        "  --n2 VALUE      number of candidate tombs\n"
        "  --theta VALUE   P(B|A) in (0, 1]; repeatable\n"
        "  --alpha VALUE   confidence complement in (0, 1); repeatable\n"),
    "validate-config": (
        "usage: namecluster validate-config [--flag VALUE]...\n"
        "parse and check all inputs:\n"
        "  --config VALUE                  INI config file; flags override it\n"
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
}


@pytest.mark.parametrize("command", list(HELP), ids=["top", *COMMANDS])
def test_help_screens_are_word_for_word(command):
    assert run_cli(*filter(None, [command, "--help"])) == (0, HELP[command])


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

    def test_bad_delta_errors_only_its_row(self, tmp_path):
        suite = tmp_path / "suite.cfg"
        suite.write_text("scenario broken\nremove nobody\n\n"
                         "scenario fine\nset bonus_divisor 1\nreference 0.000726\n")
        code, text = run_cli("sweep", "--suite", str(suite))
        assert code == 0
        lines = text.splitlines()
        assert "error" in lines[1]
        assert lines[2].rstrip().endswith("yes")

    def test_zero_denominator_in_a_set_delta_exits_2_naming_its_row(
            self, tmp_path, capsys):
        suite = tmp_path / "suite.cfg"
        suite.write_text("scenario broken\nset bonus_divisor 1/0\n\n"
                         "scenario fine\nset bonus_divisor 1\n")
        assert run_cli("sweep", "--suite", str(suite)) == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            f"error: {suite}: row 2: bonus_divisor: zero denominator"]

    def test_empty_suite_prints_header_only(self, tmp_path):
        suite = tmp_path / "empty.cfg"
        suite.write_text("# nothing here\n")
        code, text = run_cli("sweep", "--suite", str(suite))
        assert code == 0
        assert len(text.splitlines()) == 1


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

    def test_theta_and_alpha_from_the_config_file(self, tmp_path, capsys):
        q = "253644329313582025/461894801863030415245482"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[inference]\nq = {q}\ntheta = 1/2\nalpha = 1/20\n")
        from_file = run_cli("--config", str(cfg), "infer")
        assert from_file == run_cli("infer", "--q", q, "--theta", "1/2",
                                    "--alpha", "1/20")
        assert [line.split()[0] for line in from_file[1].splitlines()] == [
            "adjusted-p", "beta", "odds[theta=1/2]", "theta-bound[alpha=1/20]",
            "odds-bound[alpha=1/20]"]
        # a flag replaces the file's value, and the other key still applies
        code, text = run_cli("--config", str(cfg), "infer", "--theta", "1",
                             "--theta", "1/4")
        assert code == 0
        assert [line.split()[0] for line in text.splitlines()][2:] == [
            "odds[theta=1]", "odds[theta=1/4]", "theta-bound[alpha=1/20]",
            "odds-bound[alpha=1/20]"]
        cfg.write_text(f"[inference]\nq = {q}\nalpha = abc\n")
        assert run_cli("--config", str(cfg), "infer") == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            "error: --alpha must be a fraction a/b or a decimal, got 'abc' "
            "(Invalid literal for Fraction: 'abc')"]

    def test_infer_requires_q(self, capsys):
        code, _ = run_cli("infer")
        assert code == 2

    def test_overlarge_adjusted_p_is_clamped(self):
        with pytest.warns(UserWarning, match="clamped"):
            code, text = run_cli("infer", "--q", "1/2", "--n2", "1000")
        assert code == 0
        assert text.splitlines()[0].split()[1] == "1"

    def test_q_from_the_config_file_is_range_checked(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[inference]\nq = 3/2\n")
        assert run_cli("--config", str(cfg), "infer") == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--q" in err[0]

    @pytest.mark.parametrize("q, n2, named", [("1/2", "1", "n2 = 1"),
                                              ("0", "1100", "q = 0")])
    def test_infinite_odds_name_their_cause(self, q, n2, named, capsys):
        assert run_cli("infer", "--q", q, "--n2", n2, "--theta", "1/2") == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            f"error: {named} gives infinite odds"]
        assert run_cli("infer", "--q", q, "--n2", n2, "--alpha", "1/20") == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            f"error: {named} gives an infinite bound"]

    def test_infer_bounds_need_small_beta(self, capsys):
        code, _ = run_cli("infer", "--q", "1/2", "--n2", "1000",
                          "--alpha", "1/20")
        assert code == 2


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


def run_process(*argv):
    """``python -m namecluster argv`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "namecluster", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("argv, warning", [
    (["infer", "--q", "1/3", "--n2", "10"],
     ["warning: n2*q exceeds 1; reporting the clamped bound 1"]),
    (["infer", "--q", "1/3000", "--n2", "10", "--alpha", "1/1000"],
     ["warning: alpha <= beta: the bound degenerates to 0"] * 2),
    # the adjusted area stays the paper's unclamped n2*q; only stderr tells
    (["analyze", "--n2", "10000000"],
     ["warning: n2*q exceeds 1; adjusted-area is the unclamped n2*q"]),
    (["sweep", "--n2", "10000000"],
     ["warning: n2*q exceeds 1 in 42 of 42 scenarios; adjusted is the unclamped n2*q"]),
])
def test_warnings_are_one_stderr_line_each(argv, warning):
    run = run_process(*argv)
    with pytest.warns(UserWarning):
        assert (run.returncode, run.stdout) == run_cli(*argv)
    assert run.returncode == 0
    assert run.stderr.splitlines() == warning


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_the_bundled_n2_gives_an_empty_stderr(command):
    run = run_process(command, "--format", "records")
    assert run.returncode == 0
    assert run.stdout == (ROOT / "perfbench" / "expected"
                          / f"{command}.records").read_text()
    assert run.stderr == ""


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
                             for i in range(1000)))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with subprocess.Popen([sys.executable, "-m", "namecluster", "sweep",
                           "--suite", str(suite)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=path)) as run:
        assert run.stdout.readline().startswith(b"scenario ")
        run.stdout.close()
        assert run.wait(timeout=120) == 1
        assert run.stderr.read() == b""


class TestMalformedInputFiles:
    """A bad row in any input file: exit 2, one stderr line naming the row."""

    HYPOTHESIS = "name t\ncandidate p female Mariam slice:MM {}\n"
    SUITE = "scenario s\n{}\n"

    @pytest.mark.parametrize("option, named", [
        ("weight=1/0", "zero denominator"), ("rr=1/0", "zero denominator"),
        ("scale=1/0", "zero denominator"), ("weigth=1/2", "'weigth'"),
        ("label", "'label'")])
    def test_bad_candidate_option(self, option, named, tmp_path, capsys):
        hypothesis = tmp_path / "h.cfg"
        hypothesis.write_text(self.HYPOTHESIS.format(option))
        assert run_cli("analyze", "--hypothesis", str(hypothesis)) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {hypothesis}: row 2: ")
        assert named in err[0]

    @pytest.mark.parametrize("flag", ["--onomasticon", "--hypothesis", "--suite"])
    def test_unreadable_file_names_the_file(self, flag, tmp_path, capsys):
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"\xff\xfe\x00")
        for path in (tmp_path, binary, tmp_path / "missing.cfg"):
            assert run_cli("sweep", flag, str(path)) == (2, "")
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command", ["analyze", "validate-config"])
    def test_impossible_observed_record(self, command, tmp_path, capsys):
        hypothesis = tmp_path / "h.cfg"
        hypothesis.write_text(
            (SRC / "namecluster" / "data" / "baseline.cfg").read_text()
            .replace("woman2=Marya", "woman2=MM"))
        assert run_cli(command, "--hypothesis", str(hypothesis)) == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            "error: observed: duplicate woman"]
        # a sweep reports the impossible configuration in each scenario's row
        code, text = run_cli("sweep", "--hypothesis", str(hypothesis))
        rows = text.splitlines()[1:]
        assert code == 0 and len(rows) == 42
        assert all("error:" in row for row in rows)

    @pytest.mark.parametrize("command", ["analyze", "validate-config"])
    @pytest.mark.parametrize("old, new, named", [
        ("woman1=MM", "woman1=Nobody", "female/Nobody"),
        ("son=Yeshua", "son=Mariam", "male/Mariam")])
    def test_an_observed_label_the_hypothesis_lacks_names_the_file(
            self, command, old, new, named, tmp_path, capsys):
        hypothesis = tmp_path / "h.cfg"
        hypothesis.write_text(
            (SRC / "namecluster" / "data" / "baseline.cfg").read_text()
            .replace(old, new))
        assert run_cli(command, "--hypothesis", str(hypothesis)) == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            f"error: {hypothesis}: observed: category: {named}: unknown"]

    @pytest.mark.parametrize("row, named", [
        pytest.param("generic X female 1/0", "total_persons: zero denominator",
                     id="generic X female 1/0-zero denominator"),
        ("generic X female 5 10", "ossuary_persons: X: exceeds total_persons"),
        ("slice X x 6 5", "ossuary_matching: X/x: must satisfy 0 <= k <= K")])
    def test_bad_onomasticon_row(self, row, named, tmp_path, capsys):
        onom = tmp_path / "onom.tsv"
        onom.write_text(f"total female 10\n{row}\n")
        assert run_cli("analyze", "--onomasticon", str(onom)) == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            f"error: {onom}: row 2: {named}"]

    @pytest.mark.parametrize("row, named", [
        ("generic Foo male abc", "total_persons: "),
        ("generic Foo male 5 x", "ossuary_persons: "),
        ("generic Foo male 5 4 rahmani=x?", "rahmani: "),
        ("total male abc", "male_total: "),
        ("total Female 5", "gender: expected female or male, got 'Female'"),
        ("total female 10", "female_total: given twice"),
        ("total female 0", "female_total: must be positive"),
        ("total male -5", "male_total: must be positive"),
        ("generic Joseph female 3 1", "generic: Joseph: duplicate name"),
        ("slice Mariam X x 44", "ossuary_matching: "),
        ("slice Mariam X 1 1/0", "ossuary_generic: zero denominator"),
        ("slice Salome X 1 2", "ossuary_generic: Salome/X: disagrees"),
        ("slice Nobody X 1 2", "slice generic: Nobody: unknown"),
        ("slice Mariam X 40 44", "slices of Mariam: implied counts exceed")])
    def test_bad_row_of_the_bundled_table_names_row_and_field(
            self, row, named, tmp_path, capsys):
        # appended to the bundled table, so only the row itself is wrong
        bundled = (SRC / "namecluster" / "data" / "onomasticon.tsv").read_text()
        onom = tmp_path / "onom.tsv"
        onom.write_text(f"{bundled}{row}\n")
        rows = len(bundled.splitlines()) + 1
        assert run_cli("analyze", "--onomasticon", str(onom)) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {onom}: row {rows}: {named}")

    def test_a_name_of_both_genders_names_its_second_row(self, tmp_path, capsys):
        # a female Yeshua above the male one: one name is one generic
        bundled = (SRC / "namecluster" / "data" / "onomasticon.tsv").read_text()
        male = "generic\tYeshua\tmale"
        onom = tmp_path / "onom.tsv"
        onom.write_text(bundled.replace(male, f"generic Yeshua female 3 1\n{male}"))
        row = bundled[:bundled.index(male)].count("\n") + 2
        assert run_cli("analyze", "--onomasticon", str(onom)) == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            f"error: {onom}: row {row}: generic: Yeshua: duplicate name"]

    @pytest.mark.parametrize("flag, bundled, row", [
        ("--onomasticon", "onomasticon.tsv", "total female 317 193 junk"),
        ("--hypothesis", "baseline.cfg", "name a b c"),
        ("--suite", "scenarios.cfg", "scenario a b"),
        ("--suite", "scenarios.cfg", "reference 1 2"),
        ("--suite", "scenarios.cfg", "remove mary_magdalene extra"),
        ("--suite", "scenarios.cfg", "scale mary_magdalene 2 3")])
    def test_a_trailing_field_names_its_row(self, flag, bundled, row, tmp_path,
                                            capsys):
        # appended to a bundled file, so only the row itself is wrong
        text = (SRC / "namecluster" / "data" / bundled).read_text()
        path = tmp_path / bundled
        path.write_text(f"{text}{row}\n")
        assert run_cli("validate-config", flag, str(path)) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"error: {path}: row {len(text.splitlines()) + 1}: too many values")

    @pytest.mark.parametrize("flag, bundled, row, named", [
        ("--hypothesis", "baseline.cfg",
         "candidate simon male Simon generic rr=1/2 rr=101/2509", "rr"),
        ("--hypothesis", "baseline.cfg", "observed son=Yeshua son=Yeshua", "son"),
        ("--suite", "scenarios.cfg",
         "add joanna2 female Joanna generic weight=1/9 weight=1/8", "weight"),
        ("--onomasticon", "onomasticon.tsv",
         "generic Foo male 5 4 rahmani=1 rahmani=2", "rahmani")])
    def test_a_repeated_option_names_its_row(self, flag, bundled, row, named,
                                             tmp_path, capsys):
        # appended to a bundled file, so only the row itself is wrong
        text = (SRC / "namecluster" / "data" / bundled).read_text()
        path = tmp_path / bundled
        path.write_text(f"{text}{row}\n")
        assert run_cli("validate-config", flag, str(path)) == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: row {len(text.splitlines()) + 1}: {named}: given twice"]

    @pytest.mark.parametrize("old, new, named", [
        ("Mariam slice:MM", "Mariam slice:ZZ", "slice: Mariam/ZZ: unknown"),
        ("Yaakov generic", "Jacob generic", "generic: Jacob: unknown")])
    def test_a_candidate_the_table_lacks_names_file_and_candidate(
            self, old, new, named, tmp_path, capsys):
        bundled = (SRC / "namecluster" / "data" / "baseline.cfg").read_text()
        person = "mary_magdalene" if "Mariam" in old else "james_brother"
        hypothesis = tmp_path / "h.cfg"
        hypothesis.write_text(bundled.replace(old, new))
        for command in ("analyze", "validate-config"):
            assert run_cli(command, "--hypothesis", str(hypothesis)) == (2, "")
            assert capsys.readouterr().err.splitlines() == [
                f"error: {hypothesis}: candidate {person}: {named}"]
        # a sweep names the candidate in each scenario's row
        code, text = run_cli("sweep", "--hypothesis", str(hypothesis))
        rows = text.splitlines()[1:]
        assert code == 0 and len(rows) == 42
        assert all(f"error: candidate {person}: {named}" in row for row in rows)

    def test_the_bundled_hypothesis_is_named_against_a_table_without_it(
            self, tmp_path, capsys):
        bundled = (SRC / "namecluster" / "data" / "onomasticon.tsv").read_text()
        onom = tmp_path / "onom.tsv"
        onom.write_text("".join(line for line in bundled.splitlines(keepends=True)
                                if not line.startswith("slice\tMariam")))
        assert run_cli("analyze", "--onomasticon", str(onom)) == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            f"error: {SRC / 'namecluster' / 'data' / 'baseline.cfg'}: "
            "candidate mary_magdalene: slice: Mariam/MM: unknown"]

    @pytest.mark.parametrize("command", ["sweep", "validate-config"])
    @pytest.mark.parametrize("row", [
        "scale mary_magdalene 1/0", "reference abc",
        "add joanna female Joanna generic weigth=1/2",
        "add joanna female Joanna generic label", "set bonus_divisor abc",
        "set bogus 1", "set count_unknown_sons maybe", "set bonus_divisor 1/2"])
    def test_bad_suite_row(self, command, row, tmp_path, capsys):
        suite = tmp_path / "suite.cfg"
        suite.write_text(self.SUITE.format(row))
        assert run_cli(command, "--suite", str(suite)) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {suite}: row 2: ")
        if row.startswith("set"):  # the parameter is named
            assert row.split()[1] in err[0]


class TestValidateConfig:
    def test_bundled_inputs_validate(self):
        code, text = run_cli("validate-config", "--suite", "bundled")
        assert code == 0
        assert text.startswith("ok:")
        assert "42 scenarios" in text

    def test_config_file_sections_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[rules]\nbonus_divisor = 1\n[output]\nformat = table\n")
        _, with_file = run_cli("--config", str(cfg), "analyze")
        assert "0.000726" in with_file  # file value applies
        _, overridden = run_cli("--config", str(cfg), "analyze",
                                "--bonus-divisor", "6/5")
        assert "0.0006041" in overridden  # flag outranks the file

    def test_missing_config_file_exits_2(self, capsys):
        code, _ = run_cli("--config", "/nonexistent.cfg", "analyze")
        assert code == 2

    @pytest.mark.parametrize("body, named", [
        ("[output]\nformat = bogus\n", "--format"),
        ("format = records\n", "run.cfg"),
        ("[rules]\nbonus_divisor = 50%\n", "--bonus-divisor"),
        ("[rules]\nallow_father_yeshua = maybe\n", "--allow-father-yeshua"),
    ], ids=["bad-format-value", "no-section-header", "percent-in-value",
            "bad-flag-word"])
    def test_bad_config_file_exits_2_with_one_line(self, body, named, tmp_path,
                                                   capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(body)
        code, text = run_cli("--config", str(cfg), "analyze")
        assert (code, text) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and named in err[0]

    @pytest.mark.parametrize("body, section, key", [
        ("[rules]\nbonus_divisr = 2\n", "rules", "bonus_divisr"),
        ("[analysi]\nn2 = 5\n", "analysi", "n2"),
        ("[analysis]\nn2 = 5\n[rules]\nn2 = 5\n", "rules", "n2"),
        ("[DEFAULT]\nn2 = 5\n", "DEFAULT", "n2")])
    @pytest.mark.parametrize("command", ["analyze", "demography"])
    def test_a_key_no_command_reads_exits_2_naming_it(
            self, body, section, key, command, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(body)
        assert run_cli("--config", str(cfg), command) == (2, "")
        assert capsys.readouterr().err.splitlines() == [
            f"error: config file {cfg}: [{section}] {key}: unknown key"]

    def test_one_config_file_serves_every_command(self, tmp_path):
        # every key any command reads, most at their defaults
        values = {"source": "bundled", "file": "bundled", "suite": "bundled",
                  "format": "table", "n2": "1100", "q": "1/999999", "theta": "1",
                  "alpha": "1/20", **RuleLedger()._asdict(),
                  **DemographyParams()._asdict()}
        sections = {}  # each --config section of SETTINGS: its lines
        for key, (section, *_) in SETTINGS.items():
            if section is not None:
                sections.setdefault(section, []).append(f"{key} = {values[key]}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"[{section}]\n" + "".join(lines)
                               for section, lines in sections.items()))
        for command in COMMANDS:
            assert run_cli("--config", str(cfg), command)[0] == 0

    def test_the_config_keys_are_those_the_commands_read(self, monkeypatch, tmp_path):
        read = set()

        class Recording:
            """The resolved settings, noting each one a command reads."""

            def __init__(self, args):
                self.args = args

            def __getattr__(self, key):
                if key in SETTINGS:
                    read.add((SETTINGS[key][0], key))
                return getattr(self.args, key)

        for name, (run, summary, flags) in list(COMMANDS.items()):
            monkeypatch.setitem(COMMANDS, name, (
                lambda args, out, run=run: run(Recording(args), out), summary, flags))
        for command in COMMANDS:
            q = ["--q", "1/999999"] if command == "infer" else []
            assert run_cli(command, *q)[0] == 0
        # the (section, key) pairs that a --config file may hold, tried one by one
        accepted, cfg = set(), tmp_path / "run.cfg"
        for key, (section, *_) in SETTINGS.items():
            cfg.write_text(f"[{section}]\n{key} = 1\n")
            try:
                cli.read_config(str(cfg))
            except namecluster.InputError:
                continue
            accepted.add((section, key))
        assert read == accepted

    def test_broken_onomasticon_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "onom.tsv"
        bad.write_text("generic Broken female\n")
        code, _ = run_cli("analyze", "--onomasticon", str(bad))
        assert code == 2


# a good value of each typed setting, one that changes the output, and a bad
# value for each parser
GOOD = {"n2": "1000", "bonus_divisor": "1", "unknown_son_factor": "2",
        "require_yeshua_in_tomb": "on", "allow_father_yeshua": "on",
        "count_unknown_sons": "off", "total_deceased": "50000", "tomb_size": "4",
        "non_jewish_fraction": "1/10", "juvenile_fraction": "1/3",
        "literacy_affluence_fraction": "1/5", "female_male_inscription_ratio": "1/3",
        "q": "1/99999", "theta": "1/2", "alpha": "1/20"}
BAD = {int: "1e3", parse_fraction: "1/0", parse_flag: "maybe"}
# a command that reads each --config section
READER = {"analysis": ["analyze"], "rules": ["analyze"], "demography": ["demography"],
          "inference": ["infer", "--q", "1/99999"]}


@pytest.mark.parametrize("key", [key for key, (_, _, parse, _) in SETTINGS.items()
                                 if parse is not None])
def test_every_typed_setting_reads_the_same_from_the_config_file(key, tmp_path, capsys):
    section, _, parse, _ = SETTINGS[key]
    argv = ["infer"] if key == "q" else READER[section]
    flag, = (flag for flag, read in COMMANDS[argv[0]][2].items() if read == key)
    cfg = tmp_path / "run.cfg"
    # a bad value: exit 2 and the one line that the flag gives
    cfg.write_text(f"[{section}]\n{key} = {BAD[parse]}\n")
    assert run_cli("--config", str(cfg), *argv) == (2, "")
    from_file = capsys.readouterr().err
    assert run_cli(*argv, flag, BAD[parse]) == (2, "")
    assert capsys.readouterr().err == from_file
    assert len(from_file.splitlines()) == 1 and flag in from_file
    # a good value: the output that the flag gives, which is not the default's
    cfg.write_text(f"[{section}]\n{key} = {GOOD[key]}\n")
    code, text = run_cli("--config", str(cfg), *argv)
    assert (code, text) == run_cli(*argv, flag, GOOD[key])
    assert code == 0 and text != run_cli(*argv)[1]


def modules_loaded_by(*argv):
    """Modules a fresh interpreter loads to run ``main(argv)``."""
    script = ("import io, sys\n"
              "before = set(sys.modules)\n"
              "from namecluster.cli import main\n"
              f"main({list(argv)!r}, out=io.StringIO())\n"
              "print(*sorted(set(sys.modules) - before))\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    return set(run.stdout.split())


class TestImports:
    UNUSED_BY_ANALYZE = {"namecluster.sensitivity", "namecluster.demography",
                         "namecluster.inference", "configparser", "argparse",
                         "gettext", "locale"}

    def test_analyze_loads_only_what_it_runs(self):
        loaded = modules_loaded_by("analyze", "--format", "records")
        assert "namecluster.tailspace" in loaded
        assert not loaded & self.UNUSED_BY_ANALYZE

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["analyze", "--format", "records"], ["sweep"],
        ["sweep", "--format", "records"], ["demography", "--format", "records"],
        ["infer", "--q", "1/9999", "--theta", "1", "--format", "records"]],
        ids=["analyze", "analyze-records", "sweep", "sweep-records",
             "demography-records", "infer-records"])
    def test_no_command_loads_json(self, argv):
        # records are written by cli.record_line; json would cost 2.5 ms a start
        assert "json" not in modules_loaded_by(*argv)

    def test_sweep_loads_sensitivity(self):
        assert "namecluster.sensitivity" in modules_loaded_by("sweep")

    @pytest.mark.parametrize("argv", [["analyze"], ["sweep"], ["demography"],
                                      ["validate-config", "--suite", "bundled"]])
    def test_no_command_loads_dataclasses(self, argv):
        # the value types are NamedTuples: dataclasses would bring inspect,
        # ast, dis and tokenize into every start
        assert "dataclasses" not in modules_loaded_by(*argv)

    @pytest.mark.parametrize("argv", [["analyze"], ["sweep"], ["demography"],
                                      ["infer", "--q", "1/9999", "--theta", "1"],
                                      ["validate-config", "--suite", "bundled"]],
                             ids=["analyze", "sweep", "demography", "infer",
                                  "validate-config"])
    def test_no_command_loads_argparse(self, argv):
        # the flags are read from COMMANDS; argparse would bring gettext and locale
        assert not modules_loaded_by(*argv) & {"argparse", "gettext", "locale"}

    def test_package_exports_resolve_to_their_definitions(self):
        for name in namecluster.__all__:
            module = importlib.import_module(
                f"namecluster.{namecluster._EXPORTS[name]}")
            value = getattr(namecluster, name)
            assert value is getattr(module, name)
            assert getattr(value, "__module__", module.__name__) == module.__name__
        from namecluster import enumerate_tail, run_pipeline  # noqa: F401
        assert set(namecluster.__all__) <= set(dir(namecluster))
        with pytest.raises(AttributeError, match="no_such_name"):
            namecluster.no_such_name
