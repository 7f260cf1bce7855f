"""README.md quotes only what the program prints.

Its ``namecluster`` commands exit 0, each quoted ``error:`` line is the outcome
of a row of ``test_errors.ROWS``, its opening figures are ``analyze``'s at
their printed precision, its Python example gives the observed RR, and its
Layout names every module. A backticked span is read across line breaks, with
its whitespace collapsed; spans are taken from the text outside fenced blocks.
"""

import json
import re
import warnings
from pathlib import Path

import pytest

import namecluster
from namecluster.onomasticon import parse_fraction
from namecluster.sensitivity import matches_at_printed_precision

from test_errors import ROWS, run

TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
BLOCKS = FENCE.findall(TEXT)  # (info string, body) of each fenced block


def spans(text):
    return [" ".join(span.split()) for span in re.findall(r"`([^`]*)`", FENCE.sub("", text))]


COMMANDS = [line.partition("#")[0].split()[1:] for _, body in BLOCKS
            for line in body.splitlines() if line.startswith("namecluster ")]
ERRORS = [span for span in spans(TEXT) if span.startswith("error: ") and span != "error: ..."]
# the opening list's figures, in the order it quotes them
HEADLINE = ("observed-rr", "tuple-space", "valid-mass", "tail-mass", "proportion",
            "adjusted-area")
PLACEHOLDER = {"path": r"[\w./-]+", "data": r"[\w./-]+", "row": r"\d+"}


def outcome_pattern(outcome):
    """The stderr line of a row's outcome, ``{path}`` and ``{data}`` any path word."""
    parts = re.split(r"\{(path|data|row)\}", outcome)
    return re.compile("error: " + "".join(
        PLACEHOLDER[part] if i % 2 else re.escape(part) for i, part in enumerate(parts)))


OUTCOMES = {outcome_pattern(row[1]) for row in ROWS if isinstance(row[1], str)}


def analyze_records(tmp_path):
    code, out, err, _ = run(("analyze --format records", None), tmp_path)
    assert (code, err) == (0, "")
    return {record["field"]: parse_fraction(record["fraction"])
            for record in map(json.loads, out.splitlines())}


def test_the_readme_quotes_commands_and_error_lines():
    assert COMMANDS and ERRORS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_exits_0(argv, tmp_path):
    code, out, err, _ = run((argv, None), tmp_path)
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("line", ERRORS)
def test_error_line_is_the_outcome_of_a_row(line):
    assert any(pattern.fullmatch(line) for pattern in OUTCOMES)


def test_opening_figures_are_analyzes(tmp_path):
    opening = TEXT.partition("\n## ")[0].partition("\n* ")[2]
    figures = spans(opening)
    assert len(figures) == len(HEADLINE)
    records = analyze_records(tmp_path)
    assert [(field, figure) for field, figure in zip(HEADLINE, figures)
            if not matches_at_printed_precision(records[field], figure)] == []


def test_python_example_gives_the_observed_rr(tmp_path):
    (example,) = [body for info, body in BLOCKS if info == "python"]
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        exec(example, namespace)
    assert namespace["value"] == analyze_records(tmp_path)["observed-rr"]


def test_layout_names_every_module():
    layout = FENCE.search(TEXT, TEXT.index("\n## Layout\n")).group(2)
    modules = Path(namecluster.__file__).parent.glob("*.py")
    assert sorted(re.findall(r"^  (\S+\.py) ", layout, re.M)) == sorted(
        path.name for path in modules)
