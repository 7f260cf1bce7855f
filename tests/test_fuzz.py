"""Mutants of the bundled inputs end in a report or in one error line, never in a traceback.

Each example edits one row of one bundled file (the onomasticon table, the
hypothesis or the scenario suite) by one operator: a word set to a hostile
number (after its ``key=``, if it has one), a word deleted, two words swapped,
the row duplicated or the row deleted. The mutant runs in-process through
``cli.main`` as ``analyze``, ``explain`` or ``sweep``; a mutant suite runs
through ``sweep`` alone. No exception may escape ``main``, and the exit code is
0 or 2. An exit 2 prints exactly one ``error:`` line and no warning. An exit 0
of ``analyze`` gives 0 <= tail <= valid <= total, proportion = tail / valid
and adjusted = n2 * proportion; no ``sweep`` record has a negative area.
"""

import io
import json
import warnings
from contextlib import redirect_stderr
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namecluster.cli import main
from namecluster.onomasticon import DATA

EXAMPLES = 300  # about 1.3 s; raise it for a longer hunt, never lower it to save time
FILES = {"--onomasticon": "onomasticon.tsv", "--hypothesis": "baseline.cfg",
         "--suite": "scenarios.cfg"}
HOSTILE = ("0", "-0", "-1", "-2/3", "1/0", "0/0", "3/2", "2", "1e400", "1e-400", "1e4301",
           "99999999999999999999", "0.000", "-1e-9", "nan", "inf", "1_000", "½")


@st.composite
def mutants(draw):
    """(argv with a {path} placeholder, the mutant's text)."""
    flag = draw(st.sampled_from(sorted(FILES)))
    lines = (DATA / FILES[flag]).read_text(encoding="utf-8").splitlines()
    i = draw(st.sampled_from([i for i, line in enumerate(lines)
                              if line.strip() and not line.lstrip().startswith("#")]))
    words = lines[i].split()
    j, k = (draw(st.integers(0, len(words) - 1)) for _ in range(2))
    operator = draw(st.sampled_from(("number", "delete", "swap", "duplicate", "drop")))
    if operator == "number":
        key, eq, _ = words[j].rpartition("=")
        words[j] = key + eq + draw(st.sampled_from(HOSTILE))
    elif operator == "delete":
        del words[j]
    elif operator == "swap":
        words[j], words[k] = words[k], words[j]
    if operator in ("number", "delete", "swap"):
        lines[i] = " ".join(words)
    elif operator == "duplicate":
        lines.insert(i, lines[i])
    else:
        del lines[i]
    command = "sweep" if flag == "--suite" else draw(
        st.sampled_from(("analyze", "explain", "sweep")))
    return [command, "--format", "records", flag, "{path}"], "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """The file that each mutant overwrites."""
    return tmp_path_factory.mktemp("mutant") / "input"


@settings(max_examples=EXAMPLES, deadline=None)
@given(mutant=mutants())
def test_a_mutant_input_is_reported_or_refused_in_one_line(mutant, path):
    argv, text = mutant
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        warnings.simplefilter("error", DeprecationWarning)
        code = main([word.format(path=path) for word in argv], out=out)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert (out.getvalue(), caught) == ("", [])
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
        return
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    if argv[0] == "analyze":
        value = {r["field"]: Fraction(r["fraction"]) for r in records}
        tail, valid, total = value["tail-mass"], value["valid-mass"], value["tuple-space"]
        assert 0 <= tail <= valid <= total
        assert value["proportion"] == tail / valid
        assert value["adjusted-area"] == 1100 * value["proportion"]
    elif argv[0] == "sweep":
        assert all(Fraction(r["adjusted_fraction"]) >= 0
                   for r in records if "adjusted_fraction" in r)
