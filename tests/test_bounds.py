"""Every range of ``onomasticon.BOUNDS`` at its edge.

A value on the boundary is accepted by the CLI and by the library. A value
just outside exits 2 with the CLI's one line, which names the flag and the
word, and each library function or value type that takes it raises
``<key> must <requirement>``. A word setting (the format, an input path) is
taken by no library call: only the CLI judges it. The test is
parametrized by BOUNDS itself, so a row added there without a case here fails.
"""

import io
import warnings
from fractions import Fraction

import pytest

from namecluster.cli import COMMANDS, main
from namecluster.demography import DemographyParams
from namecluster.inference import (adjusted_p, beta_of, odds_lower_bound,
                                   posterior_odds, theta_lower_bound)
from namecluster.onomasticon import BOUNDS, DATA, InputError, load_onomasticon
from namecluster.scoring import RuleLedger

from bundled import N2

Q = Fraction(1, 99999)  # a tail area whose beta, at n2 = 1100, is about 0.011
UNIT_EDGES = (["0", "1"], ["-1/1000000", "1000001/1000000"])


def demography(key):
    return ["demography"], [lambda v: DemographyParams(**{key: v})]


def ledger(key):
    return ["explain"], [lambda v: RuleLedger(**{key: v})]


def total(key):
    # a gender total has no flag: it is a `total` row of the onomasticon table
    return None, [lambda v: load_onomasticon()._replace(**{key: v})]


def path(filename):
    # an empty path would read as the current directory
    return ["sweep"], [], [str(DATA / filename)], [""]


# key: (the CLI words before its flag, or None; the library calls that take
# the value; the words on the boundary, which are accepted; words just outside)
CASES = {
    "format": (["demography"], [], ["table", "records"], ["bogus", "", "Table"]),
    "onomasticon": path("onomasticon.tsv"),
    "hypothesis": path("baseline.cfg"),
    "suite": path("scenarios.cfg"),
    # beta_of serves the odds and both bounds
    "n2": (["infer", "--q", "0"], [lambda v: adjusted_p(Q, v), lambda v: beta_of(Q, v)],
           ["1"], ["0"]),
    **{key: (*ledger(key), ["1"], ["999999/1000000"])
       for key in ("bonus_divisor", "unknown_son_factor")},
    "total_deceased": (*demography("total_deceased"), ["0"], ["-1"]),
    "tomb_size": (*demography("tomb_size"), ["1"], ["0"]),
    **{key: (*total(key), ["1"], ["0"]) for key in ("female_total", "male_total")},
    **{key: (*demography(key), *UNIT_EDGES)
       for key in ("non_jewish_fraction", "juvenile_fraction",
                   "literacy_affluence_fraction", "female_male_inscription_ratio")},
    # beta_of serves the odds and both bounds; at q = 0 the odds are infinite
    "q": (["infer"], [lambda v: adjusted_p(v, 1), lambda v: beta_of(v, N2),
                      lambda v: theta_lower_bound(Fraction(1, 2), N2, v)], *UNIT_EDGES),
    "theta": (["infer", "--q", str(Q)], [lambda v: posterior_odds(v, N2, Q)],
              ["1"], ["0", "1000001/1000000"]),
    # open at both ends: the accepted words are the nearest tried
    "alpha": (["infer", "--q", str(Q)],
              [lambda v: theta_lower_bound(v, N2, Q),
               lambda v: odds_lower_bound(v, N2, Q)],
              ["1/1000000", "999999/1000000"], ["0", "1"]),
}


def run_cli(*argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # such as n2*q clamped to 1 at q = 1
        return main(list(argv), out=io.StringIO())


def flag_for(argv, key):
    flag, = (flag for flag, read in COMMANDS[argv[0]][2].items() if read == key)
    return flag


@pytest.mark.parametrize("key", BOUNDS)
def test_a_value_on_the_boundary_is_accepted(key, capsys):
    argv, owners, inside, _ = CASES[key]
    for word in inside:
        for owner in owners:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a bound that degenerates to 0
                owner(Fraction(word))
        if argv is not None:
            assert run_cli(*argv, flag_for(argv, key), word) == 0
            assert capsys.readouterr().err == ""


@pytest.mark.parametrize("key", BOUNDS)
def test_a_value_just_outside_is_rejected_naming_the_key(key, tmp_path, capsys):
    argv, owners, _, outside = CASES[key]
    requirement = BOUNDS[key][0]
    for word in outside:
        for owner in owners:
            with pytest.raises(InputError) as raised:
                owner(Fraction(word))
            assert str(raised.value) == f"{key} must {requirement}"
        if argv is None:  # the line names the table's file and row
            table = tmp_path / "onom.tsv"
            table.write_text(f"total {key.removesuffix('_total')} {word}\n", encoding="utf-8")
            assert run_cli("analyze", "--onomasticon", str(table)) == 2
            line = f"error: {table}: row 1: {key} must {requirement}"
        else:
            flag = flag_for(argv, key)
            assert run_cli(*argv, flag, word) == 2
            line = f"error: {flag} must {requirement}, got {word!r}"
        assert capsys.readouterr().err.splitlines() == [line]
