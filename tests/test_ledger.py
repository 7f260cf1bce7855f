"""The adjustment ledger of ``scoring``, restated as a decision table.

The R-list in the ``scoring`` module docstring is the ledger's only
specification. Each row below restates one rule, or one branch of a rule, as
a condition on a male tuple (s1, s2, father, son) and the answer that the
rule gives. No row calls or mirrors the ``if`` chain of ``scoring``. The
tests compare the table with ``singleton_counts``, ``generational_counts``
and ``bonus_applies`` on every realism-valid tuple over the five ledger
labels, one label that no rule names and Other, under all eight settings of
the three switches.
"""

import itertools
from fractions import Fraction
from typing import NamedTuple

import pytest

from namecluster.candidates import OTHER, Category
from namecluster.scoring import (CLEOPAS, JAMES, YESHUA, YOSEF, YOSEH, RuleLedger,
                                 bonus_applies, generational_counts, singleton_counts)

PLAIN = "Simon"  # a label that no rule names
LABELS = (YESHUA, YOSEF, YOSEH, JAMES, CLEOPAS, PLAIN, OTHER)
SWITCHES = ("require_yeshua_in_tomb", "allow_father_yeshua", "count_unknown_sons")
SETTINGS = [RuleLedger(**dict(zip(SWITCHES, values)))
            for values in itertools.product((False, True), repeat=3)]
CATEGORY = {label: Category(label, Fraction(1, 7), Fraction(1, 2)) for label in LABELS}


class Tomb(NamedTuple):
    """The male slots of one tomb, and the ledger's switches."""

    s1: str
    s2: str
    father: str
    son: str
    rules: RuleLedger

    @property
    def father_is_singleton(self) -> bool:
        return self.father in (self.s1, self.s2)

    @property
    def yoseh_present(self) -> bool:  # in a male slot other than the father's
        return YOSEH in (self.s1, self.s2, self.son)

    @property
    def valid(self) -> bool:
        """No label twice among the singletons and the son, nor in father and
        son, Other exempt; a father may share a singleton's label."""
        return not any(a == b != OTHER for a, b in [
            (self.s1, self.s2), (self.father, self.son),
            (self.son, self.s1), (self.son, self.s2)])


def tombs(rules):
    """Every valid tomb over LABELS under ``rules``."""
    return [tomb for tomb in (Tomb(*slots, rules)
                              for slots in itertools.product(LABELS, repeat=4))
            if tomb.valid]


# --- the singletons: R3, R4 and R7 ---------------------------------------
# A row names a singleton `me` (beside `other`) whose RR does not count. A
# singleton counts unless some row names it.
SINGLETON_ROWS = [
    # a father who also appears as a singleton is counted once; Other is
    # exempt, as it is from every collision
    ("R3", lambda t, me, other: me == t.father != OTHER),
    # singletons Yosef and Yoseh together: that Yosef is unknown
    ("R4", lambda t, me, other: me == YOSEF and other == YOSEH),
    # father Yoseh with a singleton Yosef: that Yosef scores 1
    ("R7", lambda t, me, other: me == YOSEF and t.father == YOSEH),
]

# --- father and son: R1, R2, R5-R13, the uncovered case, a plain father ---
# An answer is (father's RR counts, son's RR counts, unknown-son factor counts).
UNKNOWN = (False, False, False)  # the pair scores 1
FULL = (True, True, False)  # the full pair value
FATHER_ONLY = (True, False, False)  # the son is unknown


def named(t):
    """A son named for a close relative: his RR times the unknown-son factor,
    when such sons count."""
    return True, t.rules.count_unknown_sons, t.rules.count_unknown_sons


# each a set of sons "named for a close relative"
R5_SONS = {YESHUA, YOSEF, JAMES, CLEOPAS}
R6_SONS = {YOSEF, JAMES, YOSEH}
R10_SONS = {YESHUA, JAMES}
R12_SONS = {YOSEH, YESHUA, YOSEF, CLEOPAS}
R13_SONS = {YOSEH, YOSEF, YESHUA}


def yosef(t, singleton, yoseh):
    """Father Yosef; whether he is also a singleton, whether a Yoseh is present."""
    return (t.father == YOSEF and t.father_is_singleton == singleton
            and t.yoseh_present == yoseh)


def james(t, singleton):
    return t.father == JAMES and t.father_is_singleton == singleton


# (name, condition, answer or a function of the tomb giving it); the
# conditions exclude one another, so each valid tomb meets exactly one
GENERATIONAL_ROWS = [
    ("R1", lambda t: t.father == YESHUA,
     lambda t: (t.rules.allow_father_yeshua, False, False)),
    ("R2", lambda t: t.father == OTHER, UNKNOWN),
    ("R5 named", lambda t: t.father == YOSEH and t.son in R5_SONS, named),
    ("R5 other", lambda t: t.father == YOSEH and t.son not in R5_SONS, FATHER_ONLY),
    ("R6 named", lambda t: t.father == CLEOPAS and t.son in R6_SONS, named),
    ("R6 other", lambda t: t.father == CLEOPAS and t.son not in R6_SONS, FATHER_ONLY),
    ("R8 full", lambda t: yosef(t, False, True) and t.son in {YESHUA, YOSEH, JAMES}, FULL),
    ("R8 other", lambda t: yosef(t, False, True) and t.son not in {YESHUA, YOSEH, JAMES},
     UNKNOWN),
    # R9 and R10 leave a son Cleopas to R11
    ("R9 full", lambda t: yosef(t, False, False) and t.son in {YESHUA, JAMES}, FULL),
    ("R9 other", lambda t: yosef(t, False, False) and t.son not in {YESHUA, JAMES, CLEOPAS},
     UNKNOWN),
    ("R10 named", lambda t: yosef(t, True, False) and t.son in R10_SONS, named),
    ("R10 other", lambda t: yosef(t, True, False) and t.son not in {*R10_SONS, CLEOPAS},
     FATHER_ONLY),
    # the full pair value times the factor
    ("R11", lambda t: t.father == YOSEF and t.son == CLEOPAS and not t.yoseh_present,
     named),
    ("uncovered", lambda t: yosef(t, True, True), UNKNOWN),
    ("R12 named", lambda t: james(t, True) and t.son in R12_SONS, named),
    ("R12 other", lambda t: james(t, True) and t.son not in R12_SONS, FATHER_ONLY),
    ("R13 grandson", lambda t: james(t, False) and t.son == CLEOPAS, FULL),
    ("R13 named", lambda t: james(t, False) and t.son in R13_SONS, named),
    ("R13 other", lambda t: james(t, False) and t.son not in {*R13_SONS, CLEOPAS},
     FATHER_ONLY),
    # a father that no rule names: the plain pair product, an Other son aside
    ("plain", lambda t: t.father not in {YESHUA, YOSEF, YOSEH, JAMES, CLEOPAS, OTHER},
     lambda t: (True, t.son != OTHER, False)),
]


def r14(t):
    """Son Yeshua of father Yosef: the total is divided by the bonus divisor."""
    return t.father == YOSEF and t.son == YESHUA


def table(t):
    """(names of the rows that decide ``t``, the table's three answers)."""
    names, counts = set(), []
    for me, other in [(t.s1, t.s2), (t.s2, t.s1)]:
        deciding = {name for name, names_me in SINGLETON_ROWS if names_me(t, me, other)}
        names |= deciding
        counts.append(not deciding)
    rows = [(name, answer) for name, condition, answer in GENERATIONAL_ROWS
            if condition(t)]
    assert len(rows) == 1, (t, [name for name, _ in rows])
    name, answer = rows[0]
    names.add(name)
    if r14(t):
        names.add("R14")
    return names, (tuple(counts), answer(t) if callable(answer) else answer, r14(t))


def ledger(t):
    """The three answers of ``scoring`` for ``t``."""
    s1, s2, father, son = (CATEGORY[label] for label in t[:4])
    return (singleton_counts(s1, s2, father),
            generational_counts(father, son, t.father_is_singleton,
                                YOSEH in (t.s1, t.s2), t.rules),
            bonus_applies(father, son))


@pytest.mark.parametrize("rules", SETTINGS, ids=lambda rules: "".join(
    "+" if getattr(rules, switch) else "-" for switch in SWITCHES))
def test_the_ledger_answers_as_the_table(rules):
    wrong = [(t[:4], ledger(t), table(t)) for t in tombs(rules)
             if ledger(t) != table(t)[1]]
    assert not wrong, f"{len(wrong)} tombs, such as {wrong[:3]}"


def test_every_row_decides_some_valid_tomb():
    decided = set()
    for rules in SETTINGS:
        for t in tombs(rules):
            decided |= table(t)[0]
    assert decided == {row[0] for row in [*SINGLETON_ROWS, *GENERATIONAL_ROWS]} | {"R14"}


def test_the_uncovered_case_is_reachable():
    # a father Yosef who is also a singleton, while a Yoseh is present
    t = Tomb(YOSEF, YOSEH, YOSEF, YESHUA, RuleLedger())
    assert t.valid
    names, (_, answer, _) = table(t)
    assert "uncovered" in names and answer == UNKNOWN
    assert ledger(t)[1] == UNKNOWN
