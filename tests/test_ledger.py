"""The adjustment ledger of ``scoring``, restated as a decision table.

The R-list in the ``scoring`` module docstring is the ledger's only
specification. Each row below restates one rule, or one branch of a rule, as
a condition on a male tuple (s1, s2, father, son) and the answer that the
rule gives. No row calls or mirrors the ``if`` chain of ``scoring``. The
tests compare the table with ``singleton_counts``, ``generational_counts``
and ``bonus_applies`` on every realism-valid tuple over the five ledger
labels, one label that no rule names and Other, under all eight settings of
the three switches: both the answers and the rules that the code names
beside them. Each one-line mutant of ``scoring.py`` in MUTANTS, one or more
per rule, makes the code disagree with the table on some tomb.
"""

import itertools
import types
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from namecluster import scoring
from namecluster.candidates import OTHER, Category
from namecluster.scoring import (CLEOPAS, JAMES, YESHUA, YOSEF, YOSEH, RuleLedger,
                                 bonus_applies, generational_counts, singleton_counts)

PLAIN = "Simon"  # a label that no rule names
LABELS = (YESHUA, YOSEF, YOSEH, JAMES, CLEOPAS, PLAIN, OTHER)
SWITCHES = ("require_yeshua_in_tomb", "allow_father_yeshua", "count_unknown_sons")
SETTINGS = [RuleLedger(**dict(zip(SWITCHES, values)))
            for values in itertools.product((False, True), repeat=3)]
SETTING_IDS = ["".join("+" if getattr(rules, switch) else "-" for switch in SWITCHES)
               for rules in SETTINGS]
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


def deciding(t):
    """The rows that decide ``t``: per singleton the names of the singleton
    rows that name it, in table order, and the one generational row."""
    singles = [[name for name, names_me in SINGLETON_ROWS if names_me(t, me, other)]
               for me, other in [(t.s1, t.s2), (t.s2, t.s1)]]
    rows = [(name, answer) for name, condition, answer in GENERATIONAL_ROWS
            if condition(t)]
    assert len(rows) == 1, (t, [name for name, _ in rows])
    return singles, rows[0]


def table(t):
    """(names of the rows that decide ``t``, the table's three answers)."""
    singles, (name, answer) = deciding(t)
    names = {*singles[0], *singles[1], name} | ({"R14"} if r14(t) else set())
    return names, (tuple(not rows for rows in singles),
                   answer(t) if callable(answer) else answer, r14(t))


def code(t):
    """What ``scoring`` gives for ``t``: the rule that drops each singleton
    or None, and the deciding generational rule with its answer."""
    s1, s2, father, son = (CATEGORY[label] for label in t[:4])
    return (singleton_counts(s1, s2, father),
            generational_counts(father, son, t.father_is_singleton,
                                YOSEH in (t.s1, t.s2), t.rules))


def ledger(t):
    """The three answers of ``scoring`` for ``t``."""
    dropped, (_, answer) = code(t)
    return (tuple(rule is None for rule in dropped), answer,
            bonus_applies(CATEGORY[t.father], CATEGORY[t.son]))


def rules_named(t):
    """The rules that ``scoring`` names for ``t``: per singleton, then the pair."""
    dropped, (rule, _) = code(t)
    return (*dropped, rule)


def rules_of_table(t):
    """The rules that the table names for ``t``: per singleton the first of
    its deciding rows, or None, then the deciding row's name up to its first
    space (``R5 named`` is R5)."""
    singles, (name, _) = deciding(t)
    return (*(rows[0] if rows else None for rows in singles), name.split(" ")[0])


@pytest.mark.parametrize("rules", SETTINGS, ids=SETTING_IDS)
def test_the_ledger_answers_as_the_table(rules):
    wrong = [(t[:4], ledger(t), table(t)) for t in tombs(rules)
             if ledger(t) != table(t)[1]]
    assert not wrong, f"{len(wrong)} tombs, such as {wrong[:3]}"


@pytest.mark.parametrize("rules", SETTINGS, ids=SETTING_IDS)
def test_the_ledger_names_the_tables_rule(rules):
    wrong = [(t[:4], rules_named(t), rules_of_table(t)) for t in tombs(rules)
             if rules_named(t) != rules_of_table(t)]
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
    assert ledger(t)[1] == UNKNOWN and rules_named(t)[2] == "uncovered"


# (exact text in scoring.py, its mutant), each named for what it changes
MUTANTS = {
    "R1": ('return "R1", (rules.allow_father_yeshua, False, False)',
           'return "R1", (True, False, False)'),
    "R2": ('return "R2", unknown', 'return "R2", full'),
    "R3": ('return "R3"', 'return None'),
    "R3 Other": ("me.label == father.label != OTHER", "me.label == father.label"),
    "R4": ('return "R4"', 'return None'),
    "R5": ('"R5", named_for_relative((YESHUA, YOSEF, JAMES, CLEOPAS))',
           '"R5", named_for_relative((YESHUA, YOSEF, JAMES))'),
    "R6": ('"R6", named_for_relative((YOSEF, JAMES, YOSEH))',
           '"R6", named_for_relative((YOSEF, JAMES))'),
    "R7": ("and father.label == YOSEH", "and father.label == JAMES"),
    "R8": ("son.label in (YESHUA, YOSEH, JAMES)", "son.label in (YESHUA, JAMES)"),
    # a son Yoseh never reaches R9, so the mutant drops James
    "R9": ("son.label in (YESHUA, JAMES) else", "son.label in (YESHUA,) else"),
    "R10": ('"R10", named_for_relative((YESHUA, JAMES))',
            '"R10", named_for_relative((YESHUA,))'),
    "R11": ('return "R11", named_for_relative((CLEOPAS,))', 'return "R11", full'),
    "R12": ('"R12", named_for_relative((YOSEH, YESHUA, YOSEF, CLEOPAS))',
            '"R12", named_for_relative((YOSEH, YESHUA, YOSEF))'),
    "R13 grandson": ('return "R13", full  # a known grandson',
                     'return "R13", named_for_relative((CLEOPAS,))  # a known grandson'),
    "R13 named": ("named_for_relative((YOSEH, YOSEF, YESHUA))",
                  "named_for_relative((YOSEH, YOSEF))"),
    "R14": ("return father.label == YOSEF and son.label == YESHUA",
            "return father.label == YOSEF"),
    "uncovered": ('return "uncovered", unknown', 'return "uncovered", full'),
    "plain": ('return "plain", (True, son.label != OTHER, False)',
              'return "plain", (True, True, False)'),
    "yoseh_present": ("yoseh_present = yoseh_in_singles or son.label == YOSEH",
                      "yoseh_present = yoseh_in_singles"),
    "count_unknown_sons": ("named = son.label in allowed and rules.count_unknown_sons",
                           "named = son.label in allowed"),
}


def disagreements(old, new, monkeypatch):
    """The tombs on which ``scoring`` with ``old`` replaced by ``new``, run as a
    throwaway module, differs from the table in its answers or rule names."""
    path = Path(scoring.__file__)
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"not exactly once in scoring.py: {old}"
    mutant = types.ModuleType("namecluster.scoring")  # kept out of sys.modules
    mutant.__package__ = "namecluster"
    exec(compile(text.replace(old, new), str(path), "exec"), vars(mutant))
    for name in ("singleton_counts", "generational_counts", "bonus_applies"):
        monkeypatch.setitem(globals(), name, getattr(mutant, name))
    return (t for rules in SETTINGS for t in tombs(rules)
            if ledger(t) != table(t)[1] or rules_named(t) != rules_of_table(t))


@pytest.mark.parametrize("old, new", MUTANTS.values(), ids=list(MUTANTS))
def test_the_table_kills_a_ledger_mutant(old, new, monkeypatch):
    assert next(disagreements(old, new, monkeypatch), None), f"survived: {new}"


def test_an_unmutated_copy_agrees_with_the_table(monkeypatch):
    # so a killed mutant is killed by its change, not by running a copy
    old = MUTANTS["R2"][0]
    assert next(disagreements(old, old, monkeypatch), None) is None
