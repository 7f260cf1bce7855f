"""Realism validation and RR scoring of a six-slot tomb configuration.

A configuration holds two women, two singleton men, and the father/son pair
of a generational ossuary, each given as a category label of one hypothesis.
Validation enforces the realism constraints (no category may be drawn twice
into incompatible slots, with the uninformative Other class exempt).
Scoring multiplies the slot RR values and then applies a ledger of familial
adjustments keyed on the male candidate roles.

The adjustment ledger, in the order audited against the reference analysis:

  R1  father Yeshua: the pair scores 1 (with ``allow_father_yeshua`` the
      father's rarity counts but his son stays unknown).
  R2  father Other: the pair scores 1.
  R3  a father who also appears as a singleton is counted once only.
  R4  singletons Yosef and Yoseh together: that Yosef is unknown, scores 1.
  R5  father Yoseh: son unknown (1) unless named for a close relative
      (Yeshua, Yosef, James, Cleopas), then son rr times the unknown-son
      factor.
  R6  father Cleopas: as R5 with sons Yosef, James, Yoseh.
  R7  father Yoseh with a singleton Yosef: that Yosef scores 1.
  R8  father Yosef, not a singleton, Yoseh present: pair scores 1 unless the
      son is Yeshua, Yoseh or James (full value).
  R9  father Yosef, not a singleton, no Yoseh: pair scores 1 unless the son
      is Yeshua or James (full value).
  R10 father Yosef who is also a singleton, no Yoseh: sons Yeshua or James
      count at rr times the factor; other sons unknown.
  R11 father Yosef, son Cleopas, no Yoseh: full pair value times the factor.
  R12 father James who is also a singleton: sons Yoseh, Yeshua, Yosef or
      Cleopas count at rr times the factor; others unknown.
  R13 father James, not a singleton: son Cleopas counts in full; sons Yoseh,
      Yosef or Yeshua at rr times the factor; others unknown.
  R14 son Yeshua of father Yosef: the total is divided by the bonus divisor.

A father Yosef who is also a singleton while a Yoseh is present falls under
none of the written adjustments; the pair is unknowable and scores 1 (this
is what reproduces the reference valid and tail masses exactly).

The ledger answers three questions, which factors count and not what they
are worth: ``singleton_counts`` says whether each singleton's RR counts
under R3, R4 and R7, ``generational_counts`` whether the father's RR, the
son's RR and the unknown-son factor count under R1, R2, R5-R13 and the
uncovered case, and ``bonus_applies`` whether R14 divides the score. A
factor that does not count is 1. ``score_male_slots`` evaluates the three
answers as the exact Fractions (singleton part, generational part, bonus
divisor), and the male score is

  singleton part * generational part / bonus divisor

R3, R4 and R7 touch only the singleton part, R14 only the bonus, and the
generational part sees the singletons only through two flags: whether one
shares the father's label and whether one is Yoseh. The enumerator in
``tailspace`` asks the same questions for M^3 singleton triples and 4 M^2
pairs instead of M^4 tuples, and evaluates the answers on int-scaled RR
values.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .candidates import OTHER, Category, HypothesisSpec
from .onomasticon import InputError, checked, parse_flag, parse_fraction

YOSEF = "Yosef"
YESHUA = "Yeshua"
YOSEH = "Yoseh"
JAMES = "James"
CLEOPAS = "Cleopas"
ONE = Fraction(1)


class ContractViolation(ValueError):
    """score() was called on an invalid configuration."""


@checked
class RuleLedger(namedtuple(
        "RuleLedger", "bonus_divisor unknown_son_factor require_yeshua_in_tomb "
        "allow_father_yeshua count_unknown_sons",
        defaults=(Fraction(6, 5), Fraction(5), False, False, True))):
    """Numeric parameters and toggles of the configurational adjustments."""

    __slots__ = ()
    # bonus_divisor, unknown_son_factor: Fraction; require_yeshua_in_tomb,
    # allow_father_yeshua, count_unknown_sons: bool

    def check(self):
        if self.bonus_divisor < 1:
            raise InputError("bonus_divisor must be >= 1")
        if self.unknown_son_factor < 1:
            raise InputError("unknown_son_factor must be >= 1")
        for name in ("require_yeshua_in_tomb", "allow_father_yeshua", "count_unknown_sons"):
            value = getattr(self, name)
            if not isinstance(value, bool):  # a word such as 'off' would be truthy
                raise InputError(f"{name} must be True or False, got {value!r}")


# how a flag, a --config value and a suite's `set` record read each field
RULE_PARSERS = {"bonus_divisor": parse_fraction, "unknown_son_factor": parse_fraction,
                **dict.fromkeys(("require_yeshua_in_tomb", "allow_father_yeshua",
                                 "count_unknown_sons"), parse_flag)}


class TombConfiguration(namedtuple(
        "TombConfiguration", "woman1 woman2 singleton1 singleton2 father son")):
    """Category labels for the six inscribed slots, each a str."""

    __slots__ = ()


class RRValue(namedtuple(
        "RRValue", "value women_part singleton_part generational_part bonus_applied",
        defaults=(Fraction(1),))):
    """Score of a configuration, factored by slot group; every field a Fraction."""

    __slots__ = ()


def collides(a: Category, b: Category) -> bool:
    """Whether two categories may not fill two slots of one tomb.

    Equality is category-level; the Other category never collides with
    itself.
    """
    return a.label == b.label and a.label != OTHER


def validate(config: TombConfiguration, spec: HypothesisSpec) -> str | None:
    """Return the reason a configuration is impossible, or None when valid.

    Slots collide as judged by ``collides``. A father may share a category
    with a singleton.
    """
    w1 = spec.category("female", config.woman1)
    w2 = spec.category("female", config.woman2)
    s1 = spec.category("male", config.singleton1)
    s2 = spec.category("male", config.singleton2)
    father = spec.category("male", config.father)
    son = spec.category("male", config.son)

    if collides(w1, w2):
        return "duplicate woman"
    if collides(s1, s2):
        return "duplicate singleton"
    if collides(father, son):
        return "father and son share a rendition"
    if collides(son, s1) or collides(son, s2):
        return "son duplicates a singleton"
    return None


def singleton_counts(s1: Category, s2: Category,
                     father: Category) -> tuple[bool, bool]:
    """Whether each singleton's RR counts after R3, R4 and R7."""
    c1 = c2 = True
    if father.label != OTHER:  # R3: a father-singleton is counted once
        if s1.label == father.label:
            c1 = False
        elif s2.label == father.label:
            c2 = False
    if {s1.label, s2.label} == {YOSEF, YOSEH}:  # R4
        if s1.label == YOSEF:
            c1 = False
        else:
            c2 = False
    if father.label == YOSEH:  # R7
        if s1.label == YOSEF:
            c1 = False
        if s2.label == YOSEF:
            c2 = False
    return c1, c2


def generational_counts(father: Category, son: Category,
                        father_is_singleton: bool, yoseh_in_singles: bool,
                        rules: RuleLedger) -> tuple[bool, bool, bool]:
    """Whether the father's RR, the son's RR and the unknown-son factor count.

    Of the singletons it needs only whether one shares the father's label and
    whether one is Yoseh.
    """
    unknown = (False, False, False)
    full = (True, True, False)

    def named_for_relative(allowed: tuple[str, ...]) -> tuple[bool, bool, bool]:
        named = son.label in allowed and rules.count_unknown_sons
        return True, named, named

    yoseh_present = yoseh_in_singles or son.label == YOSEH

    if father.label == OTHER:
        return unknown  # R2
    if father.label == YESHUA:
        # R1; when allowed the father counts, with no known son of a Yeshua
        return rules.allow_father_yeshua, False, False
    if father.label == YOSEH:
        return named_for_relative((YESHUA, YOSEF, JAMES, CLEOPAS))  # R5
    if father.label == CLEOPAS:
        return named_for_relative((YOSEF, JAMES, YOSEH))  # R6
    if father.label == YOSEF:
        if son.label == CLEOPAS and not yoseh_present:
            return named_for_relative((CLEOPAS,))  # R11
        if yoseh_present:
            if father_is_singleton:
                return unknown  # uncovered case: unknowable pair
            return full if son.label in (YESHUA, YOSEH, JAMES) else unknown  # R8
        if father_is_singleton:
            return named_for_relative((YESHUA, JAMES))  # R10
        return full if son.label in (YESHUA, JAMES) else unknown  # R9
    if father.label == JAMES:
        if father_is_singleton:
            return named_for_relative((YOSEH, YESHUA, YOSEF, CLEOPAS))  # R12
        if son.label == CLEOPAS:
            return full  # R13, a known grandson
        return named_for_relative((YOSEH, YOSEF, YESHUA))  # R13
    # a candidate with no familial rules contributes its plain pair product
    return True, son.label != OTHER, False


def bonus_applies(father: Category, son: Category) -> bool:
    """Whether the whole score is divided by the bonus divisor (R14)."""
    return father.label == YOSEF and son.label == YESHUA


def score_male_slots(singleton1: str, singleton2: str, father_label: str,
                     son_label: str, spec: HypothesisSpec,
                     rules: RuleLedger) -> tuple[Fraction, Fraction, Fraction]:
    """(singleton part, generational part, bonus divisor) of the male slots.

    Each part is the product of the factors that the ledger says count.
    """
    s1 = spec.category("male", singleton1)
    s2 = spec.category("male", singleton2)
    father = spec.category("male", father_label)
    son = spec.category("male", son_label)
    singles = (s1.label, s2.label)
    c1, c2 = singleton_counts(s1, s2, father)
    fc, sc, uc = generational_counts(father, son, father.label in singles,
                                     YOSEH in singles, rules)
    return ((s1.rr if c1 else ONE) * (s2.rr if c2 else ONE),
            (father.rr if fc else ONE) * (son.rr if sc else ONE)
            * (rules.unknown_son_factor if uc else ONE),
            rules.bonus_divisor if bonus_applies(father, son) else ONE)


def score(config: TombConfiguration, spec: HypothesisSpec,
          rules: RuleLedger = RuleLedger()) -> RRValue:
    """RR value of a valid configuration under the adjustment ledger."""
    reason = validate(config, spec)
    if reason is not None:
        raise ContractViolation(reason)
    w1 = spec.category("female", config.woman1)
    w2 = spec.category("female", config.woman2)
    singles, generational, divisor = score_male_slots(
        config.singleton1, config.singleton2, config.father, config.son,
        spec, rules)
    women_part = w1.rr * w2.rr
    value = women_part * singles * generational / divisor
    return RRValue(value=value, women_part=women_part,
                   singleton_part=singles, generational_part=generational,
                   bonus_applied=divisor)
