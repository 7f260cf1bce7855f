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
are worth, and names the rule behind each answer: ``singleton_counts`` gives
the rule of R3, R4 and R7 that drops each singleton's RR, or None when it
counts; ``generational_counts`` gives the rule that decides the pair (R1,
R2, R5-R13, "uncovered" or "plain") with whether the father's RR, the son's
RR and the unknown-son factor count; and ``bonus_applies`` says whether R14
divides the score. A factor that does not count is 1. ``male_factors``
lists the six male factors, each with its rule, and ``namecluster explain``
prints them after the women's RRs. ``score`` multiplies the women's RRs by
the male score, which ``score_male_slots`` returns in its three parts:

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

from .candidates import OTHER, Category, HypothesisSpec, TombConfiguration
from .onomasticon import BOUNDS, InputError, check_range, checked, parse_flag, parse_fraction

YOSEF = "Yosef"
YESHUA = "Yeshua"
YOSEH = "Yoseh"
JAMES = "James"
CLEOPAS = "Cleopas"
ONE = Fraction(1)


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
        for name, value in zip(self._fields, self):
            if name in BOUNDS:  # the two numbers
                check_range(name, value)
            elif not isinstance(value, bool):  # a word such as 'off' would be truthy
                raise InputError(f"{name} must be True or False, got {value!r}")


# how a flag and a suite's `set` record read each field
RULE_PARSERS = {"bonus_divisor": parse_fraction, "unknown_son_factor": parse_fraction,
                **dict.fromkeys(("require_yeshua_in_tomb", "allow_father_yeshua",
                                 "count_unknown_sons"), parse_flag)}


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
    w1, w2 = (spec.category("female", label) for label in config[:2])
    s1, s2, father, son = (spec.category("male", label) for label in config[2:])

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
                     father: Category) -> tuple[str | None, str | None]:
    """The rule that drops each singleton's RR, the first of R3, R4 and R7 in
    R-order, or None when it counts."""
    def dropped_by(me: Category, other: Category) -> str | None:
        if me.label == father.label != OTHER:
            return "R3"  # a father-singleton is counted once
        if me.label == YOSEF and other.label == YOSEH:
            return "R4"
        if me.label == YOSEF and father.label == YOSEH:
            return "R7"
        return None
    return dropped_by(s1, s2), dropped_by(s2, s1)


def generational_counts(father: Category, son: Category,
                        father_is_singleton: bool, yoseh_in_singles: bool,
                        rules: RuleLedger) -> tuple[str, tuple[bool, bool, bool]]:
    """The deciding rule, and whether the father's RR, the son's RR and the
    unknown-son factor count.

    The rule is R1, R2, R5-R13, "uncovered" or "plain". Of the singletons
    the answer needs only whether one shares the father's label and whether
    one is Yoseh.
    """
    unknown = (False, False, False)
    full = (True, True, False)

    def named_for_relative(allowed: tuple[str, ...]) -> tuple[bool, bool, bool]:
        named = son.label in allowed and rules.count_unknown_sons
        return True, named, named

    yoseh_present = yoseh_in_singles or son.label == YOSEH

    if father.label == OTHER:
        return "R2", unknown
    if father.label == YESHUA:
        # when allowed the father counts, with no known son of a Yeshua
        return "R1", (rules.allow_father_yeshua, False, False)
    if father.label == YOSEH:
        return "R5", named_for_relative((YESHUA, YOSEF, JAMES, CLEOPAS))
    if father.label == CLEOPAS:
        return "R6", named_for_relative((YOSEF, JAMES, YOSEH))
    if father.label == YOSEF:
        if son.label == CLEOPAS and not yoseh_present:
            return "R11", named_for_relative((CLEOPAS,))
        if yoseh_present:
            if father_is_singleton:
                return "uncovered", unknown  # an unknowable pair
            return "R8", full if son.label in (YESHUA, YOSEH, JAMES) else unknown
        if father_is_singleton:
            return "R10", named_for_relative((YESHUA, JAMES))
        return "R9", full if son.label in (YESHUA, JAMES) else unknown
    if father.label == JAMES:
        if father_is_singleton:
            return "R12", named_for_relative((YOSEH, YESHUA, YOSEF, CLEOPAS))
        if son.label == CLEOPAS:
            return "R13", full  # a known grandson
        return "R13", named_for_relative((YOSEH, YOSEF, YESHUA))
    # a candidate with no familial rules contributes its plain pair product
    return "plain", (True, son.label != OTHER, False)


def bonus_applies(father: Category, son: Category) -> bool:
    """Whether the whole score is divided by the bonus divisor (R14)."""
    return father.label == YOSEF and son.label == YESHUA


def male_factors(singleton1: str, singleton2: str, father_label: str,
                 son_label: str, spec: HypothesisSpec,
                 rules: RuleLedger) -> list[tuple[str, str | None, str | None, Fraction]]:
    """(slot, label, rule, factor) of the two singletons, the father, the son,
    the unknown-son factor and the bonus divisor, in that order.

    A factor that does not count is 1; ``rule`` names the ledger rule that
    decided it, or is None where none did.
    """
    s1 = spec.category("male", singleton1)
    s2 = spec.category("male", singleton2)
    father = spec.category("male", father_label)
    son = spec.category("male", son_label)
    singles = (s1.label, s2.label)
    r1, r2 = singleton_counts(s1, s2, father)
    rule, (fc, sc, uc) = generational_counts(father, son, father.label in singles,
                                             YOSEH in singles, rules)
    bonus = bonus_applies(father, son)
    return [("singleton1", s1.label, r1, ONE if r1 else s1.rr),
            ("singleton2", s2.label, r2, ONE if r2 else s2.rr),
            ("father", father.label, rule, father.rr if fc else ONE),
            ("son", son.label, rule, son.rr if sc else ONE),
            ("unknown-son-factor", None, rule, rules.unknown_son_factor if uc else ONE),
            ("bonus-divisor", None, "R14" if bonus else None,
             rules.bonus_divisor if bonus else ONE)]


def score_male_slots(singleton1: str, singleton2: str, father_label: str,
                     son_label: str, spec: HypothesisSpec,
                     rules: RuleLedger) -> tuple[Fraction, Fraction, Fraction]:
    """(singleton part, generational part, bonus divisor) of ``male_factors``."""
    s1, s2, father, son, unknown, divisor = (factor for *_, factor in male_factors(
        singleton1, singleton2, father_label, son_label, spec, rules))
    return s1 * s2, father * son * unknown, divisor


def score(config: TombConfiguration, spec: HypothesisSpec,
          rules: RuleLedger = RuleLedger()) -> Fraction:
    """RR value under the adjustment ledger; an invalid tomb raises InputError."""
    reason = validate(config, spec)
    if reason is not None:
        raise InputError(reason)
    w1, w2 = (spec.category("female", label).rr for label in config[:2])
    singles, generational, divisor = score_male_slots(*config[2:], spec, rules)
    return w1 * w2 * singles * generational / divisor
