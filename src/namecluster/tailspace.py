"""Exact enumeration of the weighted sample space of tomb configurations.

Samples are ordered 6-tuples (woman1, woman2, singleton1, singleton2,
father, son) of categories. Each tuple carries mass equal to the product of
its category person-counts (weights times gender totals), so the full space
has mass female_total^2 * male_total^4. Tuples failing the realism
constraints (``scoring.collides``) count only toward the total; valid tuples
whose RR score is at most the observed value (exact rational comparison, no
epsilon) form the tail. With ``require_yeshua_in_tomb`` set, a valid tuple
joins the tail only if the Yeshua category occupies the son slot or a
singleton slot.

The enumeration stays exact without a Fraction per tuple, pair or triple:

* Factorisation. A male score (``scoring.score_male_slots``) is a singleton
  part of (s1, s2, father) times a generational part of (father, son, two
  flags) over a bonus divisor of (father, son), each built from the answer
  of one ledger question. The questions are asked for the M^3 singleton
  triples and 4 M^2 pairs, never the M^4 male tuples, and answered as ints.
* Integer scaling. The male RR values are multiplied by the lcm R of their
  denominators; an RR that does not count is 1, scaled to R. With the
  unknown-son factor un/ud and the bonus divisor bn/bd, a singleton part is
  the int (r_a or R) * (r_b or R) and a generational part over its bonus
  the int (r_f or R) * (r_s or R) * (un or ud) * (bd or bn). A male score is
  then s * g / D with the common scale D = R^4 * ud * bn. The category
  weights of each gender are scaled to ints by the lcm of their
  denominators in the same way, and the gender totals
  female_total^2 * male_total^4 multiply the masses at the end.
* Male table. The male side of the enumeration depends only on the male
  categories and the ledger, not on the women or on the observed RR, so it
  is summarised once per (men, rules) pair by ``male_table`` and memoised:
  the valid male mass and the ascending distinct int scores s * g, each
  with the mass of the valid male tuples of that score that may join the
  tail. The walk visits unordered singleton pairs (a <= b) and counts a
  pair of two different categories twice. That is exact
  because everything the walk asks of the two singletons is symmetric in
  them: ``singleton_counts`` (R3 can drop only the singleton that shares the
  father's label, and two singletons sharing it collide), the clash tests,
  the flags father_is_singleton and yoseh_in_singles, and whether Yeshua is
  among them.
* Merge. A tuple is in the tail for a women pair of score w exactly when
  s * g <= floor(observed * D / w), because s * g is an int. With
  observed = on/od and women RR values wn_i/wd_i, that threshold is the int
  on * D * wd_i * wd_j // (od * wn_i * wn_j). ``enumerate_tail`` builds the
  women-pair mass per distinct threshold and merges the thresholds with the
  male table in one walk from the top: each male score meets the women mass
  of every threshold at or above it. Tail mass is the sum of those products,
  turned into one Fraction at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .candidates import Category, HypothesisSpec
from .scoring import (YESHUA, YOSEH, RuleLedger, bonus_applies, collides,
                      generational_counts, singleton_counts)


class TailResult(NamedTuple):
    total_mass: Fraction
    valid_mass: Fraction
    tail_mass: Fraction
    proportion: Fraction
    observed_rr: Fraction

    @property
    def valid_ratio(self) -> Fraction:
        return self.valid_mass / self.total_mass


class MaleTable(NamedTuple):
    """Valid male 4-tuple mass and tail-eligible mass per distinct score.

    A male score is ``scores[i] / scale``. A mass over ``mass_scale`` is a
    sum of products of four male category weights.
    """

    scale: int
    mass_scale: int
    valid_mass: int
    scores: tuple[int, ...]       # ascending, distinct
    tail_masses: tuple[int, ...]  # per score: mass of the tuples that may join the tail


def tuple_space_size(spec: HypothesisSpec) -> int:
    """Ordered person 6-tuples: female_total^2 * male_total^4."""
    return spec.female_total ** 2 * spec.male_total ** 4


def _scaled(values: list[Fraction]) -> tuple[int, list[int]]:
    """(d, [v * d]) with d the lcm of the denominators: every v * d is an int."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


@lru_cache(maxsize=32)
def male_table(men: tuple[Category, ...], rules: RuleLedger) -> MaleTable:
    """The male side of the enumeration, walked over singleton pairs a <= b."""
    m = len(men)
    md, mcount = _scaled([c.weight for c in men])
    # rr[i] = men[i].rr * r; an rr that does not count is 1, scaled to r
    r, rr = _scaled([c.rr for c in men])
    un, ud = rules.unknown_son_factor.numerator, rules.unknown_son_factor.denominator
    bn, bd = rules.bonus_divisor.numerator, rules.bonus_divisor.denominator

    def gen_row(f: int, father_is_singleton: bool, yoseh_in_singles: bool) -> list[int]:
        """generational_part / bonus over every son, scaled by r**2 * ud * bn."""
        father, row = men[f], []
        for j, son in enumerate(men):
            fc, sc, uc = generational_counts(father, son, father_is_singleton,
                                             yoseh_in_singles, rules)
            row.append((rr[f] if fc else r) * (rr[j] if sc else r)
                       * (un if uc else ud) * (bd if bonus_applies(father, son) else bn))
        return row

    gen_rows = {(f, fis, yis): gen_row(f, fis, yis) for f in range(m)
                for fis in (False, True) for yis in (False, True)}
    clash = [[collides(a, b) for b in men] for a in men]
    is_yeshua = [c.label == YESHUA for c in men]
    by_score: dict[int, int] = {}
    valid = 0
    for a, s1 in enumerate(men):
        for b in range(a, m):
            if clash[a][b]:
                continue
            s2 = men[b]
            labels = (s1.label, s2.label)
            # without Yeshua among the singletons, only a Yeshua son may
            # bring the tuple into the tail when the ledger requires him
            yeshua_son_needed = (rules.require_yeshua_in_tomb
                                 and not is_yeshua[a] and not is_yeshua[b])
            sons = [son for son in range(m)
                    if not clash[son][a] and not clash[son][b]]
            mass_ab = mcount[a] * mcount[b] * (1 if a == b else 2)
            for f, father in enumerate(men):
                c1, c2 = singleton_counts(s1, s2, father)
                s = (rr[a] if c1 else r) * (rr[b] if c2 else r)
                gen = gen_rows[f, father.label in labels, YOSEH in labels]
                mass_abf = mass_ab * mcount[f]
                for son in sons:
                    if clash[f][son]:
                        continue
                    mass = mass_abf * mcount[son]
                    valid += mass
                    if yeshua_son_needed and not is_yeshua[son]:
                        continue
                    score = s * gen[son]
                    by_score[score] = by_score.get(score, 0) + mass
    scores = sorted(by_score)
    return MaleTable(scale=r ** 4 * ud * bn, mass_scale=md ** 4, valid_mass=valid,
                     scores=tuple(scores),
                     tail_masses=tuple(by_score[s] for s in scores))


def enumerate_tail(spec: HypothesisSpec, rules: RuleLedger,
                   observed: Fraction) -> TailResult:
    """Total, valid, and tail mass of the sample space against ``observed``."""
    if observed <= 0:
        raise ValueError("observed RR must be positive")
    table = male_table(spec.men, rules)
    women = spec.women
    wd, wcount = _scaled([c.weight for c in women])

    # women pairs: mass per distinct threshold floor(observed * scale / w)
    top = observed.numerator * table.scale
    valid_w = 0
    by_threshold: dict[int, int] = {}
    for i, w1 in enumerate(women):
        for j, w2 in enumerate(women):
            if collides(w1, w2):
                continue
            mass = wcount[i] * wcount[j]
            valid_w += mass
            t = (top * w1.rr.denominator * w2.rr.denominator
                 // (observed.denominator * w1.rr.numerator * w2.rr.numerator))
            by_threshold[t] = by_threshold.get(t, 0) + mass

    # from the top: each male score meets every women threshold at or above it
    thresholds = sorted(by_threshold, reverse=True)
    tail = women_mass = k = 0
    for score, mass in zip(reversed(table.scores), reversed(table.tail_masses)):
        while k < len(thresholds) and thresholds[k] >= score:
            women_mass += by_threshold[thresholds[k]]
            k += 1
        tail += mass * women_mass

    totals = tuple_space_size(spec)
    denominator = wd ** 2 * table.mass_scale
    total = Fraction(totals)
    valid = Fraction(valid_w * table.valid_mass * totals, denominator)
    tail_mass = Fraction(tail * totals, denominator)
    return TailResult(total_mass=total, valid_mass=valid, tail_mass=tail_mass,
                      proportion=tail_mass / valid, observed_rr=observed)
