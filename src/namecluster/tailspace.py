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

* Factorisation. A male score is singleton_part(s1, s2, father) times
  generational_part(father, son, father_is_singleton, yoseh_in_singles)
  over bonus(father, son) (see ``scoring``). The ledger is asked for the
  M^3 singleton triples and the 4 M^2 (father, son, flags) pairs, never for
  the M^4 male tuples, and it answers which factors count, not their values.
* Integer scaling. The male RR values are multiplied by the lcm R of their
  denominators; an RR that does not count is 1, scaled to R. With the
  unknown-son factor un/ud and the bonus divisor bn/bd, a singleton part is
  the int (r_a or R) * (r_b or R) and a generational part over its bonus
  the int (r_f or R) * (r_s or R) * (un or ud) * (bd or bn). A male score is
  then s * g / D with the common scale D = R^4 * ud * bn. The category
  person-counts of each gender are scaled to ints by the lcm of their
  denominators in the same way.
* Bucketing. A tuple is in the tail for a women pair of score w exactly when
  s * g <= floor(observed * D / w), because s * g is an int. With
  observed = on/od and women RR values wn_i/wd_i, that threshold is the int
  on * D * wd_i * wd_j // (od * wn_i * wn_j). The distinct thresholds of the
  women pairs are sorted once; each valid male tuple adds its int mass to
  the bucket that ``bisect`` gives for s * g, and bucket i is in the tail
  for every women pair whose threshold is at or above the i-th. Tail mass is
  the sum of bucket masses times those women-pair masses, turned into one
  Fraction at the end.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .candidates import HypothesisSpec
from .scoring import (YESHUA, YOSEH, RuleLedger, bonus_applies, collides,
                      generational_counts, singleton_counts)


@dataclass(frozen=True)
class TailResult:
    total_mass: Fraction
    valid_mass: Fraction
    tail_mass: Fraction
    proportion: Fraction
    observed_rr: Fraction

    @property
    def valid_ratio(self) -> Fraction:
        return self.valid_mass / self.total_mass


def tuple_space_size(spec: HypothesisSpec) -> int:
    """Ordered person 6-tuples: female_total^2 * male_total^4."""
    return spec.female_total ** 2 * spec.male_total ** 4


def _scaled(values: list[Fraction]) -> tuple[int, list[int]]:
    """(d, [v * d]) with d the lcm of the denominators: every v * d is an int."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def enumerate_tail(spec: HypothesisSpec, rules: RuleLedger,
                   observed: Fraction) -> TailResult:
    """Total, valid, and tail mass of the sample space against ``observed``."""
    if observed <= 0:
        raise ValueError("observed RR must be positive")
    women, men = spec.women, spec.men
    m = len(men)
    wd, wcount = _scaled([c.weight * spec.female_total for c in women])
    md, mcount = _scaled([c.weight * spec.male_total for c in men])
    # rr[i] = men[i].rr * r; an rr that does not count is 1, scaled to r
    r, rr = _scaled([c.rr for c in men])
    un, ud = rules.unknown_son_factor.numerator, rules.unknown_son_factor.denominator
    bn, bd = rules.bonus_divisor.numerator, rules.bonus_divisor.denominator
    scale = r ** 4 * ud * bn

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

    # women pairs: mass per distinct threshold floor(observed * scale / w)
    top = observed.numerator * scale
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
    thresholds = sorted(by_threshold)
    # women mass whose threshold is at or above thresholds[i]
    women_at_or_above = [0] * (len(thresholds) + 1)
    for i in range(len(thresholds) - 1, -1, -1):
        women_at_or_above[i] = women_at_or_above[i + 1] + by_threshold[thresholds[i]]

    clash = [[collides(a, b) for b in men] for a in men]
    is_yeshua = [c.label == YESHUA for c in men]
    buckets = [0] * (len(thresholds) + 1)
    valid_m = 0
    for a, s1 in enumerate(men):
        for b, s2 in enumerate(men):
            if clash[a][b]:
                continue
            labels = (s1.label, s2.label)
            yeshua_single = is_yeshua[a] or is_yeshua[b]
            sons = [son for son in range(m)
                    if not clash[son][a] and not clash[son][b]]
            mass_ab = mcount[a] * mcount[b]
            for f, father in enumerate(men):
                c1, c2 = singleton_counts(s1, s2, father)
                s = (rr[a] if c1 else r) * (rr[b] if c2 else r)
                gen = gen_rows[f, father.label in labels, YOSEH in labels]
                mass_abf = mass_ab * mcount[f]
                for son in sons:
                    if clash[f][son]:
                        continue
                    mass = mass_abf * mcount[son]
                    valid_m += mass
                    if (rules.require_yeshua_in_tomb and not yeshua_single
                            and not is_yeshua[son]):
                        continue
                    buckets[bisect.bisect_left(thresholds, s * gen[son])] += mass

    tail = sum(n * w for n, w in zip(buckets, women_at_or_above))
    denominator = wd ** 2 * md ** 4
    total = Fraction(tuple_space_size(spec))
    valid = Fraction(valid_w * valid_m, denominator)
    tail_mass = Fraction(tail, denominator)
    return TailResult(total_mass=total, valid_mass=valid, tail_mass=tail_mass,
                      proportion=tail_mass / valid, observed_rr=observed)
