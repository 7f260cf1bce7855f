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
  denominators; an RR that does not count is 1, scaled to R. The category
  weights of each gender are scaled to ints by the lcm of their
  denominators in the same way, and the gender totals
  female_total^2 * male_total^4 multiply the masses at the end.
* Male table. The ledger's switches decide which factors count; its
  numbers, the unknown-son factor un/ud and the bonus divisor bn/bd, say
  only what they are worth. So ``male_table`` walks the male side once per
  (men, require_yeshua_in_tomb, allow_father_yeshua, count_unknown_sons),
  kept in the caller's memo, and sorts the valid male tuples into four
  classes: whether the unknown-son factor counts and whether R14's bonus
  applies. Per class it keeps the ascending distinct int bases
  b = s * (r_f or R) * (r_s or R), with s the singleton part, and the prefix
  sums of the mass of the tuples of each base that may join the tail. With
  the class factor F = (un or ud) * (bd or bn), a male score is b * F / D
  for the common scale D = R^4 * ud * bn. The walk visits unordered
  singleton pairs (a <= b) and counts a pair of two different categories
  twice. That is exact because everything the walk asks of the two
  singletons is symmetric in them: ``singleton_counts`` (R3 can drop only
  the singleton that shares the father's label, and two singletons sharing
  it collide), the clash tests, the flags father_is_singleton and
  yoseh_in_singles, and whether Yeshua is among them.
* Merge. A tuple is in the tail for a women pair of score w exactly when
  b * F <= t with t = floor(observed * D / w), because b * F is an int.
  With observed = on/od and women RR values wn_i/wd_i, t is the int
  on * D * wd_i * wd_j // (od * wn_i * wn_j), and for positive ints
  b * F <= t holds exactly when b <= t // F: no comparison needs an
  epsilon. ``enumerate_tail`` reads each woman's scaled weight, RR
  numerator and RR denominator once, and builds the women's collision table
  once with ``collides``, as ``male_table`` does for the men, so the pair
  loop touches only ints. Like the male walk, it visits unordered pairs
  (i <= j) and counts a pair of two different categories twice, since t,
  the pair mass and ``collides`` are symmetric in the two women. It sums
  the women-pair mass per distinct t and meets it, per class, with the
  prefix sum of the bases <= t // F, found by bisection. The sum of those
  products becomes one Fraction at the end.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import NamedTuple, Optional

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
    """Valid male 4-tuple mass, and per class the tail-eligible mass by base.

    A male score is base * F / (r**4 * ud * bn) with F the class factor; a
    mass over ``mass_scale`` is a sum of products of four male category
    weights.
    """

    r: int
    mass_scale: int
    valid_mass: int
    # (unknown-son factor counts, bonus applies, bases, mass below each index)
    classes: tuple[tuple[bool, bool, tuple[int, ...], tuple[int, ...]], ...]


def tuple_space_size(spec: HypothesisSpec) -> int:
    """Ordered person 6-tuples: female_total^2 * male_total^4."""
    return spec.female_total ** 2 * spec.male_total ** 4


def _scaled(values: list[Fraction]) -> tuple[int, list[int]]:
    """(d, [v * d]) with d the lcm of the denominators: every v * d is an int."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _prefix_sums(by_base: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ascending bases, and the mass of the bases below each index."""
    bases = tuple(sorted(by_base))
    return bases, tuple(accumulate(map(by_base.__getitem__, bases), initial=0))


def male_table(men: tuple[Category, ...], rules: RuleLedger) -> MaleTable:
    """The male side of the enumeration, walked over singleton pairs a <= b."""
    m = len(men)
    md, mcount = _scaled([c.weight for c in men])
    # rr[i] = men[i].rr * r; an rr that does not count is 1, scaled to r
    r, rr = _scaled([c.rr for c in men])
    classes = {(uc, bonus): {} for uc in (False, True) for bonus in (False, True)}

    def gen_row(f: int, father_is_singleton: bool,
                yoseh_in_singles: bool) -> list[tuple[int, dict[int, int]]]:
        """Per son: the generational base scaled by r**2, and its class."""
        father, row = men[f], []
        for j, son in enumerate(men):
            fc, sc, uc = generational_counts(father, son, father_is_singleton,
                                             yoseh_in_singles, rules)
            row.append(((rr[f] if fc else r) * (rr[j] if sc else r),
                        classes[uc, bonus_applies(father, son)]))
        return row

    gen_rows = {(f, fis, yis): gen_row(f, fis, yis) for f in range(m)
                for fis in (False, True) for yis in (False, True)}
    clash = [[collides(a, b) for b in men] for a in men]
    is_yeshua = [c.label == YESHUA for c in men]
    valid = 0
    for a, s1 in enumerate(men):
        for b in range(a, m):
            if clash[a][b]:
                continue
            s2 = men[b]
            labels = (s1.label, s2.label)
            sons = [son for son in range(m) if not clash[son][a] and not clash[son][b]]
            sons_mass = sum(mcount[son] for son in sons)
            # without Yeshua among the singletons, only a Yeshua son may
            # bring the tuple into the tail when the ledger requires him
            if rules.require_yeshua_in_tomb and not is_yeshua[a] and not is_yeshua[b]:
                sons = [son for son in sons if is_yeshua[son]]
            mass_ab = mcount[a] * mcount[b] * (1 if a == b else 2)
            for f, father in enumerate(men):
                c1, c2 = singleton_counts(s1, s2, father)
                s = (rr[a] if c1 else r) * (rr[b] if c2 else r)
                gen = gen_rows[f, father.label in labels, YOSEH in labels]
                clash_f = clash[f]
                mass_abf = mass_ab * mcount[f]
                # every son but the father's own category, when it is among them
                own = clash_f[f] and not clash_f[a] and not clash_f[b]
                valid += mass_abf * (sons_mass - (mcount[f] if own else 0))
                for son in sons:
                    if clash_f[son]:
                        continue
                    g, by_base = gen[son]
                    base = s * g
                    by_base[base] = by_base.get(base, 0) + mass_abf * mcount[son]
    return MaleTable(r=r, mass_scale=md ** 4, valid_mass=valid,
                     classes=tuple((*key, *_prefix_sums(by_base))
                                   for key, by_base in classes.items() if by_base))


def enumerate_tail(spec: HypothesisSpec, rules: RuleLedger, observed: Fraction,
                   memo: Optional[dict] = None) -> TailResult:
    """Total, valid, and tail mass of the sample space against ``observed``.

    ``memo`` maps (men, the three ledger switches) to the male table walked
    for them; a table found there is not walked again. The men enter the key
    as their labels and the ints of their weights and RR values, which hash
    far faster than the Fractions; equal men give equal ints, as a Fraction
    is kept in lowest terms.
    """
    if observed <= 0:
        raise ValueError("observed RR must be positive")
    memo = {} if memo is None else memo
    key = (tuple((c.label, c.weight.numerator, c.weight.denominator,
                  c.rr.numerator, c.rr.denominator) for c in spec.men),
           rules.require_yeshua_in_tomb, rules.allow_father_yeshua,
           rules.count_unknown_sons)
    table = memo.get(key)
    if table is None:
        table = memo[key] = male_table(spec.men, rules)
    un, ud = rules.unknown_son_factor.numerator, rules.unknown_son_factor.denominator
    bn, bd = rules.bonus_divisor.numerator, rules.bonus_divisor.denominator
    women = spec.women
    wd, wcount = _scaled([c.weight for c in women])
    rr_num = [c.rr.numerator for c in women]
    rr_den = [c.rr.denominator for c in women]
    clash = [[collides(a, b) for b in women] for a in women]

    # women pairs: mass per distinct threshold floor(observed * D / w)
    top, od = observed.numerator * table.r ** 4 * ud * bn, observed.denominator
    valid_w = 0
    by_threshold: dict[int, int] = {}
    for i, clash_i in enumerate(clash):
        top_i, od_i, count_i = top * rr_den[i], od * rr_num[i], wcount[i]
        for j in range(i, len(women)):
            if clash_i[j]:
                continue
            mass = count_i * wcount[j] * (1 if i == j else 2)
            valid_w += mass
            t = top_i * rr_den[j] // (od_i * rr_num[j])
            by_threshold[t] = by_threshold.get(t, 0) + mass

    # per class: each women threshold t meets the mass of the bases <= t // factor
    tail = 0
    for uc, bonus, bases, below in table.classes:
        factor = (un if uc else ud) * (bd if bonus else bn)
        for t, mass in by_threshold.items():
            tail += mass * below[bisect_right(bases, t // factor)]

    totals = tuple_space_size(spec)
    denominator = wd ** 2 * table.mass_scale
    total = Fraction(totals)
    valid = Fraction(valid_w * table.valid_mass * totals, denominator)
    tail_mass = Fraction(tail * totals, denominator)
    return TailResult(total_mass=total, valid_mass=valid, tail_mass=tail_mass,
                      proportion=tail_mass / valid, observed_rr=observed)
