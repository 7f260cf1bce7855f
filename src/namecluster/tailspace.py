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
  triples and 4 M^2 pairs, never the M^4 male tuples, and answered as ints;
  the rule names that come with the answers are not read here.
* Integer scaling. The male RR values are multiplied by the lcm R of their
  denominators; an RR that does not count is 1, scaled to R. The category
  weights of each gender are scaled to ints by the lcm of their
  denominators in the same way, and the gender totals
  female_total^2 * male_total^4 multiply the masses at the end.
* Male table. The ledger's switches decide which factors count; its
  numbers, the unknown-son factor un/ud and the bonus divisor bn/bd, say
  only what they are worth. So ``male_table`` walks the male side once per
  men and ledger apart from those two numbers, kept in the caller's memo,
  and sorts the valid male tuples into four classes: whether the
  unknown-son factor counts and whether R14's bonus applies. Per class it
  keeps the ascending distinct int bases
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
* Merge. ``distribution`` reads no threshold. It reads each woman's scaled
  weight and RR once as ints and sums the mass of each ordered women pair
  that ``collides`` allows per pair RR wn/wd. The observed RR, un/ud and
  bn/bd enter in ``tail`` alone. A tuple is in the tail for a pair exactly
  when b * F <= t = floor(observed * D * wd / wn), as b * F is an int, and
  for positive ints that holds exactly when b <= t // F: no comparison
  needs an epsilon. Per class, each pair's mass meets the prefix sum of the
  bases <= t // F, found by bisection, and the sum of those products becomes
  one Fraction at the end. So one distribution serves any threshold.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Optional, Sequence

from .candidates import (CandidateDescriptor, Category, HypothesisSpec, TombConfiguration,
                         build_spec)
from .onomasticon import InputError, Onomasticon
from .scoring import (YESHUA, YOSEH, RuleLedger, bonus_applies, collides, generational_counts,
                      score, singleton_counts)


class TailResult(namedtuple(
        "TailResult", "total_mass valid_mass tail_mass proportion")):
    """The enumeration's masses and tail proportion; every field a Fraction."""

    __slots__ = ()

    @property
    def valid_ratio(self) -> Fraction:
        return self.valid_mass / self.total_mass


class MaleTable(namedtuple("MaleTable", "r mass_scale valid_mass classes")):
    """Valid male 4-tuple mass, and per class the tail-eligible mass by base.

    A male score is base * F / (r**4 * ud * bn) with F the class factor; a
    mass over ``mass_scale`` is a sum of products of four male category
    weights.
    """

    __slots__ = ()
    # r, mass_scale, valid_mass: int; classes: a tuple of (unknown-son factor
    # counts, bonus applies, bases, mass below each index), of types
    # (bool, bool, tuple[int, ...], tuple[int, ...])


class Distribution(namedtuple("Distribution", "table pairs scale size")):
    """The space apart from any threshold: the male table, each valid women
    pair's int mass over ``scale ** 2`` by its pair RR (numerator,
    denominator), and ``tuple_space_size``."""

    __slots__ = ()


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
            _, (fc, sc, uc) = generational_counts(father, son, father_is_singleton,
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
                dropped1, dropped2 = singleton_counts(s1, s2, father)
                s = (r if dropped1 else rr[a]) * (r if dropped2 else rr[b])
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


def distribution(spec: HypothesisSpec, rules: RuleLedger,
                 memo: Optional[dict] = None) -> Distribution:
    """The space of ``spec`` apart from any threshold; of ``rules``, all but
    the two numbers that ``tail`` alone reads.

    ``memo`` maps (men, the ledger with those two numbers set to 1) to the
    male table walked for them; a table found there is not walked again. The
    men enter the key as their labels and the ints of their weights and RR
    values, which hash far faster than the Fractions; equal men give equal
    ints, as a Fraction is kept in lowest terms.
    """
    memo = {} if memo is None else memo
    key = (tuple((c.label, c.weight.numerator, c.weight.denominator,
                  c.rr.numerator, c.rr.denominator) for c in spec.men),
           rules._replace(bonus_divisor=1, unknown_son_factor=1))
    table = memo.get(key)
    if table is None:
        table = memo[key] = male_table(spec.men, rules)
    scale, wcount = _scaled([c.weight for c in spec.women])
    women = [(c, c.rr.numerator, c.rr.denominator, count)
             for c, count in zip(spec.women, wcount)]
    pairs: dict[tuple[int, int], int] = {}
    for a, num_a, den_a, count_a in women:
        for b, num_b, den_b, count_b in women:
            if not collides(a, b):
                pair = num_a * num_b, den_a * den_b
                pairs[pair] = pairs.get(pair, 0) + count_a * count_b
    return Distribution(table=table, pairs=pairs, scale=scale, size=tuple_space_size(spec))


def tail(dist: Distribution, rules: RuleLedger, observed: Fraction) -> TailResult:
    """The masses of ``dist`` and its tail at or below a positive ``observed``,
    under the ledger's two numbers; a space of no valid mass is an InputError."""
    table = dist.table
    un, ud = rules.unknown_son_factor.numerator, rules.unknown_son_factor.denominator
    bn, bd = rules.bonus_divisor.numerator, rules.bonus_divisor.denominator
    # each pair RR wn/wd: the threshold floor(observed * D * wd / wn)
    top, od = observed.numerator * table.r ** 4 * ud * bn, observed.denominator
    thresholds = [(top * wd // (od * wn), mass) for (wn, wd), mass in dist.pairs.items()]
    in_tail = 0
    for uc, bonus, bases, below in table.classes:
        factor = (un if uc else ud) * (bd if bonus else bn)
        for t, mass in thresholds:
            in_tail += mass * below[bisect_right(bases, t // factor)]
    valid = sum(dist.pairs.values()) * table.valid_mass  # over the scale of in_tail
    if not valid:  # the proportion would be 0/0
        raise InputError("no realism-valid tomb has positive mass")
    size, denominator = dist.size, dist.scale ** 2 * table.mass_scale
    return TailResult(total_mass=Fraction(size), valid_mass=Fraction(valid * size, denominator),
                      tail_mass=Fraction(in_tail * size, denominator),
                      proportion=Fraction(in_tail, valid))


def enumerate_tail(spec: HypothesisSpec, rules: RuleLedger, observed: Fraction,
                   memo: Optional[dict] = None) -> TailResult:
    """Total, valid, and tail mass of the sample space against ``observed``;
    ``memo`` is ``distribution``'s."""
    if observed <= 0:
        raise ValueError("observed RR must be positive")
    return tail(distribution(spec, rules, memo), rules, observed)


def analyze(onom: Onomasticon, descriptors: Sequence[CandidateDescriptor], rules: RuleLedger,
            observed: TombConfiguration,
            memo: Optional[dict] = None) -> tuple[HypothesisSpec, Fraction, TailResult]:
    """The spec of ``descriptors``, the RR of ``observed`` (a tomb it cannot
    hold is an InputError) and its tail; ``memo`` is build_spec's and distribution's."""
    spec = build_spec(onom, descriptors, memo)
    try:
        observed_rr = score(observed, spec, rules)
    except InputError as exc:  # a label it lacks, slots that collide
        raise InputError(f"observed: {exc}") from exc
    return spec, observed_rr, enumerate_tail(spec, rules, observed_rr, memo)
