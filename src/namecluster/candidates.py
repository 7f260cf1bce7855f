"""A priori candidate lists and their per-category weights and RR values.

A hypothesis is an ordered list of candidate categories per gender plus one
catch-all category labelled "Other", a label no candidate may take, absorbing
the complement. Sampling weights come from the onomasticon (slice estimator,
full generic, or residual-of-generic); RR values follow the rarest-class
rule: a slice candidate scores at its slice frequency, a residual-of-generic
category scores at the full generic frequency, and Other scores 1.
``build_categories`` reads each candidate's ``Onomasticon.frequency`` once
and derives from it both the weight and the RR; a residual's weight is that
frequency less its generic's slice weights. A generic is taken whole once, or
split into slices plus at most one residual: two candidates that would draw
the same table persons are rejected.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Optional, Sequence, Union

from .onomasticon import (FEMALE, MALE, InputError, Onomasticon, checked, load_source,
                          parse_fraction, parse_options, read_records)

OTHER = "Other"
BUNDLED_HYPOTHESIS = "baseline.cfg"  # the packaged file that "bundled" names


@checked
class Category(namedtuple("Category", "label weight rr")):
    """One sampling category: a label, a weight, and an RR value."""

    __slots__ = ()
    # label: str; weight, rr: Fraction

    def check(self):
        if not 0 <= self.weight <= 1:
            raise InputError(f"category {self.label}: weight outside [0,1]")
        if not 0 < self.rr <= 1:
            raise InputError(f"category {self.label}: rr outside (0,1]")


class CandidateDescriptor(namedtuple(
        "CandidateDescriptor", "person gender generic rendition_class label weight rr scale",
        defaults=("", "generic", None, None, None, Fraction(1)))):
    """How one a priori person maps onto the onomasticon.

    ``rendition_class`` is a slice label, "generic", or "residual" (the
    generic minus its sliced-out candidates; rr stays the full generic
    frequency). ``scale`` multiplies both weight and RR value; the freed or
    absorbed mass moves to the residual of the same generic when one exists,
    otherwise to Other.
    """

    __slots__ = ()
    # person, gender, generic, rendition_class: str; label: str or None;
    # weight, rr: Fraction or None; scale: Fraction

    def resolved_label(self) -> str:
        if self.label:
            return self.label
        if self.rendition_class in ("generic", "residual"):
            return self.generic
        return self.rendition_class


@checked
class HypothesisSpec(namedtuple("HypothesisSpec", "women men female_total male_total")):
    """Ordered categories per gender; weights sum to exactly 1 per gender."""

    __slots__ = ()
    # women, men: tuple[Category, ...]; female_total, male_total: int

    def check(self):
        for gender, cats in ((FEMALE, self.women), (MALE, self.men)):
            labels = [c.label for c in cats]
            if len(set(labels)) != len(labels):
                label = next(label for i, label in enumerate(labels) if label in labels[:i])
                raise InputError(f"{gender} categories: {label}: duplicate label")
            # sum to 1 in integers over the lcm of the denominators: a
            # Fraction sum reduces at every step
            den = lcm(*(c.weight.denominator for c in cats))
            if sum(c.weight.numerator * den // c.weight.denominator for c in cats) != den:
                raise InputError(f"{gender} categories: weights must sum to 1")
            if [c.rr for c in cats if c.label == OTHER] != [1]:
                raise InputError(f"{gender} categories: exactly one Other, of rr 1")

    def categories(self, gender: str) -> tuple[Category, ...]:
        return self.women if gender == FEMALE else self.men

    def category(self, gender: str, label: str) -> Category:
        for c in self.categories(gender):
            if c.label == label:
                return c
        raise InputError(f"category: {gender}/{label}: unknown")


def _frequency(onom: Onomasticon, desc: CandidateDescriptor) -> Fraction:
    """The generic's frequency for a generic or residual class, else the slice's."""
    whole = desc.rendition_class in ("generic", "residual")
    try:
        return onom.frequency(desc.generic, desc.gender, None if whole else desc.rendition_class)
    except InputError as exc:  # such as a generic or a slice the table lacks
        raise InputError(f"candidate {desc.person}: {exc}") from exc


def _check_overlaps(candidates: Sequence[CandidateDescriptor]) -> None:
    """Reject two candidates that draw the same table persons.

    A generic is taken whole once, or split into slices plus at most one
    residual. A candidate with an explicit weight draws no table persons; two
    candidates of one label are left to the duplicate-label check.
    """
    drawn: dict[str, list[CandidateDescriptor]] = {}
    for desc in candidates:
        if desc.weight is not None:
            continue
        for prior in drawn.setdefault(desc.generic, []):
            classes = (prior.rendition_class, desc.rendition_class)
            if ((classes[0] == classes[1] or "generic" in classes)
                    and prior.resolved_label() != desc.resolved_label()):
                raise InputError(f"candidates {prior.person} and {desc.person}: "
                                 f"both draw persons of {desc.generic}")
        drawn[desc.generic].append(desc)


def build_categories(onom: Onomasticon, gender: str,
                     candidates: Sequence[CandidateDescriptor]) -> tuple[Category, ...]:
    """One gender's categories: its candidates in order, then Other.

    Each candidate's table frequency is read once; it gives the candidate's
    weight and its RR, an override aside, each times its scale. A residual
    weighs its generic's frequency less the weights of the generic's slices.
    """
    _check_overlaps(candidates)
    frequencies = [None if d.weight is not None and d.rr is not None
                   else _frequency(onom, d) for d in candidates]
    weights = [freq if desc.weight is None else desc.weight
               for desc, freq in zip(candidates, frequencies)]  # before scale
    sliced: dict[str, Fraction] = {}
    for desc, weight in zip(candidates, weights):
        if desc.rendition_class not in ("generic", "residual"):
            sliced[desc.generic] = sliced.get(desc.generic, 0) + weight * desc.scale
    out: list[Category] = []
    for desc, freq, weight in zip(candidates, frequencies, weights):
        label = desc.resolved_label()
        if desc.weight is None and desc.rendition_class == "residual":
            weight -= sliced.get(desc.generic, 0)
            if weight < 0:
                raise InputError(
                    f"candidate {desc.person}: negative residual of {desc.generic}")
        weight *= desc.scale
        rr = (freq if desc.rr is None else desc.rr) * desc.scale
        if desc.rendition_class == "residual" and rr < weight:
            raise InputError(
                f"category {label}: residual weight exceeds the generic rr")
        out.append(Category(label=label, weight=weight, rr=rr))
    other = 1 - sum(c.weight for c in out)
    if other < 0:
        raise InputError(f"{gender} candidates: weights exceed 1")
    out.append(Category(label=OTHER, weight=other, rr=Fraction(1)))
    return tuple(out)


def build_spec(onom: Onomasticon, candidates: Sequence[CandidateDescriptor],
               memo: Optional[dict] = None) -> HypothesisSpec:
    """Realize candidate descriptors into a weighted category list per gender.

    ``memo`` maps (gender, that gender's descriptors) to the table and the
    categories built from it; a gender found there is built again only from
    another table object.
    """
    persons = [d.person for d in candidates]
    if len(set(persons)) != len(persons):
        person = next(person for i, person in enumerate(persons) if person in persons[:i])
        raise InputError(f"candidate {person}: given twice")
    for d in candidates:
        if d.gender not in (FEMALE, MALE):
            raise InputError(f"candidate {d.person}: unknown gender {d.gender!r}")
    memo = {} if memo is None else memo
    built = []
    for gender in (FEMALE, MALE):
        key = (gender, tuple(d for d in candidates if d.gender == gender))
        hit = memo.get(key)
        if hit is None or hit[0] is not onom:  # built from another table
            hit = memo[key] = onom, build_categories(onom, *key)
        built.append(hit[1])
    return HypothesisSpec(women=built[0], men=built[1],
                          female_total=onom.female_total,
                          male_total=onom.male_total)


# ---------------------------------------------------------------------------
# hypothesis config files (grammar: see onomasticon.py)
#
#   candidate <person> <gender> <generic> <class> [label=..] [weight=a/b]
#             [rr=a/b] [scale=a/b]
#   observed woman1=.. woman2=.. singleton1=.. singleton2=.. father=.. son=..
# <class> is slice:<label>, generic, or residual. observed is required, once, in full.
# ---------------------------------------------------------------------------

class TombConfiguration(namedtuple(
        "TombConfiguration", "woman1 woman2 singleton1 singleton2 father son")):
    """Category labels for the six inscribed slots, each a str."""

    __slots__ = ()


CANDIDATE_OPTIONS = {"label": str, "weight": parse_fraction,
                     "rr": parse_fraction, "scale": parse_fraction}
OBSERVED_OPTIONS = dict.fromkeys(TombConfiguration._fields, str)


def parse_candidate(fields) -> CandidateDescriptor:
    """A descriptor from <person> <gender> <generic> <class> [key=value]..."""
    person, gender, generic, rclass, *options = fields
    label = rclass.removeprefix("slice:")
    if rclass not in ("generic", "residual") and label in (rclass, "", "generic", "residual"):
        raise ValueError(f"class: expected generic, residual or slice:<label>, got {rclass!r}")
    return CandidateDescriptor(person, gender, generic, label,
                               **parse_options(options, CANDIDATE_OPTIONS))


def parse_hypothesis_config(text: str):
    """Return (descriptors, the observed TombConfiguration)."""
    tombs: list[TombConfiguration] = []
    descriptors: dict[str, CandidateDescriptor] = {}  # by person

    def observed(fields):
        slots = parse_options(fields, OBSERVED_OPTIONS)
        missing = [slot for slot in OBSERVED_OPTIONS if slot not in slots]
        if missing:
            raise ValueError(f"observed: missing {', '.join(missing)}")
        if tombs:
            raise ValueError("observed: given twice")
        tombs.append(TombConfiguration(**slots))

    def candidate(fields):
        desc = parse_candidate(fields)
        if descriptors.setdefault(desc.person, desc) is not desc:
            raise ValueError(f"candidate: {desc.person}: given twice")

    read_records(text, {"candidate": candidate, "observed": observed})
    if not tombs:
        raise ValueError("hypothesis config lacks an 'observed' record")
    return tuple(descriptors.values()), tombs[0]


def load_hypothesis_config(source: Union[str, Path] = "bundled"):
    return load_source(source, BUNDLED_HYPOTHESIS, parse_hypothesis_config)
