"""Shared fixtures: bundled inputs and synthetic spec construction."""

from fractions import Fraction

import pytest

import namecluster as nc
from namecluster.candidates import OTHER, Category, HypothesisSpec
from namecluster.scoring import CLEOPAS, JAMES, YESHUA, YOSEF, YOSEH

from bundled import DESCRIPTORS


@pytest.fixture(scope="session")
def onom():
    return nc.load_onomasticon()


@pytest.fixture(scope="session")
def baseline(onom):
    return nc.build_spec(onom, DESCRIPTORS)


@pytest.fixture(scope="session")
def rules():
    return nc.RuleLedger()


ROLE_LABELS = (YOSEF, YESHUA, YOSEH, JAMES, CLEOPAS)


def make_spec(women_counts, men_counts, women_labels=None, men_labels=None):
    """Build a spec from integer category counts; the last count is Other.

    Weights and RR values coincide (count over the gender total), which is
    the plainest well-formed hypothesis and keeps person-level enumeration
    exact.
    """
    def cats(counts, labels, default_prefix):
        total = sum(counts)
        out = []
        for i, count in enumerate(counts):
            last = i == len(counts) - 1
            label = OTHER if last else (
                labels[i] if labels else f"{default_prefix}{i}")
            out.append(Category(
                label=label, weight=Fraction(count, total),
                rr=Fraction(1) if last else Fraction(count, total)))
        return tuple(out), total

    women, ftotal = cats(women_counts, women_labels, "W")
    men, mtotal = cats(men_counts, men_labels, "M")
    return HypothesisSpec(women=women, men=men,
                          female_total=ftotal, male_total=mtotal)


def random_synthetic(rng, with_roles=True):
    """Small random onomasticon: counts <= 6, <= 4 categories per gender."""
    def counts(max_cats, max_total):
        n = rng.randint(2, max_cats)
        out = [rng.randint(1, 3) for _ in range(n - 1)]
        other = rng.randint(1, max(1, max_total - sum(out)))
        return out + [other]

    women_counts = counts(4, 6)
    men_counts = counts(4, 7)
    men_labels = None
    if with_roles and len(men_counts) > 1:
        picks = rng.sample(ROLE_LABELS, len(men_counts) - 1)
        men_labels = list(picks)
    spec = make_spec(women_counts, men_counts, men_labels=men_labels)
    bonus = Fraction(6, 5) if rng.random() < 0.7 else Fraction(rng.choice((1, 2)))
    rules = nc.RuleLedger(
        bonus_divisor=bonus,
        unknown_son_factor=Fraction(rng.choice((1, 2, 5))),
        require_yeshua_in_tomb=rng.random() < 0.3,
        allow_father_yeshua=rng.random() < 0.3,
        count_unknown_sons=rng.random() < 0.8)
    return spec, rules
