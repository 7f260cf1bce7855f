"""Value types: validating NamedTuples, checked on construction and _replace."""

import copy
from fractions import Fraction

import pytest

import namecluster as nc
from namecluster.candidates import SpecificationError
from namecluster.demography import DemographyParams, ParameterError
from namecluster.onomasticon import ValidationError
from namecluster.sensitivity import Scenario

from bundled import DESCRIPTORS, TOMB

# type -> (a valid value, one bad field, the error it raises, its message)
BAD_FIELDS = {
    "GenericNameCount": (
        lambda onom: onom.generic("Mariam"), {"gender": "neuter"},
        ValidationError, "gender: Mariam: 'neuter'"),
    "RenditionSlice": (
        lambda onom: onom.slice("Mariam", "MM"), {"ossuary_matching": Fraction(99)},
        ValidationError, "ossuary_matching: Mariam/MM: must satisfy 0 <= k <= K"),
    "Onomasticon": (
        lambda onom: onom, {"female_total": 0},
        ValidationError, "gender totals: must be positive"),
    "Category": (
        lambda onom: nc.build_spec(onom, DESCRIPTORS).men[0], {"rr": Fraction(2)},
        SpecificationError, "category Yosef: rr outside (0,1]"),
    "HypothesisSpec": (
        lambda onom: nc.build_spec(onom, DESCRIPTORS), {"men": ()},
        SpecificationError, "male categories: weights must sum to 1"),
    "RuleLedger": (
        lambda onom: nc.RuleLedger(), {"bonus_divisor": Fraction(1, 2)},
        SpecificationError, "bonus_divisor must be >= 1"),
    "DemographyParams": (
        lambda onom: DemographyParams(), {"juvenile_fraction": Fraction(2)},
        ParameterError, "juvenile_fraction outside [0,1]"),
}


@pytest.mark.parametrize("name", BAD_FIELDS)
def test_a_bad_field_is_rejected_by_every_way_of_building(name, onom):
    make, bad, error, message = BAD_FIELDS[name]
    good = make(onom)
    assert type(good).__name__ == name
    builds = [lambda: type(good)(**{**good._asdict(), **bad}),
              lambda: good._replace(**bad),
              lambda: type(good)._make({**good._asdict(), **bad}.values())]
    if hasattr(copy, "replace"):  # Python 3.13 and later
        builds.append(lambda: copy.replace(good, **bad))
    for build in builds:
        with pytest.raises(error) as raised:
            build()
        assert type(raised.value) is error
        assert str(raised.value) == message


def test_replace_checks_the_ledger():
    with pytest.raises(SpecificationError, match="bonus_divisor must be >= 1"):
        nc.RuleLedger()._replace(bonus_divisor=Fraction(1, 2))
    with pytest.raises(SpecificationError, match="'off'"):
        nc.RuleLedger()._replace(count_unknown_sons="off")


def test_values_are_tuples_and_compare_as_tuples(onom):
    # equality is tuple equality: a value equals a plain tuple of its fields
    assert TOMB == ("MM", "Marya", "Yoseh", "Other", "Yosef", "Yeshua")
    assert nc.RuleLedger() == (Fraction(6, 5), Fraction(5), False, False, True)
    assert Scenario("s") == ("s", (), None)
    assert hash(nc.RuleLedger()) == hash(nc.RuleLedger())
    woman1, *_, son = TOMB
    assert (woman1, son) == ("MM", "Yeshua")
    spec = nc.build_spec(onom, DESCRIPTORS)
    assert spec._replace(male_total=1) == spec[:-1] + (1,)
