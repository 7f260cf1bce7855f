"""Value types: namedtuple subclasses, checked on construction and _replace.

Each of the 16 value types is ``class X(namedtuple("X", ...))`` with
``__slots__ = ()``, so its values are tuples with no instance dict. Building
one costs about 0.2 ms at a CLI start, against 0.3 ms as a
``typing.NamedTuple``, which checks and compiles every field's annotation
(Python 3.11.7 on a 2-vCPU Xeon VM).
"""

import copy
import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import namecluster
from namecluster.candidates import build_spec
from namecluster.demography import DemographyParams, run_pipeline
from namecluster.onomasticon import InputError
from namecluster.scoring import RuleLedger, score
from namecluster.sensitivity import Scenario, load_suite, run_scenario
from namecluster.tailspace import distribution, enumerate_tail, male_table

from bundled import DESCRIPTORS, N2, TOMB

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ["namecluster"] + [f"namecluster.{m.name}"
                             for m in pkgutil.iter_modules(namecluster.__path__)]

# type -> (module, fields, defaults), as first defined with typing.NamedTuple,
# except that a ScenarioReport no longer repeats its scenario's name and
# reference, and an RRValue's bonus_applied has no default
FIELDS = {
    "GenericNameCount": (
        "onomasticon", "name gender total_persons ossuary_persons", {"ossuary_persons": None}),
    "RenditionSlice": ("onomasticon", "generic label ossuary_matching", {}),
    "Onomasticon": ("onomasticon", "female_total male_total generics slices", {}),
    "Category": ("candidates", "label weight rr", {}),
    "CandidateDescriptor": (
        "candidates", "person gender generic rendition_class label weight rr scale",
        {"generic": "", "rendition_class": "generic", "label": None, "weight": None,
         "rr": None, "scale": Fraction(1)}),
    "HypothesisSpec": ("candidates", "women men female_total male_total", {}),
    "RuleLedger": (
        "scoring", "bonus_divisor unknown_son_factor require_yeshua_in_tomb "
        "allow_father_yeshua count_unknown_sons",
        {"bonus_divisor": Fraction(6, 5), "unknown_son_factor": Fraction(5),
         "require_yeshua_in_tomb": False, "allow_father_yeshua": False,
         "count_unknown_sons": True}),
    "TombConfiguration": (
        "candidates", "woman1 woman2 singleton1 singleton2 father son", {}),
    "RRValue": (
        "scoring", "value women_part singleton_part generational_part bonus_applied", {}),
    "TailResult": (
        "tailspace", "total_mass valid_mass tail_mass proportion", {}),
    "MaleTable": ("tailspace", "r mass_scale valid_mass classes", {}),
    "Distribution": ("tailspace", "table pairs scale size", {}),
    "Scenario": ("sensitivity", "name deltas reference", {"deltas": (), "reference": None}),
    "ScenarioReport": (
        "sensitivity", "observed_rr adjusted_area matches_reference error",
        dict.fromkeys(("observed_rr", "adjusted_area", "matches_reference", "error"))),
    "DemographyParams": (
        "demography", "total_deceased non_jewish_fraction juvenile_fraction "
        "literacy_affluence_fraction female_male_inscription_ratio tomb_size",
        {"total_deceased": 132_200, "non_jewish_fraction": Fraction(1, 20),
         "juvenile_fraction": Fraction(21, 50), "literacy_affluence_fraction": Fraction(3, 25),
         "female_male_inscription_ratio": Fraction(1, 2), "tomb_size": 6}),
    "DemographyResult": (
        "demography", "deceased_per_gender adult_jewish_per_gender_raw "
        "adult_jewish_per_gender inscribed_males inscribed_females trials_raw trials "
        "excavated full_population_tombs", {}),
}

# type -> (a valid value, one bad field, the message of the InputError it raises)
BAD_FIELDS = {
    "GenericNameCount": (
        lambda onom: onom.generic("Mariam"), {"gender": "neuter"},
        "gender: Mariam: 'neuter'"),
    "Onomasticon": (
        lambda onom: onom, {"female_total": 0},
        "female_total must be positive"),
    "Category": (
        lambda onom: build_spec(onom, DESCRIPTORS).men[0], {"rr": Fraction(2)},
        "category Yosef: rr outside (0,1]"),
    "HypothesisSpec": (
        lambda onom: build_spec(onom, DESCRIPTORS), {"men": ()},
        "male categories: weights must sum to 1"),
    "RuleLedger": (
        lambda onom: RuleLedger(), {"bonus_divisor": Fraction(1, 2)},
        "bonus_divisor must be >= 1"),
    "DemographyParams": (
        lambda onom: DemographyParams(), {"juvenile_fraction": Fraction(2)},
        "juvenile_fraction must lie in [0,1]"),
}


@pytest.mark.parametrize("name", BAD_FIELDS)
def test_a_bad_field_is_rejected_by_every_way_of_building(name, onom):
    make, bad, message = BAD_FIELDS[name]
    good = make(onom)
    assert type(good).__name__ == name
    builds = [lambda: type(good)(**{**good._asdict(), **bad}),
              lambda: good._replace(**bad),
              lambda: type(good)._make({**good._asdict(), **bad}.values())]
    if hasattr(copy, "replace"):  # Python 3.13 and later
        builds.append(lambda: copy.replace(good, **bad))
    for build in builds:
        with pytest.raises(InputError) as raised:
            build()
        assert type(raised.value) is InputError
        assert str(raised.value) == message


def test_replace_checks_the_ledger():
    with pytest.raises(InputError, match="bonus_divisor must be >= 1"):
        RuleLedger()._replace(bonus_divisor=Fraction(1, 2))
    with pytest.raises(InputError, match="^count_unknown_sons must be True or False, got 'off'$"):
        RuleLedger()._replace(count_unknown_sons="off")


def test_values_are_tuples_and_compare_as_tuples(onom):
    # equality is tuple equality: a value equals a plain tuple of its fields
    assert TOMB == ("MM", "Marya", "Yoseh", "Other", "Yosef", "Yeshua")
    assert RuleLedger() == (Fraction(6, 5), Fraction(5), False, False, True)
    assert Scenario("s") == ("s", (), None)
    assert hash(RuleLedger()) == hash(RuleLedger())
    woman1, *_, son = TOMB
    assert (woman1, son) == ("MM", "Yeshua")
    spec = build_spec(onom, DESCRIPTORS)
    assert spec._replace(male_total=1) == spec[:-1] + (1,)


def value_types():
    """Every tuple class that a namecluster module defines, by name."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, tuple)
                    and value.__module__ == name):
                found[value.__name__] = value
    return found


def one_of_each(onom):
    """A value of each value type, from the bundled inputs, by type name."""
    spec = build_spec(onom, DESCRIPTORS)
    rules = RuleLedger()
    observed = score(TOMB, spec, rules)
    scenario = next(s for s in load_suite() if s.deltas)
    params = DemographyParams()
    values = [onom.generics[0], onom.slices[0], onom, spec.men[0], DESCRIPTORS[0],
              spec, rules, TOMB, observed, enumerate_tail(spec, rules, observed.value),
              male_table(spec.men, rules), distribution(spec, rules),
              scenario,
              run_scenario(onom, DESCRIPTORS, rules, TOMB, scenario, N2), params,
              run_pipeline(params)]
    return {type(value).__name__: value for value in values}


def test_fields_and_defaults_are_those_first_defined():
    types = value_types()
    assert set(types) == set(FIELDS)
    for name, (module, fields, defaults) in FIELDS.items():
        cls = types[name]
        assert cls.__module__ == f"namecluster.{module}"
        assert cls._fields == tuple(fields.split()), name
        # the types too: an int default of 1 would equal Fraction(1)
        assert ([(k, type(v), v) for k, v in cls._field_defaults.items()]
                == [(k, type(v), v) for k, v in defaults.items()]), name


def test_values_have_no_instance_dict(onom):
    values = one_of_each(onom)
    assert set(values) == set(FIELDS)
    for name, value in values.items():
        assert not hasattr(value, "__dict__"), name


def test_no_module_builds_a_typing_named_tuple():
    # typing.NamedTuple checks and compiles each field's annotation at every
    # start; collections.namedtuple builds the same tuple class without that
    script = ("import importlib, sys, typing\n"
              "built = []\n"
              "new = typing.NamedTupleMeta.__new__\n"
              "def counted(meta, name, *args, **kwargs):\n"
              "    built.append(name)\n"
              "    return new(meta, name, *args, **kwargs)\n"
              "typing.NamedTupleMeta.__new__ = counted\n"
              "for module in sys.argv[1:]:\n"
              "    importlib.import_module(module)\n"
              "print(*built)\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script, *MODULES], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.stdout.split() == []
