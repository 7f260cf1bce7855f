"""Named scenario deltas against the baseline analysis, with golden checks.

A scenario is a list of deltas: add or remove a candidate, scale one
candidate's sampling weight and RR value together (the enclosing generic's
residual absorbs the difference), or set a rule-ledger parameter. Running a
scenario rebuilds the hypothesis, rescores the observed configuration (its
RR changes when an in-sample slice is scaled), re-enumerates the tail, and
multiplies the proportion by n2. When a scenario carries a reference value,
the report records whether the result matches it at the reference's printed
precision.

``run_suite`` passes one memo to every ``run_scenario``, so each gender's
categories are built once per distinct list of that gender's candidates (11
lists of women and 6 of men for the bundled suite), and the male side is
walked once per male categories and set of ledger switches (13 walks): a
scenario that changes only the bonus divisor or the unknown-son factor
reuses the walk.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .candidates import CandidateDescriptor, TombConfiguration, parse_candidate
from .onomasticon import (BOUNDS, InputError, Onomasticon, check_range, format_decimal,
                          load_source, parse_field, parse_fraction, read_records)
from .scoring import RULE_PARSERS, RuleLedger
from .tailspace import analyze


class Delta(namedtuple("Delta", "verb person descriptor factor param value",
                       defaults=(None,) * 5)):
    __slots__ = ()
    # verb: str, add | remove | scale | set
    # person: str or None
    # descriptor: CandidateDescriptor or None
    # factor: Fraction or None
    # param: a RuleLedger field, or None
    # value: its value as RULE_PARSERS reads it (Fraction or bool), or None


class Scenario(namedtuple("Scenario", "name deltas reference", defaults=((), None))):
    __slots__ = ()
    # name: str; deltas: tuple[Delta, ...]; reference: the printed-value
    # string for golden checks, or None


class ScenarioReport(namedtuple(
        "ScenarioReport", "name observed_rr adjusted_area reference matches_reference "
        "error", defaults=(None,) * 5)):
    __slots__ = ()
    # name: str; observed_rr, adjusted_area: Fraction or None; reference,
    # error: str or None; matches_reference: bool or None


def printed_digits(text: str) -> int:
    """Significant digits of a printed decimal, exponent aside."""
    return len(text.lower().partition("e")[0].lstrip("-0.").replace(".", ""))


def matches_at_printed_precision(value: Fraction, reference: str) -> bool:
    sig = printed_digits(reference)
    return format_decimal(value, sig) == format_decimal(parse_fraction(reference), sig)


def apply_deltas(descriptors: Sequence[CandidateDescriptor], rules: RuleLedger,
                 scenario: Scenario) -> tuple[tuple[CandidateDescriptor, ...], RuleLedger]:
    out = list(descriptors)
    for d in scenario.deltas:
        persons = [c.person for c in out]
        if d.verb == "add":
            if d.descriptor.person in persons:
                raise InputError(f"candidate {d.descriptor.person} already present")
            out.append(d.descriptor)
        elif d.verb in ("remove", "scale"):
            if d.person not in persons:
                raise InputError(f"no candidate named {d.person}")
            if d.verb == "remove":
                out = [c for c in out if c.person != d.person]
            else:
                i = persons.index(d.person)
                out[i] = out[i]._replace(scale=out[i].scale * d.factor)
        elif d.verb == "set":
            rules = rules._replace(**{d.param: d.value})
        else:
            raise InputError(f"unknown delta verb {d.verb!r}")
    return tuple(out), rules


def run_scenario(onom: Onomasticon, descriptors: Sequence[CandidateDescriptor],
                 rules: RuleLedger, observed: TombConfiguration, scenario: Scenario,
                 n2: int = 1100, memo: Optional[dict] = None) -> ScenarioReport:
    """One scenario's report: ``analyze`` after its deltas, with ``memo``
    sharing categories and male tables between scenarios."""
    descriptors, rules = apply_deltas(descriptors, rules, scenario)
    _, scored, result = analyze(onom, descriptors, rules, observed, memo)
    adjusted = n2 * result.proportion
    matches = None
    if scenario.reference is not None:
        matches = matches_at_printed_precision(adjusted, scenario.reference)
    return ScenarioReport(name=scenario.name, observed_rr=scored.value,
                          adjusted_area=adjusted, reference=scenario.reference,
                          matches_reference=matches)


def run_suite(onom: Onomasticon, descriptors: Sequence[CandidateDescriptor],
              rules: RuleLedger, observed: TombConfiguration,
              suite: Sequence[Scenario], n2: int = 1100) -> list[ScenarioReport]:
    """Run scenarios in order; a failing scenario yields an error report.

    Scenarios that end with the same candidates of one gender share its
    categories, and those with the same men and switches share a male table.
    """
    memo: dict = {}
    reports = []
    for scenario in suite:
        try:
            reports.append(run_scenario(onom, descriptors, rules, observed,
                                        scenario, n2, memo))
        except (ValueError, ZeroDivisionError) as exc:
            reports.append(ScenarioReport(name=scenario.name,
                                          reference=scenario.reference,
                                          error=str(exc)))
    return reports


# ---------------------------------------------------------------------------
# suite files (grammar: see onomasticon.py)
#
#   scenario <name>                     (each name once)
#   add <person> <gender> <generic> <class> [label=..] [weight=a/b]
#       [rr=a/b] [scale=a/b]           (as a hypothesis file's candidate)
#   remove <person>
#   scale <person> <factor>
#   set <param> <value>                 (a RuleLedger field; checked when read)
#   reference <decimal>                 (the printed reference value, once)
# Every record after a scenario's own belongs to that scenario.
# ---------------------------------------------------------------------------

def parse_suite(text: str) -> list[Scenario]:
    scenarios: list[Scenario] = []

    def current(kind: str) -> Scenario:
        if not scenarios:
            raise ValueError(f"{kind!r} record before the first scenario")
        return scenarios[-1]

    def delta(verb: str, **values):
        last = current(verb)
        scenarios[-1] = last._replace(deltas=last.deltas + (Delta(verb, **values),))

    def set_(fields):
        param, text = fields
        if param not in RULE_PARSERS:
            raise ValueError(f"unknown rule parameter {param!r}")
        value = parse_field(param, text, RULE_PARSERS[param])
        if param in BOUNDS:  # the two numbers; a switch is a bool as parsed
            check_range(param, value)
        delta("set", param=param, value=value)

    def reference(fields):
        (printed,) = fields
        parse_fraction(printed)  # a number, kept as printed
        last = current("reference")
        if last.reference is not None:
            raise ValueError("reference: given twice")
        scenarios[-1] = last._replace(reference=printed)

    def scenario(fields):
        (name,) = fields
        if any(s.name == name for s in scenarios):  # its records would share one key
            raise ValueError(f"scenario: {name}: given twice")
        scenarios.append(Scenario(name))

    def remove(fields):
        (person,) = fields
        delta("remove", person=person)

    def scale(fields):
        person, factor = fields
        delta("scale", person=person, factor=parse_fraction(factor))

    read_records(text, {
        "scenario": scenario,
        "add": lambda fields: delta("add", descriptor=parse_candidate(fields)),
        "remove": remove,
        "scale": scale,
        "set": set_,
        "reference": reference})
    return scenarios


def load_suite(source: Union[str, Path] = "bundled") -> list[Scenario]:
    return load_source(source, "scenarios.cfg", parse_suite)
