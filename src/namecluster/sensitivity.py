"""Named scenario deltas against the baseline analysis, with golden checks.

A scenario is a list of deltas, each a (verb, subject, value) triple: add
or remove a candidate, scale one candidate's sampling weight and RR value
together (the enclosing generic's residual absorbs the difference), or set a
rule-ledger parameter. Running a scenario rebuilds the hypothesis, rescores
the observed configuration (its RR changes when an in-sample slice is
scaled), re-enumerates the tail, and multiplies the proportion by n2. When a
scenario carries a reference value, the report records whether the result
matches it at the reference's printed precision. A report holds only the
outcome: the scenario keeps its name and reference, and ``run_suite``
returns one report per scenario, in suite order.

``run_suite`` passes one memo to every ``run_scenario``, so each gender's
categories are built once per distinct list of that gender's candidates (11
lists of women and 6 of men for the bundled suite), and the male side is
walked once per male categories and ledger apart from its two numbers (13
walks): a scenario that changes only the bonus divisor or the unknown-son
factor reuses the walk.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .candidates import CandidateDescriptor, TombConfiguration, parse_candidate
from .onomasticon import (InputError, Onomasticon, format_decimal, load_source,
                          parse_field, parse_fraction, read_records)
from .scoring import RULE_PARSERS, RuleLedger
from .tailspace import analyze


class Scenario(namedtuple("Scenario", "name deltas reference", defaults=((), None))):
    __slots__ = ()
    # name: str; deltas: tuple of (verb, subject, value) triples, one of
    #   ("add", person, CandidateDescriptor), ("remove", person, None),
    #   ("scale", person, Fraction factor), ("set", RuleLedger field, its value
    #   as RULE_PARSERS reads it); reference: the printed-value string for
    #   golden checks, or None


class ScenarioReport(namedtuple(
        "ScenarioReport", "observed_rr adjusted_area matches_reference error",
        defaults=(None,) * 4)):
    __slots__ = ()
    # the outcome of one scenario, which run_suite reports in suite order:
    # observed_rr, adjusted_area: Fraction or None; matches_reference: bool, or
    # None without a reference; error: str or None


def printed_digits(text: str) -> int:
    """Significant digits of a printed decimal, exponent aside."""
    return len(text.lower().partition("e")[0].lstrip("-0.").replace(".", ""))


def matches_at_printed_precision(value: Fraction, reference: str) -> bool:
    sig = printed_digits(reference)
    return format_decimal(value, sig) == format_decimal(parse_fraction(reference), sig)


def apply_deltas(descriptors: Sequence[CandidateDescriptor], rules: RuleLedger,
                 deltas: Sequence[tuple]) -> tuple[tuple[CandidateDescriptor, ...], RuleLedger]:
    out = list(descriptors)
    for verb, subject, value in deltas:
        persons = [c.person for c in out]
        if verb == "add":
            if subject in persons:
                raise InputError(f"candidate {subject} already present")
            out.append(value)
        elif verb in ("remove", "scale"):
            if subject not in persons:
                raise InputError(f"no candidate named {subject}")
            if verb == "remove":
                out = [c for c in out if c.person != subject]
            else:
                i = persons.index(subject)
                out[i] = out[i]._replace(scale=out[i].scale * value)
        elif verb == "set":
            rules = rules._replace(**{subject: value})
        else:
            raise InputError(f"unknown delta verb {verb!r}")
    return tuple(out), rules


def run_scenario(onom: Onomasticon, descriptors: Sequence[CandidateDescriptor],
                 rules: RuleLedger, observed: TombConfiguration, scenario: Scenario,
                 n2: int, memo: Optional[dict] = None) -> ScenarioReport:
    """One scenario's report: ``analyze`` after its deltas, with ``memo``
    sharing categories and male tables between scenarios."""
    descriptors, rules = apply_deltas(descriptors, rules, scenario.deltas)
    _, scored, result = analyze(onom, descriptors, rules, observed, memo)
    adjusted = n2 * result.proportion
    matches = None
    if scenario.reference is not None:
        matches = matches_at_printed_precision(adjusted, scenario.reference)
    return ScenarioReport(scored.value, adjusted, matches)


def run_suite(onom: Onomasticon, descriptors: Sequence[CandidateDescriptor],
              rules: RuleLedger, observed: TombConfiguration,
              suite: Sequence[Scenario], n2: int) -> list[ScenarioReport]:
    """One report per scenario, in suite order; a failing scenario's report
    holds only its error.

    Scenarios that end with the same candidates of one gender share its
    categories, and those with the same men and ledger but its two numbers
    share a male table.
    """
    memo: dict = {}
    reports = []
    for scenario in suite:
        try:
            reports.append(run_scenario(onom, descriptors, rules, observed,
                                        scenario, n2, memo))
        except (ValueError, ZeroDivisionError) as exc:
            reports.append(ScenarioReport(error=str(exc)))
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
    # name: [deltas, reference] in suite order, made into Scenarios once, at the end
    scenarios: dict[str, list] = {}

    def current(kind: str) -> list:
        if not scenarios:
            raise ValueError(f"{kind!r} record before the first scenario")
        return scenarios[next(reversed(scenarios))]

    def delta(verb: str, subject: str, value=None):
        current(verb)[0].append((verb, subject, value))

    def set_(fields):
        param, text = fields
        if param not in RULE_PARSERS:
            raise ValueError(f"unknown rule parameter {param!r}")
        value = parse_field(param, text, RULE_PARSERS[param])
        RuleLedger(**{param: value})  # the ledger checks its own fields
        delta("set", param, value)

    def reference(fields):
        (printed,) = fields
        parse_fraction(printed)  # a number, kept as printed
        last = current("reference")
        if last[1] is not None:
            raise ValueError("reference: given twice")
        last[1] = printed

    def scenario(fields):
        (name,) = fields
        if name in scenarios:  # its records would share one key
            raise ValueError(f"scenario: {name}: given twice")
        scenarios[name] = [[], None]

    def add(fields):
        candidate = parse_candidate(fields)
        delta("add", candidate.person, candidate)

    def remove(fields):
        (person,) = fields
        delta("remove", person)

    def scale(fields):
        person, factor = fields
        delta("scale", person, parse_fraction(factor))

    read_records(text, {
        "scenario": scenario,
        "add": add,
        "remove": remove,
        "scale": scale,
        "set": set_,
        "reference": reference})
    return [Scenario(name, tuple(deltas), reference)
            for name, (deltas, reference) in scenarios.items()]


def load_suite(source: Union[str, Path] = "bundled") -> list[Scenario]:
    return load_source(source, "scenarios.cfg", parse_suite)
