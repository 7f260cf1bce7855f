"""Named scenario deltas against the baseline analysis, with golden checks.

A scenario is a list of deltas: add or remove a candidate, scale one
candidate's sampling weight and RR value together (the enclosing generic's
residual absorbs the difference), or set a rule-ledger parameter. Running a
scenario rebuilds the hypothesis, rescores the observed configuration (its
RR changes when an in-sample slice is scaled), re-enumerates the tail, and
multiplies the proportion by n2. When a scenario carries a reference value,
the report records whether the result matches it at the reference's printed
precision.

``run_suite`` builds each distinct candidate list once per call: scenarios
whose deltas end in the same candidates share one spec, so a scenario that
only sets a rule parameter reuses the spec of the scenario with its
candidates. Across scenarios with the same male categories and ledger, the
enumerator reuses one male table (``tailspace.male_table``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Union

from .candidates import (CandidateDescriptor, HypothesisSpec,
                         SpecificationError, build_spec, parse_fraction)
from .onomasticon import Onomasticon, ParseError, format_decimal, parse_flag
from .scoring import RuleLedger, TombConfiguration, score
from .tailspace import enumerate_tail

_FLAGS = ("require_yeshua_in_tomb", "allow_father_yeshua", "count_unknown_sons")
_PARAMS = ("bonus_divisor", "unknown_son_factor")


@dataclass(frozen=True)
class Delta:
    verb: str                      # add | remove | scale | set
    person: Optional[str] = None
    descriptor: Optional[CandidateDescriptor] = None
    factor: Optional[Fraction] = None
    param: Optional[str] = None
    value: Optional[str] = None


@dataclass(frozen=True)
class Scenario:
    name: str
    deltas: tuple[Delta, ...] = ()
    reference: Optional[str] = None   # printed-value string for golden checks


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    observed_rr: Optional[Fraction] = None
    proportion: Optional[Fraction] = None
    adjusted_area: Optional[Fraction] = None
    reference: Optional[str] = None
    matches_reference: Optional[bool] = None
    error: Optional[str] = None


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
        if d.verb == "add":
            if any(c.person == d.descriptor.person for c in out):
                raise SpecificationError(
                    f"{scenario.name}: candidate {d.descriptor.person} already present")
            out.append(d.descriptor)
        elif d.verb == "remove":
            keep = [c for c in out if c.person != d.person]
            if len(keep) == len(out):
                raise SpecificationError(
                    f"{scenario.name}: no candidate named {d.person}")
            out = keep
        elif d.verb == "scale":
            hits = [i for i, c in enumerate(out) if c.person == d.person]
            if not hits:
                raise SpecificationError(
                    f"{scenario.name}: no candidate named {d.person}")
            i = hits[0]
            out[i] = replace(out[i], scale=out[i].scale * d.factor)
        elif d.verb == "set":
            if d.param in _FLAGS:
                rules = rules.with_params(**{d.param: parse_flag(d.value)})
            elif d.param in _PARAMS:
                rules = rules.with_params(**{d.param: parse_fraction(d.value)})
            else:
                raise SpecificationError(
                    f"{scenario.name}: unknown rule parameter {d.param!r}")
        else:
            raise SpecificationError(f"{scenario.name}: unknown delta verb {d.verb!r}")
    return tuple(out), rules


def run_scenario(onom: Onomasticon, descriptors: Sequence[CandidateDescriptor],
                 rules: RuleLedger, observed: TombConfiguration,
                 scenario: Scenario, n2: int = 1100) -> ScenarioReport:
    return _run(onom, descriptors, rules, observed, scenario, n2, specs={})


def run_suite(onom: Onomasticon, descriptors: Sequence[CandidateDescriptor],
              rules: RuleLedger, observed: TombConfiguration,
              suite: Sequence[Scenario], n2: int = 1100) -> list[ScenarioReport]:
    """Run scenarios in order; a failing scenario yields an error report.

    Scenarios that end with the same candidate list share one spec.
    """
    specs: dict[tuple[CandidateDescriptor, ...], HypothesisSpec] = {}
    reports = []
    for scenario in suite:
        try:
            reports.append(_run(onom, descriptors, rules, observed, scenario,
                                n2, specs))
        except (ValueError, ZeroDivisionError) as exc:
            reports.append(ScenarioReport(name=scenario.name,
                                          reference=scenario.reference,
                                          error=str(exc)))
    return reports


def _run(onom, descriptors, rules, observed, scenario, n2, specs) -> ScenarioReport:
    """``run_scenario``, taking the spec from ``specs`` (candidate list ->
    spec) when it is there and adding it when not."""
    new_desc, new_rules = apply_deltas(descriptors, rules, scenario)
    spec = specs.get(new_desc)
    if spec is None:
        spec = specs[new_desc] = build_spec(onom, new_desc, name=scenario.name)
    observed_rr = score(observed, spec, new_rules).value
    result = enumerate_tail(spec, new_rules, observed_rr)
    adjusted = n2 * result.proportion
    matches = None
    if scenario.reference is not None:
        matches = matches_at_printed_precision(adjusted, scenario.reference)
    return ScenarioReport(name=scenario.name, observed_rr=observed_rr,
                          proportion=result.proportion, adjusted_area=adjusted,
                          reference=scenario.reference, matches_reference=matches)


# ---------------------------------------------------------------------------
# suite files
#
#   scenario <name>
#   add <person> <gender> <generic> <class> [label=..]
#   remove <person>
#   scale <person> <factor>
#   set <param> <value>
#   reference <decimal>
# ---------------------------------------------------------------------------

def parse_suite(text: str) -> list[Scenario]:
    scenarios: list[Scenario] = []
    name = None
    deltas: list[Delta] = []
    reference = None

    def flush():
        nonlocal name, deltas, reference
        if name is not None:
            scenarios.append(Scenario(name=name, deltas=tuple(deltas),
                                      reference=reference))
        name, deltas, reference = None, [], None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        verb = fields[0]
        try:
            if verb == "scenario":
                flush()
                name = fields[1]
            elif verb == "add":
                person, gender, generic, rclass = fields[1:5]
                if rclass.startswith("slice:"):
                    rclass = rclass.split(":", 1)[1]
                opts = dict(f.split("=", 1) for f in fields[5:])
                deltas.append(Delta(verb="add", descriptor=CandidateDescriptor(
                    person=person, gender=gender, generic=generic,
                    rendition_class=rclass, label=opts.get("label"))))
            elif verb == "remove":
                deltas.append(Delta(verb="remove", person=fields[1]))
            elif verb == "scale":
                deltas.append(Delta(verb="scale", person=fields[1],
                                    factor=parse_fraction(fields[2])))
            elif verb == "set":
                deltas.append(Delta(verb="set", param=fields[1], value=fields[2]))
            elif verb == "reference":
                reference = fields[1]
            else:
                raise ParseError(f"row {lineno}: unknown verb {verb!r}")
        except ParseError:
            raise
        except (IndexError, ValueError) as exc:
            raise ParseError(f"row {lineno}: {exc}") from exc
    flush()
    return scenarios


def load_suite(source: Union[str, Path] = "bundled") -> list[Scenario]:
    if source == "bundled":
        text = resources.files("namecluster.data").joinpath("scenarios.cfg").read_text()
    else:
        text = Path(source).read_text()
    return parse_suite(text)
