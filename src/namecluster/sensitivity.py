"""Named scenario deltas against the baseline analysis, with golden checks.

A scenario is a list of deltas: add or remove a candidate, scale one
candidate's sampling weight and RR value together (the enclosing generic's
residual absorbs the difference), or set a rule-ledger parameter. Running a
scenario rebuilds the hypothesis, rescores the observed configuration (its
RR changes when an in-sample slice is scaled), re-enumerates the tail, and
multiplies the proportion by n2. When a scenario carries a reference value,
the report records whether the result matches it at the reference's printed
precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Union

from .candidates import (CandidateDescriptor, SpecificationError,
                         build_spec, parse_fraction)
from .onomasticon import Onomasticon, ParseError, parse_flag
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
    return len(text.lstrip("-0.").replace(".", ""))


def matches_at_printed_precision(value: Fraction, reference: str) -> bool:
    sig = printed_digits(reference)
    return f"{float(value):.{sig}g}" == f"{float(reference):.{sig}g}"


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
    new_desc, new_rules = apply_deltas(descriptors, rules, scenario)
    spec = build_spec(onom, new_desc, name=scenario.name)
    observed_rr = score(observed, spec, new_rules).value
    result = enumerate_tail(spec, new_rules, observed_rr)
    adjusted = n2 * result.proportion
    matches = None
    if scenario.reference is not None:
        matches = matches_at_printed_precision(adjusted, scenario.reference)
    return ScenarioReport(name=scenario.name, observed_rr=observed_rr,
                          proportion=result.proportion, adjusted_area=adjusted,
                          reference=scenario.reference, matches_reference=matches)


def run_suite(onom: Onomasticon, descriptors: Sequence[CandidateDescriptor],
              rules: RuleLedger, observed: TombConfiguration,
              suite: Sequence[Scenario], n2: int = 1100) -> list[ScenarioReport]:
    """Run scenarios in order; a failing scenario yields an error report."""
    reports = []
    for scenario in suite:
        try:
            reports.append(run_scenario(onom, descriptors, rules, observed,
                                        scenario, n2=n2))
        except (ValueError, ZeroDivisionError) as exc:
            reports.append(ScenarioReport(name=scenario.name,
                                          reference=scenario.reference,
                                          error=str(exc)))
    return reports


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
