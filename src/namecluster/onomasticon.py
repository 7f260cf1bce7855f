"""Name-frequency data model for the late-antiquity Jewish onomasticon.

Holds per-generic person counts (split by gender and by ossuary-derived
subset), rendition slices within a generic, and the bias-corrected
frequency estimator for a rendition slice:

    f(slice) = (k / K) * G / N

where k of the K ossuary-derived bearers of the generic name match the
slice, G is the generic's total person count, and N the gender total.
All quantities are exact ``Fraction``s; floats appear only in reports.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Union

FEMALE = "female"
MALE = "male"
GENDERS = (FEMALE, MALE)


class InputError(ValueError):
    """Base of every error in the program's inputs; the CLI exits 2 on it."""


class OnomasticonError(InputError):
    """Base class for onomasticon data problems."""


class ParseError(OnomasticonError):
    """A fixture row could not be parsed; the message names the row."""


class ValidationError(OnomasticonError):
    """An invariant is violated; the message names the offending field."""


class UndefinedEstimatorError(OnomasticonError):
    """Rendition frequency requested for a slice with no ossuary bearers."""


# largest decimal exponent accepted: Python's default limit on the digits of
# an int converted to str, past which format_fraction cannot print the value;
# an unbounded exponent would let a short text build an astronomically large int
MAX_DECIMAL_EXPONENT = 4300
FLAG_WORDS = {"on": True, "true": True, "1": True, "yes": True,
              "off": False, "false": False, "0": False, "no": False}


def parse_fraction(text: str) -> Fraction:
    """Parse exact rational syntax: 'a/b', an integer, or a decimal string."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    digits = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
    if digits.isdecimal() and int(digits) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond ±{MAX_DECIMAL_EXPONENT}: {text!r}")
    return Fraction(text)


def parse_flag(text: str) -> bool:
    """Parse an on/off switch: on/off, true/false, 1/0 or yes/no, any case."""
    try:
        return FLAG_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected on/off, true/false, 1/0 or yes/no, "
                         f"got {text!r}") from None


def format_fraction(value: Fraction) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_decimal(value: Fraction, sig: int) -> str:
    """``value`` to ``sig`` significant digits, as the 'g' format prints it.

    A value in the normal float range goes through ``float``. One that
    float() cannot hold (it overflows, flushes to 0 or keeps fewer digits as
    a subnormal) is rounded half to even from the exact fraction instead.
    """
    f = Fraction(value)
    try:
        x = float(f)
    except OverflowError:
        pass
    else:
        if f == 0 or abs(x) >= sys.float_info.min:
            return f"{x:.{sig}g}"
    with localcontext() as context:
        context.prec = max(sig, 1)
        rounded = Decimal(f.numerator) / f.denominator
    return f"{rounded.normalize():.{sig}g}"


@dataclass(frozen=True)
class GenericNameCount:
    """Counts of nonfictitious persons bearing one generic name.

    ``ossuary_persons`` is None when the ossuary-derived count is
    undetermined (a dash in the source tables, which is not a zero).
    Fictitious bearers are carried separately and never enter estimates.
    """

    name: str
    gender: str
    total_persons: Fraction
    ossuary_persons: Optional[Fraction] = None
    fictitious: Fraction = Fraction(0)
    rahmani: Optional[Fraction] = None
    rahmani_uncertain: bool = False

    def __post_init__(self):
        if self.gender not in GENDERS:
            raise ValidationError(f"gender: {self.name}: {self.gender!r}")
        if self.total_persons < 0:
            raise ValidationError(f"total_persons: {self.name}: negative")
        if self.ossuary_persons is not None:
            if self.ossuary_persons < 0:
                raise ValidationError(f"ossuary_persons: {self.name}: negative")
            if self.ossuary_persons > self.total_persons:
                raise ValidationError(
                    f"ossuary_persons: {self.name}: exceeds total_persons")


@dataclass(frozen=True)
class RenditionSlice:
    """A named group of renditions within a generic name.

    ``ossuary_matching`` (k) of the ``ossuary_generic`` (K) ossuary-derived
    bearers of the generic were written in a rendition belonging to the slice.
    """

    generic: str
    label: str
    ossuary_matching: Fraction
    ossuary_generic: Fraction

    def __post_init__(self):
        if not 0 <= self.ossuary_matching <= self.ossuary_generic:
            raise ValidationError(
                f"ossuary_matching: {self.generic}/{self.label}: "
                "must satisfy 0 <= k <= K")


@dataclass(frozen=True)
class Onomasticon:
    """Immutable name-frequency tables; safe to share across threads."""

    female_total: int
    male_total: int
    generics: tuple[GenericNameCount, ...]
    slices: tuple[RenditionSlice, ...]
    female_ossuary: Optional[int] = None
    male_ossuary: Optional[int] = None

    def __post_init__(self):
        if self.female_total <= 0 or self.male_total <= 0:
            raise ValidationError("gender totals: must be positive")
        names = {(g.name, g.gender) for g in self.generics}
        if len(names) != len(self.generics):
            raise ValidationError("generics: duplicate (name, gender) entry")
        by_name = {g.name: g for g in self.generics}
        for s in self.slices:
            if s.generic not in by_name:
                raise ValidationError(f"slice generic: {s.generic}: unknown")
        # any disjoint family of slices must fit inside its generic
        from collections import defaultdict
        totals = defaultdict(Fraction)
        for s in self.slices:
            g = by_name[s.generic]
            if g.ossuary_persons is not None and s.ossuary_generic != g.ossuary_persons:
                raise ValidationError(
                    f"ossuary_generic: {s.generic}/{s.label}: disagrees with "
                    "the generic's ossuary count")
            totals[s.generic] += implied_count(s, g)
        for name, tot in totals.items():
            if tot > by_name[name].total_persons:
                raise ValidationError(
                    f"slices of {name}: implied counts exceed the generic total")

    def gender_total(self, gender: str) -> int:
        if gender == FEMALE:
            return self.female_total
        if gender == MALE:
            return self.male_total
        raise ValidationError(f"gender: {gender!r}")

    def generic(self, name: str) -> GenericNameCount:
        for g in self.generics:
            if g.name == name:
                return g
        raise ValidationError(f"generic: {name}: unknown")

    def slice(self, generic: str, label: str) -> RenditionSlice:
        for s in self.slices:
            if s.generic == generic and s.label == label:
                return s
        raise ValidationError(f"slice: {generic}/{label}: unknown")


def implied_count(slc: RenditionSlice, generic: GenericNameCount) -> Fraction:
    """Persons in the slice, scaled from ossuary proportions: (k/K) * G."""
    if slc.ossuary_generic == 0:
        raise UndefinedEstimatorError(
            f"slice {slc.generic}/{slc.label}: no ossuary bearers (K = 0)")
    return slc.ossuary_matching / slc.ossuary_generic * generic.total_persons


def slice_frequency(slc: RenditionSlice, onom: Onomasticon) -> Fraction:
    """Bias-corrected rendition frequency (k/K) * G / N, exact."""
    g = onom.generic(slc.generic)
    return implied_count(slc, g) / onom.gender_total(g.gender)


def residual_weight(onom: Onomasticon, gender: str, generic: Optional[str] = None,
                    subtract: Iterable[Union[RenditionSlice, GenericNameCount,
                                             Fraction, str]] = ()) -> Fraction:
    """Complement weight of an enclosing class after removing named parts.

    The enclosing class is a generic (when ``generic`` is given) or the whole
    gender. Each subtracted part may be a slice, a generic, the name of a
    generic, or a raw person count. The result is a frequency over the gender
    total; a negative residual raises.
    """
    if generic is not None:
        enclosing = onom.generic(generic).total_persons
    else:
        enclosing = Fraction(onom.gender_total(gender))
    removed = Fraction(0)
    for part in subtract:
        if isinstance(part, RenditionSlice):
            removed += implied_count(part, onom.generic(part.generic))
        elif isinstance(part, GenericNameCount):
            removed += part.total_persons
        elif isinstance(part, str):
            removed += onom.generic(part).total_persons
        else:
            removed += Fraction(part)
    residual = enclosing - removed
    if residual < 0:
        raise ValidationError(
            f"residual of {generic or gender}: negative after subtraction")
    return residual / onom.gender_total(gender)


# ---------------------------------------------------------------------------
# fixture parsing
#
# One record per line, tab- or space-separated:
#   total   <gender> <persons> [<ossuary_persons>]
#   generic <name> <gender> <total> [<ossuary>|-] [fictitious=N] [rahmani=N[?]]
#   slice   <generic> <label> <k> <K>
# Counts accept exact fractional syntax "a/b".  '#' starts a comment.
# A '-' ossuary entry means undetermined (not zero).
# ---------------------------------------------------------------------------

def _parse_rows(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


def parse_onomasticon(text: str) -> Onomasticon:
    totals = {}
    ossuary_totals = {}
    generics: list[GenericNameCount] = []
    slices: list[RenditionSlice] = []
    for lineno, fields in _parse_rows(text):
        kind = fields[0]
        try:
            if kind == "total":
                gender = fields[1]
                totals[gender] = int(fields[2])
                if len(fields) > 3 and fields[3] != "-":
                    ossuary_totals[gender] = int(fields[3])
            elif kind == "generic":
                name, gender, total = fields[1], fields[2], parse_fraction(fields[3])
                ossuary = None
                if len(fields) > 4 and "=" not in fields[4]:
                    if fields[4] != "-":
                        ossuary = parse_fraction(fields[4])
                extras = dict(f.split("=", 1) for f in fields[4:] if "=" in f)
                fict = parse_fraction(extras.get("fictitious", "0"))
                rahmani = None
                uncertain = False
                if "rahmani" in extras:
                    value = extras["rahmani"]
                    uncertain = value.endswith("?")
                    rahmani = parse_fraction(value.rstrip("?"))
                generics.append(GenericNameCount(
                    name=name, gender=gender, total_persons=total,
                    ossuary_persons=ossuary, fictitious=fict,
                    rahmani=rahmani, rahmani_uncertain=uncertain))
            elif kind == "slice":
                slices.append(RenditionSlice(
                    generic=fields[1], label=fields[2],
                    ossuary_matching=parse_fraction(fields[3]),
                    ossuary_generic=parse_fraction(fields[4])))
            else:
                raise ParseError(f"row {lineno}: unknown record kind {kind!r}")
        except OnomasticonError:
            raise
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"row {lineno}: {exc}") from exc
    if FEMALE not in totals or MALE not in totals:
        raise ParseError("missing 'total' record for one or both genders")
    return Onomasticon(
        female_total=totals[FEMALE], male_total=totals[MALE],
        generics=tuple(generics), slices=tuple(slices),
        female_ossuary=ossuary_totals.get(FEMALE),
        male_ossuary=ossuary_totals.get(MALE))


def dump_onomasticon(onom: Onomasticon) -> str:
    """Serialize to the fixture format; round-trips all exact values."""
    out = []
    for gender, total, osstotal in ((FEMALE, onom.female_total, onom.female_ossuary),
                                    (MALE, onom.male_total, onom.male_ossuary)):
        row = f"total\t{gender}\t{total}"
        if osstotal is not None:
            row += f"\t{osstotal}"
        out.append(row)
    for g in onom.generics:
        row = (f"generic\t{g.name}\t{g.gender}\t{format_fraction(g.total_persons)}"
               f"\t{'-' if g.ossuary_persons is None else format_fraction(g.ossuary_persons)}")
        if g.fictitious:
            row += f"\tfictitious={format_fraction(g.fictitious)}"
        if g.rahmani is not None:
            row += f"\trahmani={format_fraction(g.rahmani)}" + ("?" if g.rahmani_uncertain else "")
        out.append(row)
    for s in onom.slices:
        out.append(f"slice\t{s.generic}\t{s.label}"
                   f"\t{format_fraction(s.ossuary_matching)}"
                   f"\t{format_fraction(s.ossuary_generic)}")
    return "\n".join(out) + "\n"


def load_onomasticon(source: Union[str, Path, io.TextIOBase] = "bundled") -> Onomasticon:
    """Load from a path, an open text handle, or the bundled fixture."""
    if source == "bundled":
        text = resources.files("namecluster.data").joinpath("onomasticon.tsv").read_text()
    elif isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    if not text.strip():
        raise ParseError("empty onomasticon source")
    return parse_onomasticon(text)
