"""Name-frequency data model for the late-antiquity Jewish onomasticon.

Holds per-generic person counts (with their ossuary-derived subset), the two
gender totals, rendition slices within a generic, and the bias-corrected
frequency estimator for a rendition slice:

    f(slice) = (k / K) * G / N

where k of the K ossuary-derived bearers of the generic name match the
slice, G is the generic's total person count, and N the gender total.
All quantities are exact ``Fraction``s; floats appear only in reports.
The record reader of all three input files lives here too.
"""

from __future__ import annotations

import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import wraps
from pathlib import Path
from typing import NamedTuple, Optional, Union

FEMALE = "female"
MALE = "male"
GENDERS = (FEMALE, MALE)


class InputError(ValueError):
    """Any error in the program's inputs; the message names the bad field and
    the CLI exits 2 on it."""


# largest decimal exponent accepted (Python's default limit on the digits of
# an int read from str): an unbounded exponent would let a short text build an
# astronomically large int
MAX_DECIMAL_EXPONENT = 4300
FLAG_WORDS = {"on": True, "true": True, "1": True, "yes": True,
              "off": False, "false": False, "0": False, "no": False}


def parse_fraction(text: str) -> Fraction:
    """Parse exact rational syntax: 'a/b', an integer, or a decimal string."""
    text = text.strip()
    if "/" in text:
        num, den = map(int, text.split("/", 1))
        if not den:
            raise ValueError("zero denominator")
        return Fraction(num, den)
    digits = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
    if digits.isdecimal() and int(digits) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond ±{MAX_DECIMAL_EXPONENT}: {text!r}")
    return Fraction(text)


def parse_field(field: str, text: str, parse=parse_fraction):
    """``parse(text)``; a ValueError names ``field``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def parse_flag(text: str) -> bool:
    """Parse an on/off switch: on/off, true/false, 1/0 or yes/no, any case."""
    try:
        return FLAG_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected on/off, true/false, 1/0 or yes/no, "
                         f"got {text!r}") from None


def format_fraction(value: Fraction) -> str:
    """'n' or 'n/d', exact for ints of any length (Decimal has no str limit)."""
    f = Fraction(value)
    num = str(Decimal(f.numerator))
    return num if f.denominator == 1 else f"{num}/{Decimal(f.denominator)}"


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


def checked(cls):
    """Make every value of the NamedTuple ``cls`` pass ``cls.check``.

    Value types are NamedTuples, so values equal any tuple of their fields.
    Each costs about 0.1 ms to create at a CLI start, against 0.8 ms for a
    frozen class from the standard library's class generator, whose module
    takes another 6 ms to import. ``_replace`` and, from Python 3.13,
    ``copy.replace`` build through ``_make``, which skips ``__new__``; here
    ``_make`` calls the class, so every way of building runs the check.
    """
    new = cls.__new__

    @wraps(new)
    def checked_new(klass, *args, **kwargs):
        value = new(klass, *args, **kwargs)
        value.check()
        return value

    cls.__new__ = checked_new
    cls._make = classmethod(lambda klass, iterable: klass(*iterable))
    return cls


@checked
class GenericNameCount(NamedTuple):
    """Counts of the persons bearing one generic name.

    ``ossuary_persons`` is None when the ossuary-derived count is
    undetermined (a dash in the source tables, which is not a zero).
    """

    name: str
    gender: str
    total_persons: Fraction
    ossuary_persons: Optional[Fraction] = None
    rahmani: Optional[Fraction] = None
    rahmani_uncertain: bool = False

    def check(self):
        if self.gender not in GENDERS:
            raise InputError(f"gender: {self.name}: {self.gender!r}")
        if self.total_persons < 0:
            raise InputError(f"total_persons: {self.name}: negative")
        if self.ossuary_persons is not None:
            if self.ossuary_persons < 0:
                raise InputError(f"ossuary_persons: {self.name}: negative")
            if self.ossuary_persons > self.total_persons:
                raise InputError(f"ossuary_persons: {self.name}: exceeds total_persons")


@checked
class RenditionSlice(NamedTuple):
    """A named group of renditions within a generic name.

    ``ossuary_matching`` (k) of the ``ossuary_generic`` (K) ossuary-derived
    bearers of the generic were written in a rendition belonging to the slice.
    """

    generic: str
    label: str
    ossuary_matching: Fraction
    ossuary_generic: Fraction

    def check(self):
        if not 0 <= self.ossuary_matching <= self.ossuary_generic:
            raise InputError(
                f"ossuary_matching: {self.generic}/{self.label}: "
                "must satisfy 0 <= k <= K")


@checked
class Onomasticon(NamedTuple):
    """Immutable name-frequency tables."""

    female_total: int
    male_total: int
    generics: tuple[GenericNameCount, ...]
    slices: tuple[RenditionSlice, ...]

    def check(self):
        if self.female_total <= 0 or self.male_total <= 0:
            raise InputError("gender totals: must be positive")
        check_rows(self.generics, self.slices)

    def gender_total(self, gender: str) -> int:
        if gender == FEMALE:
            return self.female_total
        if gender == MALE:
            return self.male_total
        raise InputError(f"gender: {gender!r}")

    def generic(self, name: str) -> GenericNameCount:
        for g in self.generics:
            if g.name == name:
                return g
        raise InputError(f"generic: {name}: unknown")

    def slice(self, generic: str, label: str) -> RenditionSlice:
        for s in self.slices:
            if s.generic == generic and s.label == label:
                return s
        raise InputError(f"slice: {generic}/{label}: unknown")


def check_rows(generics, slices, by_name=None, totals=None) -> None:
    """Generics have distinct names; slices agree with and fit inside their
    generic. A reader checks each row as it comes by passing on ``by_name``,
    the generics above it by name, and ``totals``, their slices' counts."""
    by_name = {} if by_name is None else by_name
    totals = {} if totals is None else totals
    for g in generics:
        if by_name.setdefault(g.name, g) is not g:
            raise InputError(f"generic: {g.name}: duplicate name")
    for s in slices:
        g = by_name.get(s.generic)
        if g is None:
            raise InputError(f"slice generic: {s.generic}: unknown")
        if g.ossuary_persons is not None and s.ossuary_generic != g.ossuary_persons:
            raise InputError(
                f"ossuary_generic: {s.generic}/{s.label}: disagrees with "
                "the generic's ossuary count")
        totals[s.generic] = totals.get(s.generic, 0) + implied_count(s, g)
        if totals[s.generic] > g.total_persons:
            raise InputError(
                f"slices of {s.generic}: implied counts exceed the generic total")


def implied_count(slc: RenditionSlice, generic: GenericNameCount) -> Fraction:
    """Persons in the slice, scaled from ossuary proportions: (k/K) * G."""
    if slc.ossuary_generic == 0:
        raise InputError(f"slice {slc.generic}/{slc.label}: no ossuary bearers (K = 0)")
    return slc.ossuary_matching / slc.ossuary_generic * generic.total_persons


def slice_frequency(slc: RenditionSlice, onom: Onomasticon) -> Fraction:
    """Bias-corrected rendition frequency (k/K) * G / N, exact."""
    g = onom.generic(slc.generic)
    return implied_count(slc, g) / onom.gender_total(g.gender)


# ---------------------------------------------------------------------------
# input files
#
# The onomasticon table, the hypothesis config and the scenario suite share
# one grammar: one record per line, its fields separated by whitespace, the
# first field naming the record kind, which takes exactly its fields; '#'
# starts a comment. Options are key=value words, each given at most once,
# and a key the record does not know is rejected. Numbers accept exact
# fraction syntax "a/b", integers and decimals.
#
# The onomasticon table's records:
#   total   <female|male> <persons>       (one per gender)
#   generic <name> <gender> <total> [<ossuary>|-] [rahmani=N[?]]  (one per name)
#   slice   <generic> <label> <k> <K>     (below the generic's own record)
# A '-' ossuary entry means undetermined (not zero).
# ---------------------------------------------------------------------------

DATA = Path(__file__).parent / "data"


def source_path(source: Union[str, Path], filename: str) -> Union[str, Path]:
    """The path ``source`` names: the packaged ``filename`` for "bundled"."""
    return DATA / filename if source == "bundled" else source


def load_source(source: Union[str, Path], filename: str, parse):
    """``parse`` of the text of a path, or of the packaged ``filename`` for
    "bundled". An unreadable file and a malformed row name the file."""
    path = source_path(source, filename)
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as exc:  # missing, a directory, not text, a bad row
        raise InputError(f"{path}: {exc}") from exc


def read_records(text: str, handlers) -> None:
    """Pass the fields after the kind of each record to ``handlers[kind]``.

    A ValueError or ZeroDivisionError from a record becomes an InputError
    naming its row.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            if fields[0] not in handlers:
                raise ValueError(f"unknown record kind {fields[0]!r}")
            handlers[fields[0]](fields[1:])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"row {lineno}: {exc}") from exc


def parse_options(words, parsers) -> dict:
    """``key=value`` words as {key: parsers[key](value)}; other words, and a
    key given twice, raise."""
    options = {}
    for word in words:
        key, eq, value = word.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {word!r}")
        if key not in parsers:
            raise ValueError(f"unknown option {key!r}")
        if key in options:
            raise ValueError(f"{key}: given twice")
        options[key] = parse_field(key, value, parsers[key])
    return options


GENERIC_OPTIONS = {"rahmani": str}


def parse_onomasticon(text: str) -> Onomasticon:
    totals = {}
    # the state check_rows keeps of the rows above: generics by name, and
    # the implied counts of their slices
    by_name: dict[str, GenericNameCount] = {}
    implied: dict[str, Fraction] = {}
    slices: list[RenditionSlice] = []

    def total(fields):
        gender, persons = fields
        count = parse_field(f"{gender}_total", persons, int)
        if gender not in GENDERS:
            raise ValueError(f"gender: expected female or male, got {gender!r}")
        if count <= 0:
            raise ValueError(f"{gender}_total: must be positive")
        if gender in totals:
            raise ValueError(f"{gender}_total: given twice")
        totals[gender] = count

    def generic(fields):
        name, gender, persons, *rest = fields
        ossuary = None
        if rest and "=" not in rest[0]:
            word = rest.pop(0)
            ossuary = None if word == "-" else parse_field("ossuary_persons", word)
        rahmani = parse_options(rest, GENERIC_OPTIONS).get("rahmani")
        check_rows([GenericNameCount(
            name=name, gender=gender, total_persons=parse_field("total_persons", persons),
            ossuary_persons=ossuary,
            rahmani=None if rahmani is None else parse_field("rahmani", rahmani.rstrip("?")),
            rahmani_uncertain=rahmani is not None and rahmani.endswith("?"))],
            (), by_name, implied)  # no generic above it has its name

    def slice_(fields):
        name, label, k, big_k = fields
        slices.append(RenditionSlice(
            generic=name, label=label,
            ossuary_matching=parse_field("ossuary_matching", k),
            ossuary_generic=parse_field("ossuary_generic", big_k)))
        check_rows((), slices[-1:], by_name, implied)  # against the rows above it

    read_records(text, {"total": total, "generic": generic, "slice": slice_})
    if FEMALE not in totals or MALE not in totals:
        raise InputError("missing 'total' record for one or both genders")
    return Onomasticon(
        female_total=totals[FEMALE], male_total=totals[MALE],
        generics=tuple(by_name.values()), slices=tuple(slices))


def load_onomasticon(source: Union[str, Path] = "bundled") -> Onomasticon:
    """Load from a path or the bundled fixture."""
    return load_source(source, "onomasticon.tsv", parse_onomasticon)
