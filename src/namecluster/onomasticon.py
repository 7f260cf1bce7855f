"""Name-frequency data model for the late-antiquity Jewish onomasticon.

Holds per-generic person counts (with their ossuary-derived subset), the two
gender totals, rendition slices within a generic, and, in
``Onomasticon.frequency``, the bias-corrected frequency estimator:

    f(slice) = (k / K) * G / N

where k of the K ossuary-derived bearers of the generic name match the
slice, G is the generic's total person count, and N the gender total; a
whole generic is G / N.
All quantities are exact ``Fraction``s; floats appear only in reports.
The record reader of all three input files lives here too.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import wraps
from pathlib import Path
from typing import Union

FEMALE = "female"
MALE = "male"
GENDERS = (FEMALE, MALE)


class InputError(ValueError):
    """Any error in the program's inputs; the message names the bad field and
    the CLI exits 2 on it."""


# key: (what its word or value must do, its test), stated once for the CLI's
# flags, suite `set` rows and the value types and functions that take it
BOUNDS = {
    "format": ("be table or records", lambda v: v in ("table", "records")),
    # an empty path would read as the current directory
    **dict.fromkeys(("onomasticon", "hypothesis", "suite"), ("name a file", bool)),
    "n2": ("be an integer >= 1", lambda v: v >= 1),
    **dict.fromkeys(("bonus_divisor", "unknown_son_factor"), ("be >= 1", lambda v: v >= 1)),
    "total_deceased": ("be nonnegative", lambda v: v >= 0),
    **dict.fromkeys(("tomb_size", "female_total", "male_total"),
                    ("be positive", lambda v: v > 0)),
    **dict.fromkeys(("non_jewish_fraction", "juvenile_fraction",
                     "literacy_affluence_fraction", "female_male_inscription_ratio"),
                    ("lie in [0,1]", lambda v: 0 <= v <= 1)),
    "q": ("be a tail area between 0 and 1", lambda v: 0 <= v <= 1),
    "theta": ("lie in (0,1]", lambda v: 0 < v <= 1),
    "alpha": ("lie in (0,1)", lambda v: 0 < v < 1),
}


def check_range(key: str, value) -> None:
    """Raise InputError naming ``key`` unless ``value`` is in its BOUNDS range."""
    if not BOUNDS[key][1](value):
        raise InputError(f"{key} must {BOUNDS[key][0]}")


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
    """Make every value of the value type ``cls`` pass ``cls.check``.

    Value types subclass a ``collections.namedtuple`` with ``__slots__ = ()``,
    so values equal any tuple of their fields. An ``analyze`` start builds 12
    of them, 3 here, 4 in ``candidates``, 2 in ``scoring`` and 3 in
    ``tailspace``; each is cheaper to build than a class-syntax named tuple
    from ``typing``, which checks every field's annotation, or a frozen class
    from the standard library's class generator, whose module takes several
    ms more to import. ``cls.__new__``, which this wraps, is the namedtuple's
    generated one. ``_replace`` and, from Python 3.13, ``copy.replace`` build
    through ``_make``, which skips ``__new__``; here ``_make`` calls the
    class, so every way of building runs the check.
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
class GenericNameCount(namedtuple(
        "GenericNameCount", "name gender total_persons ossuary_persons",
        defaults=(None,))):
    """Counts of the persons bearing one generic name.

    ``ossuary_persons`` is None when the ossuary-derived count is
    undetermined (a dash in the source tables, which is not a zero).
    """

    __slots__ = ()
    # name, gender: str; total_persons: Fraction; ossuary_persons: Fraction or None

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


class RenditionSlice(namedtuple("RenditionSlice", "generic label ossuary_matching")):
    """A named group of renditions within a generic name.

    ``ossuary_matching`` (k) of the generic's ``ossuary_persons`` (K) were
    written in a rendition belonging to the slice; ``implied_count`` checks
    k against K, which only the generic states.
    """

    __slots__ = ()
    # generic, label: str; ossuary_matching: Fraction


@checked
class Onomasticon(namedtuple("Onomasticon", "female_total male_total generics slices")):
    """Immutable name-frequency tables."""

    __slots__ = ()
    # female_total, male_total: int; generics: tuple[GenericNameCount, ...];
    # slices: tuple[RenditionSlice, ...]

    def check(self):
        check_range("female_total", self.female_total)
        check_range("male_total", self.male_total)
        check_rows(self.generics, self.slices)

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

    def frequency(self, generic: str, gender: str, label: str | None = None) -> Fraction:
        """The estimator: the generic's G/N, or (k/K) * G/N for its slice
        ``label``, exact; N is the total of ``gender``, which must be the generic's."""
        g = self.generic(generic)
        if g.gender != gender:
            raise InputError(f"{g.name} is {g.gender}")
        count = g.total_persons if label is None else implied_count(self.slice(generic, label), g)
        return count / (self.female_total if gender == FEMALE else self.male_total)


def check_rows(generics, slices, by_name=None, totals=None) -> None:
    """Generics have distinct names; a generic's slices have distinct labels
    and fit inside it. A reader checks each row as it comes by passing on
    ``by_name``, the generics above it, and ``totals``, their slices' counts."""
    by_name = {} if by_name is None else by_name
    totals = {} if totals is None else totals
    for g in generics:
        if by_name.setdefault(g.name, g) is not g:
            raise InputError(f"generic: {g.name}: duplicate name")
    for s in slices:
        g = by_name.get(s.generic)
        if g is None:
            raise InputError(f"slice generic: {s.generic}: unknown")
        counts = totals.setdefault(s.generic, {})
        if s.label in counts:
            raise InputError(f"slice: {s.generic}/{s.label}: duplicate label")
        counts[s.label] = implied_count(s, g)
        if sum(counts.values()) > g.total_persons:
            raise InputError(
                f"slices of {s.generic}: implied counts exceed the generic total")


def implied_count(slc: RenditionSlice, generic: GenericNameCount) -> Fraction:
    """Persons in the slice, scaled from ossuary proportions: (k/K) * G,
    where K is the generic's ossuary count and 0 <= k <= K."""
    k, big_k = slc.ossuary_matching, generic.ossuary_persons
    if big_k is None:
        raise InputError(f"slice {slc.generic}/{slc.label}: "
                         "the generic's ossuary count is undetermined")
    if big_k == 0:
        raise InputError(f"slice {slc.generic}/{slc.label}: no ossuary bearers (K = 0)")
    if not 0 <= k <= big_k:
        raise InputError(f"ossuary_matching: {slc.generic}/{slc.label}: "
                         "must satisfy 0 <= k <= K")
    return k / big_k * generic.total_persons


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
#   generic <name> <gender> <total> [<ossuary>|-]   (one per name)
#   slice   <generic> <label> <k>         (below the generic's own record)
# A '-' ossuary entry means undetermined (not zero). A slice's k counts
# among its generic's ossuary bearers K, so its generic needs a K above 0.
# ---------------------------------------------------------------------------

DATA = Path(__file__).parent / "data"


def source_path(source: Union[str, Path], filename: str) -> Union[str, Path]:
    """The path ``source`` names: the packaged ``filename`` for "bundled"."""
    return DATA / filename if source == "bundled" else source


def load_source(source: Union[str, Path], filename: str, parse):
    """``parse`` of the text of a path, or of the packaged ``filename`` for
    "bundled". An unreadable file and a malformed row name the file; an
    empty path, which Path reads as the current directory, names ``filename``."""
    if source == "":
        raise InputError(f"{filename}: the path is empty")
    path = source_path(source, filename)
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
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


def parse_onomasticon(text: str) -> Onomasticon:
    totals = {}
    # the state check_rows keeps of the rows above: generics by name, and
    # the implied counts of their slices
    by_name: dict[str, GenericNameCount] = {}
    implied: dict[str, dict[str, Fraction]] = {}
    slices: list[RenditionSlice] = []

    def total(fields):
        gender, persons = fields
        count = parse_field(f"{gender}_total", persons, int)
        if gender not in GENDERS:
            raise ValueError(f"gender: expected female or male, got {gender!r}")
        check_range(f"{gender}_total", count)
        if gender in totals:
            raise ValueError(f"{gender}_total: given twice")
        totals[gender] = count

    def generic(fields):
        name, gender, persons, *rest = fields
        ossuary, = rest or ["-"]
        check_rows([GenericNameCount(
            name, gender, parse_field("total_persons", persons),
            None if ossuary == "-" else parse_field("ossuary_persons", ossuary))],
            (), by_name, implied)  # no generic above it has its name

    def slice_(fields):
        name, label, k = fields
        slices.append(RenditionSlice(
            generic=name, label=label, ossuary_matching=parse_field("ossuary_matching", k)))
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
