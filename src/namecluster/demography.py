"""Population pipeline: from deceased Jerusalemites to the trial count n2.

The pipeline halves the deceased total by gender, removes non-Jews and
juveniles, applies the literacy/affluence fraction to get males buried in
inscribed ossuaries, derives females by the inscription ratio, and divides
by the tomb size. Reported figures follow the conventional rounding of the
source estimates (tens for inscribed counts, hundreds for the trial count);
raw exact values are always carried alongside.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .onomasticon import check_range, checked

# tomb counts the result reports beside its figures; no computation reads them
EXCAVATED_TOMBS = 100           # n1
FULL_POPULATION_TOMBS = 10_000  # n3


def round_to(value: Fraction, unit: int) -> int:
    """Round to the nearest multiple of ``unit`` (half up)."""
    q, r = divmod(value, unit)
    return int(q) * unit + (unit if 2 * r >= unit else 0)


@checked
class DemographyParams(namedtuple(
        "DemographyParams", "total_deceased non_jewish_fraction juvenile_fraction "
        "literacy_affluence_fraction female_male_inscription_ratio tomb_size",
        defaults=(132_200, Fraction(5, 100), Fraction(42, 100), Fraction(12, 100),
                  Fraction(1, 2), 6))):
    __slots__ = ()
    # total_deceased, tomb_size: int; the four fractions: Fraction

    def check(self):
        for name in self._fields:
            check_range(name, getattr(self, name))


class DemographyResult(namedtuple(
        "DemographyResult", "deceased_per_gender adult_jewish_per_gender_raw "
        "adult_jewish_per_gender inscribed_males inscribed_females trials_raw trials "
        "excavated full_population_tombs")):
    __slots__ = ()
    # deceased_per_gender, adult_jewish_per_gender_raw: Fraction
    # adult_jewish_per_gender: int, reported, rounded to tens
    # inscribed_males: int, n-males, rounded to tens
    # inscribed_females, trials_raw: Fraction
    # trials: int, n2, rounded to hundreds
    # excavated: int, n1, informational
    # full_population_tombs: int, n3, informational


def run_pipeline(params: DemographyParams = DemographyParams()) -> DemographyResult:
    deceased = Fraction(params.total_deceased, 2)
    adult_raw = (deceased * (1 - params.non_jewish_fraction)
                 * (1 - params.juvenile_fraction))
    males = round_to(adult_raw * params.literacy_affluence_fraction, 10)
    females = males * params.female_male_inscription_ratio
    trials_raw = (males + females) / params.tomb_size
    return DemographyResult(
        deceased_per_gender=deceased,
        adult_jewish_per_gender_raw=adult_raw,
        adult_jewish_per_gender=round_to(adult_raw, 10),
        inscribed_males=males,
        inscribed_females=females,
        trials_raw=trials_raw,
        trials=round_to(trials_raw, 100),
        excavated=EXCAVATED_TOMBS,
        full_population_tombs=FULL_POPULATION_TOMBS)
