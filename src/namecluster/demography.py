"""Population pipeline: from deceased Jerusalemites to the trial count n2.

The pipeline halves the deceased total by gender, removes non-Jews and
juveniles, applies the literacy/affluence fraction to get males buried in
inscribed ossuaries, derives females by the inscription ratio, and divides
by the tomb size. Reported figures follow the conventional rounding of the
source estimates (tens for inscribed counts, hundreds for the trial count);
raw exact values are always carried alongside.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .onomasticon import InputError, checked


class ParameterError(InputError):
    """A pipeline input or intermediate is out of range."""


def round_to(value: Fraction, unit: int) -> int:
    """Round to the nearest multiple of ``unit`` (half away from zero)."""
    q, r = divmod(value, unit)
    return int(q) * unit + (unit if 2 * r >= unit else 0)


@checked
class DemographyParams(NamedTuple):
    total_deceased: int = 132_200
    non_jewish_fraction: Fraction = Fraction(5, 100)
    juvenile_fraction: Fraction = Fraction(42, 100)
    literacy_affluence_fraction: Fraction = Fraction(12, 100)
    female_male_inscription_ratio: Fraction = Fraction(1, 2)
    tomb_size: int = 6
    excavated_tombs: int = 100
    full_population_tombs: int = 10_000

    def check(self):
        for name in ("non_jewish_fraction", "juvenile_fraction",
                     "literacy_affluence_fraction", "female_male_inscription_ratio"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ParameterError(f"{name} outside [0,1]")
        if self.total_deceased < 0 or self.tomb_size <= 0:
            raise ParameterError("counts must be nonnegative, tomb_size positive")


class DemographyResult(NamedTuple):
    deceased_per_gender: Fraction
    adult_jewish_per_gender_raw: Fraction
    adult_jewish_per_gender: int      # reported, rounded to tens
    inscribed_males: int              # n-males, rounded to tens
    inscribed_females: Fraction
    trials_raw: Fraction
    trials: int                       # n2, rounded to hundreds
    excavated: int                    # n1, informational
    full_population_tombs: int       # n3, informational


def run_pipeline(params: DemographyParams = DemographyParams()) -> DemographyResult:
    deceased = Fraction(params.total_deceased, 2)
    adult_raw = (deceased * (1 - params.non_jewish_fraction)
                 * (1 - params.juvenile_fraction))
    if adult_raw < 0:
        raise ParameterError("negative adult population")
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
        excavated=params.excavated_tombs,
        full_population_tombs=params.full_population_tombs)
