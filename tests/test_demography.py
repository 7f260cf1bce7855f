"""Population pipeline arithmetic and reporting conventions."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from namecluster.demography import DemographyParams, round_to, run_pipeline
from namecluster.onomasticon import BOUNDS, InputError


def in_bounds(key, values):
    """``values`` filtered to the range BOUNDS gives ``key``."""
    return values.filter(BOUNDS[key][1])


class TestDefaults:
    def test_headline_figures(self):
        result = run_pipeline()
        assert result.deceased_per_gender == 66_100
        assert result.adult_jewish_per_gender == 36_420
        assert result.inscribed_males == 4_370
        assert result.inscribed_females == 2_185
        assert result.trials == 1_100

    def test_raw_values_alongside_reported(self):
        result = run_pipeline()
        assert result.adult_jewish_per_gender_raw == Fraction(364211, 10)
        assert result.trials_raw == Fraction(2185, 2)
        assert float(result.trials_raw) == 1092.5

    def test_informational_counts(self):
        result = run_pipeline()
        assert result.excavated == 100
        assert result.full_population_tombs == 10_000

    def test_zero_deceased_propagates(self):
        result = run_pipeline(DemographyParams(total_deceased=0))
        assert result.deceased_per_gender == 0
        assert result.inscribed_males == 0
        assert result.trials == 0


class TestValidation:
    def test_fraction_out_of_range(self):
        with pytest.raises(InputError, match=r"^juvenile_fraction must lie in \[0,1\]$"):
            DemographyParams(juvenile_fraction=Fraction(3, 2))

    def test_negative_deceased(self):
        with pytest.raises(InputError, match="^total_deceased must be nonnegative$"):
            DemographyParams(total_deceased=-1)


class TestProperties:
    def test_gender_conservation(self):
        for total in (0, 1, 7, 132_200, 999_999):
            result = run_pipeline(DemographyParams(total_deceased=total))
            assert 2 * result.deceased_per_gender == total

    @given(st.integers(min_value=0, max_value=10 ** 7),
           st.integers(min_value=0, max_value=10 ** 7))
    def test_trials_monotone_in_deceased(self, a, b):
        lo, hi = sorted((a, b))
        r_lo = run_pipeline(DemographyParams(total_deceased=lo))
        r_hi = run_pipeline(DemographyParams(total_deceased=hi))
        assert r_lo.trials <= r_hi.trials

    @given(st.fractions(min_value=0, max_value=1))
    def test_trials_monotone_in_literacy(self, f):
        base = run_pipeline(DemographyParams(
            literacy_affluence_fraction=Fraction(f)))
        more = run_pipeline(DemographyParams(literacy_affluence_fraction=1))
        assert base.trials <= more.trials

    @given(st.builds(
        DemographyParams,
        total_deceased=in_bounds("total_deceased", st.integers(-10, 10 ** 7)),
        **{key: in_bounds(key, st.fractions(-1, 2))
           for key in ("non_jewish_fraction", "juvenile_fraction",
                       "literacy_affluence_fraction", "female_male_inscription_ratio")},
        tomb_size=in_bounds("tomb_size", st.integers(-5, 50))))
    def test_every_figure_is_nonnegative_in_range(self, params):
        # the value type bounds every input, so no population can go negative
        result = run_pipeline(params)
        assert all(figure >= 0 for figure in result), result

    @given(st.integers(min_value=1, max_value=50))
    def test_scale_equivariance_before_rounding(self, c):
        base = run_pipeline()
        scaled = run_pipeline(DemographyParams(total_deceased=132_200 * c))
        assert scaled.deceased_per_gender == c * base.deceased_per_gender
        assert scaled.adult_jewish_per_gender_raw \
            == c * base.adult_jewish_per_gender_raw


class TestRounding:
    @pytest.mark.parametrize("value,unit,expected", [
        (Fraction(364211, 10), 10, 36420),
        (Fraction(1092633, 250), 10, 4370),
        (Fraction(2185, 2), 100, 1100),
        (Fraction(45), 10, 50),
        (Fraction(0), 10, 0),
    ])
    def test_round_to(self, value, unit, expected):
        assert round_to(value, unit) == expected
