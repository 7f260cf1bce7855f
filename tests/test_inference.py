"""Adjusted p-values, posterior odds, and lower confidence bounds."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from namecluster.inference import (adjusted_p, beta_of, odds_lower_bound,
                                   posterior_odds, theta_lower_bound)
from namecluster.onomasticon import InputError

from bundled import N2

# baseline tail proportion from the bundled enumeration
Q = Fraction(253644329313582025, 461894801863030415245482)


class TestAdjustedP:
    def test_baseline(self):
        assert f"{float(adjusted_p(Q, N2)):.4g}" == "0.0006041"

    def test_full_population_tomb_count(self):
        assert round(1 / float(adjusted_p(Q, 10_000))) == 182

    def test_zero_tail(self):
        assert adjusted_p(Fraction(0), N2) == 0

    def test_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            assert adjusted_p(Fraction(1, 2), 10) == 1


class TestPosteriorOdds:
    @pytest.mark.parametrize("theta,printed", [
        (Fraction(1), 1657), (Fraction(1, 2), 828), (Fraction(1, 10), 167)])
    def test_reference_grid(self, theta, printed):
        got = round(float(posterior_odds(theta, N2, Q)))
        assert abs(got - printed) <= 1

    def test_even_odds_at_theta_equal_beta(self):
        beta = beta_of(Q, N2)
        assert posterior_odds(beta, N2, Q) == 1

    def test_zero_tail_rejected(self):
        with pytest.raises(InputError, match="q = 0"):
            posterior_odds(Fraction(1), N2, Fraction(0))

    def test_single_tomb_rejected_naming_n2(self):
        # beta = (n2-1)*q is 0 because n2 = 1, not because q = 0
        with pytest.raises(InputError, match="n2 = 1"):
            posterior_odds(Fraction(1), 1, Fraction(1, 2))


@pytest.mark.parametrize("call", [
    lambda: posterior_odds(1, 10, Fraction(-1, 9)),
    lambda: theta_lower_bound(Fraction(1, 2), 10, -1),
    lambda: odds_lower_bound(Fraction(1, 2), 10, Fraction(-1, 100))])
def test_a_tail_area_below_0_is_refused_not_turned_into_a_figure(call):
    with pytest.raises(InputError, match="^q must be a tail area between 0 and 1$"):
        call()


class TestThetaLowerBound:
    def test_reference_values(self):
        assert f"{float(theta_lower_bound(Fraction(5, 100), N2, Q)):.3g}" == "0.0494"
        assert f"{float(theta_lower_bound(Fraction(1, 100), N2, Q)):.2g}" == "0.0094"

    def test_boundary_alpha_equals_beta(self):
        beta = beta_of(Q, N2)
        with pytest.warns(UserWarning, match="degenerates"):
            assert theta_lower_bound(beta, N2, Q) == 0

    def test_no_competition_limit(self):
        assert theta_lower_bound(Fraction(5, 100), 1, Q) == Fraction(5, 100)


class TestOddsLowerBound:
    def test_reference_values(self):
        assert f"{float(odds_lower_bound(Fraction(5, 100), N2, Q)):.4g}" == "81.9"
        assert f"{float(odds_lower_bound(Fraction(1, 100), N2, Q)):.4g}" == "15.58"

    def test_boundary(self):
        beta = beta_of(Q, N2)
        with pytest.warns(UserWarning):
            assert odds_lower_bound(beta, N2, Q) == 0

    def test_small_beta_approximation(self):
        q = Fraction(1, 10 ** 6) / (N2 - 1)  # beta = 1e-6
        alpha = Fraction(5, 100)
        exact = odds_lower_bound(alpha, N2, q)
        approx = alpha / beta_of(q, N2) - 1
        assert abs(exact - approx) / approx < Fraction(1, 10 ** 5)


class TestTau:
    # tau = theta * (1 - beta) + beta: the probability of attaining the tail
    # level among the n2 tombs, with beta from beta_of
    def test_certain_event(self):
        beta = beta_of(Q, N2)
        assert isinstance(beta, Fraction) and 0 < beta < 1
        assert 1 * (1 - beta) + beta == 1

    def test_only_competitors_remain(self):
        beta = beta_of(Q, N2)
        assert 0 * (1 - beta) + beta == beta == (N2 - 1) * Q

    def test_direct_evaluation(self):
        beta = Fraction(603, 10 ** 6)  # a beta near the baseline's
        q = beta / (N2 - 1)
        assert beta_of(q, N2) == beta
        value = Fraction(1, 2) * (1 - beta) + beta
        assert f"{float(value):.4g}" == "0.5003"


class TestIdentities:
    @given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(99, 100)))
    def test_tau_inverts_the_theta_bound(self, alpha):
        beta = beta_of(Q, N2)
        if alpha <= beta:
            return
        theta = theta_lower_bound(alpha, N2, Q)
        assert theta * (1 - beta) + beta == alpha

    @given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)))
    def test_odds_bound_identity(self, alpha):
        beta = beta_of(Q, N2)
        if alpha <= beta:
            return
        assert odds_lower_bound(alpha, N2, Q) * beta * (1 - beta) == alpha - beta

    @given(alpha=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
           scale=st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4)))
    def test_tau_affine_increasing(self, alpha, scale):
        # tau is affine and increasing in theta, so its inverse, the theta
        # bound, increases with alpha
        beta = beta_of(Q, N2)
        other = min(Fraction(99, 100), alpha * scale)
        if min(alpha, other) <= beta:
            return
        low, high = sorted((alpha, other))
        theta_low = theta_lower_bound(low, N2, Q)
        theta_high = theta_lower_bound(high, N2, Q)
        assert theta_low * (1 - beta) + beta == low
        assert theta_high * (1 - beta) + beta == high
        assert theta_high >= theta_low
