"""Two-step inference from a tail area q and the number of candidate tombs.

Step one bounds the p-value for "some one of the n2 existing tombs is the
target" by p = n2*q. Step two updates the flat prior odds 1/(n2-1) by the
likelihood ratio theta/q, giving posterior odds theta/((n2-1)*q). With
beta = (n2-1)*q, the probability that the observed tail level is attained
among the n2 tombs is tau = theta*(1-beta) + beta, from which conservative
100(1-alpha)% lower confidence bounds follow:

    theta >= (alpha - beta) / (1 - beta)
    odds  >= (alpha - beta) / (beta * (1 - beta))    (about alpha/beta - 1)

Everything is exact rational; callers render decimals.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .onomasticon import InputError


class InferenceError(InputError):
    """An inference input or quantity is out of range."""


def beta_of(q: Fraction, n2: int) -> Fraction:
    return (n2 - 1) * Fraction(q)


def adjusted_p(q: Fraction, n2: int) -> Fraction:
    """Upper bound n2*q on the step-one p-value; clamped at 1 with a warning."""
    if q < 0:
        raise InferenceError("q must be nonnegative")
    p = n2 * Fraction(q)
    if p > 1:
        warnings.warn("n2*q exceeds 1; reporting the clamped bound 1",
                      stacklevel=2)
        return Fraction(1)
    return p


def nonzero_beta(q: Fraction, n2: int, infinite: str) -> Fraction:
    """beta, which must not be 0: a quantity over it would be ``infinite``."""
    b = beta_of(q, n2)
    if b == 0:
        raise InferenceError(f"{'q = 0' if q == 0 else 'n2 = 1'} gives {infinite}")
    return b


def posterior_odds(theta: Fraction, n2: int, q: Fraction) -> Fraction:
    """Posterior odds theta / ((n2-1) q) for the flat 1/(n2-1) prior."""
    b = nonzero_beta(q, n2, "infinite odds")
    if not 0 < theta <= 1:
        raise InferenceError("theta must lie in (0,1]")
    return Fraction(theta) / b


def check_alpha(alpha: Fraction) -> None:
    """A confidence complement must lie in (0,1): above 1 no bound is a probability."""
    if not 0 < alpha < 1:
        raise InferenceError("alpha must lie in (0,1)")


def theta_lower_bound(alpha: Fraction, n2: int, q: Fraction) -> Fraction:
    """100(1-alpha)% lower confidence bound for theta; 0 when degenerate."""
    check_alpha(alpha)
    b = beta_of(q, n2)
    if alpha <= b:
        warnings.warn("alpha <= beta: the bound degenerates to 0", stacklevel=2)
        return Fraction(0)
    return (Fraction(alpha) - b) / (1 - b)


def odds_lower_bound(alpha: Fraction, n2: int, q: Fraction) -> Fraction:
    """Lower confidence bound (alpha-beta)/(beta(1-beta)) for the odds."""
    check_alpha(alpha)
    b = nonzero_beta(q, n2, "an infinite bound")
    if alpha <= b:
        warnings.warn("alpha <= beta: the bound degenerates to 0", stacklevel=2)
        return Fraction(0)
    return (Fraction(alpha) - b) / (b * (1 - b))

