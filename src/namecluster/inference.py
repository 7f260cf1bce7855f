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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .onomasticon import InputError


class InferenceError(InputError):
    """An inference input or quantity is out of range."""


@dataclass(frozen=True)
class InferenceInput:
    q: Fraction
    n2: int = 1100
    theta: Optional[Fraction] = None
    alpha: Optional[Fraction] = None

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise InferenceError("q must lie in (0,1)")
        if self.n2 < 1:
            raise InferenceError("n2 must be at least 1")
        if (self.n2 - 1) * self.q >= 1:
            raise InferenceError("(n2-1)*q must be below 1 for the bound formulas")


@dataclass(frozen=True)
class InferenceResult:
    p_value: Fraction
    beta: Fraction
    odds: Optional[Fraction] = None
    theta_bound: Optional[Fraction] = None
    odds_bound: Optional[Fraction] = None
    tau: Optional[Fraction] = None
    clamped: bool = False


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


def posterior_odds(theta: Fraction, n2: int, q: Fraction) -> Fraction:
    """Posterior odds theta / ((n2-1) q) for the flat 1/(n2-1) prior."""
    b = beta_of(q, n2)
    if b == 0:
        raise InferenceError("q = 0 gives infinite odds")
    if not 0 < theta <= 1:
        raise InferenceError("theta must lie in (0,1]")
    return Fraction(theta) / b


def theta_lower_bound(alpha: Fraction, n2: int, q: Fraction) -> Fraction:
    """100(1-alpha)% lower confidence bound for theta; 0 when degenerate."""
    b = beta_of(q, n2)
    if alpha <= b:
        warnings.warn("alpha <= beta: the bound degenerates to 0", stacklevel=2)
        return Fraction(0)
    return (Fraction(alpha) - b) / (1 - b)


def odds_lower_bound(alpha: Fraction, n2: int, q: Fraction) -> Fraction:
    """Lower confidence bound (alpha-beta)/(beta(1-beta)) for the odds."""
    b = beta_of(q, n2)
    if b == 0:
        raise InferenceError("beta = 0 gives an infinite bound")
    if alpha <= b:
        warnings.warn("alpha <= beta: the bound degenerates to 0", stacklevel=2)
        return Fraction(0)
    return (Fraction(alpha) - b) / (b * (1 - b))


def tau(theta: Fraction, n2: int, q: Fraction) -> Fraction:
    """Probability theta*(1-beta) + beta of attaining the tail level."""
    if not 0 <= theta <= 1:
        raise InferenceError("theta must lie in [0,1]")
    b = beta_of(q, n2)
    return Fraction(theta) * (1 - b) + b


def infer(inputs: InferenceInput) -> InferenceResult:
    """Bundle of the inference quantities for one (q, n2, theta, alpha)."""
    p = inputs.n2 * inputs.q
    clamped = p > 1
    b = beta_of(inputs.q, inputs.n2)
    odds = theta_b = odds_b = t = None
    if inputs.theta is not None:
        odds = posterior_odds(inputs.theta, inputs.n2, inputs.q)
        t = tau(inputs.theta, inputs.n2, inputs.q)
    if inputs.alpha is not None:
        theta_b = theta_lower_bound(inputs.alpha, inputs.n2, inputs.q)
        odds_b = odds_lower_bound(inputs.alpha, inputs.n2, inputs.q)
    return InferenceResult(p_value=min(p, Fraction(1)), beta=b, odds=odds,
                           theta_bound=theta_b, odds_bound=odds_b, tau=t,
                           clamped=clamped)
