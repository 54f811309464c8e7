"""Hybrid pseudo-posterior for the regression coefficients.

The estimating-equation solution m with sandwich covariance d is combined
with a Gaussian prior N(mu, C) exactly as if m were a Gaussian likelihood
summary, giving the pseudo-posterior

    N( (d^-1 + C^-1)^-1 (d^-1 m + C^-1 mu),  (d^-1 + C^-1)^-1 )

restricted to the nonnegative orthant.  Point estimates, per-component
highest-density intervals on [0, inf), a symmetric-width standard deviation
proxy, and a positivity flag are derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import nnls
from scipy.stats import norm

from .data_model import BetaPrior
from .errors import DimensionMismatch, InvalidCoverage, SingularCovariance
from .lin_ying import LYEstimate

__all__ = [
    "PseudoPosterior",
    "HpdInterval",
    "pseudo_posterior",
    "beta_mode",
    "hpd_interval",
    "sigma_hat",
    "significance_flag",
]

_BISECT_STEPS = 90  # halves the bracket to ~1e-27 of its width; beyond float64


@dataclass(frozen=True)
class PseudoPosterior:
    """Gaussian pseudo-posterior, understood as truncated to beta >= 0."""

    mean: np.ndarray
    cov: np.ndarray

    @property
    def k(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class HpdInterval:
    """Shortest interval of given coverage for one truncated marginal."""

    lower: float
    upper: float
    coverage: float


def _spd_inverse(matrix: np.ndarray, what: str) -> np.ndarray:
    try:
        factor = cho_factor(matrix, lower=True)
    except (np.linalg.LinAlgError, ValueError):
        raise SingularCovariance(f"{what} is not positive definite") from None
    return cho_solve(factor, np.eye(matrix.shape[0]))


def pseudo_posterior(estimate: LYEstimate, prior: BetaPrior) -> PseudoPosterior:
    """Precision-weighted combination of the estimate and the prior."""
    m = np.asarray(estimate.m, dtype=float)
    d = np.asarray(estimate.d, dtype=float)
    if prior.k != m.size:
        raise DimensionMismatch(
            f"prior dimension {prior.k} does not match estimate dimension {m.size}"
        )
    d_inv = _spd_inverse(d, "sandwich covariance")
    c_inv = _spd_inverse(prior.cov_array(), "prior covariance")
    cov = _spd_inverse(d_inv + c_inv, "posterior precision")
    cov = (cov + cov.T) / 2.0
    mean = cov @ (d_inv @ m + c_inv @ prior.mu_array())
    return PseudoPosterior(mean=mean, cov=cov)


def beta_mode(pp: PseudoPosterior, *, orthant_qp: bool = False) -> np.ndarray:
    """Mode of the truncated pseudo-posterior.

    The default clamps each component of the Gaussian mean at zero.  With
    ``orthant_qp=True`` the mode is instead the exact constrained maximizer
    of the Gaussian density over the nonnegative orthant, which differs from
    the clamp when components are correlated and some are negative.
    """
    if not orthant_qp:
        return np.maximum(pp.mean, 0.0)
    # maximizing the density is minimizing ||R beta - R mean||^2 over beta >= 0
    # with R'R = cov^-1; R is the Cholesky factor of the precision, transposed
    precision = _spd_inverse(pp.cov, "posterior covariance")
    r = np.linalg.cholesky(precision).T
    solution, _ = nnls(r, r @ pp.mean)
    return solution


def _hpd_bulk(mean, sd, coverage: float):
    """Vectorized HPD of N(mean, sd^2) truncated to [0, inf).

    The superlevel set of the truncated density at any level is the interval
    [max(0, mean - r), mean + r] for some half-width r >= max(0, -mean), and
    its probability mass grows monotonically with r, so bisection on r is
    bisection on the density level.  Returns (lower, upper) arrays.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if np.any(sd <= 0) or not np.all(np.isfinite(sd)) or not np.all(np.isfinite(mean)):
        raise SingularCovariance("marginal sd must be finite and > 0")
    if not (0.0 < coverage < 1.0):
        raise InvalidCoverage(f"coverage must lie in (0, 1), got {coverage!r}")
    # mass on [max(0, mean-r), mean+r] in untruncated units, then renormalized
    total = norm.cdf(mean / sd)  # P(X >= 0)
    target = coverage * total

    def mass(r):
        return norm.cdf(r / sd) - norm.cdf(np.maximum(-r, -mean) / sd)

    lo = np.maximum(0.0, -mean)
    hi = lo + sd * (norm.ppf((1.0 + coverage) / 2.0) + 1.0)
    for _ in range(64):
        short = mass(hi) < target
        if not np.any(short):
            break
        hi = np.where(short, lo + 2.0 * (hi - lo), hi)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        below = mass(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    r = 0.5 * (lo + hi)
    return np.maximum(0.0, mean - r), mean + r


def hpd_interval(pp: PseudoPosterior, component: int, coverage: float) -> HpdInterval:
    """Highest-density interval of one truncated-normal marginal.

    The marginal used is the Gaussian marginal of the given component,
    truncated to [0, inf); either the interval starts at 0, or the density
    is equal at both endpoints.
    """
    if not 0 <= component < pp.k:
        raise DimensionMismatch(f"component {component} out of range for k={pp.k}")
    mu = pp.mean[component]
    sd = math.sqrt(pp.cov[component, component])
    lower, upper = _hpd_bulk(np.array([mu]), np.array([sd]), coverage)
    return HpdInterval(lower=float(lower[0]), upper=float(upper[0]), coverage=coverage)


def sigma_hat(interval: HpdInterval, coverage: float | None = None) -> float:
    """Standard deviation recovered from the interval width as if symmetric.

    For coverage 1 - alpha this is (upper - lower) / (2 z_{1-alpha/2}); it
    equals the true sd when the interval did not hit the truncation bound.
    """
    level = interval.coverage if coverage is None else float(coverage)
    if not (0.0 < level < 1.0):
        raise InvalidCoverage(f"coverage must lie in (0, 1), got {level!r}")
    z = norm.ppf(0.5 + level / 2.0)
    return (interval.upper - interval.lower) / (2.0 * z)


def significance_flag(interval: HpdInterval) -> bool:
    """True when the interval excludes zero (lower endpoint > 0)."""
    return interval.lower > 0.0
