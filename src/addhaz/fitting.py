"""End-to-end fit: coefficients, credible intervals, baseline increments."""

from __future__ import annotations

import numpy as np

from .baseline_posterior import (
    event_offsets_by_interval,
    increment_posteriors,
    interval_summaries,
)
from .data_model import (
    BetaPrior,
    FitResult,
    GammaProcessPrior,
    SurvivalDataset,
    TimeGrid,
    grid_from_quantiles,
)
from .errors import DimensionMismatch
from .hybrid_beta import beta_mode, hpd_interval, pseudo_posterior, sigma_hat
from .lin_ying import compute_statistics, ly_solve

__all__ = ["fit"]

DEFAULT_QUANTILES = (0.2, 0.4, 0.6, 0.8)
DEFAULT_OMEGA = 1000.0
DEFAULT_GAMMA_C = 1.0


def fit(
    ds: SurvivalDataset,
    grid: TimeGrid | None = None,
    *,
    beta_prior: BetaPrior | None = None,
    gamma_prior: GammaProcessPrior | None = None,
    coverage: float = 0.95,
    orthant_qp: bool = False,
    skip_baseline: bool = False,
) -> FitResult:
    """Run the full estimation pipeline on one dataset.

    The coefficient path combines the estimating-equation solution with the
    Gaussian prior (isotropic N(1, 1000 I) when none is given); the baseline
    path then conditions each interval's increment posterior on the fitted
    coefficients.  ``skip_baseline=True`` stops after the coefficient path.
    """
    if beta_prior is None:
        beta_prior = BetaPrior.isotropic(1.0, DEFAULT_OMEGA, ds.k)
    estimate = ly_solve(compute_statistics(ds))
    posterior = pseudo_posterior(estimate, beta_prior)
    beta_hat = beta_mode(posterior, orthant_qp=orthant_qp)
    interval = hpd_interval(posterior, coverage)

    baseline = ()
    if not skip_baseline:
        if grid is None:
            grid = grid_from_quantiles(ds, DEFAULT_QUANTILES, float(np.max(ds.times)))
        if gamma_prior is None:
            # unit-rate prior guess: shape function alpha(t) = t
            gamma_prior = GammaProcessPrior.from_shape(grid.boundaries, DEFAULT_GAMMA_C)
        elif gamma_prior.m != grid.m:
            raise DimensionMismatch(f"gamma prior needs one increment per grid interval ({grid.m})")
        summaries = interval_summaries(ds, grid)
        offsets = event_offsets_by_interval(ds, grid, beta_hat)
        (baseline,) = increment_posteriors(summaries, offsets, [gamma_prior])
    return FitResult(
        beta_hat=tuple(float(v) for v in beta_hat),
        ly_beta=tuple(float(v) for v in estimate.m),
        sigma_hat=tuple(sigma_hat(interval).tolist()),
        hpd=tuple(zip(interval.lower.tolist(), interval.upper.tolist())),
        coverage=float(coverage),
        baseline=baseline,
    )
