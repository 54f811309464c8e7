"""Closed-form estimating-equation statistics for the additive hazards model.

With z_bar(u) denoting the covariate mean over the risk set {i : t_i >= u},
the estimator solves U(b) = V1 - V2 b = 0 where

    V1 = n^-1 sum_i delta_i [z_i - z_bar(t_i)]
    V2 = n^-1 sum_i integral_0^{t_i} [z_i - z_bar(u)] [z_i - z_bar(u)]' du

and the sampling covariance of the solution is estimated by the sandwich
n^-1 V2^-1 V3 V2^-1 with

    V3 = n^-1 sum_{i : delta_i = 1} [z_i - z_bar(t_i)] [z_i - z_bar(t_i)]'.

z_bar is a step function that changes value only as u crosses an observed
time, so the V2 integrals are sums over inter-observation segments and are
computed exactly (no quadrature).  V3 sums over event terms only: the
martingale-based variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .data_model import SurvivalDataset
from .errors import SingularDesign

__all__ = [
    "LYStatistics",
    "LYEstimate",
    "compute_statistics",
    "ly_solve",
]

# eigenvalue ratio below which V2 is declared singular
_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class LYStatistics:
    """The triple (V1, V2, V3) together with the sample size."""

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    n: int


@dataclass(frozen=True)
class LYEstimate:
    """Estimating-equation solution m = V2^-1 V1 and its sandwich covariance."""

    m: np.ndarray
    d: np.ndarray


def compute_statistics(ds: SurvivalDataset) -> LYStatistics:
    """Exact V1, V2, V3 via suffix sums over the sorted observation times."""
    n = ds.n
    order = np.argsort(ds.times, kind="stable")
    t = ds.times[order]
    # V1-V3 are translation-invariant; centering stops V2's difference cancelling
    z = ds.covariates[order] - ds.covariates.mean(axis=0)

    # distinct times u_1 < ... < u_K; obs i sits at distinct index inv[i]
    u, first, inv = np.unique(t, return_index=True, return_inverse=True)

    # suffix sums over sorted rows: everything with t >= u_s starts at first[s]
    z_rev_cum = np.cumsum(z[::-1], axis=0)[::-1]
    zz = z[:, :, None] * z[:, None, :]
    zz_rev_cum = np.cumsum(zz[::-1], axis=0)[::-1]
    counts = n - first

    sum_z = z_rev_cum[first]          # (K, k)
    sum_zz = zz_rev_cum[first]        # (K, k, k)
    zbar = sum_z / counts[:, None]    # (K, k)

    # V2: segment (u_{s-1}, u_s] has length L_s and constant risk-set mean
    lengths = np.diff(np.concatenate(([0.0], u)))
    scatter = sum_zz - counts[:, None, None] * (zbar[:, :, None] * zbar[:, None, :])
    v2 = np.tensordot(lengths, scatter, axes=(0, 0)) / n

    resid = (z - zbar[inv])[ds.events[order]]  # event rows, centered
    v1 = resid.sum(axis=0) / n
    v3 = resid.T @ resid / n

    v2 = (v2 + v2.T) / 2.0
    v3 = (v3 + v3.T) / 2.0
    return LYStatistics(v1=v1, v2=v2, v3=v3, n=n)


def ly_solve(stats: LYStatistics) -> LYEstimate:
    """Solve V2 m = V1 and form d = n^-1 V2^-1 V3 V2^-1.

    Uses a Cholesky factorization of V2; raises SingularDesign when the
    smallest eigenvalue of V2 falls below 1e-12 of the largest.
    """
    v2 = stats.v2
    eigs = np.linalg.eigvalsh(v2)
    if eigs[-1] <= 0 or eigs[0] < _SINGULAR_RTOL * eigs[-1]:
        raise SingularDesign(
            "integrated design matrix V2 is singular or near-singular"
        )
    try:
        factor = cho_factor(v2, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise SingularDesign(str(exc)) from None
    m = cho_solve(factor, stats.v1)
    inner = cho_solve(factor, stats.v3)
    d = cho_solve(factor, inner.T).T / stats.n
    d = (d + d.T) / 2.0
    return LYEstimate(m=m, d=d)
