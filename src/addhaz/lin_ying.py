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
computed exactly (no quadrature).  The segments up to t_i add up to t_i,
so n V2 = Z' diag(t) Z - W'W, two products in O(nk) memory, where segment s
has length L_s, c_s subjects at risk with covariate sum S_z(s), and
W_s = sqrt(L_s / c_s) S_z(s).  V3 sums over event terms only: the
martingale-based variance.

The times take numpy's default sort.  Distinct times have one ascending
order, and each row is its own run of equal times, so no run bookkeeping
is built.  Only where two are equal are they sorted again with a stable
sort and grouped into runs, so the bits are always a stable sort's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import SurvivalDataset, _single
from .errors import OutOfRange, SingularCovariance, SingularDesign

__all__ = [
    "LYStatistics",
    "LYEstimate",
    "compute_statistics",
    "ly_solve",
]

# eigenvalue ratio at or below which V2 is declared singular
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
    """Exact V1, V2, V3 of one dataset via suffix sums; OutOfRange if one overflows."""
    _single(ds)
    n = ds.n
    with np.errstate(over="ignore", invalid="ignore"):
        # each (n, k) temporary is dropped once used: at n = 1e6, k = 4 it is 32 MB
        order = ds.times.argsort()
        t = ds.times[order]
        # distinct times u_1 < ... < u_K start the runs of equal sorted times
        starts = np.empty(n, dtype=bool)  # filled in place: fewer heap temporaries
        starts[0] = True
        np.not_equal(t[1:], t[:-1], out=starts[1:])
        ties = not starts.all()
        if ties:
            # a stable sort keeps each run in row order (-0.0 and 0.0 too)
            order = ds.times.argsort(kind="stable")
            t = ds.times[order]
        events = ds.events[order]
        # V1-V3 are translation-invariant; centering stops V2's difference cancelling
        z = ds.covariates[order]
        z -= ds.covariates.sum(axis=0) / n  # mean(axis=0)'s bits, without its wrapper
        del order
        ztz = (z.T * t) @ z

        # t is sorted, so u_s starts the run of equal times at row first[s], and
        # event row i sits at distinct index inv_events[i]; distinct times make
        # every row its own run, so first is 0, ..., n - 1 and u is t
        if ties:
            first = starts.nonzero()[0]
            inv_events = (starts.cumsum() - 1)[events]
            u = t[first]
            counts = n - first
        else:
            inv_events = events.nonzero()[0]
            u = t
            counts = np.arange(n, 0, -1)
        del starts
        lengths = np.empty(u.size)  # L_s = u_s - u_{s-1}, with u_0 = 0
        lengths[0] = u[0]
        np.subtract(u[1:], u[:-1], lengths[1:])
        del t, u

        resid = z[events]  # the event rows, centered below
        # suffix sums over sorted rows, written back to front into C order (a
        # reversed view would change the bits of w.T @ w): everything with
        # t >= u_s starts at first[s]
        sum_z = np.empty_like(z)
        z[::-1].cumsum(axis=0, out=sum_z[::-1])
        del z
        if ties:
            sum_z = sum_z[first]  # (K, k)

        # center each event row by the risk-set mean z_bar at its own time
        zbar = sum_z[inv_events]
        zbar /= counts[inv_events][:, None]
        resid -= zbar
        del zbar
        v1 = resid.sum(axis=0) / n
        v3 = resid.T @ resid / n

        # V2: segment (u_{s-1}, u_s] has constant risk-set mean
        w = sum_z
        w *= np.sqrt(lengths / counts)[:, None]
        v2 = (ztz - w.T @ w) / n

        v2 = (v2 + v2.T) / 2.0
        v3 = (v3 + v3.T) / 2.0
    if not (np.isfinite(v1).all() and np.isfinite(v2).all() and np.isfinite(v3).all()):
        raise OutOfRange("V1, V2 or V3 overflows")
    return LYStatistics(v1=v1, v2=v2, v3=v3, n=n)


def _decompose(v2: np.ndarray):
    """eigh of each V2 in a stack, and True where its eigenvalue ratio is at most
    1e-12, or its largest eigenvalue subnormal, where that ratio underflows."""
    eigs, vecs = np.linalg.eigh(v2)
    top = eigs[..., -1]
    singular = (top < np.finfo(float).tiny) | (eigs[..., 0] <= _SINGULAR_RTOL * top)
    return eigs, vecs, singular


def ly_solve(stats: LYStatistics) -> LYEstimate:
    """Solve V2 m = V1 and form d = n^-1 V2^-1 V3 V2^-1.

    The statistics may carry a leading axis (r designs of n rows each), and
    the solution carries it too.  One eigendecomposition of V2 gives both the
    singularity test and V2^-1; raises SingularDesign when any V2 is singular
    (see ``_decompose``), and SingularCovariance when d overflows.
    """
    eigs, vecs, singular = _decompose(stats.v2)
    if np.any(singular):
        raise SingularDesign("integrated design matrix V2 is singular or near-singular")
    with np.errstate(over="ignore", invalid="ignore"):
        v2_inv = (vecs / eigs[..., None, :]) @ np.swapaxes(vecs, -1, -2)
        m = (v2_inv @ stats.v1[..., None])[..., 0]
        d = v2_inv @ stats.v3 @ v2_inv / stats.n
        d = (d + np.swapaxes(d, -1, -2)) / 2.0
    if not np.all(np.isfinite(d)):
        raise SingularCovariance("sandwich covariance has non-finite entries")
    return LYEstimate(m=m, d=d)
