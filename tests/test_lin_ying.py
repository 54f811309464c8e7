"""Estimating-equation statistics checked against independent oracles.

Two oracles are used: a direct O(n^2) double loop that evaluates the
defining sums and segment integrals one observation at a time, and a plain
trapezoid quadrature for the time integral in V2.  Both are deliberately
naive and share no code with the vectorized implementation.
"""

import numpy as np
import pytest

from addhaz.data_model import SurvivalDataset
from addhaz.errors import SingularDesign
from addhaz.lin_ying import LYStatistics, compute_statistics, ly_solve


def brute_force_statistics(ds, events_only_v3=True):
    """Defining sums evaluated literally, one observation at a time."""
    n, k = ds.n, ds.k
    t, d, z = ds.times, ds.events, ds.covariates

    def zbar(u):
        mask = t >= u
        return z[mask].mean(axis=0)

    v1 = np.zeros(k)
    v3 = np.zeros((k, k))
    for i in range(n):
        resid = z[i] - zbar(t[i])
        if d[i]:
            v1 += resid
        if d[i] or not events_only_v3:
            v3 += np.outer(resid, resid)

    # V2: integrate (z_i - zbar(u))^2 over u in (0, t_i]; zbar is constant
    # between consecutive distinct observed times
    knots = np.concatenate(([0.0], np.unique(t)))
    v2 = np.zeros((k, k))
    for i in range(n):
        for lo, hi in zip(knots[:-1], knots[1:]):
            if lo >= t[i]:
                break
            seg_hi = min(hi, t[i])
            resid = z[i] - zbar(seg_hi)  # zbar on (lo, hi] equals zbar(hi)
            v2 += (seg_hi - lo) * np.outer(resid, resid)
    return v1 / n, v2 / n, v3 / n


def trapezoid_v2(ds, step=1e-5):
    """Quadrature fallback for V2, ignorant of the step-function structure."""
    t, z = ds.times, ds.covariates
    top = float(np.max(t))
    grid = np.arange(step / 2, top, step)
    at_risk = t[None, :] >= grid[:, None]
    zbar = (at_risk @ z) / at_risk.sum(axis=1)[:, None]
    v2 = np.zeros((ds.k, ds.k))
    for i in range(ds.n):
        live = grid <= t[i]
        resid = z[i][None, :] - zbar[live]
        v2 += step * resid.T @ resid
    return v2 / ds.n


def random_dataset(rng, n, k, censor=0.3):
    times = rng.uniform(0.1, 5.0, size=n)
    events = rng.random(n) >= censor
    if not events.any():
        events[0] = True
    z = rng.uniform(0.0, 3.0, size=(n, k))
    return SurvivalDataset(times, events, z)


def test_risk_set_mean_single_point():
    # a lone subject is its own risk set, so every residual vanishes
    ds = SurvivalDataset([2.0], [True], [[3.0]])
    stats = compute_statistics(ds)
    for v in (stats.v1, stats.v2, stats.v3):
        np.testing.assert_array_equal(v, 0.0)


def test_risk_set_mean_two_points():
    # risk-set means: 2 on (0, 1] and 3 on (1, 2]; a subject whose time
    # equals u stays in the risk set, so z_bar(1) = 2 and z_bar(2) = 3
    ds = SurvivalDataset([1.0, 2.0], [True, True], [[1.0], [3.0]])
    stats = compute_statistics(ds)
    np.testing.assert_allclose(stats.v1, [((1.0 - 2.0) + (3.0 - 3.0)) / 2])
    np.testing.assert_allclose(stats.v2, [[(1.0 + 1.0 + 0.0) / 2]])
    np.testing.assert_allclose(stats.v3, [[((1.0 - 2.0) ** 2 + 0.0) / 2]])


def test_risk_set_empty_beyond_largest_time():
    # past the last time nobody is at risk, and a lone last survivor adds
    # nothing, so pushing the largest time out leaves the statistics alone
    near = compute_statistics(SurvivalDataset([1.0, 2.0], [True, True], [[1.0], [3.0]]))
    far = compute_statistics(SurvivalDataset([1.0, 9.0], [True, True], [[1.0], [3.0]]))
    for a, b in ((near.v1, far.v1), (near.v2, far.v2), (near.v3, far.v3)):
        np.testing.assert_allclose(a, b, rtol=1e-15)


def test_identical_covariates_zero_statistics():
    ds = SurvivalDataset([1.0, 2.0, 3.0], [1, 1, 0], [[2.0], [2.0], [2.0]])
    stats = compute_statistics(ds)
    np.testing.assert_allclose(stats.v1, 0.0)
    np.testing.assert_allclose(stats.v2, 0.0)
    np.testing.assert_allclose(stats.v3, 0.0)
    with pytest.raises(SingularDesign):
        ly_solve(stats)


def test_three_point_dataset_against_both_oracles():
    ds = SurvivalDataset([1.0, 2.0, 3.0], [1, 1, 0], [[0.0], [1.0], [2.0]])
    stats = compute_statistics(ds)
    v1, v2, v3 = brute_force_statistics(ds)
    np.testing.assert_allclose(stats.v1, v1, rtol=1e-12)
    np.testing.assert_allclose(stats.v2, v2, rtol=1e-12)
    np.testing.assert_allclose(stats.v3, v3, rtol=1e-12)
    np.testing.assert_allclose(stats.v2, trapezoid_v2(ds), atol=1e-6)


def test_random_datasets_against_brute_force():
    rng = np.random.default_rng(20260819)
    for trial in range(25):
        n = int(rng.integers(3, 51))
        k = int(rng.integers(1, 4))
        ds = random_dataset(rng, n, k)
        if rng.random() < 0.3:  # exercise tied observation times
            times = ds.times.copy()
            times[1] = times[0]
            ds = SurvivalDataset(times, ds.events, ds.covariates)
        stats = compute_statistics(ds)
        v1, v2, v3 = brute_force_statistics(ds)
        np.testing.assert_allclose(stats.v1, v1, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(stats.v2, v2, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(stats.v3, v3, rtol=1e-10, atol=1e-14)


def test_v2_against_quadrature_on_random_data():
    rng = np.random.default_rng(5)
    for _ in range(3):
        ds = random_dataset(rng, int(rng.integers(5, 30)), 2)
        np.testing.assert_allclose(
            compute_statistics(ds).v2, trapezoid_v2(ds), atol=2e-5
        )


def test_duplicating_every_row_changes_nothing():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 20, 2)
    doubled = SurvivalDataset(
        np.concatenate([ds.times, ds.times]),
        np.concatenate([ds.events, ds.events]),
        np.vstack([ds.covariates, ds.covariates]),
    )
    a, b = compute_statistics(ds), compute_statistics(doubled)
    np.testing.assert_allclose(a.v1, b.v1, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(a.v2, b.v2, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(a.v3, b.v3, rtol=1e-12, atol=1e-15)


def test_row_permutation_invariance():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, 30, 3)
    perm = rng.permutation(30)
    shuffled = SurvivalDataset(
        ds.times[perm], ds.events[perm], ds.covariates[perm]
    )
    a, b = compute_statistics(ds), compute_statistics(shuffled)
    ea, eb = ly_solve(a), ly_solve(b)
    np.testing.assert_allclose(a.v1, b.v1, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(a.v2, b.v2, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(a.v3, b.v3, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(ea.m, eb.m, rtol=1e-12)
    np.testing.assert_allclose(ea.d, eb.d, rtol=1e-12)


def test_covariate_scaling_equivariance():
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, 40, 2)
    scale = np.array([2.0, 0.25])
    scaled = SurvivalDataset(ds.times, ds.events, ds.covariates * scale)
    m = ly_solve(compute_statistics(ds)).m
    m_scaled = ly_solve(compute_statistics(scaled)).m
    np.testing.assert_allclose(m_scaled, m / scale, rtol=1e-10)


def test_estimating_equation_residual_vanishes():
    rng = np.random.default_rng(8)
    for _ in range(5):
        stats = compute_statistics(random_dataset(rng, 35, 3))
        m = ly_solve(stats).m
        resid = stats.v1 - stats.v2 @ m
        assert np.linalg.norm(resid) <= 1e-10 * max(np.linalg.norm(stats.v1), 1e-30)


def test_scalar_solve_arithmetic():
    stats = LYStatistics(
        v1=np.array([0.5]), v2=np.array([[1.0]]), v3=np.array([[2.0]]), n=100
    )
    est = ly_solve(stats)
    np.testing.assert_allclose(est.m, [0.5])
    np.testing.assert_allclose(est.d, [[0.02]])


def test_sandwich_matrix_symmetric_psd():
    rng = np.random.default_rng(9)
    est = ly_solve(compute_statistics(random_dataset(rng, 60, 3)))
    np.testing.assert_allclose(est.d, est.d.T, atol=1e-15)
    assert np.all(np.linalg.eigvalsh(est.d) >= -1e-15)


def test_v3_variants_coincide_without_censoring():
    # with every subject an event, the events-only V3 is the all-rows sum
    rng = np.random.default_rng(10)
    ds = random_dataset(rng, 25, 2, censor=0.0)
    a = compute_statistics(ds)
    _, _, v3_all = brute_force_statistics(ds, events_only_v3=False)
    np.testing.assert_allclose(a.v3, v3_all, rtol=1e-12)


def test_v3_variants_differ_under_censoring():
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, 40, 1, censor=0.5)
    a = compute_statistics(ds)
    _, _, v3_events = brute_force_statistics(ds)
    _, _, v3_all = brute_force_statistics(ds, events_only_v3=False)
    assert not np.allclose(a.v3, v3_all)
    np.testing.assert_allclose(a.v3, v3_events, rtol=1e-10)
