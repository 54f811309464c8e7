"""Estimating-equation statistics checked against independent oracles.

Two oracles are used: a direct O(n^2) double loop that evaluates the
defining sums and segment integrals one observation at a time, and a plain
trapezoid quadrature for the time integral in V2.  Both are deliberately
naive and share no code with the vectorized implementation.  The kernel is
also held bit for bit to ``oracles.statistics_by_runs``, which builds the
runs of equal times from a stable sort for every dataset.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addhaz.data_model import SurvivalDataset
from addhaz.errors import OutOfRange, SingularCovariance, SingularDesign
from addhaz.fitting import fit
from addhaz.lin_ying import LYStatistics, _decompose, compute_statistics, ly_solve

from oracles import statistics_by_runs


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
    for trial in range(31):
        n = int(rng.integers(3, 51))
        k = int(rng.integers(1, 4))
        ds = random_dataset(rng, n, k)
        times = ds.times.copy()
        if trial >= 30:  # every event at one time, censored rows around it
            times[ds.events] = times[0]
        elif trial >= 25:  # a coarse grid ties most rows
            times = np.round(times)
        elif rng.random() < 0.3:  # exercise tied observation times
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
    est = ly_solve(compute_statistics(ds))
    m_scaled = ly_solve(compute_statistics(scaled)).m
    np.testing.assert_allclose(m_scaled, est.m / scale, rtol=1e-10)
    # stretching time by tau scales V2 by tau and leaves V1, V3 alone
    tau = 3.7
    stretched = SurvivalDataset(ds.times * tau, ds.events, ds.covariates)
    stretched = ly_solve(compute_statistics(stretched))
    np.testing.assert_allclose(stretched.m, est.m / tau, rtol=1e-10)
    np.testing.assert_allclose(stretched.d, est.d / tau**2, rtol=1e-10)


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


def test_solution_invariant_under_covariate_translation():
    # V1, V2 and V3 depend on covariates only through deviations from the
    # risk-set mean, so shifting every covariate by a constant changes nothing
    rng = np.random.default_rng(11)
    n = 2000
    z = rng.uniform(0.0, 2.0, size=(n, 2))
    event_times = rng.exponential(1.0 / (0.5 + z @ np.array([0.4, 0.3])))
    censor_times = rng.exponential(2.0, size=n)
    times = np.minimum(event_times, censor_times)
    events = event_times <= censor_times
    base = ly_solve(compute_statistics(SurvivalDataset(times, events, z)))
    for shift in (1e4, 1e6):
        moved = ly_solve(compute_statistics(SurvivalDataset(times, events, z + shift)))
        np.testing.assert_allclose(moved.m, base.m, rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(moved.d, base.d, rtol=1e-8, atol=0.0)


def test_statistics_memory_is_linear_in_rows():
    # V2 comes from two (n, k) products, and each (n, k) temporary is
    # dropped once used, so the peak stays under four (n, k) arrays; one
    # (n, k, k) buffer alone would be twenty.  Times rounded to 2 decimals
    # tie, so the run bookkeeping is held to the same bound
    rng = np.random.default_rng(13)
    n, k = 20_000, 20
    distinct = random_dataset(rng, n, k)
    tied = SurvivalDataset(np.round(distinct.times, 2), distinct.events, distinct.covariates)
    assert np.unique(distinct.times).size == n > np.unique(tied.times).size
    for ds in (distinct, tied):
        tracemalloc.start()
        try:
            compute_statistics(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * k * 8


def test_solve_matches_high_precision_oracle_near_singularity():
    # V2 with condition number 1e10, inside the 1e-12 eigenvalue-ratio
    # threshold; the oracle solves the same float matrices in 50 digits
    rng = np.random.default_rng(14)
    k, n = 4, 250
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))

    def spd(eigs):
        v = (q * eigs) @ q.T
        return (v + v.T) / 2.0

    v2 = spd(np.logspace(0.0, -10.0, k))
    a = rng.standard_normal((k, k))
    stats = LYStatistics(v1=rng.standard_normal(k), v2=v2, v3=a @ a.T, n=n)
    est = ly_solve(stats)

    with mpmath.workdps(50):
        v2_inv = mpmath.inverse(mpmath.matrix(stats.v2.tolist()))
        m_ref = v2_inv * mpmath.matrix(stats.v1.tolist())
        d_ref = v2_inv * mpmath.matrix(stats.v3.tolist()) * v2_inv / n
        m_ref = np.array(m_ref.tolist(), dtype=float).ravel()
        d_ref = np.array(d_ref.tolist(), dtype=float)
    np.testing.assert_allclose(est.m, m_ref, rtol=1e-4, atol=0.0)
    np.testing.assert_allclose(est.d, d_ref, rtol=1e-4, atol=0.0)

    # an eigenvalue ratio just below 1e-12 is singular, just above is not
    for ratio, singular in ((0.9e-12, True), (1.1e-12, False)):
        v2 = spd(np.array([1.0, 0.5, 0.1, ratio]))
        near = LYStatistics(v1=stats.v1, v2=v2, v3=stats.v3, n=n)
        if singular:
            with pytest.raises(SingularDesign):
                ly_solve(near)
        else:
            assert np.all(np.isfinite(ly_solve(near).m))


def test_statistics_do_not_depend_on_the_covariates_memory_layout():
    # the dataset stores covariates in C order, so Fortran-ordered input,
    # such as columns sliced out of a parsed table, gives the same bits
    rng = np.random.default_rng(4)
    times, events = rng.exponential(size=5000), rng.random(5000) < 0.6
    covariates = rng.random((5000, 3))
    c = compute_statistics(SurvivalDataset(times, events, covariates))
    f = compute_statistics(SurvivalDataset(times, events, np.asfortranarray(covariates)))
    for name in ("v1", "v2", "v3"):
        assert np.array_equal(getattr(c, name), getattr(f, name)), name


def stacked(stats):
    """The statistics of several designs of one size on a leading axis."""
    return LYStatistics(
        *(np.stack([getattr(s, name) for s in stats]) for name in ("v1", "v2", "v3")),
        n=stats[0].n,
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_stack_of_designs_solves_each_to_its_own_bits(k):
    rng = np.random.default_rng(20 + k)
    stats = [compute_statistics(random_dataset(rng, 40, k)) for _ in range(5)]
    together = ly_solve(stacked(stats))
    assert together.m.shape == (5, k) and together.d.shape == (5, k, k)
    for i, one in enumerate(stats):
        alone = ly_solve(one)
        assert together.m[i].tobytes() == alone.m.tobytes()
        assert together.d[i].tobytes() == alone.d.tobytes()


def test_one_singular_design_in_a_stack_is_named_by_the_shared_test():
    rng = np.random.default_rng(8)
    stats = [compute_statistics(random_dataset(rng, 40, 2)) for _ in range(3)]
    # two equal covariate columns make V2 exactly rank one
    z = rng.random(40)
    ds = SurvivalDataset(rng.exponential(size=40), rng.random(40) < 0.7, np.stack([z, z], axis=1))
    stats.insert(1, compute_statistics(ds))
    with pytest.raises(SingularDesign):
        ly_solve(stats[1])
    assert _decompose(stacked(stats).v2)[2].tolist() == [False, True, False, False]
    with pytest.raises(SingularDesign, match="^integrated design matrix V2 is singular or near-singular$"):
        ly_solve(stacked(stats))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_sandwich_raises_without_a_warning():
    # V2 at 1e-200 inverts to 1e200, and d = V2^-1 V3 V2^-1 / n overflows
    stats = LYStatistics(np.array([1.0]), np.array([[1e-200]]), np.array([[1.0]]), n=50)
    with pytest.raises(SingularCovariance, match="^sandwich covariance has non-finite entries$"):
        ly_solve(stats)
    with pytest.raises(SingularCovariance):
        ly_solve(stacked([compute_statistics(random_dataset(np.random.default_rng(1), 30, 1)), stats]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_statistics_raise_out_of_range_without_a_warning():
    # finite covariates near 1e200 square past the largest float in V2 and V3
    ds = random_dataset(np.random.default_rng(2), 30, 2)
    huge = SurvivalDataset(ds.times, ds.events, ds.covariates * 1e200)
    with pytest.raises(OutOfRange, match="^V1, V2 or V3 overflows$"):
        compute_statistics(huge)
    with pytest.raises(OutOfRange):
        fit(huge)


def draw_times(rng, n, kind):
    """n follow-up times, distinct or tied in the named way."""
    if kind == "distinct":
        return rng.exponential(size=n)
    if kind == "rounded":
        return np.round(rng.exponential(size=n), int(rng.integers(0, 3)))
    if kind == "equal":
        return np.full(n, rng.choice([0.0, 1.5]))
    if kind == "one tie":
        # distinct but for one equal pair at the smallest, a middle or the
        # largest sorted position, where the tie decision flips
        t = np.sort(rng.exponential(size=n))
        if n > 1:
            j = rng.choice([0, (n - 1) // 2, n - 2])
            t[j + 1] = t[j]
        return rng.permutation(t)
    # 0.0 and -0.0 compare equal, so they are one run whose order the sort fixes
    return rng.choice([0.0, -0.0, 0.5, 2.0], size=n, p=[0.4, 0.4, 0.1, 0.1])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    n=st.integers(1, 300),
    k=st.integers(1, 3),
    kind=st.sampled_from(["distinct", "one tie", "rounded", "equal", "signed zero"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, k=1, kind="one tie", seed=0)
@example(n=2, k=2, kind="distinct", seed=1)
@example(n=2, k=2, kind="one tie", seed=1)
@example(n=3, k=1, kind="one tie", seed=2)
def test_statistics_keep_the_bits_of_the_runs_kernel(n, k, kind, seed):
    # the default sort serves distinct times and the stable one tied times;
    # both hold the reference's bits
    rng = np.random.default_rng(seed)
    events = rng.random(n) < 0.7
    events[rng.integers(n)] = True
    ds = SurvivalDataset(draw_times(rng, n, kind), events, rng.exponential(size=(n, k)))
    got, want = compute_statistics(ds), statistics_by_runs(ds)
    assert got.n == want.n == n
    for name in ("v1", "v2", "v3"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
