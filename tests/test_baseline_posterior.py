"""Increment posteriors checked against an adaptive quadrature oracle.

The oracle integrates the unnormalized posterior density of the increment
L over one interval, written in factored form

    g(L) = L^(c*alpha - 1) * exp(-c_j L) * prod_i (L/width + b_i),

which shares nothing with the log-weight implementation.  The integration
range [0, U] doubles until the tail beyond U/2 is negligible.
"""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from addhaz.baseline_posterior import (
    EXACT_MAX_FACTORS,
    _row_intervals,
    event_offsets_by_interval,
    increment_posterior,
    increment_posteriors,
    interval_summaries,
)
from addhaz.data_model import GammaProcessPrior, SurvivalDataset, TimeGrid
from addhaz.errors import (
    AddhazError, DegenerateGrid, DimensionMismatch, ImproperPosterior, NonNegativityViolation,
    OutOfRange,
)
from addhaz.poly_coeffs import poly_from_factors

from oracles import (
    by_quadrature,
    csr,
    interval_exposures,
    interval_offsets,
    interval_widths,
    members,
    mixture_moments,
    mixture_posterior,
    offsets_by_mask,
    one_interval,
    posteriors,
    stack,
    stage_by_intervals,
)


def quadrature_moments(offsets, alpha, c, exposure, width):
    """Posterior mean and variance of the increment by direct integration."""
    c_rate = exposure / width + c
    shape0 = c * alpha

    def g(L):
        prod = 1.0
        for b in offsets:
            prod *= L / width + b
        return L ** (shape0 - 1.0) * math.exp(-c_rate * L) * prod

    # mean scale of the dominant Gamma component guides the range; the
    # integrand's absolute scale can sit far below quad's default epsabs,
    # so force a purely relative error criterion
    guess = (len(offsets) + shape0 + 1.0) / c_rate
    upper = 50.0 * guess
    moments = None
    for _ in range(60):
        pieces = [
            integrate.quad(
                lambda L, p=p: g(L) * L**p,
                0.0,
                upper,
                limit=800,
                points=[guess / 2, guess, 2 * guess],
                epsabs=0.0,
                epsrel=1e-10,
                full_output=1,
            )[0]
            for p in (0, 1, 2)
        ]
        tail = integrate.quad(
            g, upper / 2, upper, limit=200,
            epsabs=1e-16 * pieces[0], epsrel=1e-8, full_output=1,
        )[0]
        if tail < 1e-12 * pieces[0]:
            moments = pieces
            break
        upper *= 2.0
    total, first, second = moments
    mean = first / total
    return mean, second / total - mean**2


def exact_coefficients(offsets):
    coeffs = [Fraction(1)]
    for b in offsets:
        fb = Fraction(b)
        coeffs = [
            s + t
            for s, t in zip(
                [Fraction(0)] + coeffs, [c * fb for c in coeffs] + [Fraction(0)]
            )
        ]
    return coeffs


def offsets_by_interval(ds, grid):
    """Event offsets per interval at beta = 1, as lists."""
    return [list(o) for o in interval_offsets(ds, grid, np.ones(ds.k))]


def test_interval_summaries_single_observation():
    ds = SurvivalDataset([1.5], [True], [[1.0]])
    grid = TimeGrid((1.0, 2.0), 3.0)
    exposure = interval_exposures(ds, grid)
    assert exposure.shape == (3,) and exposure.dtype == np.float64
    # at risk through interval 1, for half of interval 2, an event there
    assert exposure.tolist() == [1.0, 0.5, 0.0]
    assert offsets_by_interval(ds, grid) == [[], [1.0], []]


def test_interval_summaries_all_beyond():
    ds = SurvivalDataset([2.5, 2.7, 3.0], [1, 1, 1], [[1.0]] * 3)
    grid = TimeGrid((1.0, 2.0), 3.0)
    # all three outlast interval 1 (full width each) and none ends in it
    assert interval_exposures(ds, grid)[0] == pytest.approx(3 * 1.0)
    assert offsets_by_interval(ds, grid) == [[], [], [1.0, 1.0, 1.0]]


def test_interval_summaries_counts_and_monotone_m():
    rng = np.random.default_rng(21)
    times = rng.uniform(0.0, 4.0, size=60)
    ds = SurvivalDataset(times, np.ones(60, dtype=bool), np.ones((60, 1)))
    grid = TimeGrid((0.5, 1.5, 3.0), 4.0)
    exposure = interval_exposures(ds, grid)
    assert sum(map(len, offsets_by_interval(ds, grid))) == 60
    # exposure / width, the mean number at risk over an interval, is at
    # least the number at risk at its end and so never grows with j
    at_risk = exposure / interval_widths(grid)
    assert all(a >= b for a, b in zip(at_risk, at_risk[1:]))
    assert np.all(exposure >= 0)
    # exposure identity: each subject is at risk min(t, s_j) - s_{j-1} when positive
    for got, lo, hi in zip(exposure, (0.0,) + grid.boundaries, grid.boundaries):
        expected = np.clip(np.minimum(times, hi) - lo, 0.0, None).sum()
        assert got == pytest.approx(expected)


def test_boundary_time_belongs_to_left_interval():
    ds = SurvivalDataset([1.0, 2.0], [True, True], [[1.0], [2.0]])
    grid = TimeGrid((1.0, 2.0), 3.0)
    assert offsets_by_interval(ds, grid) == [[1.0], [2.0], []]
    assert interval_exposures(ds, grid).tolist() == [2.0, 1.0, 0.0]


def test_zero_time_counts_in_first_interval():
    ds = SurvivalDataset([0.0, 0.5], [True, True], [[1.0], [2.0]])
    grid = TimeGrid((1.0,), 2.0)
    assert offsets_by_interval(ds, grid) == [[1.0, 2.0], []]
    assert interval_exposures(ds, grid).tolist() == [0.5, 0.0]


def test_truncated_grid_keeps_late_observations_at_risk():
    # estimation truncated at t_F = 3: the t = 5 subject adds full-width
    # exposure everywhere but belongs to no interval and yields no factor
    ds = SurvivalDataset([0.5, 5.0], [True, True], [[1.0], [2.0]])
    grid = TimeGrid((1.0, 2.0), 3.0)
    exposure = interval_exposures(ds, grid)
    assert exposure[0] == pytest.approx(0.5 + 1.0)
    assert exposure[1] == pytest.approx(1.0)
    assert exposure[2] == pytest.approx(1.0)
    offsets = interval_offsets(ds, grid, np.array([0.7]))
    assert [len(o) for o in offsets] == [1, 0, 0]
    assert offsets[0][0] == pytest.approx(0.7)


def test_event_offsets_split_by_interval():
    ds = SurvivalDataset(
        [0.5, 1.5, 1.7, 2.5],
        [True, False, True, True],
        [[1.0], [9.0], [2.0], [3.0]],
    )
    grid = TimeGrid((1.0, 2.0), 3.0)
    offsets = interval_offsets(ds, grid, np.array([2.0]))
    assert [list(o) for o in offsets] == [[2.0], [4.0], [6.0]]
    for beta in ([], [2.0, 1.0]):
        with pytest.raises(DimensionMismatch, match="beta dimension"):
            interval_offsets(ds, grid, beta)


def test_no_events_posterior_is_prior_gamma():
    prior = GammaProcessPrior((2.0,), c=0.7)
    post = one_interval(1, 3.0, 1.5, [], prior)
    c_rate = 3.0 / 1.5 + 0.7
    assert post.mean == pytest.approx(0.7 * 2.0 / c_rate)
    assert post.variance == pytest.approx(0.7 * 2.0 / c_rate**2)
    assert len(post.log_weights) == 1


def test_moments_match_quadrature_on_random_intervals():
    rng = np.random.default_rng(20260819)
    for _ in range(100):
        n_events = int(rng.integers(0, 21))
        offsets = rng.uniform(0.0, 4.0, size=n_events)
        if n_events and rng.random() < 0.25:
            offsets[rng.integers(0, n_events)] = 0.0
        alpha = float(rng.uniform(0.05, 5.0))
        c = float(rng.uniform(0.05, 20.0))
        exposure = float(rng.uniform(0.5, 40.0))
        width = float(rng.uniform(0.2, 3.0))
        post = one_interval(1, exposure, width, offsets, GammaProcessPrior((alpha,), c=c))
        mean_q, var_q = quadrature_moments(offsets, alpha, c, exposure, width)
        assert post.mean == pytest.approx(mean_q, rel=1e-6)
        assert post.variance == pytest.approx(var_q, rel=1e-6)
        assert post.variance >= 0.0


def test_weights_match_component_integrals():
    # normalized weights equal each component's share of the density mass
    rng = np.random.default_rng(77)
    offsets = rng.uniform(0.3, 3.0, size=4)
    alpha, c, exposure, width = 1.2, 0.8, 6.0, 1.4
    c_rate = exposure / width + c
    post = one_interval(1, exposure, width, offsets, GammaProcessPrior((alpha,), c=c))
    d_exact = [float(v) for v in exact_coefficients(offsets)]
    masses = []
    for k, d_k in enumerate(d_exact):
        def component(L, k=k, d_k=d_k):
            return (
                d_k
                * (L / width) ** k
                * L ** (c * alpha - 1.0)
                * math.exp(-c_rate * L)
            )
        masses.append(integrate.quad(component, 0.0, 60.0, limit=300)[0])
    weights = np.exp(np.asarray(post.log_weights))
    np.testing.assert_allclose(weights, np.array(masses) / sum(masses), atol=1e-8)


def test_large_confidence_pins_mean_to_prior_shape():
    rng = np.random.default_rng(31)
    offsets = rng.uniform(0.0, 3.0, size=12)
    for alpha in (0.01, 0.3, 1.0, 5.0):
        post = one_interval(1, 25.0, 0.8, offsets, GammaProcessPrior((alpha,), c=1e6))
        assert abs(post.mean - alpha) < 1e-3
        assert post.variance < 1e-3


def test_vanishing_confidence_forgets_prior_shape():
    # twenty early events make the data part of the mixture dominate the
    # Gamma(c*alpha) prior component, so alpha drops out as c -> 0
    times = np.full(20, 0.05)
    ds = SurvivalDataset(times, np.ones(20, dtype=bool), np.ones((20, 1)))
    grid = TimeGrid((0.9,), 1.0)
    interval = (1, interval_exposures(ds, grid)[0], 0.9)
    offsets = interval_offsets(ds, grid, np.array([1.0]))[0]
    mean_small = one_interval(*interval, offsets, GammaProcessPrior((0.5,), c=1e-8)).mean
    mean_large = one_interval(*interval, offsets, GammaProcessPrior((5.0,), c=1e-8)).mean
    assert mean_small == pytest.approx(mean_large, rel=1e-6)


def test_informative_confidence_separates_prior_shapes():
    interval = (1, 4.0, 1.0)
    offsets = [1.0, 2.0]
    # an identical prior reproduces the mean exactly
    same = [
        one_interval(*interval, offsets, GammaProcessPrior((1.0,), c=1e-8)).mean
        for _ in range(2)
    ]
    assert same[0] == same[1]
    # informative c separates different shapes
    a = one_interval(*interval, offsets, GammaProcessPrior((0.5,), c=10.0)).mean
    b = one_interval(*interval, offsets, GammaProcessPrior((5.0,), c=10.0)).mean
    assert abs(a - b) > 1e-3


def test_improper_posterior_cases():
    interval = (1, 2.0, 1.0)
    prior = GammaProcessPrior([0.0], c=1.0)
    with pytest.raises(ImproperPosterior):
        one_interval(*interval, [], prior)  # no events, alpha=0
    with pytest.raises(ImproperPosterior):
        # positive constant coefficient: prod b_i > 0 leaves an L^-1 factor
        one_interval(*interval, [1.0, 2.0], prior)
    # an event with b = 0 zeroes the constant term and restores properness
    post = one_interval(*interval, [0.0, 2.0], prior)
    assert post.mean > 0.0
    mean_q, var_q = quadrature_moments([0.0, 2.0], 0.0, 1.0, 2.0, 1.0)
    assert post.mean == pytest.approx(mean_q, rel=1e-6)
    assert post.variance == pytest.approx(var_q, rel=1e-6)
    # an interval the prior has no increment for
    proper = GammaProcessPrior([1.0], c=1.0)
    with pytest.raises(DimensionMismatch, match="outside the prior"):
        one_interval(0, 2.0, 1.0, [1.0], proper)
    # an index that is no integer, on either path
    for j in (1.0, "1"):
        with pytest.raises(DimensionMismatch, match="interval index"):
            one_interval(j, 2.0, 1.0, [1.0], proper)
        with pytest.raises(DimensionMismatch, match="interval index"):
            by_quadrature(j, 2.0, 1.0, [1.0], proper)


def test_batch_raises_the_first_failure_interval_by_interval():
    # interval 1's moments overflow under c = 5e-324 at exposure 0 before
    # interval 2's zero width is read under the first c; the one-interval
    # call meets the same error first
    tiny, proper = GammaProcessPrior([1.0, 1.0], 5e-324), GammaProcessPrior([1.0, 1.0], 1.0)
    with pytest.raises(OutOfRange, match="interval 1: .*moments overflow"):
        increment_posterior([1, 2], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0, 1, 2],
                            GammaProcessPrior([1.0, 1.0], [1.0, 5e-324]))
    with pytest.raises(OutOfRange, match="interval 1: .*moments overflow"):
        one_interval(1, 0.0, 1.0, [1.0], tiny)
    for args in (
        ([1, 2], [1.0], [1.0], [1.0], [0, 1], proper),  # unequal lengths
        ([], [], [], [], [0], proper),  # no interval
        ([1], [1.0], [1.0], [1.0], [0, 1], [proper]),  # a list of priors, not one stack
        ([1], [1.0], [1.0], [1.0], [0, 1], None),  # no prior
        (1, 0.5, 1.0, [1.0], [0, 1], proper),  # one interval's numbers, not sequences of them
    ):
        with pytest.raises(DimensionMismatch, match="need sequences"):
            increment_posterior(*args)


def test_chunk_raises_the_first_failure_row_by_row():
    # one event of offset 1 a row: a positive constant coefficient
    one = [1.0] * 3, [0, 1, 2, 3]
    # (row 1, c 2) and (row 2, c 1) both fail; row 1 comes first: the tiny c
    # takes row 1's shape c alpha_1 to 0, and the huge c row 2's rate c_2 to inf
    args = [1, 2], [1.0, 1e308], [1.0, 1.0], [1.0, 1.0], [0, 1, 2]
    with pytest.raises(OutOfRange, match="interval 1: .*underflows to 0"):
        increment_posterior(*args, GammaProcessPrior([1e-10, 1.0], [1e308, 5e-324]))
    with pytest.raises(OutOfRange, match="interval 2: .*rate c_j overflows"):
        increment_posterior(*args, GammaProcessPrior([1e-10, 1.0], 1e308))
    # a prior failure on row 1 beats row 3's zero width, read before any c
    with pytest.raises(ImproperPosterior, match="interval 1: "):
        increment_posterior([1, 2, 3], [1.0] * 3, [1.0, 1.0, 0.0], *one,
                            GammaProcessPrior([0.0, 1.0, 1.0], 1.0))
    with pytest.raises(OutOfRange, match="interval 3: needs a finite exposure"):
        increment_posterior([1, 2, 3], [1.0] * 3, [1.0, 1.0, 0.0], *one,
                            GammaProcessPrior([1.0, 1.0, 1.0], 1.0))
    # three datasets on the grid (1, 2]: the first has only zero offsets in
    # interval 2, so alpha_2 = 0 is proper there; the second has no event
    # in it, which is improper; the third's beta'z is NaN, which the
    # polynomial of its first interval rejects
    bounds = (1.0, 2.0)
    first = SurvivalDataset([0.5, 1.5], [True, True], [[1.0, 0.0], [0.0, 1.0]])
    second = SurvivalDataset([0.5, 1.5], [True, False], [[1.0, 0.0], [0.0, 1.0]])
    prior = GammaProcessPrior([1.0, 0.0], 1.0)
    betas = [[1.0, 0.0], [1.0, 0.0], [math.nan, 0.0]]
    with pytest.raises(ImproperPosterior, match="interval 2: zero prior increment and no events"):
        increment_posteriors(stack(first, second, first), bounds, betas, prior)
    pair = stack(first, first)
    with pytest.raises(OutOfRange, match="factor offsets must be finite"):
        increment_posteriors(pair, bounds, betas[1:], prior)
    stage = increment_posteriors(pair, bounds, betas[:2], prior)
    assert len(posteriors(stage)[0]) == 4
    # a negative beta'z in a later dataset loses to an earlier dataset's failure
    signed = SurvivalDataset(
        [0.5, 1.5], [True, True], [[1.0, 0.0], [-1.0, 0.0]], allow_signed=True
    )
    with pytest.raises(ImproperPosterior, match="interval 2: zero prior increment and no events"):
        increment_posteriors(stack(second, signed, allow_signed=True), bounds, betas[:2], prior)
    with pytest.raises(NonNegativityViolation, match="factor offsets must be >= 0"):
        increment_posteriors(stack(first, signed, allow_signed=True), bounds, betas[:2], prior)
    # a malformed chunk: rows of bounds or of betas other than one a member,
    # fewer bounds than the prior's increments, and a stack or prior that is none
    two = [[1.0, 0.0]] * 2
    for ds, rows, coefficients, stage_prior in (
        (pair, [bounds] * 3, two, prior),
        (pair, [[1.0]] * 2, two, prior),
        (pair, [1.0], two, prior),
        (pair, [[bounds]], two, prior),
        (pair, None, two, prior),
        (pair, bounds, [[1.0, 0.0]] * 3, prior),
        (pair, bounds, [[1.0]] * 2, prior),
        (pair, bounds, [1.0, 0.0], prior),
        (first, bounds, [1.0, 0.0], prior),  # one dataset's betas are (1, k)
        ([first, first], bounds, two, prior),  # a list, not a stack
        (None, bounds, two, prior),
        (pair, bounds, two, [prior]),
    ):
        with pytest.raises(DimensionMismatch):
            increment_posteriors(ds, rows, coefficients, stage_prior)


def test_kernel_reads_the_partitions_csr_offsets():
    # row i's offsets are factors[indptr[i]:indptr[i + 1]]: any 1-d reals, and
    # integer row offsets that rise from 0 to their count
    prior = GammaProcessPrior([1.0, 1.0], 1.0)
    args = [1, 2], [1.0, 1.0], [1.0, 1.0]
    want = posteriors(increment_posterior(*args, [1.0, 2.0, 0.5], [0, 1, 3], prior))
    got = increment_posterior(*args, (1, 2, 0.5), np.array([0, 1, 3], dtype=np.uint8), prior)
    assert posteriors(got) == want
    for indptr in ([1, 1, 3], [0, 1, 2], [0, 4, 3], [0.0, 1.0, 3.0], [False, True, True]):
        with pytest.raises(DimensionMismatch, match="row offsets"):
            increment_posterior(*args, [1.0, 2.0, 0.5], indptr, prior)
    with pytest.raises(DimensionMismatch, match="factor offsets"):
        increment_posterior(*args, [[1.0, 2.0, 0.5]], [0, 1, 3], prior)
    # each row's own numbers, row by row: its offsets (a non-finite one
    # before a negative one), then its j, then its exposure and width
    nan, inf = math.nan, math.inf
    for js, factors, error, message in (
        ([3, 1], [1.0, nan], DimensionMismatch, "interval 3 outside"),
        ([1, 3], [1.0, nan], OutOfRange, "factor offsets must be finite"),
        ([3, 1], [-1.0, 1.0], NonNegativityViolation, "factor offsets must be >= 0"),
        ([1, 1], [-1.0, inf], NonNegativityViolation, "factor offsets must be >= 0"),
        ([1, 3], [1.0, -1.0, inf], OutOfRange, "factor offsets must be finite"),
    ):
        indptr = [0, 1, len(factors)]
        with pytest.raises(error, match=message):
            increment_posterior(js, [1.0, 1.0], [1.0, 1.0], factors, indptr, prior)
    with pytest.raises(OutOfRange, match="interval 1: needs a finite exposure"):
        increment_posterior([1, 3], [nan, 1.0], [1.0, 1.0], [1.0, 1.0], [0, 1, 2], prior)


def test_partition_rejects_bounds_a_grid_would_not_take():
    # bounds once gave an exposure of -2 when falling, a NaN, or a numpy
    # warning at an infinite end; they raise as a TimeGrid's would, shared by
    # a stack or as the second member's own row
    ds = SurvivalDataset([0.5, 1.5, 2.5], [True] * 3, [[1.0], [2.0], [3.0]])
    for bounds in ([2.0, 1.0], [1.0, math.nan], [1.0, math.inf], [0.0, 1.0], [-1.0, 1.0],
                   [1.0, 1.0], [math.nan]):
        prior = GammaProcessPrior(np.ones(len(bounds)), 1.0)
        for chunk, rows in ((ds, bounds), (stack(ds, ds), [[1.0, 2.0][: len(bounds)], bounds])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateGrid, match="interval bounds"):
                    increment_posteriors(chunk, rows, [[1.0]] * len(rows), prior)
    # only the prior's m bounds are read
    increment_posteriors(ds, [1.0, math.nan], [[1.0]], GammaProcessPrior([1.0], 1.0))
    assert interval_exposures(ds, TimeGrid((1.0,), 2.0)).tolist() == [2.5, 1.5]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 5),
    n=st.integers(1, 80),
    m=st.integers(1, 4),
)
def test_stacked_partition_is_each_member_alone_bit_for_bit(seed, r, n, m):
    # k = 4 and zero covariates drawn often; tied times, times of 0, on a
    # boundary and beyond s_m; on one shared grid, (m,), and on a grid a member, (r, m)
    rng = np.random.default_rng(seed)

    def draw_bounds():
        cuts = np.sort(rng.choice(np.arange(0.25, 2.0, 0.25), m - 1, replace=False))
        return np.append(cuts, rng.choice([2.0, 2.25]))

    shared, own = draw_bounds(), np.array([draw_bounds() for _ in range(r)])
    times = np.round(rng.uniform(0.0, 2.6, (r, n)), 1)
    pick = rng.random((r, n)) < 0.3
    for i in range(r):
        times[i, pick[i]] = rng.choice(np.r_[0.0, shared, own[i]], int(pick[i].sum()))
    events = rng.random((r, n)) < 0.7
    events[:, 0] = True
    z = rng.exponential(size=(r, n, 4))
    z[rng.random((r, n, 4)) < 0.3] = 0.0
    betas = rng.uniform(0.0, 2.0, (r, 4))
    ds = SurvivalDataset(times, events, z)
    for bounds in (shared, own):
        edges, keys = _row_intervals(ds, bounds, m)
        exposures = interval_summaries(ds, edges, keys)
        factors, indptr = event_offsets_by_interval(ds, edges, keys, betas)
        offsets = np.split(factors, indptr[1:-1])
        for i in range(r):
            alone = SurvivalDataset(times[i], events[i], z[i])
            ends = bounds if bounds.ndim == 1 else bounds[i]
            grid = TimeGrid(tuple(ends[:-1].tolist()), float(ends[-1]))
            assert exposures[i].tobytes() == interval_exposures(alone, grid).tobytes()
            lows = np.r_[0.0, ends[:-1]]
            want = [np.clip(np.minimum(times[i], hi) - lo, 0.0, None).sum()
                    for lo, hi in zip(lows, ends)]
            np.testing.assert_allclose(exposures[i], want, rtol=1e-12, atol=1e-12 * n)
            got = offsets[i * m : (i + 1) * m]
            assert [a.tobytes() for a in got] == [
                b.tobytes() for b in interval_offsets(alone, grid, betas[i])
            ]
            assert [a.tobytes() for a in got] == [
                b.tobytes() for b in offsets_by_mask(alone, grid, betas[i])
            ]


@pytest.mark.parametrize("longest", [7, 8, 9, 127, 128, 129, EXACT_MAX_FACTORS])
def test_each_row_of_a_batch_is_its_own_call_at_every_span(longest):
    # rows of every span beside each other: at L = 8 live coefficients the
    # k = 0 term of a strided (rows, L) table was once read as if contiguous,
    # 128 is a block of numpy's pairwise sum, and the last two rows share
    # one j, so one s0 and one log-rising table as long as the longer
    rng = np.random.default_rng(longest)
    rows = [rng.uniform(0.1, 2.0, n) for n in (1, longest, 3, 0, 3, longest)]
    prior = GammaProcessPrior([1.0, 3.0, 0.5, 2.0, 1.5], [0.5, 4.0])
    args = [1, 2, 3, 4, 5, 5], [2.0, 1.5, 0.7, 0.3, 0.9, 1.1], [0.5, 0.5, 0.25, 0.25, 0.4, 0.4]
    batch = increment_posterior(*args, *csr(rows), prior)
    columns = [one_interval(*interval, prior) for interval in zip(*args, rows)]
    assert posteriors(batch) == list(zip(*columns))


@pytest.mark.parametrize(
    "sizes, p", [([1000] * 5, 1), ([1000] * 5, 6), ([1000] + [1] * 300, 3)],
    ids=["5x1000-p1", "5x1000-p6", "1000-and-300x1-p3"],
)
def test_kernel_temporaries_stay_a_small_multiple_of_its_mixtures(sizes, p):
    # the mixtures are built in the flat layout they are returned in; a
    # (distinct s0) x (longest row) table of log-rising terms would take
    # over 100 times the output on the last batch, whose rows each have
    # their own alpha_j
    rng = np.random.default_rng(p)
    rows = [rng.uniform(0.1, 2.0, n) for n in sizes]
    m = len(rows)
    prior = GammaProcessPrior(rng.uniform(0.5, 2.0, m), np.geomspace(0.1, 10.0, p))
    args = np.arange(1, m + 1), 2.0 * np.array(sizes, dtype=float), np.full(m, 0.5), *csr(rows)
    tracemalloc.start()
    try:
        post = increment_posterior(*args, prior)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (post.log_weights.nbytes + post.shape_offsets.nbytes)


def _outcome(kernel, *args):
    """(repr of the kernel's posterior without its mean and variance, which
    shows every other float's bits, and those two moments), or the type and
    message of the error it raised and None."""
    try:
        post = kernel(*args)
    except AddhazError as exc:
        return (type(exc), str(exc)), None
    return repr(post._replace(mean=0.0, variance=0.0)), (post.mean, post.variance)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(0, 12), st.integers(0, 150)),
    zero_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    exposure=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
    width=st.floats(1e-6, 1e3),
    c=st.floats(1e-3, 1e3),
    alpha=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
)
def test_mixture_keeps_the_reference_kernels_bits(
    seed, n, zero_share, exposure, width, c, alpha
):
    # offsets log-uniform over [1e-300, 1e300]; a zero alpha with no zero
    # offset is one of the improper cases, which must raise the same error
    rng = np.random.default_rng(seed)
    offsets = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), size=n))
    offsets[rng.random(n) < zero_share] = 0.0
    args = (1, exposure, width, offsets, GammaProcessPrior([alpha], c))
    # the kernel takes its moments in k from unnormalized weights and divides
    # by the rate twice, so they differ from the reference kernel's, which
    # are up to 1e-12 off the mpmath mixture; they are held to that instead
    got, moments = _outcome(one_interval, *args)
    assert got == _outcome(mixture_posterior, *args)[0]
    if moments is not None:
        log_d, shape0 = poly_from_factors(offsets).log_abs, c * alpha
        reference = mixture_moments(log_d, shape0, width, exposure / width + c)
        np.testing.assert_allclose(moments, reference, rtol=1e-13, atol=0.0)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 60),
    zero_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    exposure=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
    width=st.floats(1e-6, 1e3),
    weights=st.lists(
        st.tuples(st.floats(1e-3, 1e3), st.one_of(st.just(0.0), st.floats(1e-6, 1e3))),
        min_size=2, max_size=4,
    ),
    order=st.permutations(range(4)),
)
def test_one_polynomial_serves_every_prior_in_any_order(
    seed, n, zero_share, exposure, width, weights, order
):
    # one array of offsets serves every prior: each prior, in whatever order
    # it comes, must get the posterior (or error) of offsets used for it
    # alone, and the reference kernel's bits; a zero alpha with no zero
    # offset is improper
    rng = np.random.default_rng(seed)
    offsets = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), size=n))
    offsets[rng.random(n) < zero_share] = 0.0
    shared = offsets
    for i in [i for i in order if i < len(weights)] * 2:
        c, alpha = weights[i]
        prior = GammaProcessPrior([alpha], c)
        fresh = offsets.copy()
        got = _outcome(one_interval, 1, exposure, width, shared, prior)
        assert got == _outcome(one_interval, 1, exposure, width, fresh, prior)
        assert got[0] == _outcome(mixture_posterior, 1, exposure, width, fresh, prior)[0]


def test_full_pipeline_matches_quadrature():
    rng = np.random.default_rng(5150)
    n = 14
    times = rng.uniform(0.05, 2.8, size=n)
    events = rng.random(n) < 0.8
    events[0] = True
    z = rng.uniform(0.0, 2.0, size=(n, 2))
    ds = SurvivalDataset(times, events, z)
    grid = TimeGrid((0.8, 1.8), 3.0)
    beta = np.array([0.4, 0.9])
    prior = GammaProcessPrior([1.5, 0.7, 0.2], c=2.0)
    exposures = interval_exposures(ds, grid)
    widths = interval_widths(grid)
    offset_lists = interval_offsets(ds, grid, beta)
    (stage,) = posteriors(increment_posteriors(ds, grid.boundaries, [beta], prior))
    for j in range(3):
        post = one_interval(j + 1, exposures[j], widths[j], offset_lists[j], prior)
        assert stage[j] == post
        mean_q, var_q = quadrature_moments(
            list(offset_lists[j]), prior.increments[j], float(prior.c), exposures[j], widths[j]
        )
        assert post.mean == pytest.approx(mean_q, rel=1e-6)
        assert post.variance == pytest.approx(var_q, rel=1e-6)


def test_stage_covers_the_priors_increments():
    ds = SurvivalDataset([0.5, 1.2, 2.0], [True, True, False], [[0.5], [0.2], [0.3]])
    grid = TimeGrid((1.0,), 3.0)
    beta = np.array([0.4])
    # the first m intervals of a longer grid, m from the prior
    longer = TimeGrid((1.0, 2.5), 3.0)
    (posts,) = posteriors(
        increment_posteriors(ds, longer.boundaries, [beta], GammaProcessPrior([1.0], 1.0))
    )
    assert [p.interval for p in posts] == [1]
    for prior in (
        GammaProcessPrior([1.0, 1.0, 1.0], 1.0),  # longer than the grid
        [GammaProcessPrior([1.0], 1.0)],  # a list of priors, not one stack
        [],
    ):
        with pytest.raises(DimensionMismatch):
            increment_posteriors(ds, grid.boundaries, [beta], prior)
    # a stack shares one alpha: increments a member, of unequal m once, are no prior
    with pytest.raises(DimensionMismatch, match="prior increments"):
        GammaProcessPrior([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])


def test_adding_zero_offset_event_tracks_quadrature():
    base = [1.0, 0.7]
    added = base + [0.0]
    prior = GammaProcessPrior((0.8,), c=1.5)
    before = one_interval(1, 5.0, 1.0, base, prior).mean
    after = one_interval(1, 5.0, 1.0, added, prior).mean
    assert before != after
    mean_q, _ = quadrature_moments(added, 0.8, 1.5, 5.0, 1.0)
    assert after == pytest.approx(mean_q, rel=1e-6)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    times=st.lists(
        st.sampled_from([0.0, 1.0, 2.5, 4.0]) | st.floats(0.0, 6.0), min_size=1, max_size=40
    ),
    events=st.lists(st.booleans(), min_size=40, max_size=40),
    cuts=st.lists(st.sampled_from([1.0, 2.5]) | st.floats(0.01, 4.0), max_size=5, unique=True),
    tail=st.just(1.5) | st.floats(0.01, 3.0),
)
def test_exposure_and_offsets_follow_the_interval_conventions(times, events, cuts, tail):
    # rows are told apart by their offset, row number + 1 at beta = 1; times
    # on a boundary, at 0 and beyond t_F are drawn often
    cuts = sorted(cuts)
    grid = TimeGrid(tuple(cuts), (cuts[-1] if cuts else 0.0) + tail)
    events = events[: len(times)]
    events[0] = True
    t = np.array(times)
    ds = SurvivalDataset(t, events, np.arange(1.0, t.size + 1)[:, None])
    lows, highs = (0.0,) + grid.boundaries[:-1], grid.boundaries
    want = [np.clip(np.minimum(t, hi) - lo, 0.0, None).sum() for lo, hi in zip(lows, highs)]
    got = interval_exposures(ds, grid)
    assert got.shape == (grid.m,) and got.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * t.size * grid.t_final)
    # the interval (s_{j-1}, s_j] holds an event, the first also one at 0
    offsets = interval_offsets(ds, grid, np.ones(1))
    for j, (lo, hi) in enumerate(zip(lows, highs)):
        rows = [i + 1 for i in range(t.size) if events[i] and (t[i] > lo or j == 0) and t[i] <= hi]
        assert offsets[j].tolist() == rows  # in row order: it fixes the factor order
    placed = sum(o.size for o in offsets)
    assert placed == sum(e and ti <= grid.t_final for e, ti in zip(events, times))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 400),
    m=st.sampled_from([1, 4, 255, 256, 300, 1000]),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_event_partition_keeps_row_order_within_each_interval(n, m, tied, seed):
    # the sorted partition gives each interval's events in row order, as one
    # mask per interval does; an unstable sort of the interval indices would not
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, 1.2, size=n)
    if tied:
        times = np.round(times, 1)
    events = rng.random(n) < 0.7
    events[0] = True
    ds = SurvivalDataset(times, events, rng.exponential(size=(n, 2)))
    grid = TimeGrid(tuple(np.linspace(0.0, 1.0, m + 1)[1:-1].tolist()), 1.0)
    beta = np.array([0.5, 0.25])
    got, want = interval_offsets(ds, grid, beta), offsets_by_mask(ds, grid, beta)
    assert len(got) == len(want) == m
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_only_events_inside_the_grid_need_nonnegative_offsets():
    # signed covariates: an event beyond t_F contributes no factor, so its
    # negative offset is never checked; one inside the grid is rejected by
    # the stage, while the partition passes it on in row order
    ds = SurvivalDataset(
        [3.0, 0.5, 1.5, 2.5], [True, True, False, True], [[-4.0], [1.0], [-2.0], [2.0]],
        allow_signed=True,
    )
    prior = GammaProcessPrior([1.0, 1.0], 1.0)
    for t_final, want in ((2.5, [[1.0], [2.0]]), (3.0, [[1.0], [-4.0, 2.0]])):
        grid = TimeGrid((1.0,), t_final)
        assert [o.tolist() for o in interval_offsets(ds, grid, np.ones(1))] == want
    increment_posteriors(ds, (1.0, 2.5), [np.ones(1)], prior)
    with pytest.raises(NonNegativityViolation, match="factor offsets must be >= 0"):
        increment_posteriors(ds, grid.boundaries, [np.ones(1)], prior)


def test_a_negative_offset_raises_in_row_order():
    # interval 1 is improper (alpha_1 = 0 and a positive constant coefficient)
    # before interval 2's negative offset is read, on the exact path; on the
    # quadrature path one negative offset among 1001 events is rejected too
    ds = SurvivalDataset([0.5, 1.5], [True, True], [[1.0], [-1.0]], allow_signed=True)
    grid, prior = TimeGrid((1.0,), 2.0), GammaProcessPrior([0.0, 1.0], 1.0)
    with pytest.raises(ImproperPosterior, match="interval 1: .*constant likelihood coefficient"):
        increment_posteriors(ds, grid.boundaries, [[1.0]], prior)
    z = np.ones((EXACT_MAX_FACTORS + 1, 1))
    z[700] = -1.0
    crowd = SurvivalDataset(np.linspace(0.1, 0.9, z.shape[0]), np.ones(z.shape[0]), z,
                            allow_signed=True)
    with pytest.raises(NonNegativityViolation, match="factor offsets must be >= 0"):
        increment_posteriors(crowd, grid.boundaries, [[1.0]], GammaProcessPrior([1.0, 1.0], 1.0))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    n_cuts=st.integers(0, 4),
    crowd=st.booleans(),
    tau=st.sampled_from([2.0**-7, 2.0**5, 3.7, 1e-3, 1e4]),
)
def test_posteriors_do_not_depend_on_the_time_unit(seed, n, n_cuts, crowd, tau):
    # times and grid times tau, beta over tau: each exposure and width
    # scales by tau and each offset by 1 / tau, so the law of the increment
    # L_j = a_j w_j, with the factors (L / w_j + b_i), does not change
    rng = np.random.default_rng(seed)
    times = rng.exponential(1.0, n)
    events = rng.random(n) < 0.8
    events[0] = True
    if crowd:  # more events in interval 1 than the exact path takes
        times = np.concatenate([times, rng.uniform(0.0, 0.05, EXACT_MAX_FACTORS + 1)])
        events = np.concatenate([events, np.ones(EXACT_MAX_FACTORS + 1, dtype=bool)])
    z = rng.chisquare(1, size=(times.size, 2))
    beta = rng.uniform(0.0, 2.0, 2)
    # t_F may fall short of the largest time, and cuts lie above the crowd
    t_final = float(rng.uniform(0.5, 1.5) * max(times.max(), 1.0))
    cuts = tuple(t_final * np.sort(rng.uniform(0.1, 0.99, n_cuts)))
    prior = GammaProcessPrior(rng.uniform(0.1, 3.0, n_cuts + 1), [1e-2, 1.0, 1e2])
    grid = TimeGrid(cuts, t_final)
    base = posteriors(
        increment_posteriors(SurvivalDataset(times, events, z), grid.boundaries, [beta], prior)
    )
    scaled = posteriors(increment_posteriors(
        SurvivalDataset(tau * times, events, z),
        TimeGrid(tuple(tau * s for s in cuts), tau * t_final).boundaries,
        [beta / tau],
        prior,
    ))
    assert (base[0][0].log_weights == ()) == crowd  # quadrature, else exact
    for posts, scaled_posts in zip(base, scaled):
        for post, other in zip(posts, scaled_posts):
            assert other.mean == pytest.approx(post.mean, rel=1e-10)
            assert other.variance == pytest.approx(post.variance, rel=1e-10)


def _stage_posteriors(*args):
    """increment_posteriors(*args) read out as posteriors [p][j]."""
    return posteriors(increment_posteriors(*args))


def _stage_outcome(stage, *args):
    """The posteriors [p][j] of a stage as lists, or the type and message of
    the error it raised."""
    try:
        return [list(row) for row in stage(*args)]
    except AddhazError as exc:
        return type(exc), str(exc)


ALPHA = st.one_of(st.just(0.0), *[st.floats(1e-3, 1e2)] * 4)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(st.integers(0, 150), min_size=1, max_size=5),
    big_at=st.none() | st.integers(0, 5),
    zero_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    empty_tail=st.booleans(),
    alphas=st.lists(ALPHA, min_size=7, max_size=7),
    c=st.floats(1e-3, 1e3) | st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
)
def test_stage_is_its_scalar_calls_interval_by_interval(
    seed, counts, big_at, zero_share, empty_tail, alphas, c
):
    # interval i + 1 = (i, i + 1] holds counts[i] events, one of them more
    # events than the exact path takes; an empty tail interval has exposure
    # 0; a zero alpha_j with no zero offset among the events is improper,
    # and the stage must raise the error the loops meet first
    rng = np.random.default_rng(seed)
    if big_at is not None:
        counts.insert(big_at, EXACT_MAX_FACTORS + 1)
    counts[0] += not any(counts)
    m = len(counts) + empty_tail
    times = np.concatenate(
        [i + rng.uniform(0.01, 0.99, n) for i, n in enumerate(counts)]
        + [rng.uniform(0.0, len(counts), 20)]  # censored
    )
    z = rng.exponential(size=(times.size, 1))
    z[rng.random(times.size) < zero_share] = 0.0
    ds = SurvivalDataset(times, np.arange(times.size) < sum(counts), z)
    grid = TimeGrid(tuple(map(float, range(1, m))), float(m))
    prior = GammaProcessPrior(alphas[:m], c)
    beta = np.array([0.7])
    got = _stage_outcome(_stage_posteriors, ds, grid.boundaries, [beta], prior)
    assert got == _stage_outcome(stage_by_intervals, ds, grid, beta, prior)
    if isinstance(got, tuple):
        return
    stage = increment_posteriors(ds, grid.boundaries, [beta], prior)
    components = sum(len(post.log_weights) for row in got for post in row)
    assert len(stage.log_weights) == stage.indptr[-1] == components
    assert stage.mean.shape == (prior.c.size, m) and stage.intervals.tolist() == [*range(1, m + 1)]
    assert not any(array.flags.writeable for array in vars(stage).values())
    # the batch over the exact intervals alone, row by row
    exposures, widths = interval_exposures(ds, grid), interval_widths(grid)
    exact = [
        (j + 1, exposures[j], widths[j], offsets)
        for j, offsets in enumerate(interval_offsets(ds, grid, beta))
        if offsets.size <= EXACT_MAX_FACTORS
    ]
    if exact:
        js, row_exposures, row_widths, rows = map(list, zip(*exact))
        batch = increment_posterior(js, row_exposures, row_widths, *csr(rows), prior)
        for row, member in zip(posteriors(batch), members(prior)):
            assert list(row) == [one_interval(*interval, member) for interval in exact]


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 200),
    r=st.integers(1, 6),
    shared=st.booleans(),
    crowd_at=st.none() | st.integers(0, 5),
    zero_share=st.sampled_from([0.0, 0.1, 0.5]),
    alphas=st.lists(st.floats(1e-3, 1e2), min_size=3, max_size=3),
    zero_at=st.one_of(*[st.none()] * 4, st.integers(0, 2)),  # alpha_j = 0 one time in five
    c=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
)
def test_chunk_is_its_datasets_stage_by_stage(
    seed, n, r, shared, crowd_at, zero_share, alphas, zero_at, c
):
    # a stack of r datasets on one grid, (m',), or on a grid each, (r, 3),
    # of 3 or 4 intervals, with times on a boundary, at 0 and beyond t_F
    # drawn often; when crowd_at names a member, every member has
    # EXACT_MAX_FACTORS + 1 more rows, all of that one's events in interval 1,
    # more than the exact path takes.  The chunk must give each dataset's
    # posteriors, row after row, or raise the error that the first failing
    # dataset raises on its own
    rng = np.random.default_rng(seed)

    def draw_grid():
        cuts = np.sort(rng.choice(np.arange(0.25, 2.0, 0.25), rng.integers(2, 4), replace=False))
        return TimeGrid(tuple(cuts.tolist()), float(cuts[-1]) + 0.5)

    grids = [draw_grid()] * r if shared else [draw_grid() for _ in range(r)]
    crowd = EXACT_MAX_FACTORS + 1 if crowd_at is not None else 0
    members, betas = [], []
    for i, grid in enumerate(grids):
        times = rng.uniform(0.0, 1.2 * grid.t_final, n + crowd)
        pick = rng.random(n + crowd)
        times[pick < 0.2] = rng.choice((0.0,) + grid.boundaries, int((pick < 0.2).sum()))
        events = rng.random(times.size) < 0.8
        events[0] = True
        if i == crowd_at:
            times[n:] = rng.uniform(0.0, grid.cuts[0], crowd)
            events[n:] = True
        z = rng.exponential(size=(times.size, 2))
        z[rng.random(times.size) < zero_share] = 0.0
        members.append(SurvivalDataset(times, events, z))
        betas.append(rng.uniform(0.0, 2.0, 2))
    if zero_at is not None:
        alphas[zero_at] = 0.0
    prior = GammaProcessPrior(alphas, c)
    chunk = stack(*members)
    bounds = grids[0].boundaries if shared else [grid.boundaries[:3] for grid in grids]
    got = _stage_outcome(_stage_posteriors, chunk, bounds, np.array(betas), prior)
    want = [[] for _ in c]
    for args in zip(members, grids, betas):
        one = _stage_outcome(stage_by_intervals, *args, prior)
        if isinstance(one, tuple):
            assert got == one
            return
        for rows, row in zip(want, one):
            rows += row
    assert got == want
    stage = increment_posteriors(chunk, bounds, np.array(betas), prior)
    components = sum(len(post.log_weights) for row in want for post in row)
    assert len(stage.log_weights) == stage.indptr[-1] == components
    assert stage.intervals.tolist() == [1, 2, 3] * r
