"""Increment posteriors checked against an adaptive quadrature oracle.

The oracle integrates the unnormalized posterior density of the increment
L over one interval, written in factored form

    g(L) = L^(c*alpha - 1) * exp(-c_j L) * prod_i (L/width + b_i),

which shares nothing with the log-weight implementation.  The integration
range [0, U] doubles until the tail beyond U/2 is negligible.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from addhaz.baseline_posterior import (
    EXACT_MAX_FACTORS,
    event_offsets_by_interval,
    increment_posterior,
    increment_posteriors,
    interval_summaries,
)
from addhaz.data_model import GammaProcessPrior, SurvivalDataset, TimeGrid
from addhaz.errors import (
    AddhazError, DimensionMismatch, ImproperPosterior, NonNegativityViolation
)
from addhaz.poly_coeffs import poly_from_factors

from oracles import mixture_posterior


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
    return [list(o) for o in event_offsets_by_interval(ds, grid, np.ones(ds.k))]


def test_interval_summaries_single_observation():
    ds = SurvivalDataset([1.5], [True], [[1.0]])
    grid = TimeGrid((1.0, 2.0), 3.0)
    exposure = interval_summaries(ds, grid)
    assert exposure.shape == (3,) and exposure.dtype == np.float64
    # at risk through interval 1, for half of interval 2, an event there
    assert exposure.tolist() == [1.0, 0.5, 0.0]
    assert offsets_by_interval(ds, grid) == [[], [1.0], []]


def test_interval_summaries_all_beyond():
    ds = SurvivalDataset([2.5, 2.7, 3.0], [1, 1, 1], [[1.0]] * 3)
    grid = TimeGrid((1.0, 2.0), 3.0)
    # all three outlast interval 1 (full width each) and none ends in it
    assert interval_summaries(ds, grid)[0] == pytest.approx(3 * 1.0)
    assert offsets_by_interval(ds, grid) == [[], [], [1.0, 1.0, 1.0]]


def test_interval_summaries_counts_and_monotone_m():
    rng = np.random.default_rng(21)
    times = rng.uniform(0.0, 4.0, size=60)
    ds = SurvivalDataset(times, np.ones(60, dtype=bool), np.ones((60, 1)))
    grid = TimeGrid((0.5, 1.5, 3.0), 4.0)
    exposure = interval_summaries(ds, grid)
    assert sum(map(len, offsets_by_interval(ds, grid))) == 60
    # exposure / width, the mean number at risk over an interval, is at
    # least the number at risk at its end and so never grows with j
    at_risk = exposure / grid.widths()
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
    assert interval_summaries(ds, grid).tolist() == [2.0, 1.0, 0.0]


def test_zero_time_counts_in_first_interval():
    ds = SurvivalDataset([0.0, 0.5], [True, True], [[1.0], [2.0]])
    grid = TimeGrid((1.0,), 2.0)
    assert offsets_by_interval(ds, grid) == [[1.0, 2.0], []]
    assert interval_summaries(ds, grid).tolist() == [0.5, 0.0]


def test_truncated_grid_keeps_late_observations_at_risk():
    # estimation truncated at t_F = 3: the t = 5 subject adds full-width
    # exposure everywhere but belongs to no interval and yields no factor
    ds = SurvivalDataset([0.5, 5.0], [True, True], [[1.0], [2.0]])
    grid = TimeGrid((1.0, 2.0), 3.0)
    exposure = interval_summaries(ds, grid)
    assert exposure[0] == pytest.approx(0.5 + 1.0)
    assert exposure[1] == pytest.approx(1.0)
    assert exposure[2] == pytest.approx(1.0)
    offsets = event_offsets_by_interval(ds, grid, np.array([0.7]))
    assert [len(o) for o in offsets] == [1, 0, 0]
    assert offsets[0][0] == pytest.approx(0.7)


def test_event_offsets_split_by_interval():
    ds = SurvivalDataset(
        [0.5, 1.5, 1.7, 2.5],
        [True, False, True, True],
        [[1.0], [9.0], [2.0], [3.0]],
    )
    grid = TimeGrid((1.0, 2.0), 3.0)
    offsets = event_offsets_by_interval(ds, grid, np.array([2.0]))
    assert [list(o) for o in offsets] == [[2.0], [4.0], [6.0]]


def test_no_events_posterior_is_prior_gamma():
    prior = GammaProcessPrior((2.0,), c=0.7)
    post = increment_posterior(1, 3.0, 1.5, poly_from_factors([]), prior)
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
        post = increment_posterior(
            1, exposure, width, poly_from_factors(offsets), GammaProcessPrior((alpha,), c=c)
        )
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
    post = increment_posterior(
        1, exposure, width, poly_from_factors(offsets), GammaProcessPrior((alpha,), c=c)
    )
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
    poly = poly_from_factors(offsets)
    for alpha in (0.01, 0.3, 1.0, 5.0):
        post = increment_posterior(1, 25.0, 0.8, poly, GammaProcessPrior((alpha,), c=1e6))
        assert abs(post.mean - alpha) < 1e-3
        assert post.variance < 1e-3


def test_vanishing_confidence_forgets_prior_shape():
    # twenty early events make the data part of the mixture dominate the
    # Gamma(c*alpha) prior component, so alpha drops out as c -> 0
    times = np.full(20, 0.05)
    ds = SurvivalDataset(times, np.ones(20, dtype=bool), np.ones((20, 1)))
    grid = TimeGrid((0.9,), 1.0)
    interval = (1, interval_summaries(ds, grid)[0], 0.9)
    poly = poly_from_factors(event_offsets_by_interval(ds, grid, np.array([1.0]))[0])
    mean_small = increment_posterior(*interval, poly, GammaProcessPrior((0.5,), c=1e-8)).mean
    mean_large = increment_posterior(*interval, poly, GammaProcessPrior((5.0,), c=1e-8)).mean
    assert mean_small == pytest.approx(mean_large, rel=1e-6)


def test_informative_confidence_separates_prior_shapes():
    interval = (1, 4.0, 1.0)
    poly = poly_from_factors([1.0, 2.0])
    # an identical prior reproduces the mean exactly
    same = [
        increment_posterior(*interval, poly, GammaProcessPrior((1.0,), c=1e-8)).mean
        for _ in range(2)
    ]
    assert same[0] == same[1]
    # informative c separates different shapes
    a = increment_posterior(*interval, poly, GammaProcessPrior((0.5,), c=10.0)).mean
    b = increment_posterior(*interval, poly, GammaProcessPrior((5.0,), c=10.0)).mean
    assert abs(a - b) > 1e-3


def test_improper_posterior_cases():
    interval = (1, 2.0, 1.0)
    prior = GammaProcessPrior([0.0], c=1.0)
    with pytest.raises(ImproperPosterior):
        increment_posterior(*interval, poly_from_factors([]), prior)  # no events, alpha=0
    with pytest.raises(ImproperPosterior):
        # positive constant coefficient: prod b_i > 0 leaves an L^-1 factor
        increment_posterior(*interval, poly_from_factors([1.0, 2.0]), prior)
    # an event with b = 0 zeroes the constant term and restores properness
    post = increment_posterior(*interval, poly_from_factors([0.0, 2.0]), prior)
    assert post.mean > 0.0
    mean_q, var_q = quadrature_moments([0.0, 2.0], 0.0, 1.0, 2.0, 1.0)
    assert post.mean == pytest.approx(mean_q, rel=1e-6)
    assert post.variance == pytest.approx(var_q, rel=1e-6)


def _outcome(kernel, *args):
    """repr of the kernel's posterior, which shows every float's bits, or
    the type and message of the error it raised."""
    try:
        return repr(kernel(*args))
    except AddhazError as exc:
        return type(exc), str(exc)


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
    args = (1, exposure, width, poly_from_factors(offsets), GammaProcessPrior([alpha], c))
    assert _outcome(increment_posterior, *args) == _outcome(mixture_posterior, *args)


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
    exposures = interval_summaries(ds, grid)
    widths = grid.widths()
    offset_lists = event_offsets_by_interval(ds, grid, beta)
    (stage,) = increment_posteriors(ds, grid, beta, [prior])
    for j in range(3):
        post = increment_posterior(
            j + 1, exposures[j], widths[j], poly_from_factors(offset_lists[j]), prior
        )
        assert stage[j] == post
        mean_q, var_q = quadrature_moments(
            list(offset_lists[j]), prior.increments[j], prior.c, exposures[j], widths[j]
        )
        assert post.mean == pytest.approx(mean_q, rel=1e-6)
        assert post.variance == pytest.approx(var_q, rel=1e-6)


def test_stage_covers_the_priors_increments():
    ds = SurvivalDataset([0.5, 1.2, 2.0], [True, True, False], [[0.5], [0.2], [0.3]])
    grid = TimeGrid((1.0,), 3.0)
    beta = np.array([0.4])
    # the first m intervals of a longer grid, m from the priors
    longer = TimeGrid((1.0, 2.5), 3.0)
    (posts,) = increment_posteriors(ds, longer, beta, [GammaProcessPrior([1.0], 1.0)])
    assert [p.interval for p in posts] == [1]
    for priors in (
        [GammaProcessPrior([1.0, 1.0, 1.0], 1.0)],  # longer than the grid
        [GammaProcessPrior([1.0, 1.0], 1.0), GammaProcessPrior([1.0], 2.0)],
        [],
    ):
        with pytest.raises(DimensionMismatch):
            increment_posteriors(ds, grid, beta, priors)


def test_adding_zero_offset_event_tracks_quadrature():
    base = [1.0, 0.7]
    added = base + [0.0]
    prior = GammaProcessPrior((0.8,), c=1.5)
    before = increment_posterior(1, 5.0, 1.0, poly_from_factors(base), prior).mean
    after = increment_posterior(1, 5.0, 1.0, poly_from_factors(added), prior).mean
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
    got = interval_summaries(ds, grid)
    assert got.shape == (grid.m,) and got.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * t.size * grid.t_final)
    # the interval (s_{j-1}, s_j] holds an event, the first also one at 0
    offsets = event_offsets_by_interval(ds, grid, np.ones(1))
    for j, (lo, hi) in enumerate(zip(lows, highs)):
        rows = [i + 1 for i in range(t.size) if events[i] and (t[i] > lo or j == 0) and t[i] <= hi]
        assert offsets[j].tolist() == rows  # in row order: it fixes the factor order
    placed = sum(o.size for o in offsets)
    assert placed == sum(e and ti <= grid.t_final for e, ti in zip(events, times))


def test_only_events_inside_the_grid_need_nonnegative_offsets():
    # signed covariates: an event beyond t_F contributes no factor, so its
    # negative offset is never checked; one inside the grid is rejected
    ds = SurvivalDataset(
        [3.0, 0.5, 1.5, 2.5], [True, True, False, True], [[-4.0], [1.0], [-2.0], [2.0]],
        allow_signed=True,
    )
    offsets = event_offsets_by_interval(ds, TimeGrid((1.0,), 2.5), np.ones(1))
    assert [o.tolist() for o in offsets] == [[1.0], [2.0]]
    with pytest.raises(NonNegativityViolation):
        event_offsets_by_interval(ds, TimeGrid((1.0,), 3.0), np.ones(1))


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
    priors = [GammaProcessPrior(rng.uniform(0.1, 3.0, n_cuts + 1), c) for c in (1e-2, 1.0, 1e2)]
    grid = TimeGrid(cuts, t_final)
    base = increment_posteriors(SurvivalDataset(times, events, z), grid, beta, priors)
    scaled = increment_posteriors(
        SurvivalDataset(tau * times, events, z),
        TimeGrid(tuple(tau * s for s in cuts), tau * t_final),
        beta / tau,
        priors,
    )
    assert (base[0][0].log_weights == ()) == crowd  # quadrature, else exact
    for posts, scaled_posts in zip(base, scaled):
        for post, other in zip(posts, scaled_posts):
            assert other.mean == pytest.approx(post.mean, rel=1e-10)
            assert other.variance == pytest.approx(post.variance, rel=1e-10)
