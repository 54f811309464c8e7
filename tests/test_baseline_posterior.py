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
from scipy import integrate

from addhaz.baseline_posterior import (
    IntervalSummary,
    event_offsets_by_interval,
    increment_posterior,
    increment_posteriors,
    interval_summaries,
)
from addhaz.data_model import GammaProcessPrior, SurvivalDataset, TimeGrid
from addhaz.errors import DimensionMismatch, ImproperPosterior
from addhaz.poly_coeffs import poly_from_factors


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


def make_summary(exposure, width, interval=1):
    return IntervalSummary(
        interval=interval, n_inside=0, n_beyond=0, exposure=exposure, width=width
    )


def test_interval_summaries_single_observation():
    ds = SurvivalDataset([1.5], [True], [[1.0]])
    grid = TimeGrid((1.0, 2.0), 3.0)
    s1, s2, s3 = interval_summaries(ds, grid)
    assert (s1.n_inside, s1.n_beyond, s1.exposure, s1.width) == (0, 1, 1.0, 1.0)
    assert (s2.n_inside, s2.n_beyond, s2.width) == (1, 0, 1.0)
    assert s2.exposure == pytest.approx(0.5)
    assert (s3.n_inside, s3.n_beyond, s3.exposure) == (0, 0, 0.0)


def test_interval_summaries_all_beyond():
    ds = SurvivalDataset([2.5, 2.7, 3.0], [1, 1, 1], [[1.0]] * 3)
    grid = TimeGrid((1.0, 2.0), 3.0)
    s1 = interval_summaries(ds, grid)[0]
    assert s1.n_inside == 0 and s1.n_beyond == 3
    assert s1.exposure == pytest.approx(3 * 1.0)


def test_interval_summaries_counts_and_monotone_m():
    rng = np.random.default_rng(21)
    times = rng.uniform(0.0, 4.0, size=60)
    ds = SurvivalDataset(times, np.ones(60, dtype=bool), np.ones((60, 1)))
    grid = TimeGrid((0.5, 1.5, 3.0), 4.0)
    summaries = interval_summaries(ds, grid)
    assert sum(s.n_inside for s in summaries) == 60
    beyonds = [s.n_beyond for s in summaries]
    assert all(a >= b for a, b in zip(beyonds, beyonds[1:]))
    assert all(s.exposure >= 0 for s in summaries)
    # exposure identity: each subject is at risk min(t, s_j) - s_{j-1} when positive
    for s, lo, hi in zip(summaries, (0.0,) + grid.boundaries, grid.boundaries):
        expected = np.clip(np.minimum(times, hi) - lo, 0.0, None).sum()
        assert s.exposure == pytest.approx(expected)


def test_boundary_time_belongs_to_left_interval():
    ds = SurvivalDataset([1.0, 2.0], [True, True], [[1.0], [1.0]])
    grid = TimeGrid((1.0, 2.0), 3.0)
    summaries = interval_summaries(ds, grid)
    assert [s.n_inside for s in summaries] == [1, 1, 0]


def test_zero_time_counts_in_first_interval():
    ds = SurvivalDataset([0.0, 0.5], [True, True], [[1.0], [1.0]])
    grid = TimeGrid((1.0,), 2.0)
    summaries = interval_summaries(ds, grid)
    assert summaries[0].n_inside == 2


def test_truncated_grid_keeps_late_observations_at_risk():
    # estimation truncated at t_F = 3: the t = 5 subject adds full-width
    # exposure everywhere but belongs to no interval and yields no factor
    ds = SurvivalDataset([0.5, 5.0], [True, True], [[1.0], [2.0]])
    grid = TimeGrid((1.0, 2.0), 3.0)
    summaries = interval_summaries(ds, grid)
    assert [s.n_inside for s in summaries] == [1, 0, 0]
    assert [s.n_beyond for s in summaries] == [1, 1, 1]
    assert summaries[0].exposure == pytest.approx(0.5 + 1.0)
    assert summaries[1].exposure == pytest.approx(1.0)
    assert summaries[2].exposure == pytest.approx(1.0)
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
    summary = make_summary(exposure=3.0, width=1.5)
    prior = GammaProcessPrior((2.0,), c=0.7)
    post = increment_posterior(summary, poly_from_factors([]), prior)
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
            make_summary(exposure, width),
            poly_from_factors(offsets),
            GammaProcessPrior((alpha,), c=c),
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
        make_summary(exposure, width),
        poly_from_factors(offsets),
        GammaProcessPrior((alpha,), c=c),
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
    summary = make_summary(exposure=25.0, width=0.8)
    for alpha in (0.01, 0.3, 1.0, 5.0):
        post = increment_posterior(
            summary, poly, GammaProcessPrior((alpha,), c=1e6)
        )
        assert abs(post.mean - alpha) < 1e-3
        assert post.variance < 1e-3


def test_vanishing_confidence_forgets_prior_shape():
    # twenty early events make the data part of the mixture dominate the
    # Gamma(c*alpha) prior component, so alpha drops out as c -> 0
    times = np.full(20, 0.05)
    ds = SurvivalDataset(times, np.ones(20, dtype=bool), np.ones((20, 1)))
    grid = TimeGrid((0.9,), 1.0)
    summary = interval_summaries(ds, grid)[0]
    poly = poly_from_factors(event_offsets_by_interval(ds, grid, np.array([1.0]))[0])
    mean_small = increment_posterior(
        summary, poly, GammaProcessPrior((0.5,), c=1e-8)
    ).mean
    mean_large = increment_posterior(
        summary, poly, GammaProcessPrior((5.0,), c=1e-8)
    ).mean
    assert mean_small == pytest.approx(mean_large, rel=1e-6)


def test_informative_confidence_separates_prior_shapes():
    summary = make_summary(exposure=4.0, width=1.0)
    poly = poly_from_factors([1.0, 2.0])
    # an identical prior reproduces the mean exactly
    same = [
        increment_posterior(summary, poly, GammaProcessPrior((1.0,), c=1e-8)).mean
        for _ in range(2)
    ]
    assert same[0] == same[1]
    # informative c separates different shapes
    a = increment_posterior(summary, poly, GammaProcessPrior((0.5,), c=10.0)).mean
    b = increment_posterior(summary, poly, GammaProcessPrior((5.0,), c=10.0)).mean
    assert abs(a - b) > 1e-3


def test_improper_posterior_cases():
    summary = make_summary(exposure=2.0, width=1.0)
    prior = GammaProcessPrior([0.0], c=1.0)
    with pytest.raises(ImproperPosterior):
        increment_posterior(summary, poly_from_factors([]), prior)  # no events, alpha=0
    with pytest.raises(ImproperPosterior):
        # positive constant coefficient: prod b_i > 0 leaves an L^-1 factor
        increment_posterior(summary, poly_from_factors([1.0, 2.0]), prior)
    # an event with b = 0 zeroes the constant term and restores properness
    post = increment_posterior(summary, poly_from_factors([0.0, 2.0]), prior)
    assert post.mean > 0.0
    mean_q, var_q = quadrature_moments([0.0, 2.0], 0.0, 1.0, 2.0, 1.0)
    assert post.mean == pytest.approx(mean_q, rel=1e-6)
    assert post.variance == pytest.approx(var_q, rel=1e-6)


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
    summaries = interval_summaries(ds, grid)
    offset_lists = event_offsets_by_interval(ds, grid, beta)
    (stage,) = increment_posteriors(ds, grid, beta, [prior])
    for j in range(3):
        post = increment_posterior(
            summaries[j], poly_from_factors(offset_lists[j]), prior
        )
        assert stage[j] == post
        mean_q, var_q = quadrature_moments(
            list(offset_lists[j]),
            prior.increments[j],
            prior.c,
            summaries[j].exposure,
            summaries[j].width,
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
    summary = make_summary(exposure=5.0, width=1.0)
    prior = GammaProcessPrior((0.8,), c=1.5)
    before = increment_posterior(summary, poly_from_factors(base), prior).mean
    after = increment_posterior(summary, poly_from_factors(added), prior).mean
    assert before != after
    mean_q, _ = quadrature_moments(added, 0.8, 1.5, 5.0, 1.0)
    assert after == pytest.approx(mean_q, rel=1e-6)
