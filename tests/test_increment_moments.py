"""Increment moments by quadrature, checked against the exact Gamma mixture.

``increment_moments`` integrates the posterior density of the increment
numerically; ``increment_posterior`` builds the finite mixture from the
likelihood polynomial.  The two share only the interval bookkeeping, so
agreement to 1e-10 relative over the grid below is an oracle check of the
quadrature.  The last tests cover the routing of ``fit`` between the two
paths and the serialized form of a quadrature result.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from addhaz import dataio
from addhaz.baseline_posterior import (
    EXACT_MAX_FACTORS,
    IntervalSummary,
    event_offsets_by_interval,
    increment_moments,
    increment_posterior,
    interval_summaries,
)
from addhaz.cli import main
from addhaz.data_model import FitResult, GammaProcessPrior, SurvivalDataset, TimeGrid
from addhaz.errors import ImproperPosterior
from addhaz.fitting import fit
from addhaz.poly_coeffs import poly_from_factors

PRIOR_SHAPES = (1e-3, 0.5, 1.0, 50.0)  # s0 = c * alpha_j
CONFIDENCES = (1e-12, 1.0, 1e12)  # c
EXPOSURE_RATIOS = (1e-2, 1.0, 1e2, 1e4)  # exposure / width
WIDTH = 0.7


def make_offsets(kind, n, rng):
    if kind == "zero":
        return np.zeros(n)
    if kind == "mixed":
        b = rng.uniform(0.1, 4.0, n)
        b[rng.random(n) < 0.3] = 0.0
        b[0] = 0.0
        return b
    if kind == "uniform":
        return rng.uniform(0.1, 4.0, n)
    return 1e3 * rng.uniform(0.5, 2.0, n)  # large


def assert_same_moments(quad, exact):
    assert quad.interval == exact.interval
    assert quad.rate == exact.rate
    assert quad.mean == pytest.approx(exact.mean, rel=1e-10)
    assert quad.variance == pytest.approx(exact.variance, rel=1e-10)


@pytest.mark.parametrize("kind", ["zero", "mixed", "uniform", "large"])
@pytest.mark.parametrize("n", [1, 2, 17, 200, 1000, 1001, 2000])
def test_quadrature_matches_exact_mixture(n, kind):
    b = make_offsets(kind, n, np.random.default_rng(n))
    poly = poly_from_factors(b)
    for s0, c, ratio in itertools.product(PRIOR_SHAPES, CONFIDENCES, EXPOSURE_RATIOS):
        summary = IntervalSummary(1, n, 0, ratio * WIDTH, WIDTH)
        prior = GammaProcessPrior((s0 / c,), c)
        quad = increment_moments(summary, b, prior)
        assert quad.log_weights == () and quad.shape_offsets == ()
        assert_same_moments(quad, increment_posterior(summary, poly, prior))


def test_improper_cases_match_exact_path():
    rng = np.random.default_rng(3)
    summary = IntervalSummary(1, 0, 0, 2.0, 1.0)
    zero_shape = GammaProcessPrior.from_increments([0.0], c=1.0)
    # alpha_j = 0 with every offset > 0 (or no offsets) does not integrate
    for b in ([], [1.0, 2.0], rng.uniform(0.1, 4.0, 1500)):
        with pytest.raises(ImproperPosterior):
            increment_posterior(summary, poly_from_factors(b), zero_shape)
        with pytest.raises(ImproperPosterior):
            increment_moments(summary, b, zero_shape)
    # one zero offset removes the constant term and makes it proper
    for b in ([0.0], [0.0, 2.0], np.concatenate(([0.0], rng.uniform(0.1, 4.0, 1500)))):
        assert_same_moments(
            increment_moments(summary, b, zero_shape),
            increment_posterior(summary, poly_from_factors(b), zero_shape),
        )
    # no events under a proper prior: the prior Gamma itself
    prior = GammaProcessPrior((2.0,), c=0.7)
    quad = increment_moments(summary, [], prior)
    exact = increment_posterior(summary, poly_from_factors([]), prior)
    assert (quad.mean, quad.variance) == (exact.mean, exact.variance)


def test_bad_offsets_rejected_like_the_polynomial():
    summary = IntervalSummary(1, 1, 0, 2.0, 1.0)
    prior = GammaProcessPrior((1.0,), c=1.0)
    for b in ([-0.5], [math.inf], [math.nan]):
        with pytest.raises(ValueError):
            poly_from_factors(b)
        with pytest.raises(ValueError):
            increment_moments(summary, b, prior)


def rising_factorial_moments(b, s0, rate, width):
    """Mixture moments with weights d_k (w rate)^-k Gamma(s0 + k) / Gamma(s0),
    the Gamma ratio summed as log(s0) + ... + log(s0 + k - 1) so that a
    large s0 keeps every digit of the weights."""
    log_d = poly_from_factors(b).log_abs
    k = np.arange(log_d.size)
    rising = np.concatenate(([0.0], np.cumsum(np.log(s0 + k[:-1]))))
    log_w = np.where(log_d > -np.inf, log_d - k * math.log(width * rate) + rising, -np.inf)
    w = np.exp(log_w - np.max(log_w))
    w /= w.sum()
    k_mean = float(np.dot(w, k))
    k_var = float(np.dot(w, (k - k_mean) ** 2))
    return (s0 + k_mean) / rate, (s0 + k_mean + k_var) / rate**2


@pytest.mark.parametrize("alpha", [1e-6, 0.5, 300.0])
@pytest.mark.parametrize("n", [1, 17, 1500])
def test_quadrature_keeps_precision_at_large_prior_shape(n, alpha):
    # c alpha up to 3e14: the posterior is nearly the prior, and its
    # variance is a 1e-15 fraction of the squared mean
    b = np.random.default_rng(n).uniform(0.1, 4.0, n)
    c = 1e12
    summary = IntervalSummary(1, n, 0, 1.3, 1.3)
    quad = increment_moments(summary, b, GammaProcessPrior((alpha,), c))
    mean, variance = rising_factorial_moments(b, c * alpha, 1.0 + c, 1.3)
    assert quad.mean == pytest.approx(mean, rel=1e-12)
    assert quad.variance == pytest.approx(variance, rel=1e-12)


@pytest.mark.parametrize("n", [1, 17, 200, 1000])
def test_mixture_keeps_precision_at_large_confidence(n):
    # the mixture weights carry Gamma(k + c alpha); at c alpha up to 5e11
    # their normalization must not eat the digits that set the variance
    b = np.random.default_rng(n).uniform(0.1, 4.0, n)
    poly = poly_from_factors(b)
    summary = IntervalSummary(1, n, 0, 1.0, 1.0)
    for c in (1e-2, 1.0, 1e3, 1e6, 1e9, 1e12):
        prior = GammaProcessPrior((0.5,), c)
        exact = increment_posterior(summary, poly, prior)
        assert_same_moments(increment_moments(summary, b, prior), exact)


def test_quadrature_temporaries_stay_small():
    # a full (nodes x factors) array would take about 10 MB here
    b = np.random.default_rng(8).chisquare(1, 20_000)
    summary = IntervalSummary(1, b.size, 0, 0.9 * b.size, 0.2)
    tracemalloc.start()
    try:
        increment_moments(summary, b, GammaProcessPrior((0.2,), 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def routing_dataset():
    """One interval over the quadrature threshold and one under it."""
    rng = np.random.default_rng(11)
    n_large, n_small = EXACT_MAX_FACTORS + 200, 300
    times = np.concatenate(
        [rng.uniform(0.01, 1.0, n_large), rng.uniform(1.01, 2.0, n_small)]
    )
    z = rng.chisquare(1, size=(times.size, 2))
    ds = SurvivalDataset(times, np.ones(times.size, dtype=bool), z)
    return ds, TimeGrid((1.0,), 2.0), n_small


def test_fit_routes_large_intervals_to_quadrature():
    ds, grid, n_small = routing_dataset()
    result = fit(ds, grid)
    large, small = result.baseline
    assert large.log_weights == () and large.shape_offsets == ()
    assert len(small.log_weights) == len(small.shape_offsets) == n_small + 1

    prior = GammaProcessPrior(grid.boundaries, 1.0)  # fit's default prior
    summaries = interval_summaries(ds, grid)
    offsets = event_offsets_by_interval(ds, grid, np.asarray(result.beta_hat))
    assert offsets[0].size > EXACT_MAX_FACTORS >= offsets[1].size
    assert_same_moments(
        large, increment_posterior(summaries[0], poly_from_factors(offsets[0]), prior)
    )
    assert small == increment_posterior(
        summaries[1], poly_from_factors(offsets[1]), prior
    )


def test_quadrature_result_round_trips_through_fit_json(tmp_path, capsys):
    ds, grid, _ = routing_dataset()
    csv_path = tmp_path / "ds.csv"
    dataio.write_dataset_csv(ds, csv_path)
    grid_args = ["--input", str(csv_path), "--grid-cuts", "1.0", "--t-final", "2.0"]
    assert main(["fit", *grid_args, "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "fit.json").read_text())
    restored = FitResult.from_dict(payload["fit"])
    assert restored.to_dict() == payload["fit"]
    assert payload["fit"]["baseline"][0]["log_weights"] == []
    assert restored.baseline == fit(ds, grid).baseline

    capsys.readouterr()
    assert main(["baseline", *grid_args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "interval,up_to,mean,variance"
    assert [line.split(",")[:2] for line in lines[1:]] == [["1", "1.0"], ["2", "2.0"]]
    assert float(lines[1].split(",")[2]) == restored.baseline[0].mean
