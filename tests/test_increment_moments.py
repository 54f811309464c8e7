"""Increment moments by quadrature, checked against the exact Gamma mixture.

Given an interval of more than EXACT_MAX_FACTORS events, the kernel
``increment_posterior`` integrates the posterior density of the increment
numerically; given a smaller one, it builds the finite mixture from the
likelihood polynomial.  A test-side seam (``oracles.by_quadrature`` and
``oracles.by_mixture``) puts a row of any count on either path.  The two
share only the interval
bookkeeping and the division by the rate, so agreement to 1e-10 relative
over the grid below, and over intervals that hypothesis draws, is an oracle
check of the quadrature.  Both paths are also held to an mpmath sum of the mixture at
prior weights c alpha from 1e-300 to 1e300.  Broad posteriors check the
quadrature's node count.  The last tests cover the routing of ``fit`` between
the two paths and the serialized form of a quadrature result.
"""

import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addhaz import baseline_posterior
from addhaz.baseline_posterior import EXACT_MAX_FACTORS
from addhaz.cli import main
from addhaz.data_model import FitResult, GammaProcessPrior, SurvivalDataset, TimeGrid
from addhaz.errors import ImproperPosterior, NonNegativityViolation, OutOfRange
from addhaz.fitting import fit
from addhaz.poly_coeffs import poly_from_factors
from oracles import (
    by_mixture,
    by_quadrature,
    interval_exposures,
    interval_offsets,
    interval_widths,
    mixture_moments,
    one_interval,
    posteriors,
    write_dataset_csv,
)

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
def test_quadrature_matches_exact_mixture(n, kind, monkeypatch):
    b = make_offsets(kind, n, np.random.default_rng(n))
    # the kernel's one row is b under every prior below: its polynomial is built once
    poly = poly_from_factors(b)
    monkeypatch.setattr(baseline_posterior, "poly_from_factors", lambda offsets: poly)
    for s0, c, ratio in itertools.product(PRIOR_SHAPES, CONFIDENCES, EXPOSURE_RATIOS):
        interval = (1, ratio * WIDTH, WIDTH)
        prior = GammaProcessPrior((s0 / c,), c)
        quad = by_quadrature(*interval, b, prior)
        assert quad.log_weights == () and quad.shape_offsets == ()
        assert_same_moments(quad, by_mixture(*interval, b, prior))


def test_improper_cases_match_exact_path():
    rng = np.random.default_rng(3)
    interval = (1, 2.0, 1.0)
    zero_shape = GammaProcessPrior([0.0], c=1.0)
    # alpha_j = 0 with every offset > 0 (or no offsets) does not integrate
    for b in ([], [1.0, 2.0], rng.uniform(0.1, 4.0, 1500)):
        with pytest.raises(ImproperPosterior):
            by_mixture(*interval, b, zero_shape)
        with pytest.raises(ImproperPosterior):
            by_quadrature(*interval, b, zero_shape)
    # one zero offset removes the constant term and makes it proper
    for b in ([0.0], [0.0, 2.0], np.concatenate(([0.0], rng.uniform(0.1, 4.0, 1500)))):
        assert_same_moments(
            by_quadrature(*interval, b, zero_shape),
            by_mixture(*interval, b, zero_shape),
        )
    # a positive alpha_j whose c alpha_j underflows to 0 is out of range, not
    # improper, in both kernels; a zero offset still adds a unit of shape
    tiny = GammaProcessPrior([1e-200], c=1e-200)
    underflow = "^interval 1: the prior shape c alpha_j underflows to 0$"
    for b in ([], [1.0], rng.uniform(0.1, 4.0, 1500)):
        with pytest.raises(OutOfRange, match=underflow):
            by_mixture(*interval, b, tiny)
        with pytest.raises(OutOfRange, match=underflow):
            by_quadrature(*interval, b, tiny)
    assert_same_moments(
        by_quadrature(*interval, [0.0, 2.0], tiny),
        by_mixture(*interval, [0.0, 2.0], tiny),
    )
    # no events under a proper prior: the prior Gamma itself
    prior = GammaProcessPrior((2.0,), c=0.7)
    quad = by_quadrature(*interval, [], prior)
    exact = by_mixture(*interval, [], prior)
    assert (quad.mean, quad.variance) == (exact.mean, exact.variance)


def test_bad_offsets_rejected_like_the_polynomial():
    # the polynomial's path and the quadrature's reject each bad offset
    # alike; a non-finite offset is named before a negative one, wherever
    # each sits
    interval = (1, 2.0, 1.0)
    prior = GammaProcessPrior((1.0,), c=1.0)
    for b, error in (
        ([-0.5], NonNegativityViolation),
        ([-math.inf], OutOfRange),
        ([math.inf], OutOfRange),
        ([math.nan], OutOfRange),
        ([math.nan, -1.0], OutOfRange),
        ([-1.0, math.inf], OutOfRange),
    ):
        with pytest.raises(error):
            by_mixture(*interval, b, prior)
        with pytest.raises(error):
            by_quadrature(*interval, b, prior)


@pytest.mark.parametrize("exposure, width", [(math.inf, 1.0)])
def test_bad_interval_numbers_raise_a_typed_error(exposure, width):
    # the partition gives every interval a width finite and > 0 and an
    # exposure >= 0, which may overflow; that reaches no division, log or
    # root finder on either path
    prior = GammaProcessPrior([1.0], 1.0)
    with pytest.raises(OutOfRange, match="^interval 1: the exposure overflows$"):
        by_mixture(1, exposure, width, [1.0], prior)
    with pytest.raises(OutOfRange, match="^interval 1: the exposure overflows$"):
        by_quadrature(1, exposure, width, [1.0], prior)


@pytest.mark.parametrize(
    "exposure, offsets, c", [(2.0, [1.0], 1e301), (0.0, [1e-300], 1.0)]
)
def test_quadrature_raises_above_its_1e300(exposure, offsets, c):
    # a prior shape c alpha, or a largest u x / b, above 1e300
    prior = GammaProcessPrior([1.0], c)
    with pytest.raises(OutOfRange, match="above the quadrature's 1e300"):
        by_quadrature(1, exposure, 1.0, offsets, prior)


def test_edge_interval_numbers_are_accepted():
    # no time at risk is a valid interval: the posterior is then a Gamma
    # mixture at rate c alone
    prior = GammaProcessPrior([1.0], 1.0)
    exact = by_mixture(1, 0.0, 2.0, [1.0], prior)
    assert exact.rate == 1.0
    assert_same_moments(by_quadrature(1, 0.0, 2.0, [1.0], prior), exact)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    b=st.lists(st.floats(0.01, 100.0), max_size=40),
    zeros=st.integers(1, 40),
    alpha=st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
    c=st.floats(1e-2, 1e2),
    ratio=st.floats(1e-2, 1e4),
)
def test_zero_offsets_are_prior_shape(b, zeros, alpha, c, ratio):
    # an event with b = 0 contributes the factor a, one more unit of the
    # prior shape c alpha: z of them equal a prior alpha + z / c
    offsets = [0.0] * zeros + b
    interval = (1, ratio * WIDTH, WIDTH)
    prior = GammaProcessPrior([alpha], c)
    post = by_mixture(*interval, offsets, prior)
    raised = by_mixture(*interval, b, GammaProcessPrior([alpha + zeros / c], c))
    assert len(post.log_weights) == len(post.shape_offsets) == len(b) + 1
    assert np.all(np.isfinite(post.log_weights)) and np.all(np.isfinite(post.shape_offsets))
    assert post.shape_offsets[0] == c * alpha + zeros
    np.testing.assert_allclose(post.shape_offsets, raised.shape_offsets, rtol=1e-12)
    np.testing.assert_allclose(post.log_weights, raised.log_weights, rtol=1e-12, atol=1e-12)
    assert post.mean == pytest.approx(raised.mean, rel=1e-12)
    assert post.variance == pytest.approx(raised.variance, rel=1e-12)
    assert_same_moments(by_quadrature(*interval, offsets, prior), post)


def log_uniform(low, high):
    """Floats whose base-10 logarithm is uniform on [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0**e)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    n=st.integers(1, 1500),
    seed=st.integers(0, 2**32 - 1),
    decades=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)).map(sorted),
    s0=log_uniform(-3.0, 3.0),
    c=log_uniform(-8.0, 8.0),
    ratio=log_uniform(-2.0, 4.0),
)
def test_quadrature_matches_exact_mixture_on_drawn_intervals(n, seed, decades, s0, c, ratio):
    # a search over the quadrature's domain: N offsets log-uniform over a
    # drawn part of [1e-6, 1e6], prior shape s0 = c alpha, confidence c
    b = 10.0 ** np.random.default_rng(seed).uniform(*decades, n)
    interval = (1, ratio * WIDTH, WIDTH)
    prior = GammaProcessPrior((s0 / c,), c)
    quad = by_quadrature(*interval, b, prior)
    assert_same_moments(quad, by_mixture(*interval, b, prior))


def broad_interval(n, s0, spread):
    """N offsets uniform on [500, 1500] and a prior of shape s0 at which
    x sum(1 / b) = spread, x = 1 / (width rate): x sum(1 / b) near 1 gives
    the broadest posteriors."""
    b = np.random.default_rng(n).uniform(500.0, 1500.0, n)
    x = spread / float(np.sum(1.0 / b))
    # exposure 0 and width 1 make the rate c = 1 / x
    return (1, 0.0, 1.0, b, GammaProcessPrior((s0 * x,), 1.0 / x))


def test_quadrature_nodes_stay_few_on_broad_posteriors(monkeypatch):
    # each _sum_log1p row is one quadrature node, a pass over all N offsets;
    # near x sum(1 / b) = 1 the posterior spreads over many decades of u
    rows = []
    sum_log1p = baseline_posterior._sum_log1p

    def counted(a, b):
        rows[-1] += a.size
        return sum_log1p(a, b)

    monkeypatch.setattr(baseline_posterior, "_sum_log1p", counted)
    for n, s0, spread in itertools.product(
        (1001, 2000, 30000), (1e-3, 0.5, 50.0), (0.5, 0.9, 1.0, 1.01, 2.0, 10.0)
    ):
        rows.append(0)
        one_interval(*broad_interval(n, s0, spread))
        assert 0 < rows[-1] <= 400, (n, s0, spread, rows[-1])


@pytest.mark.parametrize(
    "s0, mean, variance",
    [
        (1e-3, 0.006282414947850968, 0.025153702768329844),
        (0.5, 2.399253402749791, 6.855297646902504),
        (50.0, 36.01157849261239, 13.334424682780716),
    ],
)
def test_broadest_posteriors_keep_their_moments(s0, mean, variance):
    # reference moments from a trapezoid rule with one uniform step over the
    # whole window, which took up to 13,629 rows here
    post = one_interval(*broad_interval(30000, s0, 1.0))
    assert post.mean == pytest.approx(mean, rel=1e-10)
    assert post.variance == pytest.approx(variance, rel=1e-10)


@pytest.mark.parametrize("b", [[1e-20], [1e-20, 3.0], [1e300]])
def test_extreme_offsets_leave_no_warning(b):
    # far left in the quadrature window the integrand is exactly 0 here:
    # an offset below 1e-16 of u x rounds log1p(v w) to log(0), one above
    # 1e300 of it underflows log P(u) / P(0) to 0; RuntimeWarnings are errors
    interval = (1, 2.0, 1.0)
    prior = GammaProcessPrior([1e-3], 1.0)
    exact = by_mixture(*interval, b, prior)
    assert_same_moments(by_quadrature(*interval, b, prior), exact)


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
    interval = (1, 1.3, 1.3)
    quad = by_quadrature(*interval, b, GammaProcessPrior((alpha,), c))
    mean, variance = rising_factorial_moments(b, c * alpha, 1.0 + c, 1.3)
    assert quad.mean == pytest.approx(mean, rel=1e-12)
    assert quad.variance == pytest.approx(variance, rel=1e-12)


@pytest.mark.parametrize("n", [1, 17, 200, 1000])
def test_mixture_keeps_precision_at_large_confidence(n):
    # the mixture weights carry Gamma(k + c alpha); at c alpha up to 5e11
    # their normalization must not eat the digits that set the variance
    b = np.random.default_rng(n).uniform(0.1, 4.0, n)
    interval = (1, 1.0, 1.0)
    for c in (1e-2, 1.0, 1e3, 1e6, 1e9, 1e12):
        prior = GammaProcessPrior((0.5,), c)
        exact = by_mixture(*interval, b, prior)
        assert_same_moments(by_quadrature(*interval, b, prior), exact)


@st.composite
def heavy_priors(draw):
    """A one-increment prior whose shape c alpha is log-uniform over
    [1e-300, 1e300], with c log-uniform over the part of [1e-300, 1e300]
    that keeps alpha in that range too."""
    shape = draw(st.floats(-300.0, 300.0))
    c = 10.0 ** draw(st.floats(max(-300.0, shape - 300.0), min(300.0, shape + 300.0)))
    return GammaProcessPrior((10.0**shape / c,), c)


def drawn_interval(n, seed, decades, zero_share, ratio, width):
    """(interval, offsets): n offsets log-uniform over a drawn part of
    [1e-6, 1e6], a share of them zero."""
    rng = np.random.default_rng(seed)
    b = 10.0 ** rng.uniform(*decades, n)
    b[rng.random(n) < zero_share] = 0.0
    return (1, ratio * width, width), b


def assert_right_or_typed(kernel, interval, factors, log_d, prior):
    """The kernel's posterior, with moments within 1e-10 of the mpmath
    mixture, or the OutOfRange it raised, which names the interval and
    either the quadrature's range or moments the mixture too finds beyond
    the floats.  RuntimeWarnings are errors, and the call's temporaries
    stay under 4 MB."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            post = kernel(*interval, factors, prior)
    except OutOfRange as exc:
        post = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 4e6
    j, exposure, width = interval
    rate = exposure / width + prior.c
    mean, variance = mixture_moments(log_d, prior.c * float(prior.increments[0]), width, rate)
    if isinstance(post, OutOfRange):
        assert str(post).startswith(f"interval {j}: ")
        assert "quadrature" in str(post) or not math.isfinite(mean + variance), (mean, variance)
        return post
    # a subnormal moment keeps only its absolute precision
    assert post.mean == pytest.approx(mean, rel=1e-10, abs=1e-320)
    assert post.variance == pytest.approx(variance, rel=1e-10, abs=1e-320)
    return post


interval_draws = dict(
    seed=st.integers(0, 2**32 - 1),
    decades=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)).map(sorted),
    zero_share=st.sampled_from([0.0, 0.0, 0.2]),
    ratio=st.one_of(st.just(0.0), log_uniform(-2.0, 6.0)),
    width=log_uniform(-3.0, 3.0),
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(prior=heavy_priors(), n=st.integers(0, 60), **interval_draws)
def test_mixture_is_right_or_typed_at_every_prior_weight(prior, n, **draws):
    interval, b = drawn_interval(n, **draws)
    assert_right_or_typed(by_mixture, interval, b, poly_from_factors(b).log_abs, prior)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    prior=heavy_priors(),
    n=st.integers(EXACT_MAX_FACTORS + 1, EXACT_MAX_FACTORS + 50),
    **interval_draws,
)
def test_quadrature_is_right_or_typed_at_every_prior_weight(prior, n, **draws):
    interval, b = drawn_interval(n, **draws)
    log_d = poly_from_factors(b).log_abs
    assert_right_or_typed(one_interval, interval, b, log_d, prior)


@pytest.mark.parametrize("c", [1e30, 1e40, 1e80, 1e200, 1e300])
def test_quadrature_window_stays_small_at_huge_prior_weights(c, monkeypatch):
    # the window's bounds once cancelled at large c alpha: 5e4 nodes at
    # 1e40, and at 1e80 a node count numpy refused with a bare ValueError
    rows = [0]
    sum_log1p = baseline_posterior._sum_log1p

    def counted(a, b):
        rows[0] += a.size
        return sum_log1p(a, b)

    monkeypatch.setattr(baseline_posterior, "_sum_log1p", counted)
    b = np.random.default_rng(4).uniform(0.1, 4.0, 1200)
    log_d, prior = poly_from_factors(b).log_abs, GammaProcessPrior((1.0,), c)
    post = assert_right_or_typed(one_interval, (1, 40.0, 1.0), b, log_d, prior)
    assert not isinstance(post, OutOfRange)
    assert 0 < rows[0] <= 60


def test_quadrature_temporaries_stay_small():
    # a full (nodes x factors) array would take about 10 MB here
    b = np.random.default_rng(8).chisquare(1, 20_000)
    interval = (1, 0.9 * b.size, 0.2)
    tracemalloc.start()
    try:
        by_quadrature(*interval, b, GammaProcessPrior((0.2,), 1.0))
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
    large, small = posteriors(result.baseline)[0]
    assert large.log_weights == () and large.shape_offsets == ()
    assert len(small.log_weights) == len(small.shape_offsets) == n_small + 1

    prior = GammaProcessPrior.from_shape(grid.boundaries, 1.0)  # fit's default prior
    exposures, widths = interval_exposures(ds, grid), interval_widths(grid)
    offsets = interval_offsets(ds, grid, np.asarray(result.beta_hat))
    assert offsets[0].size > EXACT_MAX_FACTORS >= offsets[1].size
    assert_same_moments(large, by_mixture(1, exposures[0], widths[0], offsets[0], prior))
    assert small == one_interval(2, exposures[1], widths[1], offsets[1], prior)


def test_quadrature_result_round_trips_through_fit_json(tmp_path, capsys):
    ds, grid, _ = routing_dataset()
    csv_path = tmp_path / "ds.csv"
    write_dataset_csv(ds, csv_path)
    grid_args = ["--input", str(csv_path), "--grid-cuts", "1.0", "--t-final", "2.0"]
    assert main(["fit", *grid_args, "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "fit.json").read_text())
    restored = FitResult.from_dict(payload["fit"])
    assert json.loads(json.dumps(restored.to_dict())) == payload["fit"]
    assert payload["fit"]["baseline"][0]["log_weights"] == []
    assert restored.baseline == fit(ds, grid).baseline

    capsys.readouterr()
    assert main(["baseline", *grid_args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "interval,up_to,mean,variance"
    assert [line.split(",")[:2] for line in lines[1:]] == [["1", "1.0"], ["2", "2.0"]]
    assert float(lines[1].split(",")[2]) == posteriors(restored.baseline)[0][0].mean
