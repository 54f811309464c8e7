"""Calibration of the baseline stage against the model it assumes.

Each replicate draws the increments L_j ~ Gamma(c alpha_j, c) of its prior,
then data from the additive hazard L_j / w_j + beta'z on interval j, and
whole chunks of replicates go through the stage, which conditions on the
true beta.  Over replicates the posterior then averages back to the prior:
E[mean_j] = alpha_j and E[(L_j - mean_j)^2] = E[variance_j], each checked
as a z-score; on rows chosen by their data alone, such as those that took
the quadrature, E[L_j - mean_j] = 0 and the second identity hold as well.
On the exact path the rank of L_j among draws from its Gamma mixture is
uniform, checked by a chi-squared over 10 rank bins.  Seeds are fixed, and
the bounds |z| <= 4.5 and chi2_9 <= 40 are family-wise bounds for the module.
"""

import numpy as np

from addhaz.baseline_posterior import increment_posteriors
from addhaz.data_model import GammaProcessPrior, SurvivalDataset, TimeGrid

from oracles import draw_piecewise_times, interval_widths

Z_BOUND = 4.5
CHI2_BOUND = 40.0
RANKS = 10  # bins, from RANKS - 1 posterior draws a replicate


def run_study(seed, n, c, alphas, grid, beta, replicates, chunk):
    """(L, stages): the (replicates, m) true increments, and the stage of each
    chunk of replicates under the one prior Gamma(c alpha_j, c)."""
    rng = np.random.default_rng(seed)
    prior = GammaProcessPrior(alphas, c)
    widths = interval_widths(grid)
    truth = rng.gamma(c * prior.increments, 1.0 / c, size=(replicates, prior.m))
    stages = []
    for start in range(0, replicates, chunk):
        members = []  # (times, events, z) of each replicate
        for increments in truth[start : start + chunk]:
            z = rng.exponential(size=(n, len(beta)))
            event_times = draw_piecewise_times(increments / widths, grid.boundaries, z @ beta, rng)
            censor_times = rng.exponential(scale=4.0, size=n)
            members.append((np.minimum(event_times, censor_times), event_times <= censor_times, z))
        stack = SurvivalDataset(*map(np.array, zip(*members)))
        betas = np.tile(beta, (len(members), 1))
        stages.append(increment_posteriors(stack, grid.boundaries, betas, prior))
    return truth, stages


def z_score(values) -> float:
    return float(np.mean(values) / (np.std(values, ddof=1) / np.sqrt(len(values))))


def posterior_columns(stages, m):
    """(mean, variance, quadrature): (replicates, m) arrays of the first
    prior's moments, and True where the row took the quadrature."""
    return [
        np.concatenate([column(stage) for stage in stages]).reshape(-1, m)
        for column in (
            lambda stage: stage.mean[0],
            lambda stage: stage.variance[0],
            lambda stage: np.diff(stage.indptr[: stage.intervals.size + 1]) == 0,
        )
    ]


def check_moments(truth, mean, variance, center, rows):
    """|z| <= Z_BOUND for mean - center and (L - mean)^2 - variance over the
    chosen rows of each column: both have mean 0 when the center is the
    prior's alpha_j, or L itself on rows chosen by their data alone."""
    for j in range(truth.shape[1]):
        keep = rows[:, j]
        assert abs(z_score(mean[keep, j] - center[keep, j])) <= Z_BOUND, j
        squared = (truth[keep, j] - mean[keep, j]) ** 2
        assert abs(z_score(squared - variance[keep, j])) <= Z_BOUND, j


def mixture_draws(stage, size, rng):
    """(R, size) draws of each row's increment from its Gamma mixture under
    the first prior: a component by its weight, then a Gamma of its shape
    over the row's rate."""
    rows = stage.intervals.size
    starts, stops = stage.indptr[:rows], stage.indptr[1 : rows + 1]
    cumulative = np.cumsum(np.exp(stage.log_weights[: stops[-1]]))
    before = np.concatenate(([0.0], cumulative))[starts]
    total = cumulative[stops - 1] - before
    targets = before[:, None] + rng.random((rows, size)) * total[:, None]
    picked = np.searchsorted(cumulative, targets, side="right")
    picked = np.clip(picked, starts[:, None], stops[:, None] - 1)
    return rng.gamma(stage.shape_offsets[picked]) / stage.rate[0][:, None]


def test_exact_path_is_calibrated():
    grid = TimeGrid((0.5, 1.0), 1.5)
    alphas = (0.6, 0.4, 0.5)
    truth, stages = run_study(11, 60, 2.0, alphas, grid, np.array([0.5]), 2000, 64)
    mean, variance, quadrature = posterior_columns(stages, truth.shape[1])
    assert not quadrature.any()
    check_moments(truth, mean, variance, np.broadcast_to(alphas, truth.shape), ~quadrature)
    rng = np.random.default_rng(12)
    draws = np.concatenate([mixture_draws(stage, RANKS - 1, rng) for stage in stages])
    ranks = np.sum(draws < truth.reshape(-1, 1), axis=1).reshape(truth.shape)
    expected = truth.shape[0] / RANKS
    for j in range(truth.shape[1]):
        counts = np.bincount(ranks[:, j], minlength=RANKS)
        assert np.sum((counts - expected) ** 2 / expected) <= CHI2_BOUND, (j, counts)


def test_quadrature_path_is_calibrated():
    grid = TimeGrid((0.4,), 1.0)
    alphas = (1.0, 0.8)
    truth, stages = run_study(21, 6000, 0.05, alphas, grid, np.array([1.2]), 1000, 8)
    mean, variance, quadrature = posterior_columns(stages, truth.shape[1])
    # most rows hold over 1000 events; a large L_1 leaves few at risk after
    # it, and such rows, ruled by a prior of shape c alpha_j near 0.05, give
    # heavy-tailed terms, so the checks keep to the quadrature's rows
    assert quadrature.mean() >= 0.85
    check_moments(truth, mean, variance, truth, quadrature)


def test_the_sampler_draws_the_piecewise_hazard():
    # the sampler's own check: with a zero offset, the number of events in
    # interval j among those at risk is binomial with p_j = 1 - e^-(a_j w_j)
    rng = np.random.default_rng(31)
    levels, bounds = np.array([0.8, 0.2, 1.5]), np.array([0.5, 1.5, 2.0])
    times = draw_piecewise_times(levels, bounds, np.zeros(200_000), rng)
    at_risk = times.size
    for low, high, level in zip((0.0, 0.5, 1.5), bounds, levels):
        inside = int(np.sum((times > low) & (times <= high)))
        p = -np.expm1(-level * (high - low))
        assert abs(inside - at_risk * p) <= Z_BOUND * np.sqrt(at_risk * p * (1 - p))
        at_risk -= inside
