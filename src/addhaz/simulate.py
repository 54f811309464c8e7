"""Monte Carlo harness: data generation and the two replication studies.

Event times follow the additive hazard lambda(t) = lambda0 + beta'z with the
unit baseline hazard lambda0 = 1 of the paper's simulation experiment, so
each is one Exp(1) draw over 1 + beta'z.  Censoring is exponential.  Replicate
r of a study uses the dedicated substream seeded by (seed, r), so runs are
reproducible and independent of execution order.  Replicates are drawn in
chunks, each validated once as one ``SurvivalDataset`` stack.

Two studies are provided: a coefficient study that sweeps a grid of prior
means and variances over shared replicate datasets, and a baseline study
that estimates cumulative-hazard increments on a quantile-based grid for
several confidence weights c, with one baseline stage call per chunk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .data_model import (
    DEFAULT_QUANTILES,
    BetaPrior,
    GammaProcessPrior,
    SurvivalDataset,
    TimeGrid,
    _finite,
    _reals,
    grid_from_quantiles,
)
from .baseline_posterior import increment_posteriors
from .errors import (
    DegenerateGrid,
    DimensionMismatch,
    ExcessiveReplicateDrops,
    NonNegativityViolation,
    OutOfRange,
)
from .hybrid_beta import beta_mode, hpd_interval, pseudo_posterior, sigma_hat
from .lin_ying import LYEstimate, _decompose, _solve, compute_statistics

__all__ = [
    "SimConfig",
    "SimReport",
    "run_beta_experiment",
    "run_baseline_experiment",
]

# rows per chunk of replicates, drawn, validated and solved together
_CHUNK_ROWS = 2**13


@dataclass(frozen=True)
class SimConfig:
    """Generator settings for one study; covariates are chi-squared(1)."""

    n: int
    replicates: int
    beta_true: tuple[float, ...]
    censor_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.n, Integral) and isinstance(self.replicates, Integral)):
            raise DimensionMismatch("n and replicates must be integers")
        # a Monte Carlo sd needs two replicates
        if self.n < 2 or self.replicates < 2:
            raise DimensionMismatch("a study needs n >= 2 and at least 2 replicates")
        beta = _reals(self.beta_true, "true coefficients", 1)
        if not beta.size:
            raise DimensionMismatch("at least one true coefficient is required")
        _finite(beta, "true coefficients")
        censor_rate = float(_finite(_reals(self.censor_rate, "censor_rate", 0), "censor_rate"))
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise NonNegativityViolation("seed must be a nonnegative integer")
        object.__setattr__(self, "beta_true", tuple(beta.tolist()))
        object.__setattr__(self, "censor_rate", censor_rate)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def k(self) -> int:
        return len(self.beta_true)


def _event_times(draws: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Times of constant hazard 1 + offsets (the unit baseline hazard) from
    Exp(1) draws, each over its rate, in place: returns ``draws``, and
    ``offsets`` changes too."""
    offsets += 1.0
    draws /= offsets
    return draws


def _label(value) -> str:
    return value if isinstance(value, str) else f"{value:.6g}"


@dataclass(frozen=True)
class SimReport:
    """Study output: the ``dropped`` replicate count and one labelled cell table.

    ``columns`` names the CSV columns; each entry of ``rows`` is a pair
    (labels, values) of plain Python str/int/float cells.  A coefficient
    study labels its cells (mu, omega, component) with values (mean
    estimate, mean sd proxy, Monte Carlo sd of the estimate), plus one
    ("reference", "flat", component) row per covariate for the flat-path
    estimate.  A baseline study labels its cells (c, interval) with values
    (mean increment, Monte Carlo sd of it, mean posterior sd).
    """

    dropped: int
    columns: tuple[str, ...]
    rows: tuple[tuple[tuple, tuple], ...]

    def to_csv_text(self) -> str:
        """Full-precision CSV, one row per report cell."""
        lines = [",".join(self.columns)]
        for labels, values in self.rows:
            lines.append(
                ",".join(v if isinstance(v, str) else repr(v) for v in labels + values)
            )
        return "\n".join(lines) + "\n"

    def to_table_text(self) -> str:
        """Aligned text table, 6 significant digits.

        The first label runs down, the second across, and each cell reads
        "mean (sd)" from the first two values; the first row seen for a
        pair of labels wins, so a coefficient study shows component 1.
        """
        down, across, cells = {}, {}, {}
        for labels, values in self.rows:
            down.setdefault(labels[0])
            across.setdefault(labels[1])
            cells.setdefault(labels[:2], f"{values[0]:.6g} ({values[1]:.6g})")
        rows = [[f"{self.columns[0]} \\ {self.columns[1]}"] + [_label(b) for b in across]]
        for a in down:
            rows.append([_label(a)] + [cells.get((a, b), "") for b in across])
        widths = [max(len(r[col]) for r in rows) for col in range(len(rows[0]))]
        out = []
        for r in rows:
            out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        return "\n".join(out) + "\n"


def _draw_chunk(cfg: SimConfig, start: int, count: int) -> SurvivalDataset:
    """Replicates start, ..., start + count - 1 as one validated stack of
    datasets.  Each fills its rows from its own (seed, r) stream; the
    transforms then run once over the chunk, in place."""
    z = np.empty((count, cfg.n, cfg.k))
    times = np.empty((count, cfg.n))
    censor = np.full((count, cfg.n), np.inf)
    for i in range(count):
        rng = np.random.default_rng([cfg.seed, start + i])
        rng.standard_normal(out=z[i])
        rng.standard_exponential(out=times[i])
        if cfg.censor_rate > 0:
            rng.standard_exponential(out=censor[i])
    np.square(z, out=z)  # chi-squared(1) covariates
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = z @ np.asarray(cfg.beta_true)
    if not np.all(np.isfinite(offsets)):
        raise OutOfRange("beta'z overflows")
    _event_times(times, offsets)
    del offsets
    if cfg.censor_rate > 0:
        censor *= 1.0 / cfg.censor_rate  # what Generator.exponential(scale) computes
    events = times <= censor
    np.minimum(times, censor, out=times)
    del censor
    return SurvivalDataset(times, events, z)


def _chunks(cfg: SimConfig):
    """Yield (chunk, estimate) per chunk of max(1, _CHUNK_ROWS // n)
    replicates: the stack of those whose V2 is nonsingular, and their
    estimating-equation solutions stacked; the study drops the others.
    A chunk that drops none is yielded as drawn, not copied."""
    size = max(1, _CHUNK_ROWS // cfg.n)
    for start in range(0, cfg.replicates, size):
        chunk = _draw_chunk(cfg, start, min(size, cfg.replicates - start))
        r, k = len(chunk.times), cfg.k
        v1, v2, v3 = np.empty((r, k)), np.empty((r, k, k)), np.empty((r, k, k))
        for i in range(r):
            stats = compute_statistics(chunk[i])
            v1[i], v2[i], v3[i] = stats.v1, stats.v2, stats.v3
        eigs, vecs, singular = _decompose(v2)
        if singular.any():
            keep = ~singular
            chunk, v1, v3, eigs, vecs = chunk[keep], v1[keep], v3[keep], eigs[keep], vecs[keep]
        if eigs.size:
            yield chunk, _solve(v1, v3, cfg.n, eigs, vecs)


def _cell_stats(estimates, spreads, axis: int) -> np.ndarray:
    """Mean estimate, mean spread and Monte Carlo sd of the estimates over
    the replicate axis, stacked first; raises OutOfRange unless all finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        stats = np.array([estimates.mean(axis), spreads.mean(axis), estimates.std(axis, ddof=1)])
    if not np.all(np.isfinite(stats)):
        raise OutOfRange("a study cell statistic is not finite")
    return stats


def _check_drops(cfg: SimConfig, kept: int) -> int:
    """The number of dropped replicates; more than 1% aborts the study."""
    dropped = cfg.replicates - kept
    if dropped > 0.01 * cfg.replicates:
        raise ExcessiveReplicateDrops(f"{dropped} of {cfg.replicates} replicates dropped")
    return dropped


def run_beta_experiment(
    cfg: SimConfig,
    mu_grid,
    omega_grid,
    *,
    coverage: float = 0.95,
) -> SimReport:
    """Sweep isotropic priors N(mu * 1, omega * I) over shared replicates.

    Every grid cell reuses the same replicate datasets, so columns differ
    only through the prior.  Replicates with a singular design are dropped;
    more than 1% of drops aborts the study.
    """
    grids = _reals(mu_grid, "prior means", 1), _reals(omega_grid, "prior variances", 1)
    cells = list(itertools.product(*(grid.tolist() for grid in grids)))
    if not cells:
        raise DimensionMismatch("prior grids must not be empty")
    # every cell's prior N(mu * 1, omega * I) in one (cells, 1, k) stack
    mu, omega = np.array(cells).T[:, :, None]
    prior = BetaPrior.isotropic(mu[..., None], omega, cfg.k)
    kept = [est for _, est in _chunks(cfg)]
    dropped = _check_drops(cfg, sum(len(est.m) for est in kept))
    estimate = LYEstimate(np.concatenate([e.m for e in kept]), np.concatenate([e.d for e in kept]))

    # (cells + 1, r, k): one mode and one HPD call, then the flat-path reference
    pp = pseudo_posterior(estimate, prior)
    modes = np.concatenate([beta_mode(pp), estimate.m[None]])
    ses = np.sqrt(np.diagonal(estimate.d, axis1=1, axis2=2))
    spreads = np.concatenate([sigma_hat(hpd_interval(pp, coverage)), ses[None]])
    stats = _cell_stats(modes, spreads, axis=1)
    rows = [
        (labels + (comp + 1,), tuple(stats[:, cell, comp].tolist()))
        for cell, labels in enumerate(cells + [("reference", "flat")])
        for comp in range(cfg.k)
    ]
    return SimReport(
        dropped=dropped,
        columns=("mu", "omega", "component", "mean_estimate", "mean_sigma_hat", "mc_sd_estimate"),
        rows=tuple(rows),
    )


def run_baseline_experiment(
    cfg: SimConfig,
    c_grid,
    alpha_increments,
    *,
    grid: TimeGrid | None = None,
) -> SimReport:
    """Estimate cumulative-hazard increments over replicated datasets.

    With ``grid`` given, every replicate shares that fixed grid, so each
    interval has one true increment across the whole study and estimation
    is truncated at the grid's t_F (observations beyond it only add
    exposure).  Otherwise each replicate builds its own default grid,
    ``grid_from_quantiles(ds)``, and a replicate whose grid has fewer
    intervals than len(alpha_increments) is dropped.  Coefficients are
    fitted per replicate under the nearly flat prior N(0.5, 1e8 I).  The
    report holds the posterior mean of each of the first
    len(alpha_increments) increments for every confidence weight in c_grid.
    """
    prior = GammaProcessPrior(alpha_increments, _reals(c_grid, "confidence weights", 1))
    m = prior.m
    if (grid.m if grid is not None else len(DEFAULT_QUANTILES) + 1) < m:
        raise DimensionMismatch("the grid has fewer intervals than reported increments")
    beta_prior = BetaPrior.isotropic(0.5, 1e8, cfg.k)

    means = np.empty((cfg.replicates, prior.c.size, m))
    post_vars = np.empty_like(means)
    kept = 0
    for chunk, est in _chunks(cfg):
        betas = beta_mode(pseudo_posterior(est, beta_prior))
        keep = np.ones(len(betas), dtype=bool)
        bounds = grid.boundaries if grid is not None else []
        if grid is None:  # each replicate's own grid, kept if it has m intervals
            for i in range(len(betas)):
                try:
                    rep_grid = grid_from_quantiles(chunk[i])
                except DegenerateGrid:
                    rep_grid = None
                keep[i] = rep_grid is not None and rep_grid.m >= m  # else its cuts collapsed
                if keep[i]:
                    bounds.append(rep_grid.boundaries[:m])
        if keep.any():
            r = int(keep.sum())
            if r < len(betas):
                chunk, betas = chunk[keep], betas[keep]
            posts = increment_posteriors(chunk, bounds, betas, prior)
            for out, moment in ((means, posts.mean), (post_vars, posts.variance)):
                out[kept : kept + r] = moment.reshape(-1, r, m).swapaxes(0, 1)
            kept += r
    dropped = _check_drops(cfg, kept)
    mean, post_sd, mc_sd = _cell_stats(means[:kept], np.sqrt(post_vars[:kept]), axis=0)
    stats = np.stack([mean, mc_sd, post_sd], axis=-1)
    return SimReport(
        dropped=dropped,
        columns=("c", "interval", "mean_increment", "mc_sd_increment", "mean_posterior_sd"),
        rows=tuple(
            ((c, j + 1), tuple(stats[ic, j].tolist()))
            for ic, c in enumerate(prior.c.tolist())
            for j in range(m)
        ),
    )
