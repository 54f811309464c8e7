"""Monte Carlo harness: data generation and the two replication studies.

Event times follow the additive hazard lambda(t) = lambda0(t) + beta'z with
a piecewise-constant lambda0, sampled by exact inverse transform of the
cumulative hazard segment by segment.  Censoring is exponential.  Replicate
r of a study uses the dedicated substream seeded by (seed, r), so runs are
reproducible and independent of execution order.

Two studies are provided: a coefficient study that sweeps a grid of prior
means and variances over shared replicate datasets, and a baseline study
that estimates cumulative-hazard increments on a quantile-based grid for
several confidence weights c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .data_model import (
    BetaPrior,
    GammaProcessPrior,
    SurvivalDataset,
    TimeGrid,
    grid_from_quantiles,
)
from .baseline_posterior import (
    event_offsets_by_interval,
    increment_posteriors,
    interval_summaries,
)
from .errors import (
    DegenerateGrid,
    DimensionMismatch,
    ExcessiveReplicateDrops,
    NonNegativityViolation,
    SingularDesign,
)
from .fitting import DEFAULT_QUANTILES
from .hybrid_beta import beta_mode, hpd_interval, pseudo_posterior, sigma_hat
from .lin_ying import LYEstimate, compute_statistics, ly_solve

__all__ = [
    "PiecewiseConstantHazard",
    "SimConfig",
    "SimReport",
    "run_beta_experiment",
    "run_baseline_experiment",
]


@dataclass(frozen=True)
class PiecewiseConstantHazard:
    """Baseline hazard: levels[s] on [breaks[s-1], breaks[s]), last level
    extending to infinity.  Levels are >= 0 with a positive last level so
    the cumulative hazard diverges and event times stay finite."""

    levels: tuple[float, ...]
    breaks: tuple[float, ...] = ()

    def __post_init__(self):
        levels = tuple(float(v) for v in self.levels)
        breaks = tuple(float(v) for v in self.breaks)
        if len(levels) != len(breaks) + 1:
            raise DimensionMismatch("need exactly one more level than breaks")
        if any(not math.isfinite(v) or v < 0 for v in levels):
            raise NonNegativityViolation("hazard levels must be finite and >= 0")
        if levels[-1] <= 0:
            raise NonNegativityViolation("the last hazard level must be > 0")
        prev = 0.0
        for b in breaks:
            if not math.isfinite(b) or b <= prev:
                raise DegenerateGrid("breaks must be finite, positive, increasing")
            prev = b
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "breaks", breaks)


@dataclass(frozen=True)
class SimConfig:
    """Generator settings for one study; covariates are chi-squared(1)."""

    n: int
    replicates: int
    beta_true: tuple[float, ...]
    baseline: PiecewiseConstantHazard = PiecewiseConstantHazard((1.0,))
    censor_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.n, Integral) and isinstance(self.replicates, Integral)):
            raise DimensionMismatch("n and replicates must be integers")
        if self.n < 2 or self.replicates < 1:
            raise DimensionMismatch("need n >= 2 and at least one replicate")
        beta = tuple(float(b) for b in self.beta_true)
        if not beta or any(not math.isfinite(b) or b < 0 for b in beta):
            raise NonNegativityViolation("true coefficients must be finite, >= 0")
        if not (float(self.censor_rate) >= 0):
            raise NonNegativityViolation("censor_rate must be >= 0")
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise NonNegativityViolation("seed must be a nonnegative integer")
        object.__setattr__(self, "beta_true", beta)
        object.__setattr__(self, "censor_rate", float(self.censor_rate))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def k(self) -> int:
        return len(self.beta_true)


def _draw_event_times(
    offsets: np.ndarray, baseline: PiecewiseConstantHazard, rng: np.random.Generator
) -> np.ndarray:
    """Inverse-transform draws of T with hazard baseline(t) + offsets[i]."""
    exp_draws = rng.exponential(size=offsets.shape[0])
    lows = (0.0,) + baseline.breaks
    t = np.empty_like(exp_draws)
    remaining = exp_draws.copy()
    done = np.zeros(exp_draws.shape[0], dtype=bool)
    last = len(baseline.levels) - 1
    for s, level in enumerate(baseline.levels):
        h = level + offsets
        if s == last:
            idx = ~done
            t[idx] = lows[s] + remaining[idx] / h[idx]
            break
        cap = h * (lows[s + 1] - lows[s])
        land = ~done & (h > 0) & (remaining <= cap)
        t[land] = lows[s] + remaining[land] / h[land]
        done |= land
        remaining = np.where(done, remaining, remaining - cap)
    return t


def _draw_dataset(cfg: SimConfig, rng: np.random.Generator) -> SurvivalDataset:
    # chi-squared(1) covariates as squares of standard normal draws
    z = rng.standard_normal((cfg.n, cfg.k)) ** 2
    offsets = z @ np.asarray(cfg.beta_true)
    event_times = _draw_event_times(offsets, cfg.baseline, rng)
    if cfg.censor_rate > 0:
        censor_times = rng.exponential(scale=1.0 / cfg.censor_rate, size=cfg.n)
    else:
        censor_times = np.full(cfg.n, np.inf)
    times = np.minimum(event_times, censor_times)
    events = event_times <= censor_times
    return SurvivalDataset(times, events, z)


def _replicate_rng(cfg: SimConfig, replicate: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, replicate])


def _label(value) -> str:
    return value if isinstance(value, str) else f"{value:.6g}"


@dataclass(frozen=True)
class SimReport:
    """Aggregated study output as one labelled cell table.

    ``columns`` names the CSV columns; each entry of ``rows`` is a pair
    (labels, values) of plain Python str/int/float cells.  A coefficient
    study labels its cells (mu, omega, component) with values (mean
    estimate, mean sd proxy, Monte Carlo sd of the estimate), plus one
    ("reference", "flat", component) row per covariate for the flat-path
    estimate.  A baseline study labels its cells (c, interval) with values
    (mean increment, Monte Carlo sd of it, mean posterior sd).
    """

    n: int
    replicates: int
    dropped: int
    seed: int
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


def _check_replicates(cfg: SimConfig) -> None:
    # a Monte Carlo sd needs two replicates; SimConfig itself allows one
    if cfg.replicates < 2:
        raise DimensionMismatch("a study needs at least 2 replicates")


def _replicates(cfg: SimConfig):
    """Yield (dataset, estimating-equation solution) for each replicate.

    Replicate r draws from its own (seed, r) stream; the solution is None
    where V2 is singular, and the study drops that replicate.
    """
    for r in range(cfg.replicates):
        ds = _draw_dataset(cfg, _replicate_rng(cfg, r))
        try:
            estimate = ly_solve(compute_statistics(ds))
        except SingularDesign:
            estimate = None
        yield ds, estimate


def _check_drops(cfg: SimConfig, kept: int) -> int:
    """The number of dropped replicates; more than 1% aborts the study."""
    dropped = cfg.replicates - kept
    if dropped > 0.01 * cfg.replicates:
        raise ExcessiveReplicateDrops(
            f"{dropped} of {cfg.replicates} replicates dropped"
        )
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
    _check_replicates(cfg)
    mu_grid = tuple(float(v) for v in mu_grid)
    omega_grid = tuple(float(v) for v in omega_grid)
    if not mu_grid or not omega_grid:
        raise DimensionMismatch("prior grids must not be empty")
    if any(om <= 0 for om in omega_grid):
        raise NonNegativityViolation("prior variances must be > 0")
    priors = [[BetaPrior.isotropic(mu, om, cfg.k) for om in omega_grid] for mu in mu_grid]
    kept = [est for _, est in _replicates(cfg) if est is not None]
    dropped = _check_drops(cfg, len(kept))
    estimate = LYEstimate(np.array([e.m for e in kept]), np.array([e.d for e in kept]))

    def cells(labels, estimates, spreads):
        # per component of (r, k) arrays: mean estimate, mean sd proxy, Monte Carlo sd
        stats = np.stack(
            [estimates.mean(axis=0), spreads.mean(axis=0), estimates.std(axis=0, ddof=1)],
            axis=1,
        )
        return [(labels + (comp + 1,), tuple(v)) for comp, v in enumerate(stats.tolist())]

    rows = []
    for mu, row in zip(mu_grid, priors):
        for om, prior in zip(omega_grid, row):
            pp = pseudo_posterior(estimate, prior)
            rows += cells((mu, om), beta_mode(pp), sigma_hat(hpd_interval(pp, coverage)))
    ses = np.sqrt(np.diagonal(estimate.d, axis1=1, axis2=2))
    rows += cells(("reference", "flat"), estimate.m, ses)
    return SimReport(
        n=cfg.n,
        replicates=cfg.replicates,
        dropped=dropped,
        seed=cfg.seed,
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
    exposure).  Otherwise each replicate builds its own grid from the
    ``fitting.DEFAULT_QUANTILES`` of its uncensored times, with the final
    boundary at its largest observed time.  Coefficients are fitted per
    replicate under the nearly flat prior N(0.5, 1e8 I).  The report holds
    the posterior mean of each of the first len(alpha_increments)
    increments for every confidence weight in c_grid.
    """
    _check_replicates(cfg)
    c_grid = tuple(float(v) for v in c_grid)
    if not c_grid:
        raise NonNegativityViolation("confidence weights must be > 0")
    priors = [GammaProcessPrior(alpha_increments, c) for c in c_grid]
    n_intervals = priors[0].m
    if grid is not None:
        if grid.m < n_intervals:
            raise DimensionMismatch(
                "fixed grid has fewer intervals than reported increments"
            )
    elif len(DEFAULT_QUANTILES) < n_intervals:
        raise DimensionMismatch(
            "need at least as many quantile cuts as reported intervals"
        )
    beta_prior = BetaPrior.isotropic(0.5, 1e8, cfg.k)

    means = np.empty((cfg.replicates, len(c_grid), n_intervals))
    post_vars = np.empty_like(means)
    kept = 0
    for ds, est in _replicates(cfg):
        if est is None:
            continue
        bhat = beta_mode(pseudo_posterior(est, beta_prior))
        rep_grid = grid
        if grid is None:
            try:
                rep_grid = grid_from_quantiles(
                    ds, DEFAULT_QUANTILES, t_final=float(np.max(ds.times))
                )
            except DegenerateGrid:
                continue
            if len(rep_grid.cuts) < n_intervals:  # quantile cuts collapsed
                continue
        summaries = interval_summaries(ds, rep_grid)
        offsets = event_offsets_by_interval(ds, rep_grid, bhat)
        posts = increment_posteriors(
            summaries[:n_intervals], offsets[:n_intervals], priors
        )
        means[kept] = [[post.mean for post in row] for row in posts]
        post_vars[kept] = [[post.variance for post in row] for row in posts]
        kept += 1
    dropped = _check_drops(cfg, kept)
    means, post_vars = means[:kept], post_vars[:kept]
    stats = np.stack(
        [means.mean(axis=0), means.std(axis=0, ddof=1), np.sqrt(post_vars).mean(axis=0)],
        axis=-1,
    )
    return SimReport(
        n=cfg.n,
        replicates=cfg.replicates,
        dropped=dropped,
        seed=cfg.seed,
        columns=("c", "interval", "mean_increment", "mc_sd_increment", "mean_posterior_sd"),
        rows=tuple(
            ((c, j + 1), tuple(stats[ic, j].tolist()))
            for ic, c in enumerate(c_grid)
            for j in range(n_intervals)
        ),
    )
