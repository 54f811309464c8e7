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
    "draw_event_time",
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
        if self.n < 2 or self.replicates < 1:
            raise DimensionMismatch("need n >= 2 and at least one replicate")
        beta = tuple(float(b) for b in self.beta_true)
        if not beta or any(not math.isfinite(b) or b < 0 for b in beta):
            raise NonNegativityViolation("true coefficients must be finite, >= 0")
        if not (float(self.censor_rate) >= 0):
            raise NonNegativityViolation("censor_rate must be >= 0")
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")
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


def draw_event_time(
    z, beta, baseline: PiecewiseConstantHazard, rng: np.random.Generator
) -> float:
    """One event time for covariates z under coefficients beta."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if z.shape != beta.shape:
        raise DimensionMismatch("z and beta dimensions disagree")
    if np.any(z < 0) or np.any(beta < 0):
        raise NonNegativityViolation("z and beta must be >= 0")
    offset = float(z @ beta)
    return float(_draw_event_times(np.array([offset]), baseline, rng)[0])


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


def _collect_ly_replicates(cfg: SimConfig):
    """Per-replicate estimating-equation solutions and sandwich matrices."""
    kept_m, kept_d, dropped = [], [], 0
    for r in range(cfg.replicates):
        rng = _replicate_rng(cfg, r)
        ds = _draw_dataset(cfg, rng)
        try:
            est = ly_solve(compute_statistics(ds))
        except SingularDesign:
            dropped += 1
            continue
        kept_m.append(est.m)
        kept_d.append(est.d)
    if dropped > 0.01 * cfg.replicates:
        raise ExcessiveReplicateDrops(
            f"{dropped} of {cfg.replicates} replicates dropped"
        )
    return LYEstimate(np.asarray(kept_m), np.asarray(kept_d)), dropped


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
    k = cfg.k
    priors = [[BetaPrior.isotropic(mu, om, k) for om in omega_grid] for mu in mu_grid]
    estimate, dropped = _collect_ly_replicates(cfg)
    ses = np.sqrt(np.diagonal(estimate.d, axis1=1, axis2=2))

    # per cell and component: mean estimate, mean sd proxy, Monte Carlo sd
    stats = np.empty((len(mu_grid), len(omega_grid), k, 3))
    for i, row in enumerate(priors):
        for j, prior in enumerate(row):
            pp = pseudo_posterior(estimate, prior)
            estimates = beta_mode(pp)
            stats[i, j, :, 0] = estimates.mean(axis=0)
            stats[i, j, :, 2] = estimates.std(axis=0, ddof=1)
            for comp in range(k):
                stats[i, j, comp, 1] = np.mean(sigma_hat(hpd_interval(pp, comp, coverage)))
    reference = np.stack(
        [estimate.m.mean(axis=0), ses.mean(axis=0), estimate.m.std(axis=0, ddof=1)], axis=1
    )
    rows = [
        ((mu, om, comp + 1), tuple(stats[i, j, comp].tolist()))
        for i, mu in enumerate(mu_grid)
        for j, om in enumerate(omega_grid)
        for comp in range(k)
    ]
    rows += [
        (("reference", "flat", comp + 1), tuple(reference[comp].tolist()))
        for comp in range(k)
    ]
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
    alpha_increments = tuple(float(a) for a in alpha_increments)
    if not c_grid or any(c <= 0 for c in c_grid):
        raise NonNegativityViolation("confidence weights must be > 0")
    if any(a < 0 for a in alpha_increments):
        raise NonNegativityViolation("prior shape increments must be >= 0")
    n_intervals = len(alpha_increments)
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
    keep = np.zeros(cfg.replicates, dtype=bool)
    dropped = 0
    for r in range(cfg.replicates):
        rng = _replicate_rng(cfg, r)
        ds = _draw_dataset(cfg, rng)
        try:
            est = ly_solve(compute_statistics(ds))
            bhat = beta_mode(pseudo_posterior(est, beta_prior))
            if grid is None:
                rep_grid = grid_from_quantiles(
                    ds, DEFAULT_QUANTILES, t_final=float(np.max(ds.times))
                )
                if len(rep_grid.cuts) < n_intervals:
                    raise DegenerateGrid("quantile cuts collapsed")
            else:
                rep_grid = grid
        except (SingularDesign, DegenerateGrid):
            dropped += 1
            continue
        summaries = interval_summaries(ds, rep_grid)
        offsets = event_offsets_by_interval(ds, rep_grid, bhat)
        trailing = [0.0] * (rep_grid.m - n_intervals)
        priors = [
            GammaProcessPrior.from_increments(list(alpha_increments) + trailing, c)
            for c in c_grid
        ]
        posts = increment_posteriors(
            summaries[:n_intervals], offsets[:n_intervals], priors
        )
        means[r] = [[post.mean for post in row] for row in posts]
        post_vars[r] = [[post.variance for post in row] for row in posts]
        keep[r] = True
    if dropped > 0.01 * cfg.replicates:
        raise ExcessiveReplicateDrops(
            f"{dropped} of {cfg.replicates} replicates dropped"
        )
    means = means[keep]
    stats = np.stack(
        [means.mean(axis=0), means.std(axis=0, ddof=1), np.sqrt(post_vars[keep]).mean(axis=0)],
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
