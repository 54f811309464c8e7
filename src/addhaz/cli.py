"""Command line front end.

Subcommands: ``fit`` (coefficients plus baseline increments from a CSV
dataset), ``baseline`` (baseline increments only), ``simulate`` (Monte Carlo
studies, optionally from a named preset), and ``hpd`` (one truncated-normal
highest-density interval).  Success always exits 0; every documented error
class maps to a fixed nonzero exit code and a single-line JSON record on
stderr.  Flags override config-file values, which override defaults; the
config file is flat ``key = value`` text keyed by the long flag names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio, fitting
from .data_model import BetaPrior, GammaProcessPrior, TimeGrid, grid_from_quantiles
from .errors import (
    AddhazError,
    DatasetFormatError,
    DegenerateGrid,
    DimensionMismatch,
    EmptyRiskSet,
    ExcessiveReplicateDrops,
    ImproperPosterior,
    InvalidCoverage,
    NoEvents,
    NonNegativityViolation,
    OutOfRange,
    SingularCovariance,
    SingularDesign,
)
from .hybrid_beta import PseudoPosterior, hpd_interval, sigma_hat, significance_flag
from .simulate import PiecewiseConstantHazard, SimConfig, run_baseline_experiment, run_beta_experiment

EXIT_CODES = {
    NonNegativityViolation: 10,
    DimensionMismatch: 11,
    NoEvents: 12,
    DegenerateGrid: 13,
    OutOfRange: 14,
    EmptyRiskSet: 15,
    SingularDesign: 16,
    SingularCovariance: 17,
    ImproperPosterior: 18,
    InvalidCoverage: 19,
    ExcessiveReplicateDrops: 20,
    DatasetFormatError: 21,
}

# the baseline presets share one fixed grid so every replicate estimates
# the same true increments (0.125, 0.175, 0.3, 0.55)
BASELINE_GRID_CUTS = (0.125, 0.3, 0.6)
BASELINE_T_FINAL = 1.15
PRESETS = {
    "table1": {"kind": "beta", "n": 100},
    "table2": {"kind": "beta", "n": 500},
    "table3": {
        "kind": "baseline",
        "n": 100,
        "grid_cuts": BASELINE_GRID_CUTS,
        "t_final": BASELINE_T_FINAL,
    },
    "table4": {
        "kind": "baseline",
        "n": 500,
        "grid_cuts": BASELINE_GRID_CUTS,
        "t_final": BASELINE_T_FINAL,
    },
}
BETA_MU_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 10.0)
BETA_OMEGA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 1000.0)
BASELINE_C_GRID = (10.0, 1.0, 0.1)
BASELINE_ALPHA_INCREMENTS = (5.0, 1.0, 0.3, 0.01)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in str(text).split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _read_config(path) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DatasetFormatError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _setting(args, config: dict, name: str, parse, default=None):
    """Flag value if given, else config-file value, else default."""
    cli_value = getattr(args, name, None)
    if cli_value is not None:
        return cli_value
    if name in config:
        return parse(config[name])
    return default


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _load_dataset(args, config):
    path = _setting(args, config, "input", str)
    if path is None:
        raise DatasetFormatError("--input is required")
    if _setting(args, config, "cohort_transform", _parse_bool, False):
        return dataio.read_transformed_cohort_csv(path)
    allow = _setting(args, config, "allow_signed_covariates", _parse_bool, False)
    return dataio.read_dataset_csv(path, allow_signed=allow)


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    return str(text).strip().lower() in ("1", "true", "yes", "on")


def _resolve_grid(args, config, ds):
    cuts = _setting(args, config, "grid_cuts", _float_list)
    t_final = _setting(args, config, "t_final", float)
    if t_final is None:
        t_final = float(np.max(ds.times))
    if cuts is not None:
        return TimeGrid(tuple(cuts), t_final)
    probs = _setting(
        args, config, "grid_quantiles", _float_list, fitting.DEFAULT_QUANTILES
    )
    return grid_from_quantiles(ds, probs, t_final)


def _resolve_beta_prior(args, config, k: int) -> BetaPrior:
    mu = _setting(args, config, "prior_mu", _float_list, (1.0,))
    omega = _setting(args, config, "prior_omega", float, fitting.DEFAULT_OMEGA)
    return BetaPrior.isotropic(mu[0] if len(mu) == 1 else mu, omega, k)


def _resolve_gamma_prior(args, config, grid: TimeGrid) -> GammaProcessPrior:
    c = _setting(args, config, "gamma_c", float, fitting.DEFAULT_GAMMA_C)
    at_cuts = _setting(args, config, "alpha_at_cuts", _float_list)
    if at_cuts is None:
        at_cuts = grid.boundaries
    if len(at_cuts) != grid.m:
        raise DimensionMismatch(
            f"--alpha-at-cuts needs one value per interval boundary ({grid.m})"
        )
    return GammaProcessPrior(tuple(at_cuts), c)


def _seed(args, config) -> int:
    value = _setting(args, config, "seed", int)
    if value is not None:
        return int(value)
    env = os.environ.get("ADDHAZ_SEED")
    return int(env) if env else 0


def _fit_text(result, names, grid) -> str:
    lines = ["covariate        estimate   flat-est   sigma_hat  hpd_low    hpd_high   signif"]
    for i, name in enumerate(names):
        low, high = result.hpd[i]
        lines.append(
            f"{name[:15]:<15}  {_fmt(result.beta_hat[i]):<9}  {_fmt(result.ly_beta[i]):<9}"
            f"  {_fmt(result.sigma_hat[i]):<9}  {_fmt(low):<9}  {_fmt(high):<9}"
            f"  {'yes' if low > 0 else 'no'}"
        )
    if result.baseline:
        lines.append("")
        lines.append("interval  up_to      mean       sd")
        for post, bound in zip(result.baseline, grid.boundaries):
            lines.append(
                f"{post.interval:<8}  {_fmt(bound):<9}  {_fmt(post.mean):<9}"
                f"  {_fmt(math.sqrt(post.variance))}"
            )
    return "\n".join(lines) + "\n"


def _baseline_csv(result, grid) -> str:
    lines = ["interval,up_to,mean,variance"]
    for post, bound in zip(result.baseline, grid.boundaries):
        lines.append(f"{post.interval},{bound!r},{post.mean!r},{post.variance!r}")
    return "\n".join(lines) + "\n"


def _run_fit(args, config, *, baseline_only: bool) -> int:
    ds, names = _load_dataset(args, config)
    coverage = _setting(args, config, "coverage", float, 0.95)
    skip_baseline = not baseline_only and _setting(
        args, config, "skip_baseline", _parse_bool, False
    )
    grid = None if skip_baseline else _resolve_grid(args, config, ds)
    result = fitting.fit(
        ds,
        grid,
        beta_prior=_resolve_beta_prior(args, config, ds.k),
        gamma_prior=None if skip_baseline else _resolve_gamma_prior(args, config, grid),
        coverage=coverage,
        orthant_qp=_setting(args, config, "orthant_qp", _parse_bool, False),
        skip_baseline=skip_baseline,
    )
    out = _setting(args, config, "out", str)
    text = _fit_text(result, names, grid)
    if baseline_only:
        sys.stdout.write(_baseline_csv(result, grid))
    else:
        sys.stdout.write(text)
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "coverage": coverage,
            "grid": None
            if grid is None
            else {"cuts": list(grid.cuts), "t_final": grid.t_final},
            "fit": result.to_dict(),
        }
        (out_dir / "fit.json").write_text(json.dumps(payload, indent=2) + "\n")
        (out_dir / "fit.txt").write_text(text)
        if grid is not None:
            (out_dir / "baseline.csv").write_text(_baseline_csv(result, grid))
    return 0


def _run_simulate(args, config) -> int:
    preset = _setting(args, config, "preset", str)
    settings = dict(PRESETS.get(preset, {}))
    if preset is not None and not settings:
        raise DatasetFormatError(f"unknown preset {preset!r}")
    kind = settings.get("kind")
    mu_grid = _setting(args, config, "mu_grid", _float_list)
    omega_grid = _setting(args, config, "omega_grid", _float_list)
    c_grid = _setting(args, config, "c_grid", _float_list)
    alpha_inc = _setting(args, config, "alpha_increments", _float_list)
    if kind is None:
        if c_grid is not None or alpha_inc is not None:
            kind = "baseline"
        elif mu_grid is not None or omega_grid is not None:
            kind = "beta"
        else:
            raise DatasetFormatError(
                "choose --preset or pass prior grids for one study kind"
            )
    cfg = SimConfig(
        n=_setting(args, config, "n", int, settings.get("n", 100)),
        replicates=_setting(args, config, "replicates", int, 1000),
        beta_true=_setting(args, config, "beta_true", _float_list, (0.5,)),
        baseline=PiecewiseConstantHazard((1.0,)),
        censor_rate=_setting(args, config, "censor_rate", float, 0.5),
        seed=_seed(args, config),
    )
    if kind == "beta":
        report = run_beta_experiment(
            cfg,
            mu_grid or BETA_MU_GRID,
            omega_grid or BETA_OMEGA_GRID,
            coverage=_setting(args, config, "coverage", float, 0.95),
        )
    else:
        cuts = _setting(args, config, "grid_cuts", _float_list, settings.get("grid_cuts"))
        t_final = _setting(args, config, "t_final", float, settings.get("t_final"))
        grid = None
        if cuts:
            if t_final is None:
                t_final = max(cuts)
                cuts = cuts[:-1]
            grid = TimeGrid(cuts=cuts, t_final=t_final)
        report = run_baseline_experiment(
            cfg,
            c_grid or BASELINE_C_GRID,
            alpha_inc or BASELINE_ALPHA_INCREMENTS,
            grid=grid,
        )
    table = report.to_table_text()
    sys.stdout.write(table)
    out = _setting(args, config, "out", str)
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "cells.csv").write_text(report.to_csv_text())
        (out_dir / "table.txt").write_text(table)
    return 0


def _run_hpd(args, config) -> int:
    mean = _setting(args, config, "mean", float)
    sd = _setting(args, config, "sd", float)
    if mean is None or sd is None:
        raise DatasetFormatError("--mean and --sd are required")
    coverage = _setting(args, config, "coverage", float, 0.95)
    if not sd > 0:
        raise SingularCovariance("--sd must be > 0")
    marginal = PseudoPosterior(mean=np.array([mean]), cov=np.array([[sd * sd]]))
    interval = hpd_interval(marginal, 0, coverage)
    record = {
        "lower": interval.lower,
        "upper": interval.upper,
        "coverage": coverage,
        "sigma_hat": sigma_hat(interval),
        "significant": significance_flag(interval),
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addhaz",
        description="Additive hazards estimation with hybrid Bayesian inference",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value settings file")
        p.add_argument("--coverage", type=float, help="credible level (default 0.95)")
        p.add_argument("--out", help="directory for output files")

    for name in ("fit", "baseline"):
        p = sub.add_parser(name, help=f"{name} estimation from a CSV dataset")
        add_common(p)
        p.add_argument("--input", help="dataset CSV (time,event,covariates...)")
        p.add_argument("--grid-quantiles", type=_float_list, dest="grid_quantiles")
        p.add_argument("--grid-cuts", type=_float_list, dest="grid_cuts")
        p.add_argument("--t-final", type=float, dest="t_final")
        p.add_argument("--prior-mu", type=_float_list, dest="prior_mu")
        p.add_argument("--prior-omega", type=float, dest="prior_omega")
        p.add_argument("--alpha-at-cuts", type=_float_list, dest="alpha_at_cuts")
        p.add_argument("--gamma-c", type=float, dest="gamma_c")
        p.add_argument("--orthant-qp", action="store_const", const=True, dest="orthant_qp")
        p.add_argument(
            "--allow-signed-covariates",
            action="store_const",
            const=True,
            dest="allow_signed_covariates",
            help="accept negative covariates (flat-prior path only)",
        )
        p.add_argument(
            "--cohort-transform",
            action="store_const",
            const=True,
            dest="cohort_transform",
            help="input has raw AFE,YFE,EXP columns; apply standard transforms",
        )
        if name == "fit":
            p.add_argument(
                "--skip-baseline",
                action="store_const",
                const=True,
                dest="skip_baseline",
                help="coefficient path only (needed for signed covariates)",
            )

    p = sub.add_parser("simulate", help="run a Monte Carlo study")
    add_common(p)
    p.add_argument("--preset", choices=sorted(PRESETS), help="named study setup")
    p.add_argument("--n", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--beta-true", type=_float_list, dest="beta_true")
    p.add_argument("--censor-rate", type=float, dest="censor_rate")
    p.add_argument("--mu-grid", type=_float_list, dest="mu_grid")
    p.add_argument("--omega-grid", type=_float_list, dest="omega_grid")
    p.add_argument("--c-grid", type=_float_list, dest="c_grid")
    p.add_argument("--alpha-increments", type=_float_list, dest="alpha_increments")
    p.add_argument("--grid-cuts", type=_float_list, dest="grid_cuts")
    p.add_argument("--t-final", type=float, dest="t_final")

    p = sub.add_parser("hpd", help="truncated-normal highest density interval")
    add_common(p)
    p.add_argument("--mean", type=float)
    p.add_argument("--sd", type=float)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config) if args.config else {}
        if args.cmd in ("fit", "baseline"):
            return _run_fit(args, config, baseline_only=args.cmd == "baseline")
        if args.cmd == "simulate":
            return _run_simulate(args, config)
        return _run_hpd(args, config)
    except AddhazError as exc:
        code = EXIT_CODES.get(type(exc), 1)
        record = {"error": type(exc).__name__, "exit_code": code, "message": str(exc)}
        sys.stderr.write(json.dumps(record) + "\n")
        return code
    except OSError as exc:
        record = {"error": "IOError", "exit_code": 2, "message": str(exc)}
        sys.stderr.write(json.dumps(record) + "\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
