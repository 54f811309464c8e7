"""Command line front end.

Subcommands: ``fit`` (coefficients plus baseline increments from a CSV
dataset), ``baseline`` (baseline increments only), ``simulate`` (Monte Carlo
studies, optionally from a named preset), and ``hpd`` (one truncated-normal
highest-density interval).  Success exits 0; a domain error exits with its
class's ``exit_code`` and a single-line JSON record on stderr.

The parser declares each setting's type and default once.  A ``--config``
file holds flat ``key = value`` lines keyed by the long flag names; its
values go through the flags' types and become parser defaults, as does a
preset, so a flag beats the file, which beats the preset, which beats
``ADDHAZ_SEED`` and the built-in defaults.
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
from .errors import AddhazError, DatasetFormatError, SingularCovariance
from .hybrid_beta import PseudoPosterior, hpd_interval, sigma_hat, significance_flag
from .simulate import SimConfig, run_baseline_experiment, run_beta_experiment

# the baseline presets share one fixed grid so every replicate estimates
# the same true increments (0.125, 0.175, 0.3, 0.55)
_BASELINE_PRESET = {"kind": "baseline", "grid_cuts": (0.125, 0.3, 0.6), "t_final": 1.15}
# each preset is a set of simulate defaults; "kind" names the study
PRESETS = {
    "table1": {"kind": "beta", "n": 100},
    "table2": {"kind": "beta", "n": 500},
    "table3": {**_BASELINE_PRESET, "n": 100},
    "table4": {**_BASELINE_PRESET, "n": 500},
}
BETA_MU_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 10.0)
BETA_OMEGA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 1000.0)
BASELINE_C_GRID = (10.0, 1.0, 0.1)
BASELINE_ALPHA_INCREMENTS = (5.0, 1.0, 0.3, 0.01)
# words a config file may give a switch such as orthant-qp
BOOLEAN_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in str(text).split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


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


def _run_fit(args, *, baseline_only: bool) -> int:
    if args.input is None:
        raise DatasetFormatError("--input is required")
    if args.cohort_transform:
        ds, names = dataio.read_transformed_cohort_csv(args.input)
    else:
        ds, names = dataio.read_dataset_csv(args.input, allow_signed=args.allow_signed_covariates)
    skip_baseline = not baseline_only and args.skip_baseline
    grid = gamma_prior = None
    if not skip_baseline:
        t_final = float(np.max(ds.times)) if args.t_final is None else args.t_final
        if args.grid_cuts is None:
            grid = grid_from_quantiles(ds, args.grid_quantiles, t_final)
        else:
            grid = TimeGrid(args.grid_cuts, t_final)
        at_cuts = grid.boundaries if args.alpha_at_cuts is None else args.alpha_at_cuts
        gamma_prior = GammaProcessPrior.from_shape(at_cuts, args.gamma_c)
    mu = args.prior_mu
    result = fitting.fit(
        ds,
        grid,
        beta_prior=BetaPrior.isotropic(mu[0] if len(mu) == 1 else mu, args.prior_omega, ds.k),
        gamma_prior=gamma_prior,
        coverage=args.coverage,
        orthant_qp=args.orthant_qp,
        skip_baseline=skip_baseline,
    )
    text = _fit_text(result, names, grid)
    sys.stdout.write(_baseline_csv(result, grid) if baseline_only else text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "coverage": args.coverage,
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


def _run_simulate(args) -> int:
    kind = args.kind
    if kind is None:
        if args.c_grid is not None or args.alpha_increments is not None:
            kind = "baseline"
        elif args.mu_grid is not None or args.omega_grid is not None:
            kind = "beta"
        else:
            raise DatasetFormatError(
                "choose --preset or pass prior grids for one study kind"
            )
    cfg = SimConfig(
        n=args.n,
        replicates=args.replicates,
        beta_true=args.beta_true,
        censor_rate=args.censor_rate,
        seed=args.seed,
    )
    if kind == "beta":
        report = run_beta_experiment(
            cfg,
            args.mu_grid or BETA_MU_GRID,
            args.omega_grid or BETA_OMEGA_GRID,
            coverage=args.coverage,
        )
    else:
        cuts, t_final = args.grid_cuts, args.t_final
        grid = None
        if cuts:
            if t_final is None:
                t_final = max(cuts)
                cuts = cuts[:-1]
            grid = TimeGrid(cuts=cuts, t_final=t_final)
        report = run_baseline_experiment(
            cfg,
            args.c_grid or BASELINE_C_GRID,
            args.alpha_increments or BASELINE_ALPHA_INCREMENTS,
            grid=grid,
        )
    table = report.to_table_text()
    sys.stdout.write(table)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "cells.csv").write_text(report.to_csv_text())
        (out_dir / "table.txt").write_text(table)
    return 0


def _run_hpd(args) -> int:
    mean, sd = args.mean, args.sd
    if mean is None or sd is None:
        raise DatasetFormatError("--mean and --sd are required")
    if not sd > 0:
        raise SingularCovariance("--sd must be > 0")
    marginal = PseudoPosterior(mean=np.array([mean]), cov=np.array([[sd * sd]]))
    interval = hpd_interval(marginal, args.coverage)
    record = {
        "lower": interval.lower.item(),
        "upper": interval.upper.item(),
        "coverage": args.coverage,
        "sigma_hat": sigma_hat(interval).item(),
        "significant": significance_flag(interval).item(),
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


def _build_parser():
    """The parser, and each subcommand's parser with its actions by dest."""
    parser = argparse.ArgumentParser(
        prog="addhaz",
        description="Additive hazards estimation with hybrid Bayesian inference",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    commands = {}

    def command(name, help):
        p = sub.add_parser(name, help=help)
        actions = {}
        commands[name] = (p, actions)

        def add(flag, **kwargs):
            action = p.add_argument(flag, **kwargs)
            actions[action.dest] = action

        add("--config", help="flat key = value settings file")
        add("--coverage", type=float, default=0.95, help="credible level (default %(default)s)")
        add("--out", help="directory for output files")
        return add

    for name in ("fit", "baseline"):
        add = command(name, f"{name} estimation from a CSV dataset")
        add("--input", help="dataset CSV (time,event,covariates...)")
        add("--grid-quantiles", type=_float_list, default=fitting.DEFAULT_QUANTILES)
        add("--grid-cuts", type=_float_list)
        add("--t-final", type=float)
        add("--prior-mu", type=_float_list, default=(1.0,))
        add("--prior-omega", type=float, default=fitting.DEFAULT_OMEGA)
        add("--alpha-at-cuts", type=_float_list)
        add("--gamma-c", type=float, default=fitting.DEFAULT_GAMMA_C)
        add("--orthant-qp", action="store_true", help="exact constrained mode")
        add("--allow-signed-covariates", action="store_true", help="accept negative covariates")
        add("--cohort-transform", action="store_true", help="transform raw AFE,YFE,EXP columns")
        if name == "fit":
            add("--skip-baseline", action="store_true", help="coefficient path only")

    add = command("simulate", "run a Monte Carlo study")
    add("--preset", choices=sorted(PRESETS), help="named study setup")
    add("--n", type=int, default=100)
    add("--replicates", type=int, default=1000)
    add("--seed", type=int, default=os.environ.get("ADDHAZ_SEED") or 0)
    add("--beta-true", type=_float_list, default=(0.5,))
    add("--censor-rate", type=float, default=0.5)
    add("--mu-grid", type=_float_list)
    add("--omega-grid", type=_float_list)
    add("--c-grid", type=_float_list)
    add("--alpha-increments", type=_float_list)
    add("--grid-cuts", type=_float_list)
    add("--t-final", type=float)
    commands["simulate"][0].set_defaults(kind=None)

    add = command("hpd", "truncated-normal highest density interval")
    add("--mean", type=float)
    add("--sd", type=float)
    return parser, commands


def _config_defaults(path, cmd: str, commands: dict) -> dict:
    """Settings of subcommand cmd from a config file, converted, by dest.

    A key that names a flag of another subcommand only is skipped, so one
    file can serve several subcommands; a key that names no flag, or a value
    the flag would reject, raises DatasetFormatError naming file:line.
    """
    actions = commands[cmd][1]
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        key, sep, text = (part.strip() for part in raw.split("#", 1)[0].partition("="))
        dest = key.replace("-", "_")
        if not (key or sep):
            continue
        if not (sep and any(dest in known for _, known in commands.values())):
            raise DatasetFormatError(f"{path}:{lineno}: unknown setting {key!r}")
        if dest not in actions:
            continue
        action = actions[dest]
        try:
            if action.nargs == 0:
                value = BOOLEAN_WORDS[text.lower()]
            else:
                value = text if action.type is None else action.type(text)
                if action.choices is not None and value not in action.choices:
                    raise ValueError(text)
        except (KeyError, ValueError, argparse.ArgumentTypeError):
            raise DatasetFormatError(f"{path}:{lineno}: bad value {text!r} for {key}") from None
        values[dest] = value
    return values


def _is_number_list(token: str) -> bool:
    try:
        return bool(_float_list(token))
    except argparse.ArgumentTypeError:
        return False


def _parse_args(argv) -> argparse.Namespace:
    """Flags over config-file values over preset values over defaults."""
    parser, commands = _build_parser()
    # argparse reads only plain negative decimals as values, so "--mean
    # -1e-3" would be two options; "--mean=-1e-3" is one
    valued = {
        a.option_strings[0] for _, acts in commands.values() for a in acts.values() if a.nargs != 0
    }
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in valued and _is_number_list(token):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = parser.parse_args(tokens)
    config = _config_defaults(args.config, args.cmd, commands) if args.config else {}
    preset = PRESETS.get(getattr(args, "preset", None) or config.get("preset"), {})
    commands[args.cmd][0].set_defaults(**{**preset, **config})
    return parser.parse_args(tokens)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        if args.cmd == "simulate":
            return _run_simulate(args)
        if args.cmd == "hpd":
            return _run_hpd(args)
        return _run_fit(args, baseline_only=args.cmd == "baseline")
    except AddhazError as exc:
        name, code, message = type(exc).__name__, exc.exit_code, str(exc)
    except OSError as exc:
        name, code, message = "IOError", 2, str(exc)
    sys.stderr.write(json.dumps({"error": name, "exit_code": code, "message": message}) + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
