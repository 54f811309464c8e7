#!/usr/bin/env python3
"""addhaz benchmark: closed-loop runs of the command line, one client.

Run from the repository root:

    python3 bench/run.py --workload fit_50k --seed 0 --seconds 32 --trace 0

Each operation is one in-process ``addhaz.cli.main(argv)`` call, and the
next starts only when the previous one returns.  Every operation's output
files are checked against reference.json.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports per-layer metrics from traced
operations, which wrap the package's functions from outside.  The last
line of standard output is one JSON object; a fuller record (quartiles,
input seeds, environment fingerprint, spans) goes to bench/out/.  See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_FILE = BENCH_DIR / "reference.json"

# Every input is drawn from a bank of INPUT_BANK seeds whose reported
# summaries are stored in reference.json; operation i of a run with
# --seed s uses bank seed (s + i) % INPUT_BANK.
INPUT_BANK = 32
# Output check: |got - want| <= RTOL * max(|got|, |want|) + ATOL.  The
# acceptance tests hold the numerics to oracles at 1e-10 .. 1e-6 relative;
# 1e-8 leaves a 100x margin over the 1e-10 agreement asked of a future
# quadrature baseline path and still catches any change a test would.
# ATOL only matters for summaries that are exactly 0 (an HPD pinned at 0).
RTOL = 1e-8
ATOL = 1e-12
# fresh interpreters timed per run for setup_s
SETUP_REPEATS = 5

FIT_BETA = (0.5, 0.3, 0.2, 0.1)
FIT_CENSOR_RATE = 0.5


@dataclass(frozen=True)
class Workload:
    """One kind of operation; ``preset`` None means a fit of a generated CSV."""

    name: str
    preset: str | None = None
    rows: int = 50_000
    replicates: int | None = None  # None keeps the preset's count

    def prepare(self, seed: int, op_dir: Path) -> list[str]:
        """Write the operation's inputs into op_dir and return its argv."""
        out = str(op_dir / "out")
        if self.preset is None:
            csv_path = op_dir / "input.csv"
            write_fit_csv(csv_path, self.rows, seed)
            return ["fit", "--input", str(csv_path), "--out", out]
        argv = ["simulate", "--preset", self.preset, "--seed", str(seed), "--out", out]
        if self.replicates is not None:
            argv += ["--replicates", str(self.replicates)]
        return argv

    def summaries(self, op_dir: Path) -> dict[str, list[float]]:
        """The reported summaries the output check compares."""
        if self.preset is None:
            return fit_summaries(op_dir / "out")
        return cell_values(op_dir / "out")


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit_50k"),
        Workload("sim_table2", preset="table2"),
        Workload("sim_table4", preset="table4"),
    )
}


def write_fit_csv(path: Path, rows: int, seed: int) -> None:
    """Right-censored sample from the additive hazards model.

    Covariates are chi-squared(1), the baseline hazard is 1, so the event
    time is exponential with rate 1 + beta'z; censoring is exponential at
    FIT_CENSOR_RATE.  Drawn here, not by the package, so that a change to
    the package's generator cannot change the benchmark's input.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, len(FIT_BETA))) ** 2
    event_time = rng.exponential(size=rows) / (1.0 + z @ np.asarray(FIT_BETA))
    censor_time = rng.exponential(scale=1.0 / FIT_CENSOR_RATE, size=rows)
    times = np.minimum(event_time, censor_time)
    events = event_time <= censor_time
    lines = ["time,event," + ",".join(f"z{j + 1}" for j in range(len(FIT_BETA)))]
    for t, e, row in zip(times.tolist(), events.tolist(), z.tolist()):
        lines.append(",".join([repr(t), "1" if e else "0"] + [repr(v) for v in row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def fit_summaries(out: Path) -> dict[str, list[float]]:
    """Coefficient summaries and per-interval baseline moments of fit.json.

    Mixture internals (log_weights, shape_offsets) are left out, so a
    change of baseline algorithm that reports the same moments passes.
    """
    fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))["fit"]
    return {
        "beta_hat": fit["beta_hat"],
        "ly_beta": fit["ly_beta"],
        "sigma_hat": fit["sigma_hat"],
        "hpd": [v for pair in fit["hpd"] for v in pair],
        "baseline_mean": [p["mean"] for p in fit["baseline"]],
        "baseline_variance": [p["variance"] for p in fit["baseline"]],
    }


def cell_values(out: Path) -> dict[str, list[float]]:
    """Every numeric cell of cells.csv, row by row."""
    values = []
    with open(out / "cells.csv", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            for cell in row:
                try:
                    values.append(float(cell))
                except ValueError:  # row labels such as "reference,flat"
                    pass
    return {"cells": values}


def check(got: dict[str, list[float]], want: dict[str, list[float]]) -> list[str]:
    """Differences between two summary sets beyond the RTOL/ATOL tolerance."""
    problems = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if a is None or b is None or len(a) != len(b):
            problems.append(f"{key}: shape differs from the reference")
            continue
        for i, (x, y) in enumerate(zip(a, b)):
            if not (x == y or abs(x - y) <= RTOL * max(abs(x), abs(y)) + ATOL):
                problems.append(f"{key}[{i}] = {x!r}, reference {y!r}")
    return problems


def output_bytes(op_dir: Path) -> int:
    return sum(p.stat().st_size for p in (op_dir / "out").iterdir())


def import_cli():
    """addhaz.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "addhaz" / "cli.py").is_file():
        raise FileNotFoundError(f"no addhaz sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("addhaz.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "addhaz").resolve():
        raise ImportError(f"addhaz.cli was imported from {cli.__file__}")
    return cli


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "addhaz").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import addhaz.cli; print(time.perf_counter() - t)"
)


def time_import() -> float:
    """Seconds for a fresh interpreter to import addhaz.cli."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout.split()[-1])


def fingerprint() -> dict:
    """Software and machine description; reads settings, changes none."""
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    for package in (np, scipy):
        # show_config's layout is not a stable interface
        with contextlib.suppress(AttributeError, KeyError, TypeError):
            deps = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[package.__name__] = " ".join(
                str(deps.get(key)) for key in ("name", "version", "openblas configuration")
            )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
    }


def run_op(main: Callable, workload: Workload, seed: int, op_dir: Path):
    """One operation; returns (seconds, error or None, summaries)."""
    op_dir.mkdir()
    argv = workload.prepare(seed, op_dir)
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code
    except Exception:  # a raised operation counts as failed; the run goes on
        code = None
        error = traceback.format_exc(limit=-4)
    elapsed = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}"
    summaries = None
    if error is None:
        try:
            summaries = workload.summaries(op_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
    return elapsed, error, summaries


# ---------------------------------------------------------------- tracing


@dataclass(frozen=True)
class Target:
    """A function to wrap: its home module under addhaz, its name there
    (``Class.method`` for a method), its span name, and an optional counter
    function of (args, result)."""

    module: str
    name: str
    span: str
    count: Callable | None = None


def _poly_counts(args, result):
    n = result.degree  # one degree per factor multiplied in
    return {
        "poly_coeffs.calls": 1,
        "poly_coeffs.factors": n,
        "poly_coeffs.max_factors": n,
        "poly_coeffs.logaddexp_ops": n * (n - 1) // 2,
    }


def _study_counts(args, result):
    return {"simulate.replicates": args[0].replicates, "simulate.dropped": result.dropped}


TARGETS = (
    Target("dataio", "read_dataset_csv", "dataio.read", lambda a, r: {"dataio.rows": r[0].n}),
    Target("lin_ying", "compute_statistics", "lin_ying.stats", lambda a, r: {"lin_ying.calls": 1}),
    Target("lin_ying", "ly_solve", "lin_ying.solve"),
    Target("hybrid_beta", "pseudo_posterior", "hybrid_beta.posterior"),
    Target("hybrid_beta", "beta_mode", "hybrid_beta.mode"),
    Target("hybrid_beta", "hpd_interval", "hybrid_beta.hpd"),
    Target(
        "hybrid_beta",
        "_hpd_bulk",
        "hybrid_beta.hpd",
        lambda a, r: {"hybrid_beta.hpd_intervals": int(np.size(a[0]))},
    ),
    Target("poly_coeffs", "poly_from_factors", "poly_coeffs.poly", _poly_counts),
    Target("baseline_posterior", "interval_summaries", "baseline_posterior.summaries"),
    Target("baseline_posterior", "event_offsets_by_interval", "baseline_posterior.offsets"),
    Target(
        "baseline_posterior",
        "increment_posterior",
        "baseline_posterior.increment",
        lambda a, r: {"baseline_posterior.mixture_components": len(r.log_weights)},
    ),
    Target("data_model", "grid_from_quantiles", "data_model.grid"),
    Target("data_model", "FitResult.to_dict", "data_model.to_dict"),
    Target("fitting", "fit", "fitting.self"),
    Target("simulate", "run_beta_experiment", "simulate.self", _study_counts),
    Target("simulate", "run_baseline_experiment", "simulate.self", _study_counts),
    Target("cli", "main", "cli.self"),
)
MEMORY_TARGETS = tuple(t for t in TARGETS if t.module == "lin_ying")
SPANS = tuple(dict.fromkeys(t.span for t in TARGETS))
# counts that must repeat exactly for the same code and input
EXACT_COUNTS = (
    "dataio.rows",
    "lin_ying.calls",
    "hybrid_beta.hpd_intervals",
    "poly_coeffs.calls",
    "poly_coeffs.factors",
    "poly_coeffs.max_factors",
    "poly_coeffs.logaddexp_ops",
    "baseline_posterior.mixture_components",
    "simulate.replicates",
    "simulate.dropped",
    "cli.output_bytes",
)
MAX_COUNTS = {"poly_coeffs.max_factors"}
# counts derived from others rather than counted
COMPUTED = {"poly_coeffs.logaddexp_ops": "computed as the sum of N(N-1)/2"}


def install(targets, make_wrapper, warn) -> list:
    """Wrap each target at every addhaz module attribute bound to it.

    Modules import functions by name (simulate binds its own
    compute_statistics, cli its own _hpd_bulk), so wrapping only the home
    module would miss those calls.  A target that no longer exists gets a
    warning and is skipped.  Returns the undo list for ``uninstall``.
    """
    modules = [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "addhaz" or name.startswith("addhaz."))
    ]
    undo = []
    for target in targets:
        owner = sys.modules.get(f"addhaz.{target.module}")
        owner_name, _, attr = target.name.rpartition(".")
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            warn(f"trace: addhaz.{target.module}.{target.name} not found; it counts 0 calls")
            continue
        if owner_name:
            sites = [(owner, attr)]
        else:
            sites = [(m, key) for m in modules for key, v in vars(m).items() if v is original]
        wrapper = make_wrapper(target, original)
        for obj, key in sites:
            undo.append((obj, key, original))
            setattr(obj, key, wrapper)
    return undo


def uninstall(undo) -> None:
    for obj, key, original in reversed(undo):
        setattr(obj, key, original)


class Tracer:
    """Spans and counters of traced operations, held in memory.

    A span is (operation, span id, parent span id, name, start, end).  A
    span's self time is its duration minus the durations of its traced
    children; self times and counters are kept per operation.
    """

    def __init__(self, warn):
        self.warn = warn
        self.spans = []
        self.op = -1
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._bad_counters = set()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    def wrap(self, target: Target, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.self_time[target.span] += end - start - frame[1]
                tracer.spans.append((tracer.op, span_id, parent, target.span, start, end))
            if target.count is not None:
                tracer._add_counts(target, args, result)
            return result

        return traced

    def _add_counts(self, target: Target, args, result) -> None:
        try:
            counts = target.count(args, result)
        except (AttributeError, TypeError, IndexError, KeyError) as exc:
            if target not in self._bad_counters:
                self._bad_counters.add(target)
                self.warn(f"trace: cannot count {target.module}.{target.name}: {exc!r}")
            return
        for name, value in counts.items():
            if name in MAX_COUNTS:
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value


def peak_alloc_wrapper(peaks: list):
    """Wrapper factory recording the peak traced allocation of each call."""

    def make(target: Target, original):
        @functools.wraps(original)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    return make


# ---------------------------------------------------------------- runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fits(deadline: float, *timings: list[float]) -> bool:
    """Whether one more operation (or pair) is expected to end before the
    deadline, judged by the medians of the timings so far."""
    expected = sum(statistics.median(t) for t in timings)
    return time.perf_counter() + expected <= deadline


class Run:
    """One benchmark run: a closed loop of operations on a single workload."""

    def __init__(self, workload: Workload, seed: int, reference: dict, work: Path, warn):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.work = work
        self.warn = warn
        self.main_module = import_cli()
        self.attempted = 0
        self.failed = 0
        self.input_seeds = []
        self.last_output_bytes = 0

    def op(self, seed: int) -> float:
        """Run, check and clean up one operation; returns its seconds."""
        op_dir = self.work / f"op{self.attempted}"
        self.attempted += 1
        self.input_seeds.append(seed)
        # looked up per call, so a traced cli.main is the one called
        elapsed, error, got = run_op(self.main_module.main, self.workload, seed, op_dir)
        if error is None:
            want = self.reference.get(str(seed))
            problems = ["no reference"] if want is None else check(got, want)
            if problems:
                error = "output check failed: " + "; ".join(problems[:5])
        self.last_output_bytes = 0
        if error is not None:
            self.failed += 1
            self.warn(f"{self.workload.name} input seed {seed}: {error}")
        else:
            self.last_output_bytes = output_bytes(op_dir)
        shutil.rmtree(op_dir, ignore_errors=True)
        return elapsed

    def input_seed(self, i: int) -> int:
        return (self.seed + i) % INPUT_BANK

    def untraced(self, seconds: float) -> tuple[dict, dict]:
        """Operations until the deadline, with SETUP_REPEATS fresh-interpreter
        imports spread evenly over the same window, one at a time."""
        time_import()  # may compile bytecode; not counted
        setup, walls = [], []
        start = time.perf_counter()
        deadline = start + seconds
        while not walls or fits(deadline, walls):
            if time.perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS:
                setup.append(time_import())
            walls.append(self.op(self.input_seed(len(walls))))
        while len(setup) < SETUP_REPEATS:
            setup.append(time_import())
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        # The host's contention comes and goes within seconds and slows a
        # process by up to 1.9x, and the contended share of a 30 s window
        # changes from run to run.  A median tracks that share; the fastest
        # sample is the run's best estimate of the program's own cost, so
        # both gated times are minima.  The median wall time is printed as
        # wall_s.
        return {
            "setup_s": (min(setup), "s"),
            "wall_min_s": (min(walls), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }, {"setup_s": setup, "wall_s": walls}

    def traced_op(self, tracer: Tracer, op: int, seed: int):
        tracer.begin_op(op)
        undo = install(TARGETS, tracer.wrap, self.warn)
        try:
            elapsed = self.op(seed)
        finally:
            uninstall(undo)
        counts = dict(tracer.counts)
        counts["cli.output_bytes"] = self.last_output_bytes
        return elapsed, dict(tracer.self_time), counts

    def traced(self, seconds: float) -> tuple[dict, dict, Tracer]:
        """Untraced and traced operations in pairs on the same inputs, then
        a repeat of the first traced input and a tracemalloc pass on it."""
        tracer = Tracer(self.warn)
        plain, traced, self_times, first_counts = [], [], [], None
        deadline = time.perf_counter() + seconds
        while not traced or fits(deadline, plain, traced):
            seed = self.input_seed(len(traced))
            plain.append(self.op(seed))
            elapsed, self_time, counts = self.traced_op(tracer, len(traced), seed)
            traced.append(elapsed)
            self_times.append(self_time)
            if first_counts is None:
                first_counts = counts
        _, _, repeat_counts = self.traced_op(tracer, len(traced), self.input_seed(0))
        mismatches = count_mismatches(first_counts, repeat_counts, self.warn)

        peaks = []
        undo = install(MEMORY_TARGETS, peak_alloc_wrapper(peaks), self.warn)
        try:
            self.op(self.input_seed(0))
        finally:
            uninstall(undo)

        metrics = {}
        for span in SPANS:
            per_op = [st.get(span, 0.0) for st in self_times]
            metrics[f"{span}_s"] = (statistics.median(per_op), "s")
        for name in EXACT_COUNTS:
            metrics[name] = (first_counts.get(name, 0), "count")
        metrics["lin_ying.peak_alloc_mb"] = (max(peaks, default=0) / 1e6, "MB")
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0,
            "ratio",
        )
        metrics["trace.count_mismatches"] = (mismatches, "count")
        samples = {"wall_s_untraced": plain, "wall_s_traced": traced}
        return metrics, samples, tracer


def count_mismatches(first: dict, second: dict, warn) -> int:
    """Exact counts that differ between two runs of the same input and code."""
    bad = 0
    for name in EXACT_COUNTS:
        a, b = first.get(name, 0), second.get(name, 0)
        if a != b:
            bad += 1
            warn(f"nondeterministic input: {name} was {a}, then {b}")
    return bad


def load_reference(workload: Workload) -> dict:
    data = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return data["workloads"][workload.name]


def execute(workload: Workload, seed: int, seconds: float, trace: bool, reference: dict, warn):
    """One run; returns (record, tracer or None).  ``record["result"]`` is
    the object printed last."""
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        run = Run(workload, seed, reference, work, warn)
        if trace:
            metrics, samples, tracer = run.traced(seconds)
        else:
            metrics, samples = run.untraced(seconds)
            tracer = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "input_seeds": run.input_seeds,
        "error_rate": run.failed / run.attempted,
        "samples": samples,
        "quartiles": {name: quartiles(v) for name, v in samples.items()},
        "fingerprint": fingerprint(),
        "code_sha256": code_hash(),
        "result": result,
    }
    return record, tracer


def compare_with_previous(record: dict, path: Path, warn) -> int:
    """Exact counts against an earlier traced run of the same seed and code."""
    try:
        previous = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return 0
    if previous.get("code_sha256") != record["code_sha256"]:
        return 0
    old = {k: v["value"] for k, v in previous["result"]["metrics"].items()}
    new = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    return count_mismatches(old, new, warn)


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for op, span_id, parent, name, start, end in tracer.spans:
            handle.write(json.dumps([op, span_id, parent, name, start, end]) + "\n")


def report(record: dict) -> None:
    """Human-readable lines, then the result object as the last line."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"input seeds {record['input_seeds']}")
    metrics = record["result"]["metrics"]
    for name, metric in metrics.items():
        value = metric["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        line = f"{name:<40} {shown} {metric['unit']}"
        if name in COMPUTED:
            line += f"  ({COMPUTED[name]})"
        print(line)
    for name, (q1, median, q3) in record["quartiles"].items():
        n = len(record["samples"][name])
        label = f"{name} samples"
        print(f"{label:<40} median {median:.6g} s  (p25 {q1:.6g}, p75 {q3:.6g}, n={n})")
    result = record["result"]
    print(f"{'error_rate':<40} {record['error_rate']:.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} operations failed)")
    print("fingerprint " + json.dumps(record["fingerprint"]))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    seen = set()

    def warn(message: str) -> None:
        if message not in seen:
            seen.add(message)
            print(message, file=sys.stderr)

    workload = WORKLOADS[args.workload]
    try:
        import_cli()
        reference = load_reference(workload)
    except (OSError, ImportError, ValueError, KeyError) as exc:
        warn(f"cannot run the benchmark here: {exc}")
        return 2
    record, tracer = execute(workload, args.seed, args.seconds, bool(args.trace), reference, warn)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result_path = OUT_DIR / f"{stem}.json"
    if tracer is not None:
        mismatches = compare_with_previous(record, result_path, warn)
        record["result"]["metrics"]["trace.count_mismatches"]["value"] += mismatches
        write_spans(tracer, OUT_DIR / f"{stem}.spans.jsonl")
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
