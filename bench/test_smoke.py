"""Smoke test of the benchmark at tiny sizes.

    python -m pytest -q bench/test_smoke.py

Covers the untraced, traced, output-check and fingerprint paths, and that
the tracer reaches the functions at every module that binds them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

TINY_FIT = bench.Workload("tiny_fit", rows=2000)
TINY_TABLE2 = bench.Workload("tiny_table2", preset="table2", replicates=5)
TINY_TABLE4 = bench.Workload("tiny_table4", preset="table4", replicates=5)
SEED = 3


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path / "out")


def reference_for(workload, tmp_path):
    cli = bench.import_cli()
    op_dir = Path(tempfile.mkdtemp(dir=tmp_path)) / "reference"
    _, error, summaries = bench.run_op(cli.main, workload, SEED, op_dir)
    assert error is None
    return {str(SEED): summaries}


def tiny_run(workload, trace, tmp_path, reference=None):
    """One run short enough for a single operation (or traced pair)."""
    warnings = []
    if reference is None:
        reference = reference_for(workload, tmp_path)
    record, tracer = bench.execute(workload, SEED, 0.001, trace, reference, warnings.append)
    return record, tracer, warnings


def metric_values(record):
    return {name: m["value"] for name, m in record["result"]["metrics"].items()}


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    record, tracer, warnings = tiny_run(TINY_FIT, False, tmp_path)
    result = record["result"]
    assert tracer is None and warnings == []
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    values = metric_values(record)
    assert set(values) == {"setup_s", "wall_min_s", "peak_rss_mb"}
    assert all(v > 0 for v in values.values())
    assert len(record["samples"]["setup_s"]) == bench.SETUP_REPEATS
    assert values["setup_s"] == min(record["samples"]["setup_s"])
    assert record["samples"]["wall_s"] == [values["wall_min_s"]]
    assert record["input_seeds"] == [SEED]
    assert set(record["fingerprint"]) == {"python", "numpy", "scipy", "nproc", "cpu", "blas"}


def test_traced_fit_reaches_every_binding_site(tmp_path):
    reference = reference_for(TINY_FIT, tmp_path)
    record, tracer, warnings = tiny_run(TINY_FIT, True, tmp_path, reference)
    assert warnings == []
    assert record["result"]["correct"]
    values = metric_values(record)
    intervals = len(reference[str(SEED)]["baseline_mean"])
    assert values["poly_coeffs.calls"] == intervals
    assert values["dataio.rows"] == 2000
    assert values["lin_ying.calls"] == 1
    assert values["hybrid_beta.hpd_intervals"] == len(bench.FIT_BETA)
    assert values["simulate.replicates"] == 0
    assert values["cli.output_bytes"] > 0
    assert values["lin_ying.peak_alloc_mb"] > 0
    assert values["trace.count_mismatches"] == 0
    assert values["poly_coeffs.logaddexp_ops"] > 0
    assert values["cli.self_s"] > 0 and values["fitting.self_s"] > 0
    # pair, repeat and memory pass; spans of traced operations only
    assert record["result"]["attempted"] == 4
    ops = {span[0] for span in tracer.spans}
    assert ops == {0, 1}
    span_ids = {span[1] for span in tracer.spans}
    assert all(span[2] is None or span[2] in span_ids for span in tracer.spans)


def test_traced_table2_bisects_and_builds_no_polynomial(tmp_path):
    record, _, warnings = tiny_run(TINY_TABLE2, True, tmp_path)
    assert warnings == []
    values = metric_values(record)
    assert values["hybrid_beta.hpd_intervals"] > 0
    assert values["poly_coeffs.calls"] == 0
    assert values["lin_ying.calls"] == 5
    assert values["simulate.replicates"] == 5


def test_traced_table4_builds_polynomials_and_bisects_nothing(tmp_path):
    record, _, warnings = tiny_run(TINY_TABLE4, True, tmp_path)
    assert warnings == []
    values = metric_values(record)
    assert values["hybrid_beta.hpd_intervals"] == 0
    assert values["poly_coeffs.calls"] == 5 * 4
    assert values["baseline_posterior.mixture_components"] > 0
    assert values["dataio.rows"] == 0


def test_tracing_leaves_the_package_unwrapped(tmp_path):
    tiny_run(TINY_TABLE2, True, tmp_path)
    lin_ying = sys.modules["addhaz.lin_ying"]
    simulate = sys.modules["addhaz.simulate"]
    assert simulate.compute_statistics is lin_ying.compute_statistics
    assert not hasattr(lin_ying.compute_statistics, "__wrapped__")


def test_output_check_counts_a_wrong_value_as_failed(tmp_path):
    reference = reference_for(TINY_FIT, tmp_path)
    wrong = json.loads(json.dumps(reference))
    wrong[str(SEED)]["beta_hat"][0] *= 1 + 1e-6
    record, _, warnings = tiny_run(TINY_FIT, False, tmp_path, wrong)
    result = record["result"]
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert record["error_rate"] == 1.0
    assert any("beta_hat[0]" in w for w in warnings)


def test_check_tolerance():
    want = {"x": [1.0, 0.0, 2.5]}
    assert bench.check({"x": [1.0 + 1e-12, 0.0, 2.5]}, want) == []
    assert bench.check({"x": [1.0 + 1e-6, 0.0, 2.5]}, want) != []
    assert bench.check({"x": [1.0, 1e-9, 2.5]}, want) != []
    assert bench.check({"x": [1.0, 0.0]}, want) != []
    assert bench.check({"x": [1.0, 0.0, float("nan")]}, want) != []


def test_missing_traced_name_warns_instead_of_failing():
    warnings = []
    undo = bench.install(
        [bench.Target("hybrid_beta", "no_such_function", "hybrid_beta.hpd")],
        lambda target, original: original,
        warnings.append,
    )
    assert undo == [] and len(warnings) == 1


def test_counts_compare_exactly():
    warnings = []
    assert bench.count_mismatches({"dataio.rows": 5}, {"dataio.rows": 5}, warnings.append) == 0
    assert bench.count_mismatches({"dataio.rows": 5}, {"dataio.rows": 6}, warnings.append) == 1
    assert "nondeterministic" in warnings[0]


def test_benchmark_json_lists_the_printed_metrics(tmp_path):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    untraced, _, _ = tiny_run(TINY_TABLE2, False, tmp_path)
    traced, _, _ = tiny_run(TINY_TABLE2, True, tmp_path)
    assert [m["name"] for m in spec["end_to_end"]] == list(metric_values(untraced))
    assert [m["name"] for m in spec["per_layer"]] == list(metric_values(traced))


def test_refuses_to_run_without_the_package(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(bench.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit_50k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
