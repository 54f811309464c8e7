"""End-to-end command line checks: outputs, config precedence, exit codes."""

import csv
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import addhaz
from addhaz import dataio
from addhaz.baseline_posterior import EXACT_MAX_FACTORS
from addhaz.cli import main
from addhaz.data_model import FitResult, SurvivalDataset
from addhaz.errors import AddhazError
from addhaz.simulate import SimConfig, _draw_chunk
from oracles import write_dataset_csv


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_dataset(path, n=60, seed=9, k=2):
    cfg = SimConfig(n=n, replicates=2, beta_true=(0.5, 0.25)[:k], seed=seed)
    ds = _draw_chunk(cfg, 0, 1)
    write_dataset_csv(ds, path)
    return ds


GOLDEN = Path(__file__).resolve().parent / "data"


def read_cells(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def error_record(err):
    return json.loads(err.strip().splitlines()[-1])


def test_fit_outputs_and_round_trip(tmp_path, capsys):
    csv_path = tmp_path / "ds.csv"
    write_dataset(csv_path)
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys, ["fit", "--input", str(csv_path), "--out", str(out_dir)]
    )
    assert code == 0 and err == ""
    assert out.startswith("covariate")
    assert "z1" in out and "z2" in out

    payload = json.loads((out_dir / "fit.json").read_text())
    assert payload["coverage"] == 0.95
    assert payload["grid"]["t_final"] > 0
    restored = FitResult.from_dict(payload["fit"])
    assert json.loads(json.dumps(restored.to_dict())) == payload["fit"]
    assert all(b >= 0 for b in restored.beta_hat)
    assert (out_dir / "fit.txt").read_text() == out

    baseline_csv = (out_dir / "baseline.csv").read_text().splitlines()
    assert baseline_csv[0] == "interval,up_to,mean,variance"
    # default grid: four quantile cuts plus the final boundary
    assert len(baseline_csv) == 1 + 5
    means = [float(line.split(",")[2]) for line in baseline_csv[1:]]
    assert all(m > 0 for m in means)


def test_csv_with_a_byte_order_mark_fits_like_one_without(tmp_path, capsys):
    # spreadsheet programs write "CSV UTF-8" with a leading byte-order mark
    plain = tmp_path / "plain.csv"
    write_dataset(plain)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, bom):
        out_dir = tmp_path / path.stem
        code, out, err = run(capsys, ["fit", "--input", str(path), "--out", str(out_dir)])
        assert code == 0 and err == ""
        files = [(out_dir / name).read_text() for name in ("fit.json", "fit.txt", "baseline.csv")]
        outputs.append([out] + files)
    assert outputs[0] == outputs[1]


def test_fit_json_is_strict_json_when_every_offset_is_zero(tmp_path, capsys):
    # the covariate grows with the time, so its coefficient clamps to 0 and
    # every event contributes one unit of prior shape, not a dead component
    times = np.linspace(0.05, 3.0, 40)
    ds = SurvivalDataset(times, np.arange(40) % 4 != 3, times[:, None])
    csv_path = tmp_path / "null.csv"
    write_dataset_csv(ds, csv_path)
    code, _, err = run(capsys, ["fit", "--input", str(csv_path), "--out", str(tmp_path / "out")])
    assert code == 0 and err == ""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    fit = json.loads((tmp_path / "out" / "fit.json").read_text(), parse_constant=reject)["fit"]
    assert fit["beta_hat"] == [0.0]
    assert [post["log_weights"] for post in fit["baseline"]] == [[0.0]] * 5


def test_baseline_command_prints_csv(tmp_path, capsys):
    csv_path = tmp_path / "ds.csv"
    write_dataset(csv_path)
    code, out, err = run(
        capsys,
        [
            "baseline",
            "--input",
            str(csv_path),
            "--grid-cuts",
            "0.2,0.5",
            "--t-final",
            "3.0",
            "--alpha-at-cuts",
            "0.2,0.5,2.0",
            "--gamma-c",
            "0.5",
        ],
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "interval,up_to,mean,variance"
    assert len(lines) == 4
    assert [line.split(",")[1] for line in lines[1:]] == ["0.2", "0.5", "3.0"]


def test_fit_flat_prior_matches_reference_column(tmp_path, capsys):
    # a huge prior variance makes the penalized estimate the plain one
    csv_path = tmp_path / "ds.csv"
    write_dataset(csv_path)
    code, out, _ = run(
        capsys,
        ["fit", "--input", str(csv_path), "--prior-omega", "1e9", "--skip-baseline"],
    )
    assert code == 0
    for line in out.splitlines()[1:3]:
        parts = line.split()
        assert float(parts[1]) == pytest.approx(float(parts[2]), abs=1e-5)

    # a tight prior at zero shrinks every estimate strictly toward zero
    code, shrunk, _ = run(
        capsys,
        ["fit", "--input", str(csv_path), "--prior-mu", "0",
         "--prior-omega", "0.0001", "--skip-baseline"],
    )
    assert code == 0
    for line, flat_line in zip(shrunk.splitlines()[1:3], out.splitlines()[1:3]):
        est, flat = float(line.split()[1]), float(flat_line.split()[2])
        assert 0.0 < est < flat


def test_skip_baseline_omits_baseline_outputs(tmp_path, capsys):
    csv_path = tmp_path / "ds.csv"
    write_dataset(csv_path)
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys,
        ["fit", "--input", str(csv_path), "--skip-baseline", "--out", str(out_dir)],
    )
    assert code == 0
    assert "interval" not in out
    assert not (out_dir / "baseline.csv").exists()
    payload = json.loads((out_dir / "fit.json").read_text())
    assert payload["grid"] is None
    assert payload["fit"]["baseline"] == []


def test_cohort_transform_loading(tmp_path, capsys):
    raw = tmp_path / "cohort.csv"
    raw.write_text(
        "time,event,AFE,YFE,EXP\n"
        "1.0,1,20,1925,1\n"
        "2.0,0,30,1935,0\n"
        "0.5,1,15,1905,4\n"
        "1.7,1,25,1945,2\n"
        "0.9,0,22,1915,3\n"
        "2.4,1,28,1931,0.5\n"
    )
    ds, names = dataio.read_transformed_cohort_csv(raw)
    assert names == (
        "log_afe_minus_10",
        "yfe_decade",
        "neg_yfe_decade_sq",
        "log_exp_plus_1",
    )
    np.testing.assert_allclose(
        ds.covariates[0], [math.log(10.0), 1.0, -1.0, math.log(2.0)], rtol=1e-12
    )
    np.testing.assert_allclose(
        ds.covariates[2], [math.log(5.0), -1.0, -1.0, math.log(5.0)], rtol=1e-12
    )
    # the signed covariates force the coefficient-only path; a larger file
    # keeps the events-only sandwich matrix full rank
    rng = np.random.default_rng(42)
    rows = ["time,event,AFE,YFE,EXP"]
    for _ in range(60):
        rows.append(
            f"{rng.exponential():.6f},{int(rng.random() < 0.7)},"
            f"{12 + 28 * rng.random():.4f},{1900 + 50 * rng.random():.4f},"
            f"{10 * rng.random():.4f}"
        )
    big = tmp_path / "cohort_big.csv"
    big.write_text("\n".join(rows) + "\n")
    code, out, _ = run(
        capsys,
        ["fit", "--input", str(big), "--cohort-transform", "--skip-baseline"],
    )
    assert code == 0
    assert "log_exp_plus_1" in out  # names are truncated to 15 chars

    bad = tmp_path / "bad.csv"
    bad.write_text("time,event,AFE,YFE\n1.0,1,20,1925\n")
    code, _, err = run(capsys, ["fit", "--input", str(bad), "--cohort-transform"])
    assert code == 21
    assert error_record(err)["error"] == "DatasetFormatError"

    low = tmp_path / "low.csv"
    low.write_text("time,event,AFE,YFE,EXP\n1.0,1,9,1925,1\n")
    code, _, err = run(capsys, ["fit", "--input", str(low), "--cohort-transform"])
    assert code == 21


def test_cohort_row_with_extra_field_rejected(tmp_path, capsys):
    # a cohort row longer than the header is malformed, as in plain files
    extra = tmp_path / "extra.csv"
    extra.write_text("time,event,AFE,YFE,EXP\n1.0,1,20,1925,1\n2.0,1,30,1935,0,7\n")
    code, _, err = run(capsys, ["fit", "--input", str(extra), "--cohort-transform"])
    assert code == 21
    record = error_record(err)
    assert record["error"] == "DatasetFormatError"
    assert record["message"].startswith("row 3:")


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("time,event,z1\n1.0,1,0.5\n\n2.0,1,abc\n", [], "row 4: column 'z1' is not numeric"),
        ("time,event,z1\n1.0,1,0.5\n2.0,1,nan\n", [], "row 3: column 'z1' is not finite"),
        ("time,event,z1\n1.0,1,0.5\n\n\ninf,1,0.5\n", [], "row 5: column 'time' is not finite"),
        ("time,event,z1\n1.0,1.0,0.5\n", [], "row 2: event must be 0 or 1"),
        ("time,event,z1\n1.0,1,0.5\n\n2.0,,0.5\n", [], "row 4: event must be 0 or 1"),
        ("", [], "{path}: empty file"),
        ("time,event,z1\n", [], "{path}: no data rows"),
        ("time,event,z1\n1.0,1,0.5\n\n2.0,1\n", [], "row 4: expected 3 fields"),
        (
            "time,event,AFE,YFE,EXP\n1.0,1,20,1925,1\n\n2.0,1,9,1925,1\n",
            ["--cohort-transform"],
            "row 4: AFE must exceed 10",
        ),
    ],
)
def test_dataset_errors_name_the_file_line(tmp_path, capsys, text, flags, message):
    path = tmp_path / "ds.csv"
    path.write_text(text)
    code, _, err = run(capsys, ["fit", "--input", str(path), *flags])
    assert code == 21
    record = error_record(err)
    assert record["error"] == "DatasetFormatError"
    assert record["message"].startswith(message.format(path=path))


@pytest.mark.parametrize("preset", ["table1", "table2", "table3", "table4"])
def test_preset_cells_match_golden_file(tmp_path, capsys, preset):
    # tests/data/<preset>_cells.csv holds cells.csv from --seed 7
    # --replicates 20; numeric cells compare at rtol 1e-12 so that other
    # BLAS builds still pass
    out_dir = tmp_path / "out"
    argv = ["simulate", "--preset", preset, "--seed", "7", "--replicates", "20"]
    code, _, err = run(capsys, argv + ["--out", str(out_dir)])
    assert code == 0 and err == ""
    got = read_cells(out_dir / "cells.csv")
    want = read_cells(GOLDEN / f"{preset}_cells.csv")
    assert got[0] == want[0]
    assert [len(row) for row in got] == [len(row) for row in want]
    for got_row, want_row in zip(got[1:], want[1:]):
        for a, b in zip(got_row, want_row):
            try:
                expected = float(b)
            except ValueError:
                assert a == b
                continue
            assert float(a) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_hpd_command_json(capsys):
    code, out, err = run(capsys, ["hpd", "--mean", "0", "--sd", "1"])
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["lower"] == 0.0
    assert record["upper"] == pytest.approx(1.959964, abs=1e-4)
    assert record["sigma_hat"] == pytest.approx(0.5, abs=1e-4)
    assert record["coverage"] == 0.95
    assert record["significant"] is False
    # far-positive mean: the usual symmetric interval, sigma_hat equals sd
    code, out, _ = run(capsys, ["hpd", "--mean", "10", "--sd", "2"])
    record = json.loads(out)
    assert record["lower"] == pytest.approx(10 - 2 * 1.959964, abs=1e-3)
    assert record["upper"] == pytest.approx(10 + 2 * 1.959964, abs=1e-3)
    assert record["sigma_hat"] == pytest.approx(2.0, abs=1e-3)
    assert record["significant"] is True


def test_hpd_command_far_below_zero(capsys):
    # the upper ends are mpmath roots of Phi(a - x) = 0.05 Phi(a), a = mean/sd
    for mean, sd, upper in ((-3, 0.05, 0.00249471399081488), (-2.11, 0.153, 0.0328110180537996)):
        code, out, err = run(capsys, ["hpd", "--mean", str(mean), "--sd", str(sd)])
        assert code == 0 and err == ""
        record = json.loads(out)
        assert record["lower"] == 0.0
        assert record["upper"] == pytest.approx(upper, rel=1e-12)
        assert record["significant"] is False


@pytest.mark.parametrize("sd", ["1e-200", "1e200", "0", "-1", "nan"])
def test_hpd_command_rejects_sd_outside_normal_range(capsys, sd):
    # sd^2 must be a finite normal float, so sd must lie in ~[1.5e-154, 1.3e154]
    code, out, err = run(capsys, ["hpd", "--mean", "1", "--sd", sd])
    assert code == 17 and out == ""
    assert error_record(err)["error"] == "SingularCovariance"


def test_nonfinite_prior_mean_rejected(tmp_path, capsys):
    csv_path = tmp_path / "ds.csv"
    write_dataset(csv_path)
    fit = ["fit", "--input", str(csv_path), "--skip-baseline", "--prior-mu"]
    for argv in (
        fit + ["nan", "--orthant-qp"],
        fit + ["nan"],
        fit + ["0.5,inf"],
        ["simulate", "--n", "30", "--replicates", "3", "--mu-grid", "0.5,nan", "--omega-grid", "1"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 14 and out == ""
        record = error_record(err)
        assert record["error"] == "OutOfRange"
        assert "prior mean" in record["message"]


def test_nonfinite_prior_shape_rejected(tmp_path, capsys):
    # 3000 events with cuts 0.2, 0.5 put about 1500 in the last interval,
    # past EXACT_MAX_FACTORS, so fit would take the quadrature path there;
    # the n = 50 study stays on the exact mixture path
    rng = np.random.default_rng(31)
    times = rng.uniform(0.01, 1.0, 3000)
    assert np.count_nonzero(times > 0.5) > EXACT_MAX_FACTORS
    ds = SurvivalDataset(times, np.ones(3000, dtype=bool), rng.uniform(0.0, 2.0, (3000, 2)))
    csv_path = tmp_path / "ds.csv"
    write_dataset_csv(ds, csv_path)
    fit = ["fit", "--input", str(csv_path), "--grid-cuts", "0.2,0.5", "--alpha-at-cuts"]
    for argv in (
        fit + ["0.2,0.5,nan"],
        fit + ["0.2,inf,inf"],
        ["simulate", "--n", "50", "--replicates", "3", "--c-grid", "1",
         "--alpha-increments", "0.5,nan", "--grid-cuts", "0.3", "--t-final", "1.0"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 14 and out == ""
        record = error_record(err)
        assert record["error"] == "OutOfRange"
        assert "finite" in record["message"]


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# settings\nmean = 1.0\nsd = 2.0\ncoverage = 0.8\n")
    code, out, _ = run(capsys, ["hpd", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["coverage"] == 0.8
    code, out, _ = run(capsys, ["hpd", "--config", str(cfg), "--coverage", "0.9"])
    assert json.loads(out)["coverage"] == 0.9

    # dashed keys normalize to the flag names
    csv_path = tmp_path / "ds.csv"
    write_dataset(csv_path)
    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(
        f"input = {csv_path}\ngrid-cuts = 0.5,1.0\nt-final = 9.0\n"
    )
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, ["fit", "--config", str(fit_cfg), "--out", str(out_dir)])
    assert code == 0
    payload = json.loads((out_dir / "fit.json").read_text())
    assert payload["grid"] == {"cuts": [0.5, 1.0], "t_final": 9.0}

    broken = tmp_path / "broken.cfg"
    broken.write_text("mean 1.0\n")
    code, _, err = run(capsys, ["hpd", "--config", str(broken)])
    assert code == 21
    assert error_record(err)["error"] == "DatasetFormatError"

    # bad values and unknown keys name file:line and the key, as one record
    for cmd, line in (
        ("hpd", "sd = abc"),
        ("simulate", "mu-grid = 0.5,x"),
        ("hpd", "coverge = 0.5"),
        ("fit", "orthant-qp = treu"),
    ):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"# line 1\n{line}\n")
        code, out, err = run(capsys, [cmd, "--config", str(bad)])
        assert code == 21 and out == ""
        assert len(err.splitlines()) == 1
        record = error_record(err)
        assert record["error"] == "DatasetFormatError"
        assert f"{bad}:2" in record["message"]
        assert line.split(" = ")[0] in record["message"]

    # a key of another subcommand only is ignored, so one file serves both
    shared = tmp_path / "shared.cfg"
    shared.write_text("mean = 1.0\nsd = 2.0\nseed = 3\nprior-mu = 0.5\n")
    code, shared_out, _ = run(capsys, ["hpd", "--config", str(shared)])
    assert code == 0
    assert shared_out == run(capsys, ["hpd", "--mean", "1", "--sd", "2"])[1]

    # a switch set in the file acts like the flag; the exact constrained
    # mode differs from the clamp when one prior mean component is negative
    fit = ["fit", "--input", str(csv_path), "--skip-baseline", "--prior-mu", "-1,1",
           "--prior-omega", "0.01"]
    code, clamp, _ = run(capsys, fit)
    assert code == 0
    code, exact, _ = run(capsys, fit + ["--orthant-qp"])
    assert code == 0 and exact != clamp
    switch = tmp_path / "switch.cfg"
    for word, want in (("true", exact), ("Yes", exact), ("off", clamp)):
        switch.write_text(f"orthant-qp = {word}\n")
        assert run(capsys, fit + ["--config", str(switch)]) == (0, want, "")

    # a preset named in the file writes the same cells as flags
    study = tmp_path / "study.cfg"
    study.write_text("preset = table4\nseed = 7\nreplicates = 20\n")
    run(capsys, ["simulate", "--config", str(study), "--out", str(tmp_path / "by_file")])
    run(capsys, ["simulate", "--preset", "table4", "--seed", "7", "--replicates", "20",
                 "--out", str(tmp_path / "by_flags")])
    by_file = (tmp_path / "by_file" / "cells.csv").read_bytes()
    assert by_file == (tmp_path / "by_flags" / "cells.csv").read_bytes()


def test_simulate_beta_study(tmp_path, capsys):
    out_dir = tmp_path / "study"
    argv = [
        "simulate",
        "--n",
        "40",
        "--replicates",
        "6",
        "--seed",
        "3",
        "--mu-grid",
        "0,0.5",
        "--omega-grid",
        "0.5,1000",
        "--out",
        str(out_dir),
    ]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out.splitlines()[0].startswith("mu \\ omega")
    assert (out_dir / "table.txt").read_text() == out
    cells = (out_dir / "cells.csv").read_text().splitlines()
    assert cells[0] == "mu,omega,component,mean_estimate,mean_sigma_hat,mc_sd_estimate"
    assert len(cells) == 1 + 2 * 2 + 1
    assert cells[-1].startswith("reference,flat,1,")

    code, out2, _ = run(capsys, argv[:-2])
    assert out2 == out  # same seed, same cells


def test_simulate_preset_baseline(capsys):
    code, out, err = run(
        capsys,
        ["simulate", "--preset", "table3", "--replicates", "4", "--n", "50",
         "--seed", "1"],
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("c \\ interval")
    assert len(lines) == 1 + 3  # three confidence weights
    assert len(lines[0].split()) == 3 + 4  # four intervals


def test_simulate_seed_from_environment(tmp_path, capsys, monkeypatch):
    argv = ["simulate", "--n", "30", "--replicates", "4", "--mu-grid", "0.5",
            "--omega-grid", "1.0"]
    monkeypatch.setenv("ADDHAZ_SEED", "7")
    _, out_env, _ = run(capsys, argv)
    monkeypatch.delenv("ADDHAZ_SEED")
    _, out_flag, _ = run(capsys, argv + ["--seed", "7"])
    _, out_other, _ = run(capsys, argv + ["--seed", "8"])
    assert out_env == out_flag
    assert out_env != out_other

    # an explicit flag beats the environment
    monkeypatch.setenv("ADDHAZ_SEED", "7")
    _, out_both, _ = run(capsys, argv + ["--seed", "8"])
    assert out_both == out_other

    # a config-file seed beats the environment, and a flag beats both
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 8\n")
    assert run(capsys, argv + ["--config", str(cfg)])[1] == out_other
    assert run(capsys, argv + ["--config", str(cfg), "--seed", "7"])[1] == out_env


def test_negative_values_with_an_exponent(tmp_path, capsys):
    # argparse alone takes "-1e-3" for an option and exits 2
    _, joined, _ = run(capsys, ["hpd", "--mean=-1e-3", "--sd", "1"])
    assert run(capsys, ["hpd", "--mean", "-1e-3", "--sd", "1"]) == (0, joined, "")
    code, out, _ = run(capsys, ["hpd", "--mean", "-1e300", "--sd", "1"])
    assert code == 0 and json.loads(out)["lower"] == 0.0
    csv_path = tmp_path / "ds.csv"
    write_dataset(csv_path)
    code, _, err = run(capsys, ["fit", "--input", str(csv_path), "--prior-mu", "-1e-3"])
    assert code == 0 and err == ""


def test_simulate_needs_two_replicates(capsys):
    argv = ["simulate", "--n", "30", "--replicates", "1", "--mu-grid", "0.5", "--omega-grid", "1"]
    code, out, err = run(capsys, argv)
    assert code == 11 and out == ""
    assert error_record(err)["error"] == "DimensionMismatch"


def test_simulate_rejects_a_negative_seed(tmp_path, capsys):
    argv = ["simulate", "--n", "30", "--replicates", "2", "--mu-grid", "0.5", "--omega-grid", "1"]
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -1\n")
    for extra in (["--seed", "-1"], ["--config", str(cfg)]):
        code, out, err = run(capsys, argv + extra)
        assert code == 10 and out == ""
        record = error_record(err)
        assert record["error"] == "NonNegativityViolation"
        assert "seed" in record["message"]


@pytest.mark.parametrize(
    "grids",
    [
        ["--mu-grid", ""],
        ["--mu-grid", "0.5", "--omega-grid", ","],
        ["--c-grid", ",", "--alpha-increments", "1,1", "--grid-cuts", "0.5", "--t-final", "1.0"],
        ["--c-grid", "1", "--alpha-increments", ","],
    ],
)
def test_simulate_rejects_an_empty_grid(capsys, grids):
    # an empty grid is an error, not a request for the default grid
    code, out, err = run(capsys, ["simulate", "--n", "50", "--replicates", "3", *grids])
    assert code == 11 and out == ""
    assert error_record(err)["error"] == "DimensionMismatch"


def test_simulate_requires_a_study_kind(capsys):
    code, _, err = run(capsys, ["simulate", "--n", "30", "--replicates", "2"])
    assert code == 21
    assert error_record(err)["error"] == "DatasetFormatError"


@pytest.mark.parametrize(
    "argv, code, error",
    [
        # a baseline study's grid is fixed by --grid-cuts and --t-final together
        (["--c-grid", "1", "--alpha-increments", "1,1", "--t-final", "0.01"], 13, "DegenerateGrid"),
        (["--c-grid", "1", "--alpha-increments", "1,1", "--grid-cuts", "0.5,1.0"], 13,
         "DegenerateGrid"),
        # prior grids name one study kind, and it must be the preset's
        (["--mu-grid", "0.5", "--omega-grid", "1", "--c-grid", "1", "--alpha-increments", "1"],
         21, "DatasetFormatError"),
        (["--preset", "table1", "--c-grid", "1"], 21, "DatasetFormatError"),
        (["--preset", "table3", "--omega-grid", "1"], 21, "DatasetFormatError"),
        # grid flags name no kind: a coefficient study runs beside them
        (["--mu-grid", "0.5", "--omega-grid", "1", "--t-final", "0.01"], 0, None),
    ],
)
def test_simulate_takes_every_setting_it_is_given(capsys, argv, code, error):
    got, out, err = run(capsys, ["simulate", "--n", "50", "--replicates", "3", *argv])
    assert got == code
    assert (error_record(err)["error"] if err else None) == error


def test_config_file_with_a_byte_order_mark_reads_like_one_without(tmp_path, capsys):
    text = "n = 50\nreplicates = 3\nmu-grid = 0.5\nomega-grid = 1\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    code, out, err = run(capsys, ["simulate", "--config", str(bom)])
    assert code == 0 and err == ""
    assert out == run(capsys, ["simulate", "--config", str(plain)])[1]


def test_simulate_unknown_preset_via_config(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("preset = table9\n")
    code, _, err = run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 21


@pytest.mark.parametrize("command", ["fit", "baseline"])
@pytest.mark.parametrize(
    "flags, want", [(["--grid-quantiles", "nan"], 13), (["--t-final", "nan"], 14)]
)
def test_nan_grid_settings_exit_with_their_codes(tmp_path, capsys, command, flags, want):
    # a NaN probability is outside (0, 1) and a NaN t_final covers no time;
    # neither may reach the quantile arithmetic and crash with exit 1
    csv_path = tmp_path / "ds.csv"
    write_dataset(csv_path)
    code, _, err = run(capsys, [command, "--input", str(csv_path), *flags])
    assert code == want and error_record(err)["exit_code"] == want


@pytest.mark.parametrize("gamma_c", ["1e154", "1e155", "1e300"])
def test_a_huge_prior_confidence_gives_finite_output(tmp_path, capsys, gamma_c):
    # the posterior rate is about c, and its square overflows past 1.3e154
    csv_path = tmp_path / "ds.csv"
    csv_path.write_text(
        "time,event,z1\n0.3,0,0.5\n0.5,1,0.2\n0.8,1,0.4\n1.2,0,0.1\n1.5,1,0.3\n1.9,1,0.6\n"
    )
    flags = ["--grid-cuts", "1.0", "--t-final", "2.0", "--gamma-c", gamma_c]
    code, out, _ = run(capsys, ["baseline", "--input", str(csv_path), *flags])
    assert code == 0 and len(out.splitlines()) == 3
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, ["fit", "--input", str(csv_path), *flags, "--out", str(out_dir)])
    assert code == 0
    # json writes a non-finite float as Infinity or NaN
    payload = (out_dir / "fit.json").read_text()
    assert "Infinity" not in payload and "NaN" not in payload


def test_exit_codes(tmp_path, capsys):
    csv_path = tmp_path / "ds.csv"
    write_dataset(csv_path)

    # 10: a negative covariate without the signed-covariate override
    neg = tmp_path / "neg.csv"
    neg.write_text("time,event,z1\n1.0,1,-0.5\n2.0,1,0.3\n0.7,0,0.2\n")
    code, _, err = run(capsys, ["fit", "--input", str(neg)])
    assert code == 10
    record = error_record(err)
    assert record["error"] == "NonNegativityViolation"
    assert record["exit_code"] == 10

    # 11: prior mean dimension mismatch
    code, _, err = run(
        capsys, ["fit", "--input", str(csv_path), "--prior-mu", "1,2,3"]
    )
    assert code == 11

    # 12: no events at all
    cens = tmp_path / "cens.csv"
    cens.write_text("time,event,z1\n1.0,0,0.5\n2.0,0,0.3\n")
    code, _, err = run(capsys, ["fit", "--input", str(cens)])
    assert code == 12
    assert error_record(err)["error"] == "NoEvents"

    # 13: duplicate quantile probabilities collapse the grid
    code, _, err = run(
        capsys, ["fit", "--input", str(csv_path), "--grid-quantiles", "0.5,0.5"]
    )
    assert code == 13

    # 14: quantile grid cannot end before the largest time
    code, _, err = run(
        capsys, ["fit", "--input", str(csv_path), "--t-final", "0.0001"]
    )
    assert code == 14

    # 16: constant covariate makes the design singular
    flat = tmp_path / "flat.csv"
    flat.write_text(
        "time,event,z1\n" + "".join(f"{0.2 * i},1,1.0\n" for i in range(1, 9))
    )
    code, _, err = run(capsys, ["fit", "--input", str(flat)])
    assert code == 16

    # 14: finite covariates whose V2 and V3 overflow
    huge = tmp_path / "huge.csv"
    huge.write_text("time,event,z1\n0.3,0,0.5e200\n0.5,1,0.2e200\n0.8,1,0.4e200\n1.2,0,0.1e200\n")
    code, _, err = run(capsys, ["fit", "--input", str(huge)])
    assert code == 14
    assert error_record(err)["error"] == "OutOfRange"

    # 14: a finite prior mean whose product with the prior precision overflows
    argv = ["fit", "--input", str(csv_path), "--prior-mu", "1e300", "--prior-omega", "1e-10"]
    code, _, err = run(capsys, argv)
    assert code == 14
    assert error_record(err)["message"].startswith("prior mean")

    # 17: a prior variance that is not positive, or whose inverse overflows,
    # for a fit and a study alike
    for omega in ("0", "1e-310"):
        code, _, err = run(
            capsys, ["fit", "--input", str(csv_path), "--prior-omega", omega]
        )
        assert code == 17
        assert error_record(err)["message"].startswith("prior covariance")
    argv = ["simulate", "--n", "50", "--replicates", "3", "--mu-grid", "0", "--omega-grid", "0"]
    code, out, err = run(capsys, argv)
    assert code == 17 and out == ""
    assert error_record(err)["error"] == "SingularCovariance"

    # 18: zero prior increments with events present
    code, _, err = run(
        capsys,
        ["fit", "--input", str(csv_path), "--alpha-at-cuts", "0,0,0,0,0"],
    )
    assert code == 18
    assert error_record(err)["error"] == "ImproperPosterior"

    # 19: coverage outside (0, 1)
    code, _, err = run(
        capsys, ["hpd", "--mean", "1", "--sd", "1", "--coverage", "1.5"]
    )
    assert code == 19

    # 20: sweeping drops from degenerate replicate grids
    code, _, err = run(
        capsys,
        ["simulate", "--n", "2", "--replicates", "5", "--censor-rate", "0",
         "--c-grid", "1", "--alpha-increments", "5,1,0.3,0.01", "--seed", "0"],
    )
    assert code == 20

    # 21: malformed dataset header
    bad = tmp_path / "bad.csv"
    bad.write_text("when,what,z1\n1.0,1,0.5\n")
    code, _, err = run(capsys, ["fit", "--input", str(bad)])
    assert code == 21

    # 21: missing required input
    code, _, err = run(capsys, ["fit"])
    assert code == 21

    # 2: unreadable file
    code, _, err = run(capsys, ["fit", "--input", str(tmp_path / "absent.csv")])
    assert code == 2
    assert error_record(err)["exit_code"] == 2


def test_error_classes_carry_the_readme_exit_codes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (\d+) \| (\w+) \|$", readme, re.M)
    classes = {cls.__name__: cls.exit_code for cls in AddhazError.__subclasses__()}
    assert len(classes) == 11
    assert classes == {name: int(code) for code, name in rows}


def test_top_level_names_are_the_readme_library_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (library,) = re.findall(r"^## Library\n(.*?)(?=^## |\Z)", readme, re.M | re.S)
    (top_level,) = re.findall(r"^Top level: (.*?)\n\n", library, re.M | re.S)
    assert set(addhaz.__all__) | {"__version__"} == set(re.findall(r"`addhaz\.(\w+)`", top_level))
    assert addhaz.__version__
    listed = {
        module: set(re.findall(r"`(\w+)`", names))
        for module, names in re.findall(r"^- `addhaz\.(\w+)`[^:]*: (.*)$", library, re.M)
    }
    modules = {"": addhaz}
    for info in pkgutil.iter_modules(addhaz.__path__):
        modules[info.name] = importlib.import_module(f"addhaz.{info.name}")
    for name, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            assert not attr.startswith("_") and hasattr(module, attr), (name, attr)
        if name in listed:
            assert listed[name] == set(module.__all__), name
    # every submodule with a public name list, bar the private _normal
    public = {name for name, m in modules.items() if name[:1] not in ("", "_")}
    assert set(listed) == {name for name in public if hasattr(modules[name], "__all__")}


def test_importing_addhaz_loads_no_scipy():
    # scipy is the costliest import in reach; only --orthant-qp needs it
    # (scipy.optimize.nnls), and imports it on first use
    src = str(Path(addhaz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for module in ("addhaz", "addhaz.cli"):
        code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]", module


def test_orthant_qp_without_scipy_names_the_extra(tmp_path, capsys, monkeypatch):
    # scipy is the optional qp extra; a None entry in sys.modules fails its import
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    csv_path = tmp_path / "ds.csv"
    write_dataset(csv_path)
    code, out, err = run(capsys, ["fit", "--input", str(csv_path), "--orthant-qp"])
    assert code == 1 and out == "" and err.count("\n") == 1
    record = error_record(err)
    assert record["error"] == "AddhazError" and record["exit_code"] == 1
    assert "pip install addhaz[qp]" in record["message"]
