"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mixedres.cli import _load_config, main
from mixedres.closed_form import filter_closed_form
from mixedres.estimator import lmmse
from mixedres.model import OrthoBlockParams, RngStream, make_mimo_model
from mixedres.simulate import SimConfig, run_monte_carlo

ROOT = Path(__file__).resolve().parent.parent

SWEEP_CFG = {
    "m": 2,
    "bits": 4,
    "n_a_max": 3,
    "sigma2": [0.2, 1.0, 2.5],
    "dither": {"mode": "quantized-only", "grid_max": 1.0, "grid_step": 0.5},
    "seed": 3,
}


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return str(path)


def _read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestMseCommand:
    CFG = {
        "scenario": "scalar",
        "sigma2_grid": [0.5, 1.0],
        "allocations": [[1, 0], [0, 1]],
        "seed": 7,
    }

    def test_analytic_table(self, tmp_path, capsys):
        cfg = _write(tmp_path, "mse.yaml", self.CFG)
        assert main(["mse", "--config", cfg]) == 0
        out = capsys.readouterr().out
        rows = _read_csv(out)
        assert list(rows[0]) == ["sigma2", "n_a", "n_q", "mse_analytic"]
        assert len(rows) == 4
        by_key = {(r["sigma2"], r["n_a"], r["n_q"]): float(r["mse_analytic"]) for r in rows}
        assert by_key[("1", "1", "0")] == 0.5
        assert by_key[("1", "0", "1")] == pytest.approx(1 - 1 / np.pi, abs=1e-15)

    def test_empirical_columns(self, tmp_path, capsys):
        cfg = dict(self.CFG)
        cfg["empirical"] = {"trials": 4000}
        path = _write(tmp_path, "mse.yaml", cfg)
        assert main(["mse", "--config", path, "--empirical"]) == 0
        rows = _read_csv(capsys.readouterr().out)
        assert set(rows[0]) >= {"mse_empirical", "std_error"}
        for row in rows:
            gap = abs(float(row["mse_empirical"]) - float(row["mse_analytic"]))
            assert gap <= 5 * float(row["std_error"])

    def test_full_precision_round_trip(self, tmp_path, capsys):
        from mixedres.closed_form import mse_pure_quantized

        cfg = _write(tmp_path, "mse.yaml", self.CFG)
        main(["mse", "--config", cfg])
        value = _read_csv(capsys.readouterr().out)[1]["mse_analytic"]
        # 17 significant digits reproduce the double bit for bit.
        assert float(value) == mse_pure_quantized(1, 1, 1.0, 0.5)

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = dict(self.CFG)
        cfg["empirical"] = {"trials": 2000}
        path = _write(tmp_path, "mse.yaml", cfg)
        main(["mse", "--config", path, "--empirical"])
        first = capsys.readouterr().out
        main(["mse", "--config", path, "--empirical"])
        assert capsys.readouterr().out == first

    def test_output_file_lf_endings(self, tmp_path):
        cfg = _write(tmp_path, "mse.yaml", self.CFG)
        out = tmp_path / "table.csv"
        assert main(["mse", "--config", cfg, "--output", str(out)]) == 0
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").startswith("sigma2,")

    def test_malformed_config_names_key(self, tmp_path, capsys):
        path = _write(tmp_path, "mse.yaml", {**self.CFG, "sigmas": [1.0]})
        assert main(["mse", "--config", path]) == 2
        assert "sigmas" in capsys.readouterr().err

    @pytest.mark.parametrize("allocations", [[[1.7, "2"]], [[-1, 2]], [[True, 1]]])
    def test_allocations_must_be_nonnegative_ints(self, tmp_path, capsys, allocations):
        path = _write(tmp_path, "mse.yaml", {**self.CFG, "allocations": allocations})
        assert main(["mse", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "allocations" in err and "Traceback" not in err

    def test_missing_required_key(self, tmp_path, capsys):
        path = _write(tmp_path, "mse.yaml", {"scenario": "scalar", "allocations": [[1, 0]]})
        assert main(["mse", "--config", path]) == 2
        assert "sigma2_grid" in capsys.readouterr().err


class TestAllocateCommand:
    def test_sweep_table_columns(self, tmp_path, capsys):
        path = _write(tmp_path, "alloc.yaml", SWEEP_CFG)
        assert main(["allocate", "--config", path]) == 0
        rows = _read_csv(capsys.readouterr().out)
        assert len(rows) == 3
        assert set(rows[0]) >= {
            "sigma2", "mse_all_analog", "mse_all_quantized", "mse_optimal",
            "mse_optimal_dithered", "n_a_star", "n_q_star", "sigma_d2_star",
        }
        for row in rows:
            assert float(row["mse_optimal_dithered"]) <= float(row["mse_optimal"]) + 1e-15

    def test_single_budget_json_with_trace(self, tmp_path, capsys):
        cfg = {"m": 2, "bits": 3, "p_max_norm": 100.0, "sigma2": 0.9}
        path = _write(tmp_path, "alloc.yaml", cfg)
        assert main(["allocate", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"n_a_star", "n_q_star", "sigma_d2_star", "mse_star", "trace"} <= set(payload)
        assert len(payload["trace"]) == 100 // (2**3 * 2) + 1

    def test_oracle_flag_reports_deviation(self, tmp_path, capsys):
        cfg = {"m": 2, "bits": 3, "p_max_norm": 100.0, "sigma2": 0.9}
        path = _write(tmp_path, "alloc.yaml", cfg)
        assert main(["allocate", "--config", path, "--oracle"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["oracle_deviation"] <= 1e-12
        assert "oracle deviation" in captured.err

    def test_infeasible_budget_warns(self, tmp_path, capsys):
        cfg = {"m": 8, "bits": 4, "p_max_norm": 10.0, "sigma2": 1.0}
        path = _write(tmp_path, "alloc.yaml", cfg)
        assert main(["allocate", "--config", path]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert (payload["n_a_star"], payload["n_q_star"]) == (0, 0)
        assert payload["mse_star"] == 8.0
        assert "infeasible" in captured.err

    @pytest.mark.parametrize(
        "override",
        [
            {"sigma2": float("nan")},
            {"sigma2": [0.5, float("nan")]},
            {"p_max_norm": float("inf"), "sigma2": 1.0},
        ],
        ids=["sigma2-nan", "sigma2-list-nan", "p_max_norm-inf"],
    )
    def test_non_finite_values_are_config_errors(self, tmp_path, capsys, override):
        cfg = {"m": 2, "bits": 3, "p_max_norm": 100.0, **override}
        path = _write(tmp_path, "alloc.yaml", cfg)
        assert main(["allocate", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err and "Traceback" not in captured.err

    def test_oversized_budget_exits_numerical(self, tmp_path, capsys):
        cfg = {"m": 1, "bits": 1, "p_max_norm": 1e15, "sigma2": 1.0}
        path = _write(tmp_path, "alloc.yaml", cfg)
        assert main(["allocate", "--config", path]) == 3
        assert "limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "budget",
        [
            {"bits": 2000, "p_max_norm": 100.0},
            {"bits": 2000, "n_a_max": 3},
            {"bits": 10**12, "n_a_max": 3},
            {"bits": 1023, "p_max_norm": 100.0},  # 2**1023 * m overflows for m = 2
        ],
        ids=["p_max_norm", "n_a_max", "n_a_max-huge", "block-cost"],
    )
    def test_huge_bits_are_config_errors(self, tmp_path, capsys, budget):
        path = _write(tmp_path, "alloc.yaml", {"m": 2, "sigma2": 1.0, **budget})
        assert main(["allocate", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bits" in captured.err or "too large" in captured.err

    def test_oracle_too_large_exits_numerical(self, tmp_path, capsys):
        # 26 281 feasible pairs, above the exhaustive solver's 10 000.
        cfg = {"m": 10, "bits": 6, "n_a_max": 40, "sigma2": 1.0}
        path = _write(tmp_path, "alloc.yaml", cfg)
        assert main(["allocate", "--config", path, "--oracle"]) == 3
        assert "error" in capsys.readouterr().err

    def test_oracle_on_the_shipped_mimo_config(self, capsys):
        """25 noise levels, each an exhaustive scan of 6741 pairs whose
        largest model has 6400 rows."""
        assert main(["allocate", "--config", str(ROOT / "configs" / "mimo_allocation.yaml"), "--oracle"]) == 0
        err = capsys.readouterr().err
        match = re.search(r"oracle max deviation: (\S+)", err)
        assert match, err
        assert float(match.group(1)) <= 1e-12


class TestDitherCommand:
    def test_requires_dither_block(self, tmp_path, capsys):
        cfg = {"m": 2, "bits": 3, "p_max_norm": 60.0, "sigma2": 1.0}
        path = _write(tmp_path, "dither.yaml", cfg)
        assert main(["dither", "--config", path]) == 2
        assert "dither" in capsys.readouterr().err

    def test_json_result(self, tmp_path, capsys):
        cfg = {
            "m": 2, "bits": 3, "p_max_norm": 60.0, "sigma2": 1.5,
            "dither": {"mode": "both", "grid_max": 1.0, "grid_step": 0.25},
        }
        path = _write(tmp_path, "dither.yaml", cfg)
        assert main(["dither", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "both"
        grid_len = 5
        assert len(payload["trace"]) == grid_len * (60 // (2**3 * 2) + 1)

    def test_csv_trace(self, tmp_path, capsys):
        cfg = {
            "m": 1, "bits": 2, "p_max_norm": 12.0, "sigma2": 1.0,
            "dither": {"mode": "quantized-only", "grid_max": 0.5, "grid_step": 0.5},
        }
        path = _write(tmp_path, "dither.yaml", cfg)
        assert main(["dither", "--config", path, "--format", "csv"]) == 0
        rows = _read_csv(capsys.readouterr().out)
        assert list(rows[0]) == ["n_a", "n_q", "sigma_d2", "mse"]

    @pytest.mark.parametrize("sigma2", [[0.5, 1.0], {"start": 0.5, "stop": 1.0, "num": 2}])
    def test_sweep_sigma2_is_config_error(self, tmp_path, capsys, sigma2):
        cfg = {"m": 2, "bits": 3, "p_max_norm": 60.0, "sigma2": sigma2, "dither": {"mode": "both"}}
        path = _write(tmp_path, "dither.yaml", cfg)
        assert main(["dither", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sigma2" in captured.err

    def test_oracle_flag_is_usage_error(self, tmp_path, capsys):
        cfg = {"m": 2, "bits": 3, "p_max_norm": 60.0, "sigma2": 1.0, "dither": {"mode": "both"}}
        path = _write(tmp_path, "dither.yaml", cfg)
        with pytest.raises(SystemExit) as exc:
            main(["dither", "--config", path, "--oracle"])
        assert exc.value.code == 2
        assert "--oracle" in capsys.readouterr().err

    def test_infeasible_budget_returns_prior_only_point(self, tmp_path, capsys):
        cfg = {
            "m": 8, "bits": 4, "p_max_norm": 10.0, "sigma2": 1.0,
            "dither": {"mode": "quantized-only", "grid_max": 0.5, "grid_step": 0.25},
        }
        path = _write(tmp_path, "dither.yaml", cfg)
        assert main(["dither", "--config", path]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert list(payload)[0] == "mode"
        assert (payload["n_a_star"], payload["n_q_star"], payload["mse_star"]) == (0, 0, 8.0)
        assert "infeasible" in captured.err


class TestSimulateCommand:
    def test_scalar_json(self, tmp_path, capsys):
        cfg = {
            "scenario": "scalar", "n_a": 1, "n_q": 0, "sigma2": 1.0,
            "trials": 20000, "seed": 5,
        }
        path = _write(tmp_path, "sim.yaml", cfg)
        assert main(["simulate", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic_mse"] == 0.5
        assert abs(payload["empirical_mse"] - 0.5) <= 4 * payload["std_error"]

    def test_mimo_closed_filter_with_bbit_adc(self, tmp_path, capsys):
        cfg = {
            "scenario": "mimo", "m": 3, "n_a": 1, "n_q": 2, "rho": 1.0,
            "sigma2": 1.0, "trials": 20000, "filter": "closed",
            "analog_bits": 6, "analog_range": [-5.0, 5.0], "seed": 6,
        }
        path = _write(tmp_path, "sim.yaml", cfg)
        assert main(["simulate", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["empirical_mse"] - payload["analytic_mse"]) <= 4 * payload["std_error"]

    @pytest.mark.parametrize(
        "quantizer",
        [
            {"analog_range": [-float("inf"), float("inf")]},
            {"analog_range": [-1.0, float("nan")]},
            {"analog_range": ["a", 1.0]},
            {"analog_bits": 2000},
        ],
        ids=["range-inf", "range-nan", "range-text", "bits-huge"],
    )
    def test_bad_analog_quantizer_is_config_error(self, tmp_path, capsys, quantizer):
        cfg = {"scenario": "scalar", "n_a": 1, "n_q": 1, "sigma2": 1.0, "trials": 100, "analog_bits": 6, **quantizer}
        path = _write(tmp_path, "sim.yaml", cfg)
        assert main(["simulate", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "analog" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("scenario", [{"scenario": "scalar"}, {"scenario": "mimo", "m": 3}])
    @pytest.mark.parametrize("counts", [{"n_a": -1, "n_q": 2}, {"n_a": 1, "n_q": -2}])
    def test_negative_counts_are_config_errors(self, tmp_path, capsys, scenario, counts):
        cfg = {**scenario, **counts, "sigma2": 1.0, "trials": 100}
        path = _write(tmp_path, "sim.yaml", cfg)
        assert main(["simulate", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ">= 0" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "override",
        [{"n_q": 10**30}, {"n_q": 200000}, {"n_q": 10**30, "filter": "closed"}, {"n_q": 200000, "filter": "closed"}],
        ids=["general-1e30", "general-200000", "closed-1e30", "closed-200000"],
    )
    def test_oversized_models_are_refused_before_any_array(self, tmp_path, capsys, monkeypatch, override):
        """Above the dense-row or sampler-batch limit the run exits 3 before
        a model is built; 200000 rows would need a 596 GiB covariance."""
        from mixedres import cli

        def no_model(*args, **kwargs):
            raise AssertionError("model built for an oversized config")

        monkeypatch.setattr(cli, "make_scalar_model", no_model)
        cfg = yaml.safe_load((ROOT / "configs" / "simulate_scalar.yaml").read_text(encoding="utf-8"))
        path = _write(tmp_path, "sim.yaml", {**cfg, **override})
        assert main(["simulate", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds" in captured.err and "Traceback" not in captured.err

    def test_oversized_parameter_is_refused_before_any_draw(self, tmp_path, capsys, monkeypatch):
        """20000 rows x m = 20000 would need a 6 GiB unitary draw; one trial
        and one row block pass the row and batch limits."""
        from mixedres import model

        def no_draw(*args, **kwargs):
            raise AssertionError("unitary drawn for an oversized parameter")

        monkeypatch.setattr(model, "_haar_unitary", no_draw)
        cfg = {"scenario": "mimo", "m": 20000, "n_a": 1, "n_q": 0, "sigma2": 1.0, "trials": 1, "filter": "closed"}
        path = _write(tmp_path, "sim.yaml", cfg)
        assert main(["simulate", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["simulate", "mse"])
    def test_huge_trial_count_exits_before_any_draw(self, tmp_path, command):
        """A trial count above ``MAX_TRIALS`` exits 3 at once; before the
        bound, listing the batch counts of 10**30 trials never finished."""
        if command == "simulate":
            cfg, argv = {**SIM_SCALAR, "filter": "closed", "trials": 10**30}, []
        else:
            cfg, argv = {**TestMseCommand.CFG, "empirical": {"trials": 10**30}}, ["--empirical"]
        path = _write(tmp_path, f"{command}.yaml", cfg)
        src = str(ROOT / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from mixedres.cli import main; sys.exit(main())",
             command, "--config", path, *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "exceed" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_bad_threads_is_usage_error(self, tmp_path, capsys, threads):
        cfg = {"scenario": "scalar", "n_a": 1, "n_q": 1, "sigma2": 1.0, "trials": 100}
        path = _write(tmp_path, "sim.yaml", cfg)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", path, "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_threads_flag_is_ignored(self, tmp_path):
        cfg = str(ROOT / "configs" / "simulate_scalar.yaml")
        plain, threaded = tmp_path / "plain.json", tmp_path / "threaded.json"
        assert main(["simulate", "--config", cfg, "--output", str(plain)]) == 0
        assert main(["simulate", "--config", cfg, "--threads", "2", "--output", str(threaded)]) == 0
        assert threaded.read_bytes() == plain.read_bytes()

    def test_seed_flag_overrides(self, tmp_path, capsys):
        cfg = {"scenario": "scalar", "n_a": 1, "n_q": 1, "sigma2": 1.0, "trials": 5000}
        path = _write(tmp_path, "sim.yaml", cfg)
        main(["simulate", "--config", path, "--seed", "1"])
        first = capsys.readouterr().out
        main(["simulate", "--config", path, "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


@pytest.mark.parametrize("command", ["mse", "allocate", "dither", "bench"])
def test_threads_flag_is_usage_error_outside_simulate(tmp_path, capsys, command):
    path = _write(tmp_path, f"{command}.yaml", {})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", path, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mse", "allocate"])
def test_oversized_noise_grid_exits_before_any_array(tmp_path, capsys, monkeypatch, command):
    """A grid mapping with num = 10**9 exits 3 before the 7.45 GiB linspace is built."""

    def no_grid(*args, **kwargs):
        raise AssertionError("noise grid built for an oversized num")

    monkeypatch.setattr(np, "linspace", no_grid)
    grid = {"start": 0.1, "stop": 2.0, "num": 10**9}
    cfg = {**TestMseCommand.CFG, "sigma2_grid": grid} if command == "mse" else {**ALLOCATE, "sigma2": grid}
    path = _write(tmp_path, f"{command}.yaml", cfg)
    assert main([command, "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds" in captured.err and "Traceback" not in captured.err


def test_oversized_mse_table_exits_before_the_grid(tmp_path, capsys, monkeypatch):
    """200000 noise levels x 1000 allocations would need a 1.49 GiB MSE array."""
    from mixedres import simulate

    def no_grid(*args, **kwargs):
        raise AssertionError("MSE grid evaluated for an oversized table")

    monkeypatch.setattr(simulate, "mse_grid", no_grid)
    cfg = {
        **TestMseCommand.CFG,
        "sigma2_grid": {"start": 0.1, "stop": 2.0, "num": 200_000},
        "allocations": [[n_a, 1] for n_a in range(1000)],
    }
    path = _write(tmp_path, "mse.yaml", cfg)
    assert main(["mse", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceed" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("key", ["trials", "batch_size"])
@pytest.mark.parametrize("command", ["simulate", "mse"])
def test_zero_trial_counts_are_config_errors(tmp_path, capsys, command, key):
    if command == "simulate":
        cfg, argv = {"scenario": "scalar", "n_a": 1, "n_q": 1, "sigma2": 1.0, key: 0}, []
    else:
        cfg, argv = {**TestMseCommand.CFG, "empirical": {"trials": 100, key: 0}}, ["--empirical"]
    path = _write(tmp_path, f"{command}.yaml", cfg)
    assert main([command, "--config", path, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ">= 1" in captured.err and "Traceback" not in captured.err


SIM_SCALAR = {"scenario": "scalar", "n_a": 1, "n_q": 1, "sigma2": 1.0, "trials": 100}
SIM_MIMO = {"scenario": "mimo", "m": 3, "n_a": 1, "n_q": 2, "rho": 1.0, "sigma2": 1.0, "trials": 100}
MSE_MIMO = {"scenario": "mimo", "m": 3, "rho": 1.0, "sigma2_grid": [0.5], "allocations": [[1, 2]]}
ALLOCATE = {"m": 2, "bits": 3, "p_max_norm": 100.0, "sigma2": 1.0}
BENCH = {"m_list": [1], "n_a_max_list": [2], "repeats": 1, "direct_repeats": 1, "warmup": 0}


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("simulate", {**SIM_SCALAR, "n_a": 0, "n_q": 0}),
        ("simulate", {**SIM_MIMO, "pilot": "hadamard"}),
        ("simulate", {**SIM_MIMO, "rho": -1.0}),
        ("simulate", {**SIM_MIMO, "m": 0}),
        ("mse", {**TestMseCommand.CFG, "sigma2_grid": [-1.0]}),
        ("mse", {**MSE_MIMO, "m": 0}),
        ("mse", {**MSE_MIMO, "rho": 0.0}),
        ("allocate", {**ALLOCATE, "rho_a": -1.0}),
        ("allocate", {**ALLOCATE, "sigma2": -1.0}),
        ("allocate", {**ALLOCATE, "sigma2": [-1.0, 1.0]}),
        ("bench", {**BENCH, "sigma2": -1.0}),
        ("bench", {**BENCH, "rho": 0.0}),
        ("bench", {**BENCH, "bits": 5000}),
    ],
    ids=[
        "simulate-no-measurements", "simulate-pilot", "simulate-rho", "simulate-m",
        "mse-sigma2_grid", "mse-m", "mse-rho",
        "allocate-rho_a", "allocate-sigma2", "allocate-sigma2-list",
        "bench-sigma2", "bench-rho", "bench-bits",
    ],
)
def test_values_the_model_rejects_are_config_errors(tmp_path, capsys, command, cfg):
    path = _write(tmp_path, f"{command}.yaml", cfg)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and "Traceback" not in captured.err


def test_empirical_cells_follow_the_seeding_contract(tmp_path, capsys):
    """Cell idx draws the model from RngStream(seed) and its trials from seed + idx."""
    seed, trials = 11, 3000
    cfg = {**MSE_MIMO, "sigma2_grid": [0.5, 1.5], "allocations": [[1, 2], [0, 3]],
           "empirical": {"trials": trials}, "seed": seed}
    path = _write(tmp_path, "mse.yaml", cfg)
    assert main(["mse", "--config", path, "--empirical"]) == 0
    rows = _read_csv(capsys.readouterr().out)
    assert len(rows) == 4
    for idx, row in enumerate(rows):
        n_a, n_q, sigma2 = int(row["n_a"]), int(row["n_q"]), float(row["sigma2"])
        model = make_mimo_model(3, n_a, n_q, 1.0, sigma2, rng=RngStream(seed))
        params = OrthoBlockParams(m=3, n_a=n_a, n_q=n_q, var_a=sigma2, var_q=sigma2)
        filt = filter_closed_form(params, model.h, model.g)
        sim = run_monte_carlo(model, filt, SimConfig(trials=trials, rng_seed=seed + idx))
        assert (float(row["mse_empirical"]), float(row["std_error"])) == (sim.empirical_mse, sim.std_error)


def test_simulate_follows_the_seeding_contract(tmp_path, capsys):
    """The model and the trials both come from the config seed."""
    seed, trials = 4, 3000
    cfg = {**SIM_MIMO, "m": 4, "n_a": 2, "n_q": 3, "sigma2": 0.8, "trials": trials, "seed": seed, "filter": "general"}
    path = _write(tmp_path, "sim.yaml", cfg)
    assert main(["simulate", "--config", path]) == 0
    model = make_mimo_model(4, 2, 3, 1.0, 0.8, rng=RngStream(seed))
    sim = run_monte_carlo(model, lmmse(model), SimConfig(trials=trials, rng_seed=seed))
    assert json.loads(capsys.readouterr().out) == {
        "empirical_mse": sim.empirical_mse,
        "std_error": sim.std_error,
        "analytic_mse": sim.analytic_mse,
        "trials_run": trials,
    }


class TestBenchCommand:
    def test_csv_columns(self, tmp_path, capsys):
        cfg = {
            "m_list": [1, 2], "n_a_max_list": [2], "bits": 4,
            "repeats": 3, "direct_repeats": 1, "warmup": 1,
        }
        path = _write(tmp_path, "bench.yaml", cfg)
        assert main(["bench", "--config", path]) == 0
        rows = _read_csv(capsys.readouterr().out)
        assert list(rows[0]) == ["M", "n_a_max", "t_closed_ms", "t_direct_ms"]
        assert len(rows) == 2
        for row in rows:
            assert float(row["t_direct_ms"]) > float(row["t_closed_ms"]) > 0

    def test_repeats_flag(self, tmp_path, capsys):
        cfg = {
            "m_list": [1], "n_a_max_list": [2], "bits": 3,
            "direct_repeats": 1, "warmup": 0,
        }
        path = _write(tmp_path, "bench.yaml", cfg)
        assert main(["bench", "--config", path, "--repeats", "2"]) == 0
        assert len(_read_csv(capsys.readouterr().out)) == 1

    @pytest.mark.parametrize(
        "override", [{"repeats": 0}, {"direct_repeats": 0}, {"warmup": -1}], ids=["repeats", "direct", "warmup"]
    )
    def test_bad_repetition_counts_are_config_errors(self, tmp_path, capsys, override):
        cfg = {"m_list": [1], "n_a_max_list": [2], "bits": 3, "repeats": 2, **override}
        path = _write(tmp_path, "bench.yaml", cfg)
        assert main(["bench", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert next(iter(override)) in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("key", ["m_list", "n_a_max_list"])
    def test_booleans_are_not_counts(self, tmp_path, capsys, key):
        path = _write(tmp_path, "bench.yaml", {**BENCH, key: [True]})
        assert main(["bench", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err and "Traceback" not in captured.err

    def test_oversized_parameter_is_refused_before_any_draw(self, tmp_path, capsys, monkeypatch):
        from mixedres import model

        def no_draw(*args, **kwargs):
            raise AssertionError("unitary drawn for an oversized parameter")

        monkeypatch.setattr(model, "_haar_unitary", no_draw)
        path = _write(tmp_path, "bench.yaml", {"m_list": [20000], "n_a_max_list": [1]})
        assert main(["bench", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_flag_must_be_positive(self, tmp_path, capsys, repeats):
        path = _write(tmp_path, "bench.yaml", {"m_list": [1], "n_a_max_list": [2]})
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", path, "--repeats", repeats])
        assert exc.value.code == 2
        assert "--repeats" in capsys.readouterr().err


class TestConfigHandling:
    def test_yaml_round_trip_is_lossless(self):
        dumped = yaml.safe_dump(SWEEP_CFG)
        assert yaml.safe_load(dumped) == SWEEP_CFG

    def test_unreadable_config(self, capsys):
        assert main(["mse", "--config", "/nonexistent/x.yaml"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_mapping_config(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("- 1\n- 2\n", encoding="utf-8")
        assert main(["mse", "--config", str(path)]) == 2

    def test_floats_without_a_dot_or_an_exponent_sign(self, tmp_path):
        """YAML 1.1 reads ``1e-1`` as a string; the config loader reads the
        float, so ``sigma2: 1e-1`` runs exactly as ``sigma2: 1.0e-1`` does."""
        outputs = []
        for text in ("1e-1", "1.0e-1"):
            path = tmp_path / f"sim{len(outputs)}.yaml"
            path.write_text(f"scenario: scalar\nn_a: 1\nn_q: 3\nsigma2: {text}\ntrials: 256\nseed: 2\n", encoding="utf-8")
            out = tmp_path / f"sim{len(outputs)}.json"
            assert main(["simulate", "--config", str(path), "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_exponent_forms_load_as_floats(self, tmp_path):
        path = tmp_path / "floats.yaml"
        path.write_text("a: 1.0e308\nb: 1E5\nc: -2.5e+3\nd: .5e1\ne: 10\nf: 1e\n", encoding="utf-8")
        cfg = _load_config(str(path))
        assert cfg == {"a": 1.0e308, "b": 1.0e5, "c": -2.5e3, "d": 5.0, "e": 10, "f": "1e"}
        assert type(cfg["e"]) is int

    def test_wrong_type_named(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("m: two\nbits: 3\np_max_norm: 10.0\nsigma2: 1.0\n", encoding="utf-8")
        assert main(["allocate", "--config", str(path)]) == 2
        assert "'m'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["allocate", "--config", "configs/mimo_allocation.yaml"], "allocate_mimo_allocation.csv"),
        (["dither", "--config", "configs/dither_search.yaml"], "dither_dither_search.json"),
        (["mse", "--config", "configs/scalar_mse.yaml"], "mse_scalar_mse.csv"),
    ],
)
def test_shipped_configs_reproduce_golden_bytes(tmp_path, argv, golden):
    """Outputs of the closed-form commands, byte for byte, as the scalar code wrote them."""
    out = tmp_path / golden
    argv = [argv[0], "--config", str(ROOT / argv[2]), "--output", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (ROOT / "tests" / "data" / golden).read_bytes()


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("allocate", {"m": 2, "bits": 3, "n_a_max": 4, "sigma2": 1.0e308}),
        ("mse", {**TestMseCommand.CFG, "sigma2_grid": [1.0e308], "allocations": [[1, 1]]}),
        ("mse", {**MSE_MIMO, "rho": 1.0e308}),
    ],
    ids=["allocate-sigma2", "mse-sigma2_grid", "mse-mimo-rho"],
)
def test_closed_form_overflow_exits_numerical(tmp_path, capsys, command, cfg):
    """Finite extremes that overflow the closed form exit 3 instead of printing NaN."""
    path = _write(tmp_path, f"{command}.yaml", cfg)
    assert main([command, "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err and "Traceback" not in captured.err


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


# Values a numeric config key may take: ordinary ones, finite extremes,
# negative, fractional and non-finite values, and counts above every limit.
EXTREME_VALUES = st.sampled_from(
    [1.0e308, -1.0e308, 1.0e-320, -1.0, -3, 0, 0.0, 0.5, 2.5, math.nan, math.inf, -math.inf,
     2**53 + 1, 2**63, 10**30]
)
SMALL_COUNTS = st.integers(min_value=0, max_value=4)
SMALL_FLOATS = st.floats(min_value=0.05, max_value=4.0)


def _with_extremes(draw, cfg):
    """``cfg`` with up to two of its numeric values replaced by extreme ones."""
    slots = []  # (container, key) of every numeric value, nested ones too
    for key, value in cfg.items():
        if isinstance(value, dict):
            slots += [(value, inner) for inner, item in value.items() if not isinstance(item, str)]
        elif isinstance(value, list):
            slots += [(value, index) for index in range(len(value))]
        elif not isinstance(value, str):
            slots.append((cfg, key))
    for index in draw(st.lists(st.integers(min_value=0, max_value=len(slots) - 1), max_size=2, unique=True)):
        owner, key = slots[index]
        owner[key] = draw(EXTREME_VALUES)
    return cfg


@st.composite
def simulate_configs(draw):
    scenario = draw(st.sampled_from(["scalar", "mimo"]))
    cfg = {
        "scenario": scenario,
        "n_a": draw(SMALL_COUNTS),
        "n_q": draw(SMALL_COUNTS),
        "sigma2": draw(SMALL_FLOATS),
        "trials": draw(st.integers(min_value=1, max_value=64)),
        "filter": draw(st.sampled_from(["general", "closed"])),
    }
    if scenario == "mimo":
        cfg["m"] = draw(st.integers(min_value=1, max_value=4))
        cfg["rho"] = draw(SMALL_FLOATS)
    if draw(st.booleans()):
        cfg["batch_size"] = draw(st.integers(min_value=1, max_value=64))
    if draw(st.booleans()):
        cfg["analog_bits"] = draw(st.integers(min_value=1, max_value=8))
        cfg["analog_range"] = [-5.0, 5.0]
    return _with_extremes(draw, cfg)


@st.composite
def allocate_configs(draw):
    cfg = {
        "m": draw(st.integers(min_value=1, max_value=4)),
        "bits": draw(st.integers(min_value=1, max_value=6)),
        "rho_a": draw(SMALL_FLOATS),
        "rho_q": draw(SMALL_FLOATS),
        "sigma2": draw(SMALL_FLOATS),
    }
    if draw(st.booleans()):
        cfg["n_a_max"] = draw(SMALL_COUNTS)
    else:
        cfg["p_max_norm"] = draw(st.floats(min_value=1.0, max_value=200.0))
    if draw(st.booleans()):
        cfg["dither"] = {"mode": "quantized-only", "grid_max": 1.0, "grid_step": 0.25}
    return _with_extremes(draw, cfg)


@st.composite
def mse_configs(draw):
    scenario = draw(st.sampled_from(["scalar", "mimo"]))
    cfg = {
        "scenario": scenario,
        "sigma2_grid": draw(st.lists(SMALL_FLOATS, min_size=1, max_size=3)),
        "allocations": draw(st.lists(st.lists(SMALL_COUNTS, min_size=2, max_size=2), min_size=1, max_size=2)),
        "format": "json",
        "empirical": {"trials": draw(st.integers(min_value=1, max_value=64))},
    }
    if scenario == "mimo":
        cfg["m"] = draw(st.integers(min_value=1, max_value=4))
        cfg["rho"] = draw(SMALL_FLOATS)
    if draw(st.booleans()):
        cfg["empirical"]["batch_size"] = draw(st.integers(min_value=1, max_value=64))
    if draw(st.booleans()):
        cfg["empirical"]["analog_bits"] = draw(st.integers(min_value=1, max_value=8))
        cfg["empirical"]["analog_range"] = [-5.0, 5.0]
    return _with_extremes(draw, cfg)


@st.composite
def dither_configs(draw):
    cfg = {
        "m": draw(st.integers(min_value=1, max_value=4)),
        "bits": draw(st.integers(min_value=1, max_value=6)),
        "rho_a": draw(SMALL_FLOATS),
        "rho_q": draw(SMALL_FLOATS),
        "sigma2": draw(SMALL_FLOATS),
        "dither": {
            "mode": draw(st.sampled_from(["quantized-only", "both", "none"])),
            "grid_max": draw(st.floats(min_value=0.1, max_value=2.0)),
            "grid_step": draw(st.floats(min_value=0.05, max_value=0.5)),
        },
    }
    if draw(st.booleans()):
        cfg["n_a_max"] = draw(SMALL_COUNTS)
    else:
        cfg["p_max_norm"] = draw(st.floats(min_value=1.0, max_value=200.0))
    return _with_extremes(draw, cfg)


@st.composite
def bench_configs(draw):
    small = st.integers(min_value=1, max_value=3)
    cfg = {
        "m_list": draw(st.lists(small, min_size=1, max_size=2)),
        "n_a_max_list": draw(st.lists(small, min_size=1, max_size=2)),
        "bits": draw(st.integers(min_value=1, max_value=4)),
        "rho": draw(SMALL_FLOATS),
        "sigma2": draw(SMALL_FLOATS),
        "repeats": draw(st.integers(min_value=1, max_value=2)),
        "warmup": draw(st.integers(min_value=0, max_value=1)),
        "format": "json",
    }
    if draw(st.booleans()):
        cfg["direct_repeats"] = draw(st.integers(min_value=1, max_value=2))
    return _with_extremes(draw, cfg)


class TestExitCodeContract:
    """Every config ends in exit 0, 2 or 3, with no traceback, and exit 0
    prints JSON with no NaN or Infinity token.

    ``main`` runs in process, so an exception it lets through fails the
    test, and so does an overflow or invalid-value ``RuntimeWarning``,
    which this suite turns into an error.
    """

    def _run(self, command, cfg, *flags):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{command}.yaml"
            path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path), *flags])
        assert code in (0, 2, 3), (cfg, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        else:
            assert out.getvalue() == ""
        return code

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(simulate_configs())
    def test_simulate(self, cfg):
        self._run("simulate", cfg)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(allocate_configs())
    def test_allocate(self, cfg):
        self._run("allocate", cfg)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mse_configs(), st.booleans())
    def test_mse(self, cfg, empirical):
        self._run("mse", cfg, *(["--empirical"] if empirical else []))

    @pytest.mark.parametrize("scenario", ["scalar", "mimo"])
    @pytest.mark.parametrize("sigma2", [1.0e-320, 1.0e308])
    def test_mse_empirical_at_extreme_noise(self, scenario, sigma2):
        """The Monte-Carlo cells draw copy sums at a noise variance whose
        sign-probability ratio overflows and at one near the float limit.
        Mixed cells overflow the closed form at 1e308, so the cells are pure."""
        cfg = {
            "scenario": scenario, "sigma2_grid": [sigma2], "allocations": [[0, 3], [3, 0]],
            "format": "json", "empirical": {"trials": 64},
        }
        if scenario == "mimo":
            cfg.update(m=3, rho=1.0)
        assert self._run("mse", cfg, "--empirical") == 0

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(dither_configs())
    def test_dither(self, cfg):
        self._run("dither", cfg)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(bench_configs())
    def test_bench(self, cfg):
        self._run("bench", cfg)

    @pytest.mark.parametrize("key", ["repeats", "direct_repeats", "warmup", "m_list", "n_a_max_list"])
    def test_bench_refuses_over_limit_counts_before_timing(self, key):
        cfg = {"m_list": [1], "n_a_max_list": [1], "repeats": 1, "warmup": 0, "format": "json"}
        cfg[key] = [10**30] if key.endswith("_list") else 10**30
        assert self._run("bench", cfg) == 3


def test_importing_the_cli_leaves_scipy_special_unloaded():
    """The copy-sum sampler imports scipy.special on first use; importing it
    with the CLI would add tens of milliseconds to every command."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mixedres.cli; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
