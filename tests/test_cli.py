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
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mixedres import cli
from mixedres.cli import _load_config, main
from mixedres.closed_form import filter_closed_form
from mixedres.estimator import lmmse
from mixedres.exceptions import ConfigError
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


def _fresh_python(*args):
    """Run ``python *args`` in a new interpreter that imports this checkout's ``src``."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, env=env)


# Appended to a fresh interpreter's script: print every loaded SciPy module.
PRINT_SCIPY_MODULES = "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return str(path)


def _read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _record_calls(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that records each call; returns the record."""
    real, calls = getattr(module, name), []

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


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

    @pytest.mark.parametrize("empirical", [{"trails": 5}, 7])
    def test_empirical_block_is_checked_without_the_flag(self, tmp_path, capsys, empirical):
        path = _write(tmp_path, "mse.yaml", {**self.CFG, "empirical": empirical})
        assert main(["mse", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empirical" in captured.err and "Traceback" not in captured.err

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
        """The oracle searches no dither, so with a dither block it checks the
        undithered optimum, not the dithered ``mse_star``."""
        configs = [
            {"m": 2, "bits": 3, "p_max_norm": 100.0, "sigma2": 0.9},
            {"m": 2, "bits": 6, "n_a_max": 4, "sigma2": 1.0, "dither": {"mode": "quantized-only"}},
        ]
        for cfg in configs:
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

    def test_infeasible_sweep_warns_at_each_noise_level(self, tmp_path, capsys):
        """A budget of 3 buys no 4-bit block of m = 2 (cost 32) and no quantized block (cost 4)."""
        cfg = {"m": 2, "bits": 4, "p_max_norm": 3.0, "sigma2": [0.5, 1.0]}
        path = _write(tmp_path, "alloc.yaml", cfg)
        assert main(["allocate", "--config", path]) == 0
        captured = capsys.readouterr()
        rows = _read_csv(captured.out)
        assert [(row["n_a_star"], row["n_q_star"]) for row in rows] == [("0", "0"), ("0", "0")]
        assert captured.err == "".join(
            f"warning: budget infeasible at sigma2={sigma2}; falling back to the prior-only point (0, 0)\n"
            for sigma2 in (0.5, 1.0)
        )

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
        "cfg, code, text",
        [
            ({"sigma2": 1.0}, 3, "limit 1000000"),
            ({"sigma2": [0.5, 1.0, 2.0], "dither": {"mode": "quantized-only"}}, 3, "limit 1000000"),
            ({"p_max_norm": 100.0, "sigma2": {"start": 0.1, "stop": 1.0, "num": 10**400}}, 3, "limit of 1000000"),
            ({"m": 10**4299, "p_max_norm": 100.0, "sigma2": 1.0}, 2, "too large for a double"),
        ],
        ids=["single", "sweep-over-float-range", "noise-grid-num", "block-cost"],
    )
    def test_oversized_budget_message_is_one_short_line(self, tmp_path, capsys, cfg, code, text):
        """About 5e307 frontier points; the sweep's count (3.15e+309) exceeds
        the float range, so it must be shortened without a float.  A 401-digit
        noise-grid ``num`` and a 4300-digit ``m`` are shortened the same way."""
        path = _write(tmp_path, "alloc.yaml", {"m": 1, "bits": 1, "p_max_norm": 1e308, **cfg})
        assert main(["allocate", "--config", path]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and len(captured.err) < 120, captured.err
        assert text in captured.err and re.search(r"about \d\.\d\de\+\d+ ", captured.err), captured.err

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

    MIMO_ONE_BLOCK = {"scenario": "mimo", "n_a": 1, "n_q": 0, "sigma2": 1.0, "trials": 2, "filter": "closed"}

    def test_oversized_parameter_is_refused_before_any_draw(self, tmp_path, capsys, monkeypatch):
        """20000 rows x m = 20000 would need a 6 GiB unitary draw; two trials
        and one row block pass the row and batch limits."""
        from mixedres import model

        def no_draw(*args, **kwargs):
            raise AssertionError("unitary drawn for an oversized parameter")

        monkeypatch.setattr(model, "make_ortho_matrices", no_draw)
        path = _write(tmp_path, "sim.yaml", {**self.MIMO_ONE_BLOCK, "m": 20000})
        assert main(["simulate", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds" in captured.err and "Traceback" not in captured.err

    def test_small_parameter_draws_through_the_patched_name(self, tmp_path, capsys, monkeypatch):
        """Control for the test above: a small pilot is drawn by the function it patches."""
        from mixedres import model

        calls = _record_calls(monkeypatch, model, "make_ortho_matrices")
        path = _write(tmp_path, "sim.yaml", {**self.MIMO_ONE_BLOCK, "m": 3})
        assert main(["simulate", "--config", path]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["simulate", "mse"])
    def test_huge_trial_count_exits_before_any_draw(self, tmp_path, command):
        """A trial count above ``MAX_TRIALS`` exits 3 at once; before the
        bound, listing the batch counts of 10**30 trials never finished."""
        if command == "simulate":
            cfg, argv = {**SIM_SCALAR, "filter": "closed", "trials": 10**30}, []
        else:
            cfg, argv = {**TestMseCommand.CFG, "empirical": {"trials": 10**30}}, ["--empirical"]
        path = _write(tmp_path, f"{command}.yaml", cfg)
        proc = _fresh_python(
            "-c", "import sys; from mixedres.cli import main; sys.exit(main())", command, "--config", path, *argv
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


@pytest.mark.parametrize("command", ["allocate", "mse"])
@pytest.mark.parametrize("key", ["m", "num"])
def test_integer_beyond_the_digit_limit_is_a_config_error(tmp_path, capsys, command, key):
    """A 4301-digit integer exceeds Python's int() digit limit while the YAML is
    parsed; that is a config error on one line, not a traceback."""
    big = "9" * 4301
    grid = "sigma2_grid" if command == "mse" else "sigma2"
    text = f"m: {big}\n" if key == "m" else f"{grid}: {{start: 0.1, stop: 1.0, num: {big}}}\n"
    path = tmp_path / f"{command}.yaml"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "4300 digits" in captured.err, captured.err


HUGE = int("9" * 4299)
SCALAR_CELL = {"scenario": "scalar", "n_a": 1, "n_q": 1, "sigma2": 1.0}


@pytest.mark.parametrize(
    "command, cfg, code",
    [
        ("simulate", {**SCALAR_CELL, "n_a": HUGE}, 3),
        ("simulate", {**SCALAR_CELL, "n_a": HUGE, "filter": "closed"}, 3),
        ("simulate", {**SCALAR_CELL, "trials": HUGE}, 3),
        ("bench", {"m_list": [1], "n_a_max_list": [1], "repeats": HUGE}, 3),
        ("simulate", {**SCALAR_CELL, "n_a": -HUGE}, 2),
        ("allocate", {"m": -HUGE, "p_max_norm": 100.0, "sigma2": 1.0}, 2),
        ("mse", {"sigma2_grid": [1.0], "allocations": [[10**400, 0]]}, 2),
        ("mse", {"scenario": "mimo", "m": HUGE, "sigma2_grid": [1.0], "allocations": [[1, 1]]}, 2),
        ("mse", {"scenario": "mimo", "m": -HUGE, "sigma2_grid": [1.0], "allocations": [[1, 1]]}, 2),
        ("simulate", {**SCALAR_CELL, "scenario": "mimo", "m": -HUGE}, 2),
    ],
    ids=[
        "dense-rows", "batch-rows", "trials", "repeats", "negative-n_a", "negative-m",
        "mse-count", "mse-m", "mse-negative-m", "simulate-negative-m",
    ],
)
def test_counts_of_thousands_of_digits_are_refused_on_one_short_line(tmp_path, capsys, command, cfg, code):
    """A count of thousands of digits, either sign, is refused with its
    leading digits only, and one beyond the float range is no traceback."""
    path = _write(tmp_path, f"{command}.yaml", cfg)
    assert main([command, "--config", path]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and len(captured.err) < 120, captured.err
    assert "Traceback" not in captured.err and re.search(r"about -?\d\.\d\de\+\d+\s", captured.err), captured.err


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


@pytest.mark.parametrize("command", ["simulate", "mse"])
def test_one_trial_is_a_config_error(tmp_path, capsys, command):
    """One trial has no sample variance, so its standard error would read 0
    and its z-score infinity."""
    if command == "simulate":
        cfg, argv = {**SIM_SCALAR, "trials": 1}, []
    else:
        cfg, argv = {**TestMseCommand.CFG, "empirical": {"trials": 1}}, ["--empirical"]
    path = _write(tmp_path, f"{command}.yaml", cfg)
    assert main([command, "--config", path, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials >= 2" in captured.err and "Traceback" not in captured.err


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
        ("simulate", {**SIM_MIMO, "m": -1}),
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
        "simulate-no-measurements", "simulate-pilot", "simulate-rho", "simulate-m", "simulate-negative-m",
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
    if cfg.get("m", 1) < 1:
        assert captured.err.count("\n") == 1 and "'m'" in captured.err, captured.err


@pytest.mark.parametrize(
    "command, cfg, flags",
    [
        ("simulate", {**SIM_SCALAR, "pilot": "nonsense"}, []),
        ("simulate", {**SIM_SCALAR, "pilot": "dft"}, []),
        ("mse", {**TestMseCommand.CFG, "pilot": "dft"}, []),
        ("simulate", {**SIM_MIMO, "pilot": "nonsense"}, []),
        ("mse", {**MSE_MIMO, "pilot": "nonsense"}, []),
        ("mse", {**MSE_MIMO, "pilot": "nonsense"}, ["--empirical"]),
    ],
    ids=["simulate-scalar", "simulate-scalar-dft", "mse-scalar-dft", "simulate-mimo", "mse-mimo", "mse-mimo-empirical"],
)
def test_a_pilot_the_run_cannot_use_is_refused(tmp_path, capsys, command, cfg, flags):
    """The scalar scenario takes no pilot, and an unknown pilot is refused
    whether or not the run builds a MIMO model."""
    path = _write(tmp_path, f"{command}.yaml", cfg)
    assert main([command, "--config", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert "'pilot'" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, cfg, named",
    [
        ("mse", {**TestMseCommand.CFG, "sigma2_grid": {"start": 0.1, "stop": 1.0, "num": 0}}, "num"),
        ("mse", {**TestMseCommand.CFG, "sigma2_grid": {"start": 0.0, "stop": 1.0, "num": 3, "spacing": "log"}},
         "log spacing"),
        ("mse", {**TestMseCommand.CFG, "sigma2_grid": {"start": 0.1, "stop": 1.0, "num": 3, "spacing": "cubic"}},
         "spacing"),
        ("mse", {**TestMseCommand.CFG, "sigma2_grid": 1.0}, "sigma2_grid"),
        ("allocate", {**ALLOCATE, "dither": "quantized-only"}, "dither"),
        ("simulate", {**SIM_SCALAR, "analog_bits": 6, "analog_range": [1.0]}, "analog_range"),
        ("allocate", {**ALLOCATE, "n_a_max": 3}, "n_a_max"),
        ("allocate", {**ALLOCATE, "format": "xml"}, "format"),
        ("simulate", {**SIM_SCALAR, "scenario": "siso"}, "scenario"),
        ("simulate", {**SIM_SCALAR, "m": 2}, "m=1"),
        ("allocate", {key: value for key, value in ALLOCATE.items() if key != "sigma2"}, "'sigma2'"),
        ("allocate", {**ALLOCATE, "sigma2": "1.0"}, "'sigma2'"),
        ("simulate", {**SIM_SCALAR, "filter": "wiener"}, "filter"),
        ("simulate", {key: value for key, value in SIM_SCALAR.items() if key != "n_a"},
         "missing required key 'n_a' in simulate config"),
        # null is refused for a key whose library default is not None.
        ("simulate", {**SIM_SCALAR, "trials": None}, "'trials' in simulate config must be int"),
        ("mse", {**TestMseCommand.CFG, "empirical": {"batch_size": None}}, "'batch_size' in mse.empirical config"),
        ("dither", {**ALLOCATE, "dither": {"mode": None}}, "'mode' in dither.dither config must be str"),
        ("dither", {**ALLOCATE, "dither": {"grid_max": None}}, "'grid_max' in dither.dither config"),
        ("allocate", {**ALLOCATE, "rho_a": None}, "'rho_a' in allocate config must be float"),
        ("simulate", {**SIM_MIMO, "pilot": None}, "'pilot' in simulate config must be str"),
        ("bench", {**BENCH, "repeats": None}, "'repeats' in bench config must be int"),
    ],
    ids=[
        "grid-num", "grid-log-start", "grid-spacing", "grid-scalar", "dither-string", "analog_range-length",
        "both-budgets", "format", "scenario", "scalar-m", "allocate-no-sigma2", "sigma2-string", "filter",
        "simulate-no-n_a", "null-trials", "null-batch_size", "null-mode", "null-grid_max", "null-rho_a",
        "null-pilot", "null-repeats",
    ],
)
def test_config_refusals_name_their_key(tmp_path, capsys, command, cfg, named):
    path = _write(tmp_path, f"{command}.yaml", cfg)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and named in captured.err, captured.err


# Each command's CSV header and its JSON document: the CSV rows (a list),
# one record (a dict), or a result whose trace the CSV rows are (a dict
# with a "trace").
WRITER_CASES = {
    "mse": ("mse", TestMseCommand.CFG, ["sigma2", "n_a", "n_q", "mse_analytic"]),
    "allocate-sweep": (
        "allocate",
        {**ALLOCATE, "sigma2": [0.5, 1.0]},
        ["sigma2", "mse_all_analog", "mse_all_quantized", "mse_optimal", "mse_optimal_dithered",
         "n_a_star", "n_q_star", "n_a_star_dither", "n_q_star_dither", "sigma_d2_star"],
    ),
    "allocate": ("allocate", ALLOCATE, ["n_a", "n_q", "sigma_d2", "mse"]),
    "dither": ("dither", {**ALLOCATE, "dither": {"mode": "quantized-only"}}, ["n_a", "n_q", "sigma_d2", "mse"]),
    "simulate": ("simulate", SIM_SCALAR, ["empirical_mse", "std_error", "analytic_mse", "trials_run"]),
    "bench": ("bench", BENCH, ["M", "n_a_max", "t_closed_ms", "t_direct_ms"]),
}


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_every_command_writes_csv_and_json(tmp_path, capsys, case):
    """``--format csv`` and ``--format json`` print the same values; bench's
    times are taken afresh on each run, so only its grid columns compare."""
    command, cfg, fields = WRITER_CASES[case]
    path = _write(tmp_path, f"{command}.yaml", cfg)
    assert main([command, "--config", path, "--format", "csv"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == ",".join(fields)
    rows = _read_csv(text)
    assert main([command, "--config", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    if isinstance(doc, dict) and "trace" in doc:
        doc = [dict(zip(fields, entry)) for entry in doc["trace"]]
    elif isinstance(doc, dict):
        assert list(doc) == fields
        doc = [doc]
    assert len(doc) == len(rows) >= 1
    for row, record in zip(rows, doc):
        for name in fields:
            if not name.startswith("t_"):
                assert float(row[name]) == record[name], name


@pytest.mark.parametrize(
    "command, cfg, start", [("mse", TestMseCommand.CFG, "sigma2,"), ("simulate", SIM_SCALAR, "{")], ids=["csv", "json"]
)
def test_null_format_is_the_command_default(tmp_path, capsys, command, cfg, start):
    path = _write(tmp_path, f"{command}.yaml", {**cfg, "format": None})
    assert main([command, "--config", path]) == 0
    assert capsys.readouterr().out.startswith(start)


DITHER_DEFAULTS = {"mode": "quantized-only", "grid_max": 2.0, "grid_step": 0.1}
ANALOG_DEFAULTS = {"trials": 100_000, "batch_size": 8192, "analog_range": [-5.0, 5.0]}

# Case -> (command, flags, a config that omits keys whose default the
# library states, those keys with the values the CLI used to write out).
OMITTED_DEFAULTS = {
    "dither": ("dither", [], {**ALLOCATE, "dither": {}}, {"rho_a": 1.0, "rho_q": 1.0, "dither": DITHER_DEFAULTS}),
    "allocate-sweep": (
        "allocate", [], {**ALLOCATE, "sigma2": [0.5, 1.0], "dither": {}},
        {"rho_a": 1.0, "rho_q": 1.0, "dither": DITHER_DEFAULTS},
    ),
    "allocate": ("allocate", [], ALLOCATE, {"rho_a": 1.0, "rho_q": 1.0}),
    "simulate-scalar": (
        "simulate", [], {"scenario": "scalar", "n_a": 1, "n_q": 2, "sigma2": 0.5, "analog_bits": 6}, ANALOG_DEFAULTS,
    ),
    "simulate-mimo": ("simulate", [], SIM_MIMO, {"pilot": "random-unitary", "batch_size": 8192}),
    "mse-empirical": (
        "mse", ["--empirical"], {**TestMseCommand.CFG, "sigma2_grid": [0.5], "allocations": [[1, 1]],
                                 "empirical": {"analog_bits": 6}},
        {"empirical": {"analog_bits": 6, **ANALOG_DEFAULTS}},
    ),
    "bench": (
        "bench", [], {"m_list": [1], "n_a_max_list": [2]},
        {"bits": 6, "rho": 1.0, "sigma2": 1.0, "repeats": 10, "direct_repeats": None, "warmup": 2},
    ),
}


@pytest.mark.parametrize("case", list(OMITTED_DEFAULTS))
def test_omitted_keys_print_what_their_old_cli_defaults_print(tmp_path, capsys, case):
    """An omitted key takes the default of the library parameter it feeds,
    which is the value the CLI once wrote out; bench times differ from run
    to run, so only its header and row count compare."""
    command, flags, cfg, written = OMITTED_DEFAULTS[case]
    outs = []
    for name, run_cfg in (("omitted", cfg), ("written", {**cfg, **written})):
        assert main([command, "--config", _write(tmp_path, f"{name}.yaml", run_cfg), *flags]) == 0
        outs.append(capsys.readouterr().out)
    if command == "bench":
        outs = [(out.splitlines()[0], len(out.splitlines())) for out in outs]
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "command, cfg, text",
    [
        ("dither", {**ALLOCATE, "dither": {"grid_max": 1.0e308, "grid_step": 1.0e-308}},
         "error: dither grid_max / grid_step = inf points"),
        ("simulate", {**SIM_SCALAR, "analog_bits": 1, "analog_range": [0.0, 1.7e308]},
         "error: the squared estimation error overflowed"),
    ],
    ids=["dither-grid", "simulate-squared-error"],
)
def test_numerical_refusals_exit_3_on_one_line(tmp_path, capsys, command, cfg, text):
    path = _write(tmp_path, f"{command}.yaml", cfg)
    assert main([command, "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(text), captured.err


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


SEEDED = {
    "simulate": SIM_SCALAR,
    "mse": TestMseCommand.CFG,
    "allocate": ALLOCATE,
    "dither": {**ALLOCATE, "dither": {"mode": "quantized-only"}},
    "bench": BENCH,
}


@pytest.mark.parametrize("from_flag", [False, True])
@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", list(SEEDED))
def test_seeds_outside_u64_are_config_errors(tmp_path, capsys, command, seed, from_flag):
    """Seeds do not alias modulo 2**64: -1 is not 2**64 - 1, nor 2**64 zero."""
    cfg, argv = dict(SEEDED[command]), []
    if from_flag:
        argv = ["--seed", str(seed)]
    else:
        cfg["seed"] = seed
    path = _write(tmp_path, f"{command}.yaml", cfg)
    assert main([command, "--config", path, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed" in captured.err and "Traceback" not in captured.err


def test_empirical_cell_seeds_stay_below_2_64(tmp_path, capsys, monkeypatch):
    """Cell idx seeds its trials with seed + idx, so from seed 2**64 - 1 one
    cell runs and two do not; the refusal comes before any trial runs."""
    from mixedres import simulate

    cfg = {**TestMseCommand.CFG, "allocations": [[1, 0]], "empirical": {"trials": 100}, "seed": 2**64 - 1}
    one = _write(tmp_path, "one.yaml", {**cfg, "sigma2_grid": [0.5]})
    assert main(["mse", "--config", one, "--empirical"]) == 0
    capsys.readouterr()
    batches = []
    run_batch = simulate._run_batch
    monkeypatch.setattr(simulate, "_run_batch", lambda *args: batches.append(args) or run_batch(*args))
    two = _write(tmp_path, "two.yaml", cfg)
    assert main(["mse", "--config", two, "--empirical"]) == 2
    assert batches == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "allocations, code, named",
    [([[1, 2], [0, 0]], 2, "[0, 0]"), ([[1, 2], [1, 100_000]], 3, "lower batch_size")],
    ids=["prior-only", "oversized"],
)
def test_empirical_table_refuses_a_bad_cell_before_any_trial_runs(
    tmp_path, capsys, monkeypatch, allocations, code, named
):
    """A prior-only cell and a cell over the batch limit refuse the table
    before the Monte Carlo of the cells ahead of them runs."""
    from mixedres import simulate

    batches = _record_calls(monkeypatch, simulate, "_run_batch")
    cfg = {**TestMseCommand.CFG, "sigma2_grid": [0.5], "allocations": allocations, "empirical": {"trials": 300_000}}
    assert main(["mse", "--config", _write(tmp_path, "mse.yaml", cfg), "--empirical"]) == code
    assert batches == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err and "Traceback" not in captured.err


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
        """m = 20000 with two blocks would need a 12.8 GB normal draw."""
        from mixedres import simulate

        def no_draw(*args, **kwargs):
            raise AssertionError("unitary drawn for an oversized parameter")

        monkeypatch.setattr(simulate, "make_ortho_matrices", no_draw)
        path = _write(tmp_path, "bench.yaml", {"m_list": [20000], "n_a_max_list": [1]})
        assert main(["bench", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds" in captured.err and "Traceback" not in captured.err

    def test_small_parameter_draws_through_the_patched_name(self, tmp_path, capsys, monkeypatch):
        """Control for the test above: the direct arm draws its blocks by the function it patches."""
        from mixedres import simulate

        calls = _record_calls(monkeypatch, simulate, "make_ortho_matrices")
        path = _write(tmp_path, "bench.yaml", BENCH)
        assert main(["bench", "--config", path]) == 0
        assert len(calls) == 1


# A key repeated at each level of a config: the command, the text and the key.
REPEATED_KEY_CASES = [
    ("allocate", "m: 2\nbits: 3\nm: 3\np_max_norm: 100.0\nsigma2: 1.0\n", "m"),
    (
        "dither",
        "m: 2\nbits: 3\np_max_norm: 100.0\nsigma2: 1.0\n"
        "dither:\n  mode: quantized-only\n  grid_max: 1.0\n  grid_step: 0.5\n  grid_max: 2.0\n",
        "grid_max",
    ),
    (
        "mse",
        "scenario: scalar\nsigma2_grid: [0.5]\nallocations: [[1, 2]]\nempirical:\n  trials: 100\n  trials: 200\n",
        "trials",
    ),
    ("allocate", "m: 2\nbits: 3\np_max_norm: 100.0\nsigma2: {start: 0.5, stop: 1.0, num: 2, num: 3}\n", "num"),
]
REPEATED_KEY_IDS = ["top-level", "dither", "empirical", "grid"]


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

    @pytest.mark.parametrize("command", ["mse", "allocate", "dither", "simulate", "bench"])
    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys, command):
        """Byte 0xff ended in a UnicodeDecodeError traceback (exit 1)."""
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"# \xff\nm: 2\n")
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err

    @pytest.mark.parametrize("command, text, key", REPEATED_KEY_CASES, ids=REPEATED_KEY_IDS)
    def test_repeated_key_is_refused(self, tmp_path, capsys, command, text, key):
        """PyYAML keeps the last of two equal keys; each of these configs ran with it and exited 0."""
        path = tmp_path / "dup.yaml"
        path.write_text(text, encoding="utf-8")
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"duplicate key '{key}'" in err and str(path) in err


# Config texts at the edges of the loader, by name: YAML 1.2 floats, merge
# keys, a byte that is not UTF-8, a key repeated at each level, parse errors
# of the scanner, the parser and the composer, and constructor refusals.
LOADER_EDGE_TEXTS = {
    "floats": b"a: 1.0e308\nb: 1E5\nc: -2.5e+3\nd: .5e1\ne: 10\nf: 1e\nsigma2: 1e-1\n",
    "merge": b"base: &b {m: 2, bits: 3}\nmore: &c {rho_a: 0.5}\none:\n  <<: *b\n  m: 4\nmany:\n  <<: [*b, *c]\n  sigma2: 1e-1\n",
    "non-utf8": b"# \xff\nm: 2\n",
    **{f"repeated-{name}": text.encode() for name, (_, text, _) in zip(REPEATED_KEY_IDS, REPEATED_KEY_CASES)},
    "scanner": b"m: 2\n  bits: 3\n",
    "parser": b"m: [1, 2\n",
    "composer": b"a: *nope\n",
    "unhashable-key": b"? [1, 2]\n: 3\n",
    "python-tag": b"a: !!python/name:os.system\n",
}
PARSE_ERRORS = (yaml.scanner.ScannerError, yaml.parser.ParserError, yaml.composer.ComposerError)


@contextlib.contextmanager
def _parsed_by(base):
    """Build the config loader over the PyYAML parser ``base`` for the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_ConfigLoader", cli._config_loader(base))
        yield


def _load_outcome(path):
    """``_load_config(path)``: the config and its repr (which tells 1 from
    1.0), or the ConfigError's cause as its type, its mark and its wording.
    A parse error's wording is left out: libyaml words those its own way."""
    try:
        cfg = _load_config(str(path))
    except ConfigError as exc:
        cause = exc.__cause__
        mark = getattr(cause, "problem_mark", None)
        wording = None if isinstance(cause, PARSE_ERRORS) else getattr(cause, "problem", str(cause))
        return type(cause), mark and (mark.line, mark.column), wording
    return cfg, repr(cfg)


def test_config_loader_parses_with_libyaml_when_available():
    assert issubclass(cli._ConfigLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
@pytest.mark.parametrize(
    "source", [*sorted((ROOT / "configs").glob("*.yaml")), *LOADER_EDGE_TEXTS],
    ids=lambda source: getattr(source, "name", source),
)
def test_libyaml_and_python_parsers_load_the_same_config(tmp_path, capsys, source):
    """Every shipped config and every edge text gives the same config, or
    the same exit-2 ConfigError, through libyaml and the pure-Python parser."""
    path = source if isinstance(source, Path) else tmp_path / "edge.yaml"
    if path is not source:
        path.write_bytes(LOADER_EDGE_TEXTS[source])
    outcomes = []
    for base in (yaml.CSafeLoader, yaml.SafeLoader):
        with _parsed_by(base):
            outcomes.append(_load_outcome(path))
            if not isinstance(outcomes[-1][0], dict):
                assert main(["allocate", "--config", str(path)]) == 2
                assert "config error" in capsys.readouterr().err
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[0][0], dict) == (path is source or source in ("floats", "merge"))
    if source == "merge":
        assert outcomes[0][0]["one"] == {"m": 4, "bits": 3}
        assert outcomes[0][0]["many"] == {"m": 2, "bits": 3, "rho_a": 0.5, "sigma2": 0.1}


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["allocate", "--config", "configs/mimo_allocation.yaml"], "allocate_mimo_allocation.csv"),
        (["dither", "--config", "configs/dither_search.yaml"], "dither_dither_search.json"),
        (["mse", "--config", "configs/scalar_mse.yaml"], "mse_scalar_mse.csv"),
        (["simulate", "--config", "configs/simulate_scalar.yaml"], "simulate_simulate_scalar.json"),
        (["simulate", "--config", "tests/data/simulate_mimo_general.yaml"], "simulate_mimo_general.json"),
        (["allocate", "--config", "configs/mimo_allocation.yaml", "--oracle"], "allocate_mimo_allocation_oracle.csv"),
    ],
)
def test_shipped_configs_reproduce_golden_bytes(tmp_path, argv, golden):
    """Outputs of shipped configs, byte for byte, each from a new interpreter:
    the closed-form commands as the scalar code wrote them, loading no SciPy,
    and seeded Monte-Carlo runs, which import LAPACK and scipy.special on
    first use.  The m = 4 MIMO run pins the general filter that ``lmmse``
    solves for a model with more than one parameter, and the ``--oracle``
    run the exhaustive matrix-solve search at every noise level, which
    imports LAPACK."""
    out = tmp_path / golden
    script = f"import sys; from mixedres.cli import main; code = main(); {PRINT_SCIPY_MODULES}; sys.exit(code)"
    proc = _fresh_python("-c", script, argv[0], "--config", str(ROOT / argv[2]), *argv[3:], "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (ROOT / "tests" / "data" / golden).read_bytes()
    loaded = set(proc.stdout.split())
    if argv[0] == "simulate":
        assert {"scipy.linalg.lapack", "scipy.special"} <= loaded
    elif "--oracle" in argv:
        assert "scipy.linalg.lapack" in loaded
    else:
        assert not loaded


def test_main_serves_repeated_calls_in_one_process(tmp_path, capsys, monkeypatch):
    """One process, one parser: repeated commands reproduce their golden bytes,
    no parser is built after the first call, a usage error still reads as
    in a fresh process, and a handler patched after the first call runs
    with the resolved seed and has its result printed."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal width
    runs = [
        ("allocate", "mimo_allocation.yaml", "allocate_mimo_allocation.csv"),
        ("dither", "dither_search.yaml", "dither_dither_search.json"),
        ("mse", "scalar_mse.yaml", "mse_scalar_mse.csv"),
        ("allocate", "mimo_allocation.yaml", "allocate_mimo_allocation.csv"),
    ]
    for i, (command, config, golden) in enumerate(runs):
        out = tmp_path / f"{i}_{golden}"
        assert main([command, "--config", str(ROOT / "configs" / config), "--output", str(out)]) == 0
        assert out.read_bytes() == (ROOT / "tests" / "data" / golden).read_bytes()
        if i == 0:
            built = _record_calls(monkeypatch, cli.argparse.ArgumentParser, "__init__")
    assert built == []

    argv = ["allocate", "--config", str(ROOT / "configs" / "mimo_allocation.yaml"), "--format", "xml"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    fresh = _fresh_python("-c", "import sys; from mixedres.cli import main; sys.exit(main())", *argv)
    assert fresh.returncode == 2
    assert capsys.readouterr().err == fresh.stderr
    assert "invalid choice: 'xml'" in fresh.stderr

    seen = []

    def patched(cfg, args, seed):
        seen.append((args.command, seed))
        return cli._Result([{"call": len(seen)}], ["call"], "csv")

    monkeypatch.setattr(cli, "cmd_allocate", patched)
    assert main(argv[:3]) == 0
    assert main(["dither", "--config", str(ROOT / "configs" / "dither_search.yaml"), "--seed", "5", "--format", "json"]) == 0
    assert seen == [("allocate", 0), ("dither", 5)]
    assert capsys.readouterr().out == 'call\n1\n[\n  {\n    "call": 2\n  }\n]\n'


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
    @example(
        # C~ of two analog copies at rho 1e308 overflows while it is built.
        {"scenario": "mimo", "m": 1, "n_a": 2, "n_q": 0, "rho": 1e308, "sigma2": 1.0, "trials": 2, "filter": "general"}
    )
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


@pytest.mark.parametrize("module", ["mixedres", "mixedres.cli"])
def test_importing_the_package_loads_no_scipy(module):
    """The estimator imports LAPACK and the copy-sum sampler scipy.special on
    first use; importing either with the package would add about 0.3 s to
    every command, the closed-form ones included."""
    proc = _fresh_python("-c", f"import sys, {module}; {PRINT_SCIPY_MODULES}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
