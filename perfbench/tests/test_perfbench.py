"""Tests of the benchmark itself: span arithmetic, metric names, workload smoke passes.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

harness.import_library()

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
E2E_METRICS = {"setup_s", "pass_ref", "peak_rss_mb"}
WORKLOAD_NAMES = {"direct_sweep", "oracle_grid", "alloc_sweep", "monte_carlo"}
STAGES = ("gram", "arcsine", "bussgang", "assemble_self", "factor_solve")
CONFIG_NAMES = (
    "scalar_mse", "scalar_mse_empirical", "mimo_allocation", "mimo_allocation_oracle",
    "dither_search", "simulate_scalar", "bench_runtime",
)
LAYERS = ("model", "estimator", "closed_form", "allocation", "simulate", "cli")
PER_LAYER_METRICS = {
    *(f"estimator.{s}_ms" for s in STAGES),
    *(f"estimator.{s}_ms.r{r}" for s in STAGES for r in (400, 1600, 3200)),
    "estimator.factor_solve_gflops", "estimator.calls", "estimator.estimate_ms",
    "model.MixedModel_us", "model.make_ortho_matrices_ms", "model.sample_parameter_ms",
    "model.sample_measurements_ms", "model.quantize_1bit_ms", "model.quantize_bbit_ms",
    "closed_form.mse_closed_form_us", "closed_form.evals",
    "allocation.allocate_ms", "allocation.allocate_with_dither_ms",
    "allocation.allocate_exhaustive_ms", "allocation.exhaustive_points",
    "simulate.sweep_allocation_vs_noise_ms", "simulate.run_monte_carlo_ms",
    "simulate.run_monte_carlo_self_ms", "simulate.batches", "simulate.threads2_speedup",
    "cli.self_ms",
    *(f"cli.config.{c}_ms" for c in CONFIG_NAMES),
    *(f"cli.config.{c}.exit" for c in CONFIG_NAMES),
    *(f"{layer}.share" for layer in LAYERS),
    *(f"{layer}.errors" for layer in LAYERS),
    "trace.overhead_pct",
}


def _span(name, start, end, parent, pass_id=0):
    return [name, start, end, parent, pass_id, False, None]


def test_self_time_of_nested_spans():
    recs = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("simulate.run", 1.0, 7.0, 0),
        _span("model.sample", 2.0, 3.0, 1),
        _span("model.sample", 4.0, 6.5, 1),
        _span("estimator.lmmse", 8.0, 9.0, 0),
        _span("other.root", 20.0, 21.5, -1),
    ]
    assert spans.self_times(recs) == pytest.approx([3.0, 2.5, 1.0, 2.5, 1.0, 1.5])


def test_traced_lmmse_self_times_add_up_to_the_call():
    from mixedres import estimator, model

    mixed = model.make_ortho_model(model.OrthoBlockParams(m=3, n_a=2, n_q=4), model.RngStream(0))
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        estimator.lmmse(mixed)
    names = [rec[spans.NAME] for rec in tracer.spans]
    assert names[0] == "estimator.lmmse"
    for stage in traced.ESTIMATOR_STAGES.values():
        assert set(stage) <= set(names)
    root = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(root[spans.END] - root[spans.START])
    assert estimator.lmmse.__name__ == "lmmse" and not hasattr(estimator.lmmse, "__wrapped__")


def test_errors_are_marked_and_reraised():
    from mixedres import ModelError, model

    tracer = spans.Tracer()
    with spans.instrumented(tracer), pytest.raises(ModelError):
        model.MixedModel(h=[[1.0]], g=[[1.0, 2.0]], sigma_theta=[[1.0]], var_a=1.0, var_q=1.0)
    assert [rec[spans.ERROR] for rec in tracer.spans] == [True]


def test_metric_names_are_well_formed():
    names = set(traced.PER_LAYER_UNITS) | set(run.REPORT_UNITS)
    assert all(NAME_RE.fullmatch(name) for name in names)
    assert all(len(name) <= 64 for name in names)


def test_every_issue_metric_and_workload_is_declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == WORKLOAD_NAMES == set(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == E2E_METRICS == set(run.E2E_UNITS)
    assert {m["name"] for m in bench["per_layer"]} == PER_LAYER_METRICS == set(traced.PER_LAYER_UNITS)
    for metric in bench["per_layer"]:
        assert metric["unit"] == traced.PER_LAYER_UNITS[metric["name"]]


@pytest.mark.parametrize("name", sorted(WORKLOAD_NAMES))
def test_smoke_pass_of_each_workload(name, tmp_path):
    _, ops = harness.timed_setup(name, 0, tmp_path)
    tally = harness.Tally()
    for _ in range(2):
        _, results = harness.run_pass(ops)
        tally.check_pass(ops, results)
    assert tally.failed == 0, tally.reasons
    assert tally.attempted == 2 * len(ops)


def test_layer_metrics_of_a_traced_pass(tmp_path):
    _, ops = harness.timed_setup("alloc_sweep", 0, tmp_path)
    tracer = spans.Tracer()
    tally = harness.Tally()
    plain, passes = traced._traced_passes(ops, 0.0, tracer, tally)
    assert len(plain) == len(passes) == 1 and tally.failed == 0
    metrics = traced.layer_metrics(tracer.spans, 1, passes[0])
    assert metrics["closed_form.evals"] == 25 * (21 + 21 * 21) + 2 * 25
    assert metrics["estimator.calls"] == 0
    assert 0.5 < sum(metrics[f"{layer}.share"] for layer in LAYERS) <= 1.0


def test_checks_catch_wrong_results(tmp_path):
    ops = workloads.WORKLOADS["oracle_grid"].setup(0, tmp_path)
    result = ops[0].run()
    result.mse_star += 1e-9
    assert ops[0].check(result) is not None
    with pytest.raises(ValueError):
        workloads.mc_z_score(b'{"empirical_mse": NaN, "analytic_mse": 1.0, "std_error": 0.1}')


def test_driver_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alloc_sweep", "--seed", "3",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == E2E_METRICS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("alloc_sweep ")}
    assert printed == E2E_METRICS | {"pass_s", "ops_attempted", "ops_failed"}


def test_driver_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alloc_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
