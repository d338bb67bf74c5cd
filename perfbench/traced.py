"""Traced run: per-layer metrics from spans around calls into each module.

One traced run of a workload does, in one process:

1. the workload's set-up with spans on (pass id ``"setup"``);
2. one untimed, untraced warm-up pass;
3. untraced and traced passes in alternation, for ``--seconds`` or until
   ``MAX_TRACED_PASSES`` traced passes ran.  The ratio of the two medians
   gives ``trace.overhead_pct``; the traced passes give every per-pass and
   per-call layer metric;
4. the same extra measurements in every traced run, so each run reports
   every metric: single direct-path points at the re-anchor sizes, one
   ``cli.main`` run of every shipped config, ``simulate`` at ``--threads``
   1 and 2, and ``estimate`` on one Monte-Carlo batch.

A metric of a layer the workload never calls reads 0.  Every op (workload
ops, re-anchor points, config runs, thread comparisons) counts into
``attempted``; a raised exception or a failed reference check counts into
``failed``.  Config runs report their exit code and are not checked
otherwise: the ``--oracle`` example exits 3 by design of its row limit.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from collections import defaultdict
from pathlib import Path

from harness import ROOT, Tally, import_library, run_pass, timed_setup
from spans import ATTRS, END, ERROR, LAYERS, NAME, PARENT, PASS, START, Tracer, instrumented, self_times

MAX_TRACED_PASSES = 8

# Direct-path points of the re-anchor table: m=10, two analog blocks, the
# rest quantized.
REANCHOR_ROWS = (400, 1600, 3200)
REANCHOR_M = 10
REANCHOR_N_A = 2
ESTIMATOR_STAGES = {
    "gram": ("estimator.cov_analog", "estimator.cov_pre_quantization"),
    "arcsine": ("estimator.cov_quantized",),
    "bussgang": ("estimator.cross_cov_analog_quantized", "estimator.cross_cov_theta_quantized"),
    "assemble_self": ("estimator.assemble",),
    "factor_solve": ("estimator.lmmse_from_bundle",),
}

# Every shipped config through cli.main.  The empirical MSE grid runs with
# its trial count lowered to EMPIRICAL_TRIALS per cell.
EMPIRICAL_TRIALS = 2048
CONFIG_RUNS = {
    "scalar_mse": ["mse", "--config", "{configs}/scalar_mse.yaml"],
    "scalar_mse_empirical": ["mse", "--config", "{tmp}/scalar_mse_empirical.yaml", "--empirical"],
    "mimo_allocation": ["allocate", "--config", "{configs}/mimo_allocation.yaml"],
    "mimo_allocation_oracle": ["allocate", "--config", "{configs}/mimo_allocation.yaml", "--oracle"],
    "dither_search": ["dither", "--config", "{configs}/dither_search.yaml"],
    "simulate_scalar": ["simulate", "--config", "{configs}/simulate_scalar.yaml"],
    "bench_runtime": ["bench", "--config", "{configs}/bench_runtime.yaml"],
}
THREAD_REPEATS = 2
ESTIMATE_REPEATS = 5
MC_BATCH = 8192

PER_LAYER_UNITS = {
    **{f"estimator.{stage}_ms": "ms" for stage in ESTIMATOR_STAGES},
    "estimator.factor_solve_gflops": "GFLOP/s",
    **{f"estimator.{stage}_ms.r{rows}": "ms" for stage in ESTIMATOR_STAGES for rows in REANCHOR_ROWS},
    "estimator.calls": "count",
    "estimator.estimate_ms": "ms",
    "model.MixedModel_us": "us",
    "model.make_ortho_matrices_ms": "ms",
    "model.sample_parameter_ms": "ms",
    "model.sample_measurements_ms": "ms",
    "model.quantize_1bit_ms": "ms",
    "model.quantize_bbit_ms": "ms",
    "closed_form.mse_closed_form_us": "us",
    "closed_form.evals": "count",
    "allocation.allocate_ms": "ms",
    "allocation.allocate_with_dither_ms": "ms",
    "allocation.allocate_exhaustive_ms": "ms",
    "allocation.exhaustive_points": "count",
    "simulate.sweep_allocation_vs_noise_ms": "ms",
    "simulate.run_monte_carlo_ms": "ms",
    "simulate.run_monte_carlo_self_ms": "ms",
    "simulate.batches": "count",
    "simulate.threads2_speedup": "ratio",
    "cli.self_ms": "ms",
    **{f"cli.config.{name}_ms": "ms" for name in CONFIG_RUNS},
    **{f"cli.config.{name}.exit": "code" for name in CONFIG_RUNS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, passes: int, traced_pass_s: float) -> dict:
    """Per-pass and per-call layer metrics from the spans of ``passes`` traced passes.

    Spans whose pass id is an int belong to a traced pass.  Per-call
    figures of model construction and of ``make_ortho_matrices`` also count
    the set-up spans, where those calls happen for some workloads.
    """
    selfs = self_times(spans)
    in_pass = [isinstance(rec[PASS], int) for rec in spans]
    self_sum = defaultdict(float)  # span name -> self time in traced passes
    dur_sum = defaultdict(float)
    calls = defaultdict(int)
    all_self = defaultdict(float)  # span name -> self time in every phase
    all_calls = defaultdict(int)
    layer_self = defaultdict(float)
    errors = defaultdict(int)
    entries = defaultdict(int)  # calls into a layer from outside it
    flops = points = exhaustive_points = batches = direct_evals = 0.0
    for rec, own, counted in zip(spans, selfs, in_pass):
        name = rec[NAME]
        all_self[name] += own
        all_calls[name] += 1
        if not counted:
            continue
        layer = name.split(".")[0]
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""
        self_sum[name] += own
        dur_sum[name] += rec[END] - rec[START]
        calls[name] += 1
        layer_self[layer] += own
        errors[layer] += rec[ERROR]
        entries[layer] += parent.split(".")[0] != layer
        attrs = rec[ATTRS] or {}
        if name == "estimator.lmmse_from_bundle" and "n" in attrs:
            flops += 8.0 * attrs["n"] ** 3 / 3.0
        elif name in ("allocation.allocate", "allocation.allocate_with_dither"):
            points += attrs.get("points", 0)
        elif name == "allocation.allocate_exhaustive":
            exhaustive_points += attrs.get("points", 0)
        elif name == "closed_form.mse_closed_form" and parent not in (
            "allocation.allocate", "allocation.allocate_with_dither"
        ):
            direct_evals += 1
        elif name == "model.sample_parameter" and parent == "simulate.run_monte_carlo":
            batches += 1

    def per_pass_ms(*names):
        return 1e3 * sum(self_sum[n] for n in names) / passes

    def per_call(name, scale=1e3, phase_all=False):
        total, count = (all_self, all_calls) if phase_all else (self_sum, calls)
        return scale * _ratio(total[name], count[name])

    evals = (points + direct_evals) / passes
    out = {f"estimator.{stage}_ms": per_pass_ms(*names) for stage, names in ESTIMATOR_STAGES.items()}
    out.update({
        "estimator.factor_solve_gflops": _ratio(flops, dur_sum["estimator.lmmse_from_bundle"]) / 1e9,
        "estimator.calls": entries["estimator"] / passes,
        "model.MixedModel_us": per_call("model.MixedModel", 1e6, phase_all=True),
        "model.make_ortho_matrices_ms": per_call("model.make_ortho_matrices", phase_all=True),
        "model.sample_parameter_ms": per_call("model.sample_parameter"),
        "model.sample_measurements_ms": per_call("model.sample_measurements"),
        "model.quantize_1bit_ms": per_call("model.quantize_1bit"),
        "model.quantize_bbit_ms": per_call("model.quantize_bbit"),
        "closed_form.mse_closed_form_us": 1e6 * _ratio(layer_self["closed_form"] / passes, evals),
        "closed_form.evals": evals,
        "allocation.allocate_ms": per_call("allocation.allocate"),
        "allocation.allocate_with_dither_ms": per_call("allocation.allocate_with_dither"),
        "allocation.allocate_exhaustive_ms": per_call("allocation.allocate_exhaustive"),
        "allocation.exhaustive_points": exhaustive_points / passes,
        "simulate.sweep_allocation_vs_noise_ms": per_call("simulate.sweep_allocation_vs_noise"),
        "simulate.run_monte_carlo_ms": 1e3 * _ratio(dur_sum["simulate.run_monte_carlo"], calls["simulate.run_monte_carlo"]),
        "simulate.run_monte_carlo_self_ms": per_call("simulate.run_monte_carlo"),
        "simulate.batches": batches / passes,
        "cli.self_ms": 1e3 * layer_self["cli"] / passes,
    })
    for layer in LAYERS:
        out[f"{layer}.share"] = _ratio(layer_self[layer] / passes, traced_pass_s)
        out[f"{layer}.errors"] = errors[layer]
    return out


def _traced_passes(ops, seconds: float, tracer: Tracer, tally: Tally):
    """Alternate untraced and traced passes; return both lists of pass times."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or (time.perf_counter() < deadline and len(traced) < MAX_TRACED_PASSES):
        dt, results = run_pass(ops)
        plain.append(dt)
        tally.check_pass(ops, results)
        tracer.pass_id = len(traced)
        with instrumented(tracer):
            dt, results = run_pass(ops)
        tracer.pass_id = None
        traced.append(dt)
        tally.check_pass(ops, results)
    return plain, traced


def _reanchor_params(rows: int):
    from mixedres import model

    return model.OrthoBlockParams(m=REANCHOR_M, n_a=REANCHOR_N_A, n_q=rows // REANCHOR_M - REANCHOR_N_A)


def _reanchor_points(seed: int, tracer: Tracer, tally: Tally) -> dict:
    """Estimator stage self times of one lmmse call at each re-anchor size."""
    from mixedres import closed_form, estimator, model

    # An untraced first call at the smallest size starts the BLAS threads.
    estimator.lmmse(model.make_ortho_model(_reanchor_params(REANCHOR_ROWS[0]), model.RngStream(seed)))
    for rows in REANCHOR_ROWS:
        params = _reanchor_params(rows)
        mixed = model.make_ortho_model(params, model.RngStream(seed))
        tracer.pass_id = f"r{rows}"
        with instrumented(tracer):
            try:
                filt = estimator.lmmse(mixed)
            except Exception as exc:
                filt = exc
        tracer.pass_id = None
        if isinstance(filt, Exception):
            tally.record(f"r{rows}: {type(filt).__name__}: {filt}")
            continue
        gap = abs(filt.mse - closed_form.mse_closed_form(params).value)
        tally.record(None if gap <= 1e-9 * params.m else f"r{rows}: closed-form gap {gap:.3e}")

    stage_of = {name: stage for stage, names in ESTIMATOR_STAGES.items() for name in names}
    out = {f"estimator.{stage}_ms.r{rows}": 0.0 for stage in ESTIMATOR_STAGES for rows in REANCHOR_ROWS}
    for rec, own in zip(tracer.spans, self_times(tracer.spans)):
        key = f"estimator.{stage_of.get(rec[NAME])}_ms.{rec[PASS]}"
        if key in out:
            out[key] += 1e3 * own
    return out


def _timed_cli(argv: list[str]) -> tuple[float, int | None, str]:
    """Wall time, exit code (None if it raised) and stderr of one cli.main call."""
    from mixedres import cli

    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    return time.perf_counter() - t0, code, err.getvalue()


def _config_runs(tmp: Path, tally: Tally) -> tuple[dict, dict]:
    import yaml

    cfg = yaml.safe_load((ROOT / "configs" / "scalar_mse.yaml").read_text(encoding="utf-8"))
    cfg["empirical"]["trials"] = EMPIRICAL_TRIALS
    (tmp / "scalar_mse_empirical.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")

    out, stderr = {}, {}
    for name, template in CONFIG_RUNS.items():
        argv = [a.format(configs=ROOT / "configs", tmp=tmp) for a in template]
        dt, code, err = _timed_cli(argv + ["--output", str(tmp / f"config_{name}.out")])
        tally.record(None if code is not None else f"config {name} raised: {err.strip()}")
        out[f"cli.config.{name}_ms"] = 1e3 * dt
        out[f"cli.config.{name}.exit"] = -1 if code is None else code
        stderr[name] = err.strip()[-500:]
    return out, stderr


def _threads_speedup(seed: int, tmp: Path, tally: Tally) -> float:
    """Wall time of the monte_carlo commands at --threads 1 over --threads 2."""
    import workloads

    argvs = {threads: workloads.mc_argvs(seed, tmp, threads) for threads in (1, 2)}
    totals = {threads: 0.0 for threads in argvs}
    for _ in range(THREAD_REPEATS):
        for threads, commands in argvs.items():
            for argv in commands:
                dt, code, err = _timed_cli(argv)
                totals[threads] += dt
                tally.record(None if code == 0 else f"simulate --threads {threads} exited {code}: {err.strip()}")
    for one, two in zip(argvs[1], argvs[2]):
        same = Path(one[-1]).read_bytes() == Path(two[-1]).read_bytes()
        tally.record(None if same else f"{Path(two[-1]).name} differs between --threads 1 and 2")
    return _ratio(totals[1], totals[2])


def _estimate_batch_ms(seed: int) -> float:
    """Median time of ``estimate`` on one batch of the MIMO monte_carlo scenario."""
    import numpy as np
    import workloads
    from mixedres import closed_form, estimator, model

    sc = workloads.MC_MIMO
    mixed = model.make_mimo_model(sc["m"], sc["n_a"], sc["n_q"], sc["rho"], sc["sigma2"], rng=model.RngStream(seed))
    params = model.OrthoBlockParams(
        m=sc["m"], n_a=sc["n_a"], n_q=sc["n_q"], rho_a=sc["rho"], rho_q=sc["rho"],
        var_a=sc["sigma2"], var_q=sc["sigma2"],
    )
    filt = closed_form.filter_closed_form(params, mixed.h, mixed.g)
    theta = model.sample_parameter(mixed.sigma_theta, model.RngStream(seed, 0), size=MC_BATCH)
    x_a, x_q = model.sample_measurements(mixed, theta, model.RngStream(seed, 1))
    x = np.concatenate([x_a, x_q], axis=0)
    times = []
    for _ in range(ESTIMATE_REPEATS):
        t0 = time.perf_counter()
        estimator.estimate(filt, x)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def traced_run(name: str, seed: int, seconds: float, tmp: Path):
    """Per-layer metrics of one workload plus the shared extra measurements."""
    import_library()
    tracer = Tracer()
    tally = Tally()
    tracer.pass_id = "setup"
    with instrumented(tracer):
        _, ops = timed_setup(name, seed, tmp)
    tracer.pass_id = None

    _, results = run_pass(ops)
    tally.check_pass(ops, results)
    plain, traced = _traced_passes(ops, seconds, tracer, tally)
    pass_spans = len(tracer.spans)
    metrics = layer_metrics(tracer.spans, len(traced), statistics.fmean(traced))
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)

    metrics.update(_reanchor_points(seed, tracer, tally))
    configs, config_stderr = _config_runs(tmp, tally)
    metrics.update(configs)
    metrics["simulate.threads2_speedup"] = _threads_speedup(seed, tmp, tally)
    metrics["estimator.estimate_ms"] = _estimate_batch_ms(seed)

    metrics = {key: metrics[key] for key in PER_LAYER_UNITS}
    detail = {
        "untraced_pass_times_s": plain,
        "traced_pass_times_s": traced,
        "empirical_trials_per_cell": EMPIRICAL_TRIALS,
        "config_stderr": config_stderr,
        "workload_spans": pass_spans,
        "spans": tracer.dump(),
    }
    return metrics, PER_LAYER_UNITS, tally, detail
