"""The four benchmark workloads: inputs from a seed, one pass, reference checks.

A workload's ``setup(seed, tmp)`` builds every input of a pass and returns
a list of :class:`Op`.  A pass calls each op's ``run`` once; the driver
times the pass from outside and afterwards calls each op's ``check`` on the
result, outside the timed region.  ``check`` returns ``None`` when the
result is correct and a short reason otherwise.  Every library function is
looked up through its module at call time, so the traced run's wrappers
see the call.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# direct_sweep: the frontier grid of configs/bench_runtime.yaml.
DIRECT_M = (1, 3, 10)
DIRECT_N_A_MAX = (2, 4, 6)
DIRECT_BITS = 6
DIRECT_SIGMA2 = 1.0

# oracle_grid: instance shapes of acceptance criterion 4.
ORACLE_M = (1, 2, 3)
ORACLE_BITS = (2, 3, 4)
ORACLE_N_A_CAP = (0, 1, 2, 3)
ORACLE_EXTRA = (1, 8)
ORACLE_LOG_RANGE = (0.1, 10.0)

# monte_carlo: the shipped scalar config plus a generated MIMO pilot config.
MC_SCALAR_CONFIG = CONFIGS / "simulate_scalar.yaml"
MC_MIMO = {
    "scenario": "mimo", "m": 10, "n_a": 2, "n_q": 8, "rho": 1.0,
    "sigma2": 1.0, "trials": 100_000, "filter": "closed",
}
# |empirical - analytic| / SE above this fails the check.  A correct run
# exceeds it with probability below 1e-6.  The scalar config's 6-bit analog
# emulation biases the empirical MSE away from the ideal-analog analytic
# value; acceptance criterion 9 keeps that bias under one SE at 1e5 trials.
MC_Z_BOUND = 5.0

ALLOC_CONFIG = CONFIGS / "mimo_allocation.yaml"

# Tolerances of acceptance criteria 1 and 4.
CLOSED_FORM_TOL = 1e-9
ORACLE_TOL = 1e-12


@dataclass(frozen=True)
class Op:
    """One call into the workload's entry point and its reference check."""

    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    setup: Callable[[int, Path], list[Op]]


# ---------------------------------------------------------------------------
# direct_sweep
# ---------------------------------------------------------------------------


def _direct_setup(seed: int, tmp: Path) -> list[Op]:
    import numpy as np
    from mixedres import allocation, closed_form, estimator, model

    ops = []
    for idx, (m, n_a_max) in enumerate(product(DIRECT_M, DIRECT_N_A_MAX)):
        budget = allocation.PowerBudget(bits=DIRECT_BITS, p_max_norm=float(2**DIRECT_BITS * m * n_a_max))
        base = model.OrthoBlockParams(m=m, n_a=0, n_q=0, var_a=DIRECT_SIGMA2, var_q=DIRECT_SIGMA2)
        h_full, g_full = model.make_ortho_matrices(replace(base, n_a=n_a_max, n_q=1), model.RngStream(seed, idx))
        g1 = g_full[:m]
        for n_a in allocation.na_range(m, budget):
            params = replace(base, n_a=n_a, n_q=allocation.max_nq(n_a, m, budget))
            mixed = model.MixedModel(
                h=h_full[: m * n_a],
                g=np.tile(g1, (params.n_q, 1)),
                sigma_theta=np.eye(m, dtype=np.complex128),
                var_a=DIRECT_SIGMA2,
                var_q=DIRECT_SIGMA2,
            )
            ops.append(Op(lambda mixed=mixed: estimator.lmmse(mixed), _closed_form_check(closed_form, params)))
    return ops


def _closed_form_check(closed_form, params):
    def check(filt):
        gap = abs(filt.mse - closed_form.mse_closed_form(params).value)
        if gap > CLOSED_FORM_TOL * params.m:
            return f"lmmse vs closed form gap {gap:.3e} at m={params.m} n_a={params.n_a} n_q={params.n_q}"
        return None

    return check


# ---------------------------------------------------------------------------
# oracle_grid
# ---------------------------------------------------------------------------


def _oracle_instances(seed: int):
    """(params, budget) pairs; the seed draws only gains and noise levels."""
    import numpy as np
    from mixedres import allocation, model

    rng = np.random.default_rng(seed)
    lo, hi = np.log(ORACLE_LOG_RANGE[0]), np.log(ORACLE_LOG_RANGE[1])
    out = []
    for m, bits, n_a_cap, extra in product(ORACLE_M, ORACLE_BITS, ORACLE_N_A_CAP, ORACLE_EXTRA):
        rho_a, rho_q, var_a, var_q = (float(v) for v in np.exp(rng.uniform(lo, hi, size=4)))
        budget = allocation.PowerBudget(bits=bits, p_max_norm=float(2**bits * m * n_a_cap + 2 * m * extra))
        params = model.OrthoBlockParams(m=m, n_a=0, n_q=0, rho_a=rho_a, rho_q=rho_q, var_a=var_a, var_q=var_q)
        out.append((params, budget))
    return out


def _oracle_setup(seed: int, tmp: Path) -> list[Op]:
    from mixedres import allocation

    def check_for(params, budget):
        def check(ref):
            fast = allocation.allocate(params, budget)
            gap = abs(fast.mse_star - ref.mse_star)
            if gap > ORACLE_TOL:
                return f"exhaustive vs frontier gap {gap:.3e} at m={params.m} budget={budget.p_max_norm}"
            if ref.n_q_star != allocation.max_nq(ref.n_a_star, params.m, budget):
                return f"exhaustive optimum ({ref.n_a_star}, {ref.n_q_star}) is off the frontier"
            return None

        return check

    return [
        Op(lambda p=params, b=budget: allocation.allocate_exhaustive(p, b), check_for(params, budget))
        for params, budget in _oracle_instances(seed)
    ]


# ---------------------------------------------------------------------------
# alloc_sweep and monte_carlo (through the CLI)
# ---------------------------------------------------------------------------


def _cli_op(argv: list[str], validate) -> Op:
    """A ``cli.main`` call whose output must validate and match the first pass's bytes."""
    from mixedres import cli

    out = Path(argv[argv.index("--output") + 1])
    first: list[bytes] = []

    def check(code):
        if code != 0:
            return f"{argv[0]} exited {code}"
        data = out.read_bytes()
        if not first:
            first.append(data)
        elif data != first[0]:
            return f"{out.name} differs from the first pass"
        return validate(data)

    return Op(lambda: cli.main(argv), check)


def _alloc_rows_ok(data: bytes) -> str | None:
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    if not rows:
        return "allocation CSV has no rows"
    for row in rows:
        plain, dithered = float(row["mse_optimal"]), float(row["mse_optimal_dithered"])
        pure = min(float(row["mse_all_analog"]), float(row["mse_all_quantized"]))
        if not dithered <= plain <= pure:
            return f"policy order broken at sigma2={row['sigma2']}"
    return None


def _alloc_setup(seed: int, tmp: Path) -> list[Op]:
    argv = ["allocate", "--config", str(ALLOC_CONFIG), "--seed", str(seed), "--output", str(tmp / "alloc.csv")]
    return [_cli_op(argv, _alloc_rows_ok)]


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def mc_z_score(data: bytes) -> float:
    """|empirical - analytic| / SE of a ``simulate`` JSON record."""
    rec = json.loads(data, parse_constant=_reject_constant)
    return abs(rec["empirical_mse"] - rec["analytic_mse"]) / rec["std_error"]


def _mc_ok(data: bytes) -> str | None:
    try:
        z = mc_z_score(data)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"bad simulate JSON: {exc}"
    if not z <= MC_Z_BOUND:
        return f"Monte-Carlo z-score {z:.2f} exceeds {MC_Z_BOUND}"
    return None


def _write_mimo_config(path: Path, seed: int) -> Path:
    import yaml

    path.write_text(yaml.safe_dump(dict(MC_MIMO, seed=seed), sort_keys=False), encoding="utf-8")
    return path


def mc_argvs(seed: int, tmp: Path, threads: int = 1) -> list[list[str]]:
    """``simulate`` command lines of the monte_carlo workload."""
    mimo = _write_mimo_config(tmp / "mimo_pilot.yaml", seed)
    return [
        ["simulate", "--config", str(cfg), "--seed", str(seed), "--threads", str(threads),
         "--output", str(tmp / f"mc_{tag}_t{threads}.json")]
        for tag, cfg in (("scalar", MC_SCALAR_CONFIG), ("mimo", mimo))
    ]


def _mc_setup(seed: int, tmp: Path) -> list[Op]:
    return [_cli_op(argv, _mc_ok) for argv in mc_argvs(seed, tmp)]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "direct_sweep",
            {"m": DIRECT_M, "n_a_max": DIRECT_N_A_MAX, "bits": DIRECT_BITS, "rho": 1.0, "sigma2": DIRECT_SIGMA2,
             "models": 45},
            _direct_setup,
        ),
        Workload(
            "oracle_grid",
            {"m": ORACLE_M, "bits": ORACLE_BITS, "n_a_cap": ORACLE_N_A_CAP, "extra": ORACLE_EXTRA,
             "log_uniform": ORACLE_LOG_RANGE, "instances": 72},
            _oracle_setup,
        ),
        Workload(
            "alloc_sweep",
            {"argv": ["allocate", "--config", "configs/mimo_allocation.yaml"]},
            _alloc_setup,
        ),
        Workload(
            "monte_carlo",
            {"configs": ["configs/simulate_scalar.yaml", MC_MIMO], "threads": 1, "z_bound": MC_Z_BOUND},
            _mc_setup,
        ),
    )
}

