"""Command-line front end: YAML experiment configs in, CSV/JSON tables out.

Subcommands
-----------
mse       analytic (optionally empirical) MSE grid over noise levels
allocate  power-constrained allocation: single budget or noise sweep
dither    allocation with dither-variance optimization, with search trace
simulate  Monte-Carlo validation of a single scenario
bench     runtime comparison of closed-form vs matrix-solve sweeps

Exit codes: 0 success, 2 configuration error (including any value the
library rejects while the model is built), 3 numerical/infeasibility error.  CSV output is comma-separated with a header row, LF line endings,
and full double precision (17 significant digits).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import replace

import numpy as np
import yaml

from .allocation import (
    MAX_GRID_POINTS,
    DitherScheme,
    PowerBudget,
    allocate,
    allocate_exhaustive,
    allocate_with_dither,
)
from .closed_form import filter_closed_form
from .exceptions import ConfigError, InstanceTooLargeError, MixedResError, ModelError
from .estimator import check_dense_rows, lmmse
from .model import (
    OrthoBlockParams,
    QuantizerSpec,
    RngStream,
    make_mimo_model,
    make_scalar_model,
)
from .simulate import (
    SimConfig,
    bench_runtime,
    check_batch_size,
    run_monte_carlo,
    sweep_allocation_vs_noise,
    sweep_mse_vs_noise,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------


class _ConfigLoader(yaml.SafeLoader):
    """PyYAML's safe loader, with floats also written without a dot or an exponent sign.

    PyYAML resolves plain scalars by YAML 1.1, which takes ``1e-1``,
    ``1.0e308`` and ``1E5`` for strings; YAML 1.2 and users read them as
    floats, and so does this loader.
    """


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.load(fh, Loader=_ConfigLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    return cfg


def _check_keys(cfg: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {where} config")


def _get(cfg: dict, key: str, kind, where: str, default=..., allow_none: bool = False, minimum=None):
    if key not in cfg:
        if default is ...:
            raise ConfigError(f"missing required key '{key}' in {where} config")
        return default
    value = cfg[key]
    if value is None and allow_none:
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"key '{key}' in {where} config must be {kind.__name__}")
    if kind is float:
        _require_finite(value, f"key '{key}' in {where} config")
    if minimum is not None and value < minimum:
        raise ConfigError(f"key '{key}' in {where} config must be >= {minimum}, got {value}")
    return value


def _is_count(value, minimum: int) -> bool:
    """An integer >= ``minimum``; YAML booleans are ints in Python and do not count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value}")


def _sigma_grid(spec, where: str) -> list[float]:
    """A noise grid is either an explicit list or {start, stop, num, spacing}."""
    if isinstance(spec, list):
        if not spec or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in spec
        ):
            raise ConfigError(f"'{where}' must be a non-empty list of finite numbers")
        return [float(v) for v in spec]
    if isinstance(spec, dict):
        _check_keys(spec, {"start", "stop", "num", "spacing"}, where)
        start = _get(spec, "start", float, where)
        stop = _get(spec, "stop", float, where)
        num = _get(spec, "num", int, where)
        spacing = _get(spec, "spacing", str, where, default="linear")
        if num < 1:
            raise ConfigError(f"'{where}.num' must be >= 1")
        if num > MAX_GRID_POINTS:
            raise InstanceTooLargeError(f"'{where}.num' = {num} exceeds the limit of {MAX_GRID_POINTS} grid points")
        if spacing == "linear":
            return [float(v) for v in np.linspace(start, stop, num)]
        if spacing == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError(f"log spacing in '{where}' needs positive endpoints")
            return [float(v) for v in np.geomspace(start, stop, num)]
        raise ConfigError(f"'{where}.spacing' must be 'linear' or 'log'")
    raise ConfigError(f"'{where}' must be a list or a grid mapping")


def _dither_scheme(cfg, where: str) -> DitherScheme:
    if not isinstance(cfg, dict):
        raise ConfigError(f"'{where}' must be a mapping")
    _check_keys(cfg, {"mode", "grid_max", "grid_step"}, where)
    return DitherScheme(
        mode=_get(cfg, "mode", str, where, default="quantized-only"),
        grid_max=_get(cfg, "grid_max", float, where, default=2.0),
        grid_step=_get(cfg, "grid_step", float, where, default=0.1),
    )


def _analog_quantizer(cfg: dict, where: str) -> QuantizerSpec | None:
    bits = _get(cfg, "analog_bits", int, where, default=None, allow_none=True)
    if bits is None:
        return None
    rng = _get(cfg, "analog_range", list, where, default=[-5.0, 5.0])
    if len(rng) != 2:
        raise ConfigError(f"'analog_range' in {where} config must be [lo, hi]")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in rng):
        raise ConfigError(f"'analog_range' in {where} config must hold two numbers")
    try:
        return QuantizerSpec(bits=bits, lo=float(rng[0]), hi=float(rng[1]))
    except ModelError as exc:
        raise ConfigError(f"invalid analog quantizer in {where} config: {exc}") from exc


def _budget(cfg: dict, m: int, where: str) -> PowerBudget:
    bits = _get(cfg, "bits", int, where, default=6)
    if "p_max_norm" in cfg and "n_a_max" in cfg:
        raise ConfigError(f"give either 'p_max_norm' or 'n_a_max' in {where} config, not both")
    if "n_a_max" in cfg:
        budget = PowerBudget.for_analog_blocks(bits, m, _get(cfg, "n_a_max", int, where))
    else:
        budget = PowerBudget(bits=bits, p_max_norm=_get(cfg, "p_max_norm", float, where))
    budget.analog_block_cost(m)  # every search prices an m-row block
    return budget


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(rows: list[dict], fieldnames: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt(row[name]) for name in fieldnames])
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_table(rows, fieldnames, fmt, output):
    if fmt == "csv":
        _emit(_csv_text(rows, fieldnames), output)
    else:
        _emit(_json_text(rows), output)


def _trace_rows(trace) -> list[dict]:
    return [
        {"n_a": n_a, "n_q": n_q, "sigma_d2": dvar, "mse": mse}
        for n_a, n_q, dvar, mse in trace
    ]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_COMMON_KEYS = {"seed", "output", "format"}


def _resolve_io(cfg: dict, args, where: str, default_fmt: str | None):
    seed = _get(cfg, "seed", int, where, default=0)
    if args.seed is not None:
        seed = args.seed
    output = args.output if args.output is not None else _get(cfg, "output", str, where, default=None, allow_none=True)
    fmt = args.format if args.format is not None else _get(cfg, "format", str, where, default=default_fmt, allow_none=True)
    if fmt is not None and fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    return seed, output, fmt


def _scenario(cfg: dict, where: str):
    """(scenario, m, rho, pilot); the scalar scenario fixes m=1 and rho=1."""
    scenario = _get(cfg, "scenario", str, where, default="scalar")
    if scenario not in ("scalar", "mimo"):
        raise ConfigError(f"scenario must be 'scalar' or 'mimo', got {scenario!r}")
    m = _get(cfg, "m", int, where, default=1)
    rho = _get(cfg, "rho", float, where, default=1.0)
    pilot = _get(cfg, "pilot", str, where, default="random-unitary")
    if scenario == "scalar" and (m != 1 or rho != 1.0):
        raise ConfigError("scalar scenario requires m=1 and rho=1")
    return scenario, m, rho, pilot


def _sim_config(cfg: dict, where: str, seed: int) -> SimConfig:
    return SimConfig(
        trials=_get(cfg, "trials", int, where, default=100_000),
        rng_seed=seed,
        analog_quantizer=_analog_quantizer(cfg, where),
        batch_size=_get(cfg, "batch_size", int, where, default=8192),
    )


def _simulate_cell(scenario, m, rho, pilot, n_a, n_q, sigma2, seed, sim_cfg: SimConfig, closed: bool):
    """Monte Carlo of one (n_a, n_q, sigma2) cell with the closed-form or the general LMMSE filter.

    A MIMO model draws its matrices from ``RngStream(seed)``; ``sim_cfg``
    seeds the trials.  The size limits are checked on the row count and on
    m before any array is built.
    """
    rows = m * (n_a + n_q)
    if not closed:
        check_dense_rows(rows)
    check_batch_size(rows, sim_cfg, m)
    if scenario == "scalar":
        model = make_scalar_model(n_a, n_q, sigma2)
    else:
        model = make_mimo_model(m, n_a, n_q, rho, sigma2, pilot=pilot, rng=RngStream(seed))
    if closed:
        params = OrthoBlockParams(m=m, n_a=n_a, n_q=n_q, rho_a=rho, rho_q=rho, var_a=sigma2, var_q=sigma2)
        filt = filter_closed_form(params, model.h, model.g)
    else:
        filt = lmmse(model)
    return run_monte_carlo(model, filt, sim_cfg)


def cmd_mse(args) -> int:
    where = "mse"
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        _COMMON_KEYS | {"scenario", "m", "rho", "pilot", "sigma2_grid", "allocations", "empirical"},
        where,
    )
    scenario, m, rho, pilot = _scenario(cfg, where)
    if "sigma2_grid" not in cfg:
        raise ConfigError(f"missing required key 'sigma2_grid' in {where} config")
    grid = _sigma_grid(cfg["sigma2_grid"], "sigma2_grid")
    allocations = _get(cfg, "allocations", list, where)
    pairs = []
    for item in allocations:
        if not (isinstance(item, list) and len(item) == 2 and all(_is_count(v, 0) for v in item)):
            raise ConfigError(
                f"'allocations' must be a list of [n_a, n_q] pairs of nonnegative integers, got {item!r}"
            )
        pairs.append((item[0], item[1]))
    seed, output, fmt = _resolve_io(cfg, args, where, default_fmt="csv")
    if args.empirical:
        emp = _get(cfg, "empirical", dict, where, default={})
        _check_keys(emp, {"trials", "analog_bits", "analog_range", "batch_size"}, "mse.empirical")
        sim_cfg = _sim_config(emp, "mse.empirical", seed)

    params_base = OrthoBlockParams(m=m, n_a=0, n_q=0, rho_a=rho, rho_q=rho, var_a=1.0, var_q=1.0)
    rows = sweep_mse_vs_noise(params_base, grid, pairs)
    fieldnames = ["sigma2", "n_a", "n_q", "mse_analytic"]

    if args.empirical:
        for idx, row in enumerate(rows):
            sim = _simulate_cell(
                scenario, m, rho, pilot, row["n_a"], row["n_q"], row["sigma2"], seed,
                replace(sim_cfg, rng_seed=seed + idx), closed=True,
            )
            row["mse_empirical"] = sim.empirical_mse
            row["std_error"] = sim.std_error
        fieldnames += ["mse_empirical", "std_error"]

    _write_table(rows, fieldnames, fmt, output)
    return EXIT_OK


def cmd_allocate(args) -> int:
    """``allocate`` and ``dither``.

    ``dither`` is the single-budget branch with a required dither block, a
    scalar ``sigma2`` and the dither mode leading its JSON payload.
    """
    where = args.command
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        _COMMON_KEYS | {"m", "bits", "p_max_norm", "n_a_max", "rho_a", "rho_q", "sigma2", "dither"},
        where,
    )
    m = _get(cfg, "m", int, where)
    budget = _budget(cfg, m, where)
    rho_a = _get(cfg, "rho_a", float, where, default=1.0)
    rho_q = _get(cfg, "rho_q", float, where, default=1.0)
    scheme = _dither_scheme(cfg["dither"], f"{where}.dither") if "dither" in cfg else None
    # Sweep tables default to CSV; single-result runs default to JSON.
    seed, output, fmt = _resolve_io(cfg, args, where, default_fmt=None)
    if where == "dither":
        if scheme is None:
            raise ConfigError(f"missing required key 'dither' in {where} config")
        sigma2 = _get(cfg, "sigma2", float, where)
    else:
        sigma2 = cfg.get("sigma2")
        if sigma2 is None:
            raise ConfigError(f"missing required key 'sigma2' in {where} config")

    if isinstance(sigma2, (list, dict)):
        fmt = fmt or "csv"
        grid = _sigma_grid(sigma2, f"{where}.sigma2")
        rows = sweep_allocation_vs_noise(
            m, budget, grid, dither_scheme=scheme, rho_a=rho_a, rho_q=rho_q
        )
        fieldnames = [
            "sigma2", "mse_all_analog", "mse_all_quantized", "mse_optimal",
            "mse_optimal_dithered", "n_a_star", "n_q_star",
            "n_a_star_dither", "n_q_star_dither", "sigma_d2_star",
        ]
        if args.oracle:
            max_dev = 0.0
            for row in rows:
                params = OrthoBlockParams(
                    m=m, n_a=0, n_q=0, rho_a=rho_a, rho_q=rho_q,
                    var_a=row["sigma2"], var_q=row["sigma2"],
                )
                ref = allocate_exhaustive(params, budget, rng=RngStream(seed))
                row["mse_oracle"] = ref.mse_star
                max_dev = max(max_dev, abs(ref.mse_star - row["mse_optimal"]))
            fieldnames.append("mse_oracle")
            print(f"oracle max deviation: {max_dev:.3e}", file=sys.stderr)
        for row in rows:
            if row["n_a_star"] == 0 and row["n_q_star"] == 0:
                print(
                    f"warning: budget infeasible at sigma2={row['sigma2']}; "
                    "falling back to the prior-only point (0, 0)",
                    file=sys.stderr,
                )
        _write_table(rows, fieldnames, fmt, output)
        return EXIT_OK

    if not isinstance(sigma2, (int, float)) or isinstance(sigma2, bool):
        raise ConfigError(f"'sigma2' in {where} config must be a number, list, or grid mapping")
    _require_finite(sigma2, f"'sigma2' in {where} config")
    fmt = fmt or "json"
    params = OrthoBlockParams(
        m=m, n_a=0, n_q=0, rho_a=rho_a, rho_q=rho_q,
        var_a=float(sigma2), var_q=float(sigma2),
    )
    result = allocate_with_dither(params, budget, scheme) if scheme else allocate(params, budget)
    if result.n_a_star == 0 and result.n_q_star == 0:
        print("warning: budget infeasible; returning the prior-only point (0, 0)", file=sys.stderr)
    payload = {"mode": scheme.mode} if where == "dither" else {}
    payload |= {
        "n_a_star": result.n_a_star,
        "n_q_star": result.n_q_star,
        "sigma_d2_star": result.dither_var_star,
        "mse_star": result.mse_star,
        "trace": [list(entry) for entry in result.trace],
    }
    if args.oracle:
        ref = allocate_exhaustive(params, budget, rng=RngStream(seed))
        payload["mse_oracle"] = ref.mse_star
        payload["oracle_deviation"] = abs(ref.mse_star - result.mse_star)
        print(f"oracle deviation: {payload['oracle_deviation']:.3e}", file=sys.stderr)
    if fmt == "json":
        _emit(_json_text(payload), output)
    else:
        _write_table(_trace_rows(result.trace), ["n_a", "n_q", "sigma_d2", "mse"], "csv", output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    where = "simulate"
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        _COMMON_KEYS
        | {"scenario", "m", "n_a", "n_q", "rho", "pilot", "sigma2", "trials",
           "analog_bits", "analog_range", "batch_size", "filter"},
        where,
    )
    scenario, m, rho, pilot = _scenario(cfg, where)
    n_a = _get(cfg, "n_a", int, where, minimum=0)
    n_q = _get(cfg, "n_q", int, where, minimum=0)
    sigma2 = _get(cfg, "sigma2", float, where)
    filter_kind = _get(cfg, "filter", str, where, default="general")
    if filter_kind not in ("general", "closed"):
        raise ConfigError(f"filter must be 'general' or 'closed', got {filter_kind!r}")
    seed, output, fmt = _resolve_io(cfg, args, where, default_fmt="json")
    sim_cfg = _sim_config(cfg, where, seed)

    sim = _simulate_cell(scenario, m, rho, pilot, n_a, n_q, sigma2, seed, sim_cfg, closed=filter_kind == "closed")
    row = {
        "empirical_mse": sim.empirical_mse,
        "std_error": sim.std_error,
        "analytic_mse": sim.analytic_mse,
        "trials_run": sim.trials_run,
    }
    if fmt == "json":
        _emit(_json_text(row), output)
    else:
        _write_table([row], list(row.keys()), "csv", output)
    return EXIT_OK


def cmd_bench(args) -> int:
    where = "bench"
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        _COMMON_KEYS
        | {"m_list", "n_a_max_list", "bits", "rho", "sigma2", "repeats", "direct_repeats", "warmup"},
        where,
    )
    m_list = _get(cfg, "m_list", list, where)
    n_a_max_list = _get(cfg, "n_a_max_list", list, where)
    if not all(_is_count(v, 1) for v in m_list):
        raise ConfigError("'m_list' must contain positive integers")
    if not all(_is_count(v, 1) for v in n_a_max_list):
        raise ConfigError("'n_a_max_list' must contain positive integers")
    bits = _get(cfg, "bits", int, where, default=6)
    rho = _get(cfg, "rho", float, where, default=1.0)
    sigma2 = _get(cfg, "sigma2", float, where, default=1.0)
    repeats = _get(cfg, "repeats", int, where, default=10, minimum=1)
    if args.repeats is not None:
        repeats = args.repeats
    direct_repeats = _get(cfg, "direct_repeats", int, where, default=None, allow_none=True, minimum=1)
    warmup = _get(cfg, "warmup", int, where, default=2, minimum=0)
    seed, output, fmt = _resolve_io(cfg, args, where, default_fmt="csv")

    results = bench_runtime(
        m_list,
        n_a_max_list,
        bits=bits,
        rho=rho,
        sigma2=sigma2,
        repeats=repeats,
        direct_repeats=direct_repeats,
        warmup=warmup,
        rng_seed=seed,
    )
    rows = [
        {
            "M": res.m,
            "n_a_max": res.n_a_max,
            "t_closed_ms": res.closed_form_time.median_s * 1e3,
            "t_direct_ms": res.direct_time.median_s * 1e3,
        }
        for res in results
    ]
    _write_table(rows, ["M", "n_a_max", "t_closed_ms", "t_direct_ms"], fmt, output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedres",
        description="Mixed-resolution Bayesian estimation: MSE evaluation, "
        "resource allocation, dithering, simulation, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "mse": (cmd_mse, "analytic / empirical MSE grid over noise levels"),
        "allocate": (cmd_allocate, "power-constrained measurement allocation"),
        "dither": (cmd_allocate, "allocation with dither optimization"),
        "simulate": (cmd_simulate, "Monte-Carlo validation of one scenario"),
        "bench": (cmd_bench, "closed-form vs matrix-solve runtime comparison"),
    }
    for name, (handler, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the YAML experiment config")
        p.add_argument("--output", default=None, help="output file (default: stdout)")
        p.add_argument("--format", default=None, choices=("csv", "json"))
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "mse":
            p.add_argument("--empirical", action="store_true", help="add Monte-Carlo columns")
        if name == "simulate":
            p.add_argument(
                "--threads", type=_positive_int, default=1,
                help="ignored; trials run on one thread. Accepted, as a positive count, because "
                "perfbench's monte_carlo workload passes --threads 1 and 2",
            )
        if name == "allocate":
            p.add_argument("--oracle", action="store_true", help="cross-check against the exhaustive solver")
        if name == "bench":
            p.add_argument("--repeats", type=_positive_int, default=None, help="override timing repetitions")
        p.set_defaults(handler=handler, oracle=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ModelError) as exc:
        # Every model value in a CLI run comes from the config.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MixedResError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
