"""Command-line front end: YAML experiment configs in, CSV/JSON tables out.

Subcommands
-----------
mse       analytic (optionally empirical) MSE grid over noise levels
allocate  power-constrained allocation: single budget or noise sweep
dither    allocation with dither-variance optimization, with search trace
simulate  Monte-Carlo validation of a single scenario
bench     runtime comparison of closed-form vs matrix-solve sweeps

Exit codes: 0 on success; 2 on a usage or configuration error, which
includes any value the library rejects while the model is built; 3 on a
numerical or infeasibility error.

:func:`main` runs every subcommand the same way: it loads the config,
checks its keys, resolves the seed, the output and the format, calls the
subcommand's ``cmd_*`` handler with the config, the arguments and the seed,
and writes the table the handler returns.  The handlers only compute.  The
argument parser is built once per process; the handler is looked up by name
on every call.

Keys that feed a library parameter are passed on only when the config sets
them (:func:`_given`), so each default is written once, in the library; the
CLI's own defaults are for the keys that no library parameter defaults.

CSV output is comma-separated with a header row, LF line endings, and full
double precision (17 significant digits).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from collections.abc import Hashable
from dataclasses import dataclass, replace

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
from .exceptions import ConfigError, InstanceTooLargeError, MixedResError, ModelError, _count_text
from .estimator import check_dense_rows, lmmse
from .model import (
    PILOTS,
    OrthoBlockParams,
    QuantizerSpec,
    RngStream,
    make_mimo_model,
    make_scalar_model,
)
from .simulate import (
    DEFAULT_ANALOG_QUANTIZER,
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


def _config_loader(base: type) -> type:
    """``base`` (a PyYAML safe loader), with floats also written without a
    dot or an exponent sign, and a key repeated in one mapping refused.

    PyYAML resolves plain scalars by YAML 1.1, which takes ``1e-1``,
    ``1.0e308`` and ``1E5`` for strings; YAML 1.2 and users read them as
    floats, and so does this loader.  PyYAML also keeps the last of two
    equal keys, so ``m: 2`` then ``m: 3`` would silently run with m = 3.
    The resolver and the constructor run in Python over either parser.
    """

    class ConfigLoader(base):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=True)
                if not isinstance(key, Hashable):
                    continue  # the base constructor refuses it
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark,
                    )
                seen.add(key)
            return super().construct_mapping(node, deep=deep)

    ConfigLoader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )
    return ConfigLoader


# libyaml parses when PyYAML was built with it, else the pure-Python parser
# does; the two give the same configs (a parse error's wording differs:
# libyaml's marks quote no source line).
_ConfigLoader = _config_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.load(fh, Loader=_ConfigLoader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: a scalar the constructor cannot convert, such as an
        # integer longer than Python's int() digit limit.
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
        raise ConfigError(f"key '{key}' in {where} config must be >= {minimum}, got {_count_text(value)}")
    return value


def _given(cfg: dict, where: str, nullable: tuple = (), **kinds) -> dict:
    """The keys of ``kinds`` that ``cfg`` sets, read by :func:`_get`, as keyword
    arguments: a key left out takes the default of the library parameter it
    feeds.  A kind is a type or ``(type, minimum)``; only ``nullable`` keys may be null."""
    given = {}
    for key, kind in kinds.items():
        if key in cfg:
            kind, minimum = kind if isinstance(kind, tuple) else (kind, None)
            given[key] = _get(cfg, key, kind, where, allow_none=key in nullable, minimum=minimum)
    return given


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
            raise InstanceTooLargeError(
                f"'{where}.num' = {_count_text(num)} exceeds the limit of {MAX_GRID_POINTS} grid points"
            )
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
    return DitherScheme(**_given(cfg, where, mode=str, grid_max=float, grid_step=float))


def _analog_quantizer(cfg: dict, where: str) -> QuantizerSpec | None:
    bits = _get(cfg, "analog_bits", int, where, default=None, allow_none=True)
    if bits is None:
        return None
    rng = _get(cfg, "analog_range", list, where, default=[DEFAULT_ANALOG_QUANTIZER.lo, DEFAULT_ANALOG_QUANTIZER.hi])
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


@dataclass(frozen=True)
class _Result:
    """What a handler computed: the CSV rows and their field names, the JSON
    document (the rows when None) and the format used when none is given."""

    rows: list[dict]
    fields: list[str]
    default_fmt: str
    document: object = None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_COMMON_KEYS = {"seed", "output", "format"}


def _resolve_io(cfg: dict, args, where: str):
    """The seed, the output path (None: stdout) and the format (None: the command's default)."""
    seed = _get(cfg, "seed", int, where, default=0)
    if args.seed is not None:
        seed = args.seed
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    output = args.output if args.output is not None else _get(cfg, "output", str, where, default=None, allow_none=True)
    fmt = args.format if args.format is not None else _get(cfg, "format", str, where, default=None, allow_none=True)
    if fmt is not None and fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    return seed, output, fmt


def _scenario(cfg: dict, where: str):
    """(scenario, m, rho, pilot keyword); the scalar scenario fixes m=1 and rho=1."""
    scenario = _get(cfg, "scenario", str, where, default="scalar")
    if scenario not in ("scalar", "mimo"):
        raise ConfigError(f"scenario must be 'scalar' or 'mimo', got {scenario!r}")
    m = _get(cfg, "m", int, where, default=1, minimum=1)
    rho = _get(cfg, "rho", float, where, default=1.0)
    pilot = _given(cfg, where, pilot=str)
    if scenario == "scalar" and (m != 1 or rho != 1.0):
        raise ConfigError("scalar scenario requires m=1 and rho=1")
    if scenario == "scalar" and pilot:
        raise ConfigError("scalar scenario takes no 'pilot' key")
    if "pilot" in pilot and pilot["pilot"] not in PILOTS:
        raise ConfigError(f"'pilot' must be one of {', '.join(PILOTS)}, got {pilot['pilot']!r}")
    return scenario, m, rho, pilot


def _sim_config(cfg: dict, where: str, seed: int) -> SimConfig:
    counts = _given(cfg, where, trials=int, batch_size=int)
    return SimConfig(rng_seed=seed, analog_quantizer=_analog_quantizer(cfg, where), **counts)


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
        model = make_mimo_model(m, n_a, n_q, rho, sigma2, rng=RngStream(seed), **pilot)
    if closed:
        params = OrthoBlockParams(m=m, n_a=n_a, n_q=n_q, rho_a=rho, rho_q=rho, var_a=sigma2, var_q=sigma2)
        filt = filter_closed_form(params, model.h, model.g)
    else:
        filt = lmmse(model)
    return run_monte_carlo(model, filt, sim_cfg)


def cmd_mse(cfg: dict, args, seed: int) -> _Result:
    where = "mse"
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
    # The block is checked whether or not --empirical runs it.
    emp = _get(cfg, "empirical", dict, where, default={})
    _check_keys(emp, {"trials", "analog_bits", "analog_range", "batch_size"}, "mse.empirical")
    sim_cfg = _sim_config(emp, "mse.empirical", seed)

    params_base = OrthoBlockParams(m=m, n_a=0, n_q=0, rho_a=rho, rho_q=rho)
    rows = sweep_mse_vs_noise(params_base, grid, pairs)
    fieldnames = ["sigma2", "n_a", "n_q", "mse_analytic"]

    if args.empirical:
        if seed + len(rows) - 1 >= 2**64:
            raise ConfigError(
                f"cell i seeds its trials with seed + i, and seed {seed} + {len(rows) - 1} exceeds 2**64 - 1"
            )
        for n_a, n_q in dict.fromkeys(pairs):  # all before the first cell's Monte Carlo
            if n_a + n_q == 0:
                raise ConfigError(f"--empirical needs a measurement in every cell; allocation [{n_a}, {n_q}] has none")
            check_batch_size(m * (n_a + n_q), sim_cfg, m)
        for idx, row in enumerate(rows):
            sim = _simulate_cell(
                scenario, m, rho, pilot, row["n_a"], row["n_q"], row["sigma2"], seed,
                replace(sim_cfg, rng_seed=seed + idx), closed=True,
            )
            row["mse_empirical"] = sim.empirical_mse
            row["std_error"] = sim.std_error
        fieldnames += ["mse_empirical", "std_error"]

    return _Result(rows, fieldnames, "csv")


def cmd_allocate(cfg: dict, args, seed: int) -> _Result:
    """``allocate`` and ``dither``.

    ``dither`` is the single-budget branch with a required dither block, a
    scalar ``sigma2`` and the dither mode leading its JSON payload.  Sweep
    tables default to CSV; single-result runs default to JSON.
    """
    where = args.command
    m = _get(cfg, "m", int, where, minimum=1)
    budget = _budget(cfg, m, where)
    gains = _given(cfg, where, rho_a=float, rho_q=float)
    scheme = _dither_scheme(cfg["dither"], f"{where}.dither") if "dither" in cfg else None
    if where == "dither":
        if scheme is None:
            raise ConfigError(f"missing required key 'dither' in {where} config")
        sigma2 = _get(cfg, "sigma2", float, where)
    else:
        sigma2 = cfg.get("sigma2")
        if sigma2 is None:
            raise ConfigError(f"missing required key 'sigma2' in {where} config")

    def params_at(sigma2: float) -> OrthoBlockParams:
        return OrthoBlockParams(m=m, n_a=0, n_q=0, var_a=sigma2, var_q=sigma2, **gains)

    def oracle_mse(sigma2: float) -> float:
        return allocate_exhaustive(params_at(sigma2), budget, rng=RngStream(seed)).mse_star

    if isinstance(sigma2, (list, dict)):
        grid = _sigma_grid(sigma2, f"{where}.sigma2")
        rows = sweep_allocation_vs_noise(m, budget, grid, dither_scheme=scheme, **gains)
        fieldnames = [
            "sigma2", "mse_all_analog", "mse_all_quantized", "mse_optimal",
            "mse_optimal_dithered", "n_a_star", "n_q_star",
            "n_a_star_dither", "n_q_star_dither", "sigma_d2_star",
        ]
        if args.oracle:
            max_dev = 0.0
            for row in rows:
                row["mse_oracle"] = oracle_mse(row["sigma2"])
                max_dev = max(max_dev, abs(row["mse_oracle"] - row["mse_optimal"]))
            fieldnames.append("mse_oracle")
            print(f"oracle max deviation: {max_dev:.3e}", file=sys.stderr)
        for row in rows:
            if row["n_a_star"] == 0 and row["n_q_star"] == 0:
                print(
                    f"warning: budget infeasible at sigma2={row['sigma2']}; "
                    "falling back to the prior-only point (0, 0)",
                    file=sys.stderr,
                )
        return _Result(rows, fieldnames, "csv")

    if not isinstance(sigma2, (int, float)) or isinstance(sigma2, bool):
        raise ConfigError(f"'sigma2' in {where} config must be a number, list, or grid mapping")
    _require_finite(sigma2, f"'sigma2' in {where} config")
    sigma2 = float(sigma2)
    params = params_at(sigma2)
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
        # The exhaustive oracle searches no dither, so it checks the undithered optimum.
        undithered = allocate(params, budget) if scheme else result
        payload["mse_oracle"] = oracle_mse(sigma2)
        payload["oracle_deviation"] = abs(payload["mse_oracle"] - undithered.mse_star)
        print(f"oracle deviation: {payload['oracle_deviation']:.3e}", file=sys.stderr)
    fieldnames = ["n_a", "n_q", "sigma_d2", "mse"]
    return _Result([dict(zip(fieldnames, entry)) for entry in result.trace], fieldnames, "json", payload)


def cmd_simulate(cfg: dict, args, seed: int) -> _Result:
    where = "simulate"
    scenario, m, rho, pilot = _scenario(cfg, where)
    n_a = _get(cfg, "n_a", int, where, minimum=0)
    n_q = _get(cfg, "n_q", int, where, minimum=0)
    sigma2 = _get(cfg, "sigma2", float, where)
    filter_kind = _get(cfg, "filter", str, where, default="general")
    if filter_kind not in ("general", "closed"):
        raise ConfigError(f"filter must be 'general' or 'closed', got {filter_kind!r}")
    sim_cfg = _sim_config(cfg, where, seed)

    sim = _simulate_cell(scenario, m, rho, pilot, n_a, n_q, sigma2, seed, sim_cfg, closed=filter_kind == "closed")
    row = {
        "empirical_mse": sim.empirical_mse,
        "std_error": sim.std_error,
        "analytic_mse": sim.analytic_mse,
        "trials_run": sim.trials_run,
    }
    return _Result([row], list(row), "json", row)


def cmd_bench(cfg: dict, args, seed: int) -> _Result:
    where = "bench"
    m_list = _get(cfg, "m_list", list, where)
    n_a_max_list = _get(cfg, "n_a_max_list", list, where)
    if not all(_is_count(v, 1) for v in m_list):
        raise ConfigError("'m_list' must contain positive integers")
    if not all(_is_count(v, 1) for v in n_a_max_list):
        raise ConfigError("'n_a_max_list' must contain positive integers")
    timing = _given(
        cfg, where, nullable=("direct_repeats",),
        bits=int, rho=float, sigma2=float, repeats=(int, 1), direct_repeats=(int, 1), warmup=(int, 0),
    )
    results = bench_runtime(m_list, n_a_max_list, rng_seed=seed, **timing)
    rows = [
        {
            "M": res.m,
            "n_a_max": res.n_a_max,
            "t_closed_ms": res.closed_form_time.median_s * 1e3,
            "t_direct_ms": res.direct_time.median_s * 1e3,
        }
        for res in results
    ]
    return _Result(rows, ["M", "n_a_max", "t_closed_ms", "t_direct_ms"], "csv")


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


_ALLOCATE_KEYS = {"m", "bits", "p_max_norm", "n_a_max", "rho_a", "rho_q", "sigma2", "dither"}

# Subcommand -> (name of its handler in this module, help text, config keys
# beyond ``_COMMON_KEYS``).  The handler is looked up at call time, so a
# patched ``cmd_*`` binding is used.
_COMMANDS = {
    "mse": ("cmd_mse", "analytic / empirical MSE grid over noise levels",
            {"scenario", "m", "rho", "pilot", "sigma2_grid", "allocations", "empirical"}),
    "allocate": ("cmd_allocate", "power-constrained measurement allocation", _ALLOCATE_KEYS),
    "dither": ("cmd_allocate", "allocation with dither optimization", _ALLOCATE_KEYS),
    "simulate": ("cmd_simulate", "Monte-Carlo validation of one scenario",
                 {"scenario", "m", "n_a", "n_q", "rho", "pilot", "sigma2", "trials",
                  "analog_bits", "analog_range", "batch_size", "filter"}),
    "bench": ("cmd_bench", "closed-form vs matrix-solve runtime comparison",
              {"m_list", "n_a_max_list", "bits", "rho", "sigma2", "repeats", "direct_repeats", "warmup"}),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="mixedres",
        description="Mixed-resolution Bayesian estimation: MSE evaluation, "
        "resource allocation, dithering, simulation, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
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
        p.set_defaults(oracle=False)
    return parser


def main(argv=None) -> int:
    """Run one subcommand: load and check its config, resolve the seed, the
    output and the format, call its handler and write what it returns."""
    args = _parser().parse_args(argv)
    where = args.command
    handler, _, keys = _COMMANDS[where]
    try:
        cfg = _load_config(args.config)
        _check_keys(cfg, _COMMON_KEYS | keys, where)
        seed, output, fmt = _resolve_io(cfg, args, where)
        result = globals()[handler](cfg, args, seed)
        if (fmt or result.default_fmt) == "csv":
            _emit(_csv_text(result.rows, result.fields), output)
        else:
            _emit(_json_text(result.rows if result.document is None else result.document), output)
    except (ConfigError, ModelError) as exc:
        # Every model value in a CLI run comes from the config.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MixedResError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
