"""Monte-Carlo validation harness, analytic sweeps, and runtime benchmarks.

Trials are processed in order in fixed-size batches, each batch drawing
from its own random stream, and per-batch sums are reduced with exact
summation, so a seed and a batch size fix the result bit for bit.  The analog
path can optionally be passed through a b-bit quantizer to emulate a
finite-resolution ADC instead of ideal analog acquisition.

A batch draws copy sums, not rows.  When the quantized rows of the model
and the filter's columns for them both repeat with period p (the
``block_period`` of [G | W_q^T]), the filter gives every copy the same
columns, so W_q x_q = W_q1 (q_1 + ... + q_k) and only the p-row copy sum
is drawn (:func:`~mixedres.model.sample_copy_sums`).  The analog rows work
the same way with [H | W_a^T], except under b-bit emulation, which must
quantize every copy, so the analog period is then n_a.  Rows without
repetition are one copy of themselves (k = 1) and take the same path: one
Bernoulli per quantized row and one analog noise block.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .allocation import (
    MAX_GRID_POINTS,
    DitherScheme,
    PowerBudget,
    allocate,
    argbest,
    check_grid_size,
    frontier,
    frontier_grid,
    max_nq,
    na_range,
    optimum,
)
from .closed_form import mse_grid
from .exceptions import InstanceTooLargeError, ModelError, NumericalDomainError, require_finite
from .estimator import LmmseFilter, check_dense_rows, prefix_mse
from .model import (
    MixedModel,
    OrthoBlockParams,
    QuantizerSpec,
    RngStream,
    block_period,
    make_ortho_matrices,
    quantize_bbit,
    sample_copy_sums,
    sample_parameter,
)

# Default b-bit emulation of the analog path: 6 bits on [-5, 5].
DEFAULT_ANALOG_QUANTIZER = QuantizerSpec(bits=6, lo=-5.0, hi=5.0)
# Most values (rows x trials) in one Monte-Carlo batch array.  A complex
# batch array then takes at most 1 GiB, and the default batch of 8192 trials
# admits every model the dense solver accepts.
MAX_BATCH_ELEMENTS = 8192 * 8192
# Most trials in one run: the largest count that the float64 mean and
# variance divide by exactly.
MAX_TRIALS = 2**53
# Most measured or warm-up repetitions of one timed callable.  A closed-form
# repetition lasts at least 10 ms, so one case stays under two minutes.
MAX_REPEATS = 10_000


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo run configuration.

    ``analog_quantizer=None`` means ideal analog measurements; pass a
    :class:`QuantizerSpec` (e.g. ``DEFAULT_ANALOG_QUANTIZER``) to emulate a
    finite-resolution analog ADC.
    """

    trials: int = 100_000
    rng_seed: int = 0
    analog_quantizer: QuantizerSpec | None = None
    batch_size: int = 8192

    def __post_init__(self):
        if self.trials < 1 or self.batch_size < 1:
            raise ModelError("trials and batch_size must be >= 1")


@dataclass
class SimResult:
    """Aggregated Monte-Carlo output next to the analytic prediction."""

    empirical_mse: float
    std_error: float
    analytic_mse: float
    trials_run: int


@dataclass(frozen=True)
class TimingStats:
    """Median/best wall time over a fixed number of measured repetitions."""

    median_s: float
    best_s: float
    repeats: int


@dataclass
class BenchResult:
    """Runtime of one allocation sweep in both MSE-evaluation modes."""

    closed_form_time: TimingStats
    direct_time: TimingStats | None
    n_a_max: int
    m: int


# ---------------------------------------------------------------------------
# Monte-Carlo estimation
# ---------------------------------------------------------------------------


def check_batch_size(rows: int, cfg: SimConfig, m: int) -> None:
    """Refuse arrays of more than ``MAX_BATCH_ELEMENTS`` values, before any is built.

    A batch holds rows x min(``batch_size``, ``trials``) values; the mixing
    matrices and the filter of an m-dimensional parameter hold rows x m.
    More than ``MAX_TRIALS`` trials are refused too.
    """
    if cfg.trials > MAX_TRIALS:
        raise InstanceTooLargeError(f"{cfg.trials} trials exceed the limit of {MAX_TRIALS}")
    batch = min(cfg.batch_size, cfg.trials)
    if rows * batch > MAX_BATCH_ELEMENTS:
        raise InstanceTooLargeError(
            f"a batch of {rows} rows x {batch} trials exceeds {MAX_BATCH_ELEMENTS} values; lower batch_size"
        )
    if rows * m > MAX_BATCH_ELEMENTS:
        raise InstanceTooLargeError(f"a model of {rows} rows x m = {m} exceeds {MAX_BATCH_ELEMENTS} values")


def _copy_periods(model: MixedModel, filt: LmmseFilter, cfg: SimConfig) -> tuple[int, int]:
    """(analog, quantized) periods of the rows and filter columns, as :func:`_run_batch` uses them.

    The quantized period is the ``block_period`` of [G | W_q^T] and the
    analog one that of [H | W_a^T], or n_a under b-bit emulation.
    """
    n_a = model.n_analog
    w_t = filt.w.T
    p_q = block_period(np.concatenate([model.g, w_t[n_a:]], axis=1))
    if cfg.analog_quantizer is not None:
        return n_a, p_q
    return block_period(np.concatenate([model.h, w_t[:n_a]], axis=1)), p_q


def _run_batch(model: MixedModel, filt: LmmseFilter, cfg: SimConfig, batch: int, count: int, periods: tuple[int, int]):
    p_a, p_q = periods
    theta = sample_parameter(model.sigma_theta, RngStream(cfg.rng_seed, 2 * batch), size=count)
    s_a, s_q = sample_copy_sums(model, theta, RngStream(cfg.rng_seed, 2 * batch + 1), p_a, p_q)
    if cfg.analog_quantizer is not None and s_a.size:
        s_a = quantize_bbit(s_a, cfg.analog_quantizer)
    n_a = model.n_analog
    err = filt.w[:, :p_a] @ s_a + filt.w[:, n_a : n_a + p_q] @ s_q - theta
    # An extreme quantizer range can overflow the squares; run_monte_carlo
    # refuses the non-finite result.
    with np.errstate(over="ignore", invalid="ignore"):
        per_trial = (err.real**2 + err.imag**2).sum(axis=0)
        return float(per_trial.sum()), float((per_trial**2).sum())


def run_monte_carlo(model: MixedModel, filt: LmmseFilter, cfg: SimConfig) -> SimResult:
    """Estimate the empirical MSE of a filter by seeded Monte-Carlo trials.

    Per trial: draw the parameter and the copy sums of the measurements
    (see the module docstring), apply the filter, and accumulate the
    squared estimation error.  The standard error is the sample standard
    deviation of the per-trial squared error divided by sqrt(trials).
    """
    if filt.w.shape != (model.m, model.n_analog + model.n_quantized):
        raise ModelError("filter shape does not match the model")
    check_batch_size(model.n_analog + model.n_quantized, cfg, model.m)
    n_batches = -(-cfg.trials // cfg.batch_size)
    periods = _copy_periods(model, filt, cfg)
    partials = [
        _run_batch(model, filt, cfg, b, min(cfg.batch_size, cfg.trials - b * cfg.batch_size), periods)
        for b in range(n_batches)
    ]
    # Exact summation of the batch sums: a plain sum rounds differently and
    # would change the output bytes.
    total = math.fsum(p[0] for p in partials)
    total_sq = math.fsum(p[1] for p in partials)
    t = cfg.trials
    if not math.isfinite(total_sq):
        raise NumericalDomainError("the squared estimation error overflowed to a non-finite value")
    mean = total / t
    var = max(total_sq - t * mean**2, 0.0) / (t - 1) if t > 1 else 0.0
    return SimResult(
        empirical_mse=mean,
        std_error=math.sqrt(var / t),
        analytic_mse=filt.mse,
        trials_run=t,
    )


# ---------------------------------------------------------------------------
# Analytic sweeps
# ---------------------------------------------------------------------------


def _noise_levels(sigma_grid) -> list[float]:
    levels = [float(sigma2) for sigma2 in sigma_grid]
    for sigma2 in levels:
        require_finite("sigma2", sigma2)
    return levels


def sweep_mse_vs_noise(
    params_base: OrthoBlockParams,
    sigma_grid,
    allocations,
) -> list[dict]:
    """Closed-form MSE over a noise grid for fixed (n_a, n_q) allocations.

    The noise variance applies to both measurement paths.  Returns one row
    per (sigma2, allocation) cell, noise-major.  More than
    ``MAX_GRID_POINTS`` cells are refused before the grid is built.
    """
    levels = _noise_levels(sigma_grid)
    pairs = [(int(n_a), int(n_q)) for n_a, n_q in allocations]
    if len(levels) * len(pairs) > MAX_GRID_POINTS:
        raise InstanceTooLargeError(
            f"{len(levels)} noise levels x {len(pairs)} allocations exceed {MAX_GRID_POINTS} grid points"
        )
    if any(n_a < 0 or n_q < 0 for n_a, n_q in pairs):
        raise ModelError("block counts must be nonnegative")
    n_a = np.array([n_a for n_a, _ in pairs], dtype=np.float64)
    n_q = np.array([n_q for _, n_q in pairs], dtype=np.float64)
    noise = np.array(levels).reshape(-1, 1)
    mse = mse_grid(
        params_base.m, n_a, n_q, params_base.rho_a, params_base.rho_q,
        noise + params_base.var_da, noise + params_base.var_dq,
    )
    return [
        {"sigma2": sigma2, "n_a": a, "n_q": q, "mse_analytic": value}
        for sigma2, row in zip(levels, mse.tolist())
        for (a, q), value in zip(pairs, row)
    ]


def sweep_allocation_vs_noise(
    m: int,
    budget: PowerBudget,
    sigma_grid,
    dither_scheme: DitherScheme | None = None,
    rho_a: float = 1.0,
    rho_q: float = 1.0,
) -> list[dict]:
    """Policy comparison per noise level: all-analog, all-quantized, optimal, dithered.

    The all-analog row spends the whole budget on analog blocks; the
    all-quantized row on quantized blocks; the optimal rows come from the
    frontier search, without and with dither optimization.  One
    :func:`frontier_grid` call covers every noise level, frontier point and
    dither value; the undithered search reads its first dither column, which
    is zero.
    """
    scheme = dither_scheme if dither_scheme is not None else DitherScheme()
    OrthoBlockParams(m=m, n_a=0, n_q=0, rho_a=rho_a, rho_q=rho_q)  # validates m and the gains
    levels = _noise_levels(sigma_grid)
    n_a, n_q, grid, mse = frontier_grid(m, rho_a, rho_q, levels, levels, budget, scheme)
    noise = np.array(levels)
    all_analog = mse_grid(m, n_a[-1], 0, rho_a, rho_q, noise, noise)
    plain = argbest(mse[:, :, 0], 0.0, n_a).tolist()
    flat = mse.reshape(len(levels), -1)
    dithered = argbest(flat, np.tile(grid, len(n_a)), np.repeat(n_a, len(grid))).tolist()
    rows = []
    for s, sigma2 in enumerate(levels):
        p, (k, j) = plain[s], divmod(dithered[s], len(grid))
        rows.append(
            {
                "sigma2": sigma2,
                "mse_all_analog": float(all_analog[s]),
                "mse_all_quantized": float(mse[s, 0, 0]),
                "mse_optimal": float(mse[s, p, 0]),
                "mse_optimal_dithered": float(flat[s, dithered[s]]),
                "n_a_star": n_a[p],
                "n_q_star": n_q[p],
                "n_a_star_dither": n_a[k],
                "n_q_star_dither": n_q[k],
                "sigma_d2_star": grid[j],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Runtime benchmark
# ---------------------------------------------------------------------------


def _check_repeats(repeats: int, warmup: int) -> None:
    if repeats < 1 or warmup < 0:
        raise ModelError(f"need repeats >= 1 and warmup >= 0, got repeats={repeats}, warmup={warmup}")
    if max(repeats, warmup) > MAX_REPEATS:
        raise InstanceTooLargeError(f"{max(repeats, warmup)} repetitions exceed the limit of {MAX_REPEATS}")


def _timeit(fns, repeats: int, warmup: int, warmup_fns=None, min_rep_time: float = 0.0) -> list[TimingStats]:
    """Median/best of ``repeats`` timed calls of each callable after ``warmup`` untimed ones.

    Fast callables are batched into inner loops so that every measured
    repetition spans at least ``min_rep_time`` seconds of wall clock.  The
    repetitions are interleaved, one of each callable per round, so every
    callable is sampled over the same stretch of wall clock and a change in
    host speed shifts them all alike.
    """
    _check_repeats(repeats, warmup)
    for warm in warmup_fns if warmup_fns is not None else fns:
        for _ in range(warmup):
            warm()
    inners = []
    for fn in fns:
        inner = 1
        if min_rep_time > 0.0:
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            if dt < min_rep_time:
                inner = max(1, math.ceil(min_rep_time / max(dt, 1e-9)))
        inners.append(inner)
    times = [[] for _ in fns]
    for _ in range(repeats):
        for fn, inner, samples in zip(fns, inners, times):
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            samples.append((time.perf_counter() - t0) / inner)
    return [
        TimingStats(median_s=statistics.median(samples), best_s=min(samples), repeats=repeats)
        for samples in times
    ]


def _dense_direct_search(params: OrthoBlockParams, points, h_full: np.ndarray, g1: np.ndarray):
    """The points of ``allocation.direct_search`` on the dense route: one
    :func:`~mixedres.estimator.prefix_mse` over all n rows per analog count.

    Point (n_a, n_q) is the first m * (n_a + n_q) rows of the model with the
    same n_a and the largest requested n_q, so one scan per analog count
    covers it.  The runtime benchmark times this route, whose cost grows
    with the full row count.
    """
    m = params.m
    points = list(points)
    largest: dict[int, int] = {}
    for n_a, n_q in points:
        if n_a or n_q:
            largest[n_a] = max(largest.get(n_a, 0), n_q)
    eye = np.eye(m, dtype=np.complex128)
    scans = {
        n_a: prefix_mse(
            MixedModel(
                h=h_full[: m * n_a],
                g=np.tile(g1, (n_q, 1)),
                sigma_theta=eye,
                var_a=params.var_a,
                var_q=params.var_q,
            )
        ).tolist()
        for n_a, n_q in largest.items()
    }
    return optimum(
        [(n_a, n_q, 0.0, scans[n_a][m * (n_a + n_q)] if n_a or n_q else float(m)) for n_a, n_q in points]
    )


def bench_runtime(
    m_list,
    n_a_max_list,
    bits: int = 6,
    rho: float = 1.0,
    sigma2: float = 1.0,
    repeats: int = 10,
    direct_repeats: int | None = None,
    warmup: int = 2,
    include_direct: bool = True,
    rng_seed: int = 0,
) -> list[BenchResult]:
    """Time the allocation sweep with closed-form vs matrix-solve MSE.

    The budget is pinned to ``2**bits * m * n_a_max`` so the frontier always
    contains ``n_a_max + 1`` points.  The closed-form repetitions of all
    (m, n_a_max) cases are interleaved, so their medians come from the same
    stretch of wall clock.  The direct arm evaluates the frontier points of
    ``allocation.direct_search`` on the dense route (one Cholesky prefix scan
    of all n rows per analog count) and warms up on its cheapest point, the one with the most
    analog blocks; set ``direct_repeats`` to control its measured repetitions
    separately (large instances make full-sweep repetitions expensive).
    Repetition counts above ``MAX_REPEATS``, a frontier the closed-form
    search would refuse, and a direct arm whose largest frontier model
    exceeds ``MAX_DENSE_ROWS`` rows are refused before anything is drawn or
    timed.
    """
    _check_repeats(repeats, warmup)
    if direct_repeats is not None:
        _check_repeats(direct_repeats, warmup)
    cases = []
    for m in m_list:
        for n_a_max in n_a_max_list:
            budget = PowerBudget.for_analog_blocks(bits, m, n_a_max)
            params = OrthoBlockParams(
                m=m, n_a=0, n_q=0, rho_a=rho, rho_q=rho,
                var_a=float(sigma2), var_q=float(sigma2),
            )
            cases.append((m, n_a_max, budget, params))
    for m, _, budget, _ in cases:
        check_grid_size(m, budget, DitherScheme(mode="none"))
        if include_direct:
            # The direct arm draws m x m blocks before its solver would check the
            # row count, so refuse its largest frontier model (m rows or more) first.
            check_dense_rows(max(m * (n_a + n_q) for n_a, n_q in zip(*frontier(m, budget))))
    closed_stats = _timeit(
        [partial(allocate, params, budget) for _, _, budget, params in cases],
        repeats=repeats,
        warmup=warmup,
        min_rep_time=0.01,
    )
    results = []
    for (m, n_a_max, budget, params), closed in zip(cases, closed_stats):
        direct_stats = None
        if include_direct:
            # One quantized block suffices; the search tiles it per point.
            h_full, g_full = make_ortho_matrices(
                replace(params, n_a=n_a_max, n_q=1), RngStream(rng_seed)
            )
            g1 = g_full[:m]
            top = na_range(m, budget)[-1]
            (direct_stats,) = _timeit(
                [lambda: _dense_direct_search(params, zip(*frontier(m, budget)), h_full, g1)],
                repeats=direct_repeats if direct_repeats is not None else repeats,
                warmup=warmup,
                warmup_fns=[lambda: _dense_direct_search(params, [(top, max_nq(top, m, budget))], h_full, g1)],
            )
        results.append(BenchResult(closed_form_time=closed, direct_time=direct_stats, n_a_max=n_a_max, m=m))
    return results
