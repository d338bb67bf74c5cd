"""Monte-Carlo validation harness, analytic sweeps, and runtime benchmarks.

Trials are processed in order in fixed-size batches, each batch drawing
from its own random stream, and per-batch sums are reduced with exact
summation, so a seed and a batch size fix the result bit for bit.  The analog
path can optionally be passed through a b-bit quantizer to emulate a
finite-resolution ADC instead of ideal analog acquisition.

A batch draws copy sums, not rows.  When the quantized rows of the model
and the filter's columns for them both repeat with period p (the
``copy_layout`` of [G | W_q^T]), the filter gives every copy the same
columns, so W_q x_q = W_q1 (q_1 + ... + q_k) and only the p-row copy sum
matters (:func:`~mixedres.model.sample_copy_sums`).  The analog rows work
the same way with [H | W_a^T], except under b-bit emulation, which must
quantize every copy, so the analog period is then n_a.  ``lmmse`` gives
every copy of a block the same columns; rows without repetition are one
copy of themselves (k = 1).

Each batch draws theta and the analog copy sum s_a only.  Given both, the
squared error's mean over the 1-bit outputs is exact (see
:func:`_run_batch`), and each trial records it: the expectation of a
sampled trial's squared error and, by the Rao-Blackwell theorem, no larger
variance.

A run's one set-up is a :class:`~mixedres.model.SampleBuffers` for its
largest batch, which checks the copy layout once and holds the model and
the factor of its prior; every batch draws theta and the copy sums into it
and applies the filter there, so a batch derives nothing again and
allocates only a few per-trial vectors.  The products of a batch run in
column tiles of ``TILE_TRIALS`` trials, which OpenBLAS computes on the
calling thread, so that its thread pool leaves the second CPU free.

:func:`_draw` is the one place a batch's normals come from: it draws the
batch's two planar standard-normal blocks from their streams into a draw
slot of the buffers, and :func:`_run_batch` turns them into theta and the
copy sums.  A run of two or more batches on two or more CPUs, whose
products all tile (:func:`~mixedres.model._tiles`), draws batch b + 1's
blocks on one worker thread while the calling thread computes batch b.
Each block holds the values its stream gives, so the output bytes depend
on the seed and the batch size only, not on the CPU count or the BLAS
threads.
"""

from __future__ import annotations

import math
import statistics
import sys
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
)
from .closed_form import mse_grid
from .exceptions import (
    InstanceTooLargeError,
    ModelError,
    NumericalDomainError,
    _count_text,
    check_integer_kinds,
    require_finite,
)
from .estimator import LmmseFilter, check_dense_rows, prefix_mse
from .model import (
    MixedModel,
    OrthoBlockParams,
    QuantizerSpec,
    RngStream,
    SampleBuffers,
    _copy_sums,
    _correlate,
    _matmul_tiles,
    _prefix,
    _tiles,
    block_model,
    copy_layout,
    make_ortho_matrices,
    quantize_bbit,
)

# Default b-bit emulation of the analog path: 6 bits on [-5, 5].
DEFAULT_ANALOG_QUANTIZER = QuantizerSpec(bits=6, lo=-5.0, hi=5.0)
# Most values (rows x trials) in one Monte-Carlo batch.  Per value, a batch
# holds at most 16 bytes of copy sums and 16 of float64 scratch (two parts
# of normals or of u = erf(mu / sqrt(v))), so neither array takes more than
# 1 GiB, and the default batch of 8192 trials admits every model the
# dense solver accepts.
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
        check_integer_kinds("trials, rng_seed and batch_size", map(type, (self.trials, self.rng_seed, self.batch_size)))
        # One trial has no sample variance, so its standard error would be 0.
        if self.trials < 2 or self.batch_size < 1:
            raise ModelError(f"need trials >= 2 and batch_size >= 1, got trials={self.trials}, batch_size={self.batch_size}")


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
        raise InstanceTooLargeError(f"{_count_text(cfg.trials)} trials exceed the limit of {MAX_TRIALS}")
    batch = min(cfg.batch_size, cfg.trials)
    if rows * batch > MAX_BATCH_ELEMENTS:
        raise InstanceTooLargeError(
            f"a batch of {_count_text(rows)} rows x {batch} trials exceeds {MAX_BATCH_ELEMENTS} values; lower batch_size"
        )
    if rows * m > MAX_BATCH_ELEMENTS:
        raise InstanceTooLargeError(
            f"a model of {_count_text(rows)} rows x m = {_count_text(m)} exceeds {MAX_BATCH_ELEMENTS} values"
        )


def _copy_periods(model: MixedModel, filt: LmmseFilter, cfg: SimConfig) -> tuple[int, int]:
    """(analog, quantized) periods of the rows and filter columns, as :func:`_run_batch` uses them.

    :func:`~mixedres.model.copy_layout` of [G | W_q^T] gives the quantized
    period, and of [H | W_a^T] the analog one, or n_a under b-bit emulation.
    """
    n_a = model.n_analog
    w_t = filt.w.T
    p_q, _ = copy_layout(np.concatenate([model.g, w_t[n_a:]], axis=1))
    if cfg.analog_quantizer is not None:
        return n_a, p_q
    return copy_layout(np.concatenate([model.h, w_t[:n_a]], axis=1))[0], p_q


def _cpu_count() -> int:
    """CPUs this process may run on (all of the host's where the OS cannot say)."""
    import os

    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _batch_trials(cfg: SimConfig, b: int) -> int:
    """Trials of batch ``b``: ``batch_size``, or what is left for the last one."""
    return min(cfg.batch_size, cfg.trials - b * cfg.batch_size)


def _draw(cfg: SimConfig, buffers: SampleBuffers, b: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Batch ``b``'s planar standard-normal blocks, drawn into draw slot b % 2 of ``buffers``.

    Theta's block comes from stream (seed, 2b) and the analog sum's from
    (seed, 2b + 1); the analog block is None when the analog variance is 0.
    """
    z_theta, z_analog = buffers.slot(b % 2, _batch_trials(cfg, b))
    RngStream(cfg.rng_seed, 2 * b).generator().standard_normal(out=z_theta)
    if z_analog is not None:
        RngStream(cfg.rng_seed, 2 * b + 1).generator().standard_normal(out=z_analog)
    return z_theta, z_analog


def _run_batch(w1: np.ndarray, c: np.ndarray, cfg: SimConfig, buffers: SampleBuffers, z_theta, z_analog):
    """Sum and sum of squares of the per-trial squared errors of one batch, averaged over the 1-bit outputs.

    ``z_theta`` and ``z_analog`` are the batch's normal blocks (:func:`_draw`);
    the analog block is scaled in place.  ``w1`` is the filter's columns for
    one analog and one quantized period of the model of ``buffers``, so the
    error is ``w1 @ [s_a; s_q] - theta``.  Given theta and s_a, its squared
    norm has the mean |w1 @ [s_a; E s_q] - theta|**2 plus sum_i c_i
    Var(s_q_i), c_i being the squared norm of w1's column for quantized row i.
    """
    count = z_theta.shape[-1]
    theta = _correlate(buffers.chol, z_theta, buffers.error(count), _prefix(buffers.theta, (buffers.model.m, count)))
    s_a, _, s_q_var = _copy_sums(theta, z_analog, buffers)
    if cfg.analog_quantizer is not None and s_a.size:
        s_a[...] = quantize_bbit(s_a, cfg.analog_quantizer)
    # An extreme filter or quantizer range can overflow the error or its
    # squares; run_monte_carlo refuses the non-finite result.
    with np.errstate(over="ignore", invalid="ignore"):
        # Weighed before the error is formed, which overwrites the variances.
        per_trial = _matmul_tiles(c, s_q_var, np.empty(count))
        err = _matmul_tiles(w1, buffers.copy_sums(count), buffers.error(count))
        err -= theta
        squares = np.square(err.view(np.float64), out=err.view(np.float64))
        parts = squares.sum(axis=0)
        per_trial += parts[0::2]
        per_trial += parts[1::2]
        total = float(per_trial.sum())
        return total, float(np.square(per_trial, out=per_trial).sum())


def run_monte_carlo(model: MixedModel, filt: LmmseFilter, cfg: SimConfig) -> SimResult:
    """Estimate the empirical MSE of a filter by seeded Monte-Carlo trials.

    Per trial: draw the parameter and the analog copy sum, and accumulate
    the squared estimation error averaged over the 1-bit outputs (see the
    module docstring).  Every batch draws into one set of
    :class:`~mixedres.model.SampleBuffers` made for the run, and on two or
    more CPUs one worker thread draws each next batch's normal blocks; it is
    joined before the run returns or raises.  The standard error is the
    sample standard deviation of those per-trial values divided by
    sqrt(trials).
    """
    if filt.w.shape != (model.m, model.n_analog + model.n_quantized):
        raise ModelError("filter shape does not match the model")
    check_batch_size(model.n_analog + model.n_quantized, cfg, model.m)
    n_batches = -(-cfg.trials // cfg.batch_size)
    p_a, p_q = _copy_periods(model, filt, cfg)
    n_a = model.n_analog
    w1 = np.concatenate([filt.w[:, :p_a], filt.w[:, n_a : n_a + p_q]], axis=1)
    w_q = w1[:, p_a:]  # c_i of _run_batch: the squared norm of its column i
    with np.errstate(over="ignore"):  # an overflowing weight gives a non-finite result, refused below
        c = (np.square(w_q.real) + np.square(w_q.imag)).sum(axis=0)
    buffers = SampleBuffers(model, min(cfg.batch_size, cfg.trials), p_a, p_q)
    # Products too large to tile take the second CPU for OpenBLAS's pool; a
    # worker beside it made a 32 x 32 prior's run 15 % slower.
    pool = ahead = None
    if n_batches > 1 and all(map(_tiles, (buffers.chol, buffers.rows, w1))) and _cpu_count() > 1:
        # Imported here: concurrent.futures adds about 4 ms to every import of the CLI.
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=1)
    partials = []
    try:
        for b in range(n_batches):
            blocks = ahead.result() if ahead is not None else _draw(cfg, buffers, b)
            if pool is not None and b + 1 < n_batches:
                ahead = pool.submit(_draw, cfg, buffers, b + 1)
            partials.append(_run_batch(w1, c, cfg, buffers, *blocks))
    finally:
        if pool is not None:
            pool.shutdown()
    # Exact summation of the batch sums: a plain sum rounds differently and
    # would change the output bytes.
    total = math.fsum(p[0] for p in partials)
    total_sq = math.fsum(p[1] for p in partials)
    t = cfg.trials
    if not math.isfinite(total_sq):
        raise NumericalDomainError("the squared estimation error overflowed to a non-finite value")
    mean = total / t
    var = max(total_sq - t * mean**2, 0.0) / (t - 1)
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
    ``MAX_GRID_POINTS`` cells are refused before the grid is built.  A block
    count that is not an integer (a bool or a float, even when whole), and
    an m or a block count beyond the float range, are a :class:`ModelError`.
    """
    levels = _noise_levels(sigma_grid)
    allocations = list(allocations)
    check_integer_kinds("block counts", (type(count) for pair in allocations for count in pair))
    pairs = [(int(n_a), int(n_q)) for n_a, n_q in allocations]
    if len(levels) * len(pairs) > MAX_GRID_POINTS:
        raise InstanceTooLargeError(
            f"{len(levels)} noise levels x {len(pairs)} allocations exceed {MAX_GRID_POINTS} grid points"
        )
    if any(n_a < 0 or n_q < 0 for n_a, n_q in pairs):
        raise ModelError("block counts must be nonnegative")
    for name, count in (("m", params_base.m), ("block count", max(map(max, pairs), default=0))):
        if count > sys.float_info.max:
            raise ModelError(f"{name} {_count_text(count)} is too large for a double")
    n_a = np.array([n_a for n_a, _ in pairs], dtype=np.float64)
    n_q = np.array([n_q for _, n_q in pairs], dtype=np.float64)
    noise = np.array(levels).reshape(-1, 1)
    mse = mse_grid(params_base.m, n_a, n_q, params_base.rho_a, params_base.rho_q, noise, noise)
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
        raise ModelError(
            f"need repeats >= 1 and warmup >= 0, got repeats={_count_text(repeats)}, warmup={_count_text(warmup)}"
        )
    if max(repeats, warmup) > MAX_REPEATS:
        raise InstanceTooLargeError(f"{_count_text(max(repeats, warmup))} repetitions exceed the limit of {MAX_REPEATS}")


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


def _dense_mse(params: OrthoBlockParams, points, h_full: np.ndarray, g1: np.ndarray) -> list[float]:
    """The MSE of each (n_a, n_q) point on the dense route: one
    :func:`~mixedres.estimator.prefix_mse` over all m * (n_a + n_q) rows of
    the first ``n_a`` blocks of ``h_full`` over ``n_q`` copies of ``g1``.
    """
    return [prefix_mse(block_model(replace(params, n_a=n_a, n_q=n_q), h_full, g1))[-1] for n_a, n_q in points]


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
    contains ``n_a_max + 1`` points.  Each arm interleaves the repetitions of
    all (m, n_a_max) cases, so their medians come from the same stretch of
    wall clock and a slow spell shifts every case alike.  Each case's
    frontier and blocks are built once, before any timing: the direct arm
    checks its rows, times the dense MSE of every point (one Cholesky prefix
    scan of all its n rows per point) and warms up on the last, cheapest one,
    with the most analog blocks; set
    ``direct_repeats`` to control its measured repetitions
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
    frontiers = []
    for m, _, budget, _ in cases:
        check_grid_size(m, budget, DitherScheme(mode="none"))
        frontiers.append(list(zip(*frontier(m, budget))))
        if include_direct:
            # The direct arm draws m x m blocks before its solver would check the
            # row count, so refuse its largest frontier model (m rows or more) first.
            check_dense_rows(max(m * (n_a + n_q) for n_a, n_q in frontiers[-1]))
    closed_stats = _timeit(
        [partial(allocate, params, budget) for _, _, budget, params in cases],
        repeats=repeats,
        warmup=warmup,
        min_rep_time=0.01,
    )
    direct_stats = [None] * len(cases)
    if include_direct:
        # One quantized block suffices; each point tiles it.
        arms = [
            (params, points, *make_ortho_matrices(replace(params, n_a=n_a_max, n_q=1), RngStream(rng_seed)))
            for (_, n_a_max, _, params), points in zip(cases, frontiers)
        ]
        direct_stats = _timeit(
            [partial(_dense_mse, *arm) for arm in arms],
            repeats=direct_repeats if direct_repeats is not None else repeats,
            warmup=warmup,
            warmup_fns=[partial(_dense_mse, params, points[-1:], h_full, g1) for params, points, h_full, g1 in arms],
        )
    return [
        BenchResult(closed_form_time=closed, direct_time=direct, n_a_max=n_a_max, m=m)
        for (m, n_a_max, _, _), closed, direct in zip(cases, closed_stats, direct_stats)
    ]
