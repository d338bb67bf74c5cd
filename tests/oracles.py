"""Independent oracles and random-instance generators for tests.

The covariance oracle estimates second moments straight from sampled
measurements; it never calls the analytic covariance formulas it is used to
check.  The ``reference_*`` functions keep the scalar, one-point-at-a-time
closed form and search loops that the array evaluator replaced, and the
1-bit quantizer expression the one-pass version replaced; tests require
each pair to agree bit for bit.  ``reference_direct_search_mse`` keeps the
one-``lmmse``-per-point loop that the prefix-scan search replaced; its sums
run in another order, so it agrees to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from mixedres.allocation import AllocationResult, DitherScheme, PowerBudget, max_nq, na_range
from mixedres.closed_form import ClosedFormMse
from mixedres.estimator import lmmse
from mixedres.model import (
    INV_SQRT2,
    MixedModel,
    OrthoBlockParams,
    RngStream,
    sample_measurements,
    sample_parameter,
)

DEFAULT_BATCH = 16384


def empirical_second_moments(model: MixedModel, trials: int, seed: int, pairs, batch_size=DEFAULT_BATCH):
    """Empirical cross moments E[u v^H] with per-entry standard errors.

    ``pairs`` is an iterable of (u, v) with names from {"theta", "xa", "xq"}.
    Returns {(u, v): (mean, se_real, se_imag)} where the standard errors are
    the per-entry sample standard deviations of the products divided by
    sqrt(trials).
    """
    sums = {tuple(p): None for p in pairs}
    sq_re = {}
    sq_im = {}
    n_batches = math.ceil(trials / batch_size)
    for b in range(n_batches):
        count = min(batch_size, trials - b * batch_size)
        theta = sample_parameter(model.sigma_theta, RngStream(seed, 2 * b), size=count)
        x_a, x_q = sample_measurements(model, theta, RngStream(seed, 2 * b + 1))
        vecs = {"theta": theta, "xa": x_a, "xq": x_q}
        for key in sums:
            u, v = key
            prod = vecs[u][:, None, :] * vecs[v].conj()[None, :, :]
            if sums[key] is None:
                sums[key] = prod.sum(axis=-1)
                sq_re[key] = (prod.real**2).sum(axis=-1)
                sq_im[key] = (prod.imag**2).sum(axis=-1)
            else:
                sums[key] += prod.sum(axis=-1)
                sq_re[key] += (prod.real**2).sum(axis=-1)
                sq_im[key] += (prod.imag**2).sum(axis=-1)
    out = {}
    for key, total in sums.items():
        mean = total / trials
        var_re = np.maximum(sq_re[key] / trials - mean.real**2, 0.0)
        var_im = np.maximum(sq_im[key] / trials - mean.imag**2, 0.0)
        out[key] = (mean, np.sqrt(var_re / trials), np.sqrt(var_im / trials))
    return out


def assert_within_se(mean, analytic, se_re, se_im, n_se=3.0, atol=1e-12):
    """Assert per-entry |empirical - analytic| <= n_se * SE (+ atol) on both parts."""
    analytic = np.asarray(analytic)
    gap_re = np.abs(mean.real - analytic.real) - n_se * se_re
    gap_im = np.abs(mean.imag - analytic.imag) - n_se * se_im
    assert np.all(gap_re <= atol), f"real part exceeds {n_se} SE by {np.max(gap_re):.3e}"
    assert np.all(gap_im <= atol), f"imag part exceeds {n_se} SE by {np.max(gap_im):.3e}"


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def random_ortho_params(
    rng: np.random.Generator,
    m_max: int = 8,
    n_a_max: int = 6,
    n_q_max: int = 10,
    scale_lo: float = 0.1,
    scale_hi: float = 10.0,
    with_dither: bool = False,
) -> OrthoBlockParams:
    """Random admissible parameter set with at least one measurement block."""
    m = int(rng.integers(1, m_max + 1))
    n_a = int(rng.integers(0, n_a_max + 1))
    n_q = int(rng.integers(0, n_q_max + 1))
    if n_a + n_q == 0:
        n_q = 1
    return OrthoBlockParams(
        m=m,
        n_a=n_a,
        n_q=n_q,
        rho_a=log_uniform(rng, scale_lo, scale_hi),
        rho_q=log_uniform(rng, scale_lo, scale_hi),
        var_a=log_uniform(rng, scale_lo, scale_hi),
        var_q=log_uniform(rng, scale_lo, scale_hi),
        var_da=log_uniform(rng, scale_lo, scale_hi) if with_dither else 0.0,
        var_dq=log_uniform(rng, scale_lo, scale_hi) if with_dither else 0.0,
    )


def reference_quantize_1bit(z):
    """The two-``np.where`` 1-bit quantizer the one-pass version replaced."""
    z = np.asarray(z)
    out = (np.where(z.real >= 0, 1.0, -1.0) + 1j * np.where(z.imag >= 0, 1.0, -1.0)) * INV_SQRT2
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# Scalar reference closed form and search loops
# ---------------------------------------------------------------------------


def _alpha(rho_q: float, var_q_total: float) -> float:
    return (2.0 / np.pi) * np.arccos(rho_q / (rho_q + var_q_total))


def _beta(n_a: int, rho_a: float, rho_q: float, var_a_total: float, var_q_total: float) -> float:
    first = (2.0 / np.pi) * np.arcsin(rho_q / (rho_q + var_q_total)) / rho_q
    if n_a == 0:
        return first
    return first - 2.0 * rho_a * n_a / (
        np.pi * (rho_q + var_q_total) * (rho_a * n_a + var_a_total)
    )


def _mse_pure_analog(m: int, n_a: int, rho_a: float, var_a_total: float) -> float:
    if n_a == 0:
        return float(m)
    return m - m * rho_a * n_a / (rho_a * n_a + var_a_total)


def _mse_pure_quantized(m: int, n_q: int, rho_q: float, var_q_total: float) -> float:
    if n_q == 0:
        return float(m)
    a = _alpha(rho_q, var_q_total)
    return m - 2.0 * m * rho_q * n_q / (
        np.pi * (rho_q + var_q_total) * (a + (1.0 - a) * n_q)
    )


def reference_mse_closed_form(params: OrthoBlockParams) -> ClosedFormMse:
    """Scalar closed-form MSE, one branch per point."""
    va = params.var_a_total
    vq = params.var_q_total
    a = _alpha(params.rho_q, vq)
    b = _beta(params.n_a, params.rho_a, params.rho_q, va, vq)
    m, n_a, n_q = params.m, params.n_a, params.n_q

    if n_a == 0 and n_q == 0:
        value = float(m)
    elif n_q == 0:
        value = _mse_pure_analog(m, n_a, params.rho_a, va)
    elif n_a == 0:
        value = _mse_pure_quantized(m, n_q, params.rho_q, vq)
    elif va == 0.0:
        value = 0.0
    else:
        da = params.rho_a * n_a + va
        s = a + b * params.rho_q * n_q
        term = params.rho_a * n_a / da + 2.0 * params.rho_q * n_q * va**2 / (
            np.pi * (params.rho_q + vq) * s * da**2
        )
        value = m * (1.0 - term)
    return ClosedFormMse(value=max(value, 0.0), alpha=float(a), beta=float(b))


def _apply_dither(scheme: DitherScheme, params: OrthoBlockParams, dither_var: float) -> OrthoBlockParams:
    if scheme.mode == "both":
        return replace(params, var_da=dither_var, var_dq=dither_var)
    if scheme.mode == "quantized-only":
        return replace(params, var_da=0.0, var_dq=dither_var)
    return replace(params, var_da=0.0, var_dq=0.0)


def reference_allocate(params_base: OrthoBlockParams, budget: PowerBudget) -> AllocationResult:
    """Frontier search, one closed-form evaluation per point."""
    m = params_base.m
    trace = []
    best = None
    for n_a in na_range(m, budget):
        n_q = max_nq(n_a, m, budget)
        mse = reference_mse_closed_form(replace(params_base, n_a=n_a, n_q=n_q)).value
        trace.append((n_a, n_q, 0.0, mse))
        key = (mse, n_a, n_q)
        if best is None or key < best:
            best = key
    mse, n_a, n_q = best[0], best[1], best[2]
    return AllocationResult(n_a_star=n_a, n_q_star=n_q, dither_var_star=0.0, mse_star=mse, trace=trace)


def reference_allocate_with_dither(
    params_base: OrthoBlockParams, budget: PowerBudget, scheme: DitherScheme
) -> AllocationResult:
    """Frontier x dither-grid search, one closed-form evaluation per point."""
    m = params_base.m
    grid = scheme.grid()
    trace = []
    best = None
    for n_a in na_range(m, budget):
        n_q = max_nq(n_a, m, budget)
        for dvar in grid:
            params = _apply_dither(scheme, replace(params_base, n_a=n_a, n_q=n_q), dvar)
            mse = reference_mse_closed_form(params).value
            trace.append((n_a, n_q, dvar, mse))
            key = (mse, dvar, n_a, n_q)
            if best is None or key < best:
                best = key
    mse, dvar, n_a, n_q = best
    return AllocationResult(n_a_star=n_a, n_q_star=n_q, dither_var_star=dvar, mse_star=mse, trace=trace)


def reference_direct_search_mse(params_base: OrthoBlockParams, points, h_full, g1) -> list[float]:
    """Matrix-solve MSE of each (n_a, n_q) point, one LU-based ``lmmse`` per point."""
    m = params_base.m
    out = []
    for n_a, n_q in points:
        if n_a == 0 and n_q == 0:
            out.append(float(m))
            continue
        model = MixedModel(
            h=h_full[: m * n_a],
            g=np.tile(g1, (n_q, 1)),
            sigma_theta=np.eye(m, dtype=np.complex128),
            var_a=params_base.var_a,
            var_q=params_base.var_q,
        )
        out.append(lmmse(model).mse)
    return out
