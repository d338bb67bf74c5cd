"""Independent oracles and random-instance generators for tests.

The covariance oracle estimates second moments straight from sampled
measurements; it never calls the analytic covariance formulas it is used to
check.  The ``reference_*`` functions keep the scalar, one-point-at-a-time
closed form and search loops that the array evaluator replaced, and the
1-bit quantizer expression the one-pass version replaced, and the
one-block-at-a-time Haar sampler that the stacked draw of
``make_ortho_matrices`` replaced; tests require each pair to agree bit for
bit.  ``reference_argbest`` keeps the three-key sort per row that the
one-pass optimum pick replaced; the two pick the same index.
``reference_direct_search_mse`` keeps the one-``lmmse``-per-point
loop that the prefix-scan search replaced; its sums run in another order,
so it agrees to a tolerance.  ``reference_assemble``
keeps the covariance assembly over every row that the one-period assembly
replaced, as a bundle in which each block is one copy of itself; its Grams
run over other rows, so it too agrees to a tolerance.  ``reference_lmmse``
keeps the pivoted LU on all n rows of that bundle's C_x that the
copy-reduced solve replaced; it calls no ``assemble``, and agrees to a
tolerance, and bit for bit when no rows repeat.
``dense_blocks`` names the blocks of a bundle's dense expansion.
``reference_complex_normal`` rebuilds the complex normal draws of a
stream, against which tests check the samplers' in-place draws.
``reference_run_monte_carlo`` keeps the Monte-Carlo batch that realizes
every measurement row with :func:`sample_measurements`, which the copy-sum
sampler replaced; the two draw from other random streams, so they agree
within their standard errors.  ``reference_copy_sums`` keeps the sampler
that drew each quantized copy count from 16-bit words, which the
conditional moments of the run's ``model._copy_sums`` replaced, and
``reference_word_run_monte_carlo`` the run over its sampled copy sums; it
draws the same theta and analog sums as ``run_monte_carlo``, so the two
differ only in the 1-bit outputs and agree within their standard errors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
from scipy import special
from scipy.linalg import LinAlgWarning, lapack, lu_factor, lu_solve

from mixedres.allocation import AllocationResult, DitherScheme, PowerBudget, max_nq, na_range
from mixedres.closed_form import ClosedFormMse
from mixedres.estimator import (
    CovarianceBundle,
    LmmseFilter,
    _checked_condition,
    _clamped_mse,
    check_dense_rows,
    cov_analog,
    cov_pre_quantization,
    cov_quantized,
    cross_cov_analog_quantized,
    cross_cov_theta_quantized,
    lmmse,
)
from mixedres.exceptions import EstimatorUndefinedError, QuantizerDomainError
from mixedres.model import (
    INV_SQRT2,
    MixedModel,
    OrthoBlockParams,
    RngStream,
    _part_std,
    quantize_1bit,
    quantize_bbit,
    sample_measurements,
    sample_parameter,
)
from mixedres.simulate import SimConfig, SimResult, _copy_periods

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
    )


def reference_quantize_1bit(z):
    """The two-``np.where`` 1-bit quantizer the one-pass version replaced."""
    z = np.asarray(z)
    out = (np.where(z.real >= 0, 1.0, -1.0) + 1j * np.where(z.imag >= 0, 1.0, -1.0)) * INV_SQRT2
    return out if out.ndim else complex(out)


def reference_complex_normal(g: np.random.Generator, shape: tuple, var: float) -> np.ndarray:
    """CN(0, var) samples (real and imaginary variance var/2 each) from one
    planar (2,) + shape normal block of ``g``: the block that
    ``sample_measurements`` adds per noise term."""
    z = g.standard_normal((2,) + shape)
    return (z[0] + 1j * z[1]) * np.sqrt(var / 2.0)


def reference_haar_unitary(m: int, g: np.random.Generator) -> np.ndarray:
    """One m x m Haar unitary drawn from ``g``: the QR of a CN(0, 1) matrix,
    its columns rotated so that R has a positive real diagonal."""
    q, r = np.linalg.qr(reference_complex_normal(g, (m, m), 1.0))
    d = np.diag(r).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# Scalar reference closed form and search loops
# ---------------------------------------------------------------------------


def _alpha(rho_q: float, var_q: float) -> float:
    return (2.0 / np.pi) * np.arccos(rho_q / (rho_q + var_q))


def _beta(n_a: int, rho_a: float, rho_q: float, var_a: float, var_q: float) -> float:
    first = (2.0 / np.pi) * np.arcsin(rho_q / (rho_q + var_q)) / rho_q
    if n_a == 0:
        return first
    return first - 2.0 * rho_a * n_a / (
        np.pi * (rho_q + var_q) * (rho_a * n_a + var_a)
    )


def _mse_pure_analog(m: int, n_a: int, rho_a: float, var_a: float) -> float:
    if n_a == 0:
        return float(m)
    return m - m * rho_a * n_a / (rho_a * n_a + var_a)


def _mse_pure_quantized(m: int, n_q: int, rho_q: float, var_q: float) -> float:
    if n_q == 0:
        return float(m)
    a = _alpha(rho_q, var_q)
    return m - 2.0 * m * rho_q * n_q / (
        np.pi * (rho_q + var_q) * (a + (1.0 - a) * n_q)
    )


def reference_mse_closed_form(params: OrthoBlockParams) -> ClosedFormMse:
    """Scalar closed-form MSE, one branch per point."""
    va = params.var_a
    vq = params.var_q
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
    """``params`` with ``dither_var`` added to the noise variance of each path the scheme dithers."""
    d_a = dither_var if scheme.mode == "both" else 0.0
    d_q = 0.0 if scheme.mode == "none" else dither_var
    return replace(params, var_a=params.var_a + d_a, var_q=params.var_q + d_q)


def reference_argbest(mse, dither_var, n_a) -> np.ndarray:
    """Index of the optimum along the last axis of ``mse``: one stable
    three-key sort per row, by MSE, then dither variance, then n_a."""
    mse = np.asarray(mse)
    keys = [np.broadcast_to(np.asarray(k), mse.shape) for k in (n_a, dither_var, mse)]
    return np.lexsort(keys, axis=-1)[..., 0]


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


def dense_blocks(bundle: CovarianceBundle) -> dict[str, np.ndarray]:
    """The blocks of a bundle's dense C_x and C_theta_x, by name; views into the dense expansion."""
    (pa, _), (ka, _) = bundle.periods, bundle.copies
    na = pa * ka
    c_x, c_theta_x = bundle.c_x, bundle.c_theta_x
    return {
        "c_xa": c_x[:na, :na],
        "c_xq": c_x[na:, na:],
        "c_xa_xq": c_x[:na, na:],
        "c_theta_xa": c_theta_x[:, :na],
        "c_theta_xq": c_theta_x[:, na:],
        "c_theta_x": c_theta_x,
    }


def reference_assemble(model: MixedModel) -> CovarianceBundle:
    """Every covariance block from all rows of the model, each block one copy of itself.

    With no block in two or more copies the cross-copy block is never read
    on a diagonal, so it is the same-copy block."""
    na, nq = model.n_analog, model.n_quantized
    c_y = cov_pre_quantization(model)
    c_aq = cross_cov_analog_quantized(model, c_y)
    a1 = np.block([[cov_analog(model), c_aq], [c_aq.conj().T, cov_quantized(c_y)]])
    c_theta = np.concatenate([model.sigma_theta @ model.h.conj().T, cross_cov_theta_quantized(model, c_y)], axis=1)
    return CovarianceBundle(a1=a1, a2=a1, c_theta=c_theta, periods=(na, nq), copies=(min(na, 1), min(nq, 1)))


def reference_lmmse(model: MixedModel) -> LmmseFilter:
    """LMMSE filter from a pivoted LU of all n rows of C_x, assembled over every row."""
    check_dense_rows(model.n_analog + model.n_quantized)
    bundle = reference_assemble(model)
    c_x = bundle.c_x
    c_theta_x = bundle.c_theta_x
    prior_trace = float(np.trace(model.sigma_theta).real)
    if c_x.shape[0] == 0:
        return LmmseFilter(w=np.zeros((model.m, 0), dtype=np.complex128), mse=prior_trace, condition=1.0)
    # The 1-norm of a C-ordered copy: NumPy sums the columns of other layouts in another order.
    anorm = np.linalg.norm(np.ascontiguousarray(c_x), 1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(c_x)
    except np.linalg.LinAlgError as exc:
        raise EstimatorUndefinedError("measurement covariance is singular", condition=math.inf) from exc
    if not np.all(np.isfinite(np.diag(lu))) or np.any(np.diag(lu) == 0):
        raise EstimatorUndefinedError("measurement covariance is singular", condition=math.inf)
    condition = _checked_condition(*lapack.zgecon(lu, anorm, norm="1"))
    x = lu_solve((lu, piv), c_theta_x.conj().T)
    mse = prior_trace - float(np.trace(c_theta_x @ x).real)
    return LmmseFilter(w=x.conj().T, mse=float(_clamped_mse(mse)), condition=condition)


def _batched_run(filt: LmmseFilter, cfg: SimConfig, batch_error) -> SimResult:
    """Mean squared error and its standard error over the batches of ``cfg``.

    ``batch_error(b, count)`` gives the (m, count) estimation errors of batch b.
    """
    total = total_sq = 0.0
    for b in range(math.ceil(cfg.trials / cfg.batch_size)):
        err = batch_error(b, min(cfg.batch_size, cfg.trials - b * cfg.batch_size))
        per_trial = (err.real**2 + err.imag**2).sum(axis=0)
        total += float(per_trial.sum())
        total_sq += float((per_trial**2).sum())
    t = cfg.trials
    mean = total / t
    var = max(total_sq - t * mean**2, 0.0) / (t - 1) if t > 1 else 0.0
    return SimResult(empirical_mse=mean, std_error=math.sqrt(var / t), analytic_mse=filt.mse, trials_run=t)


def _bbit(x_a: np.ndarray, cfg: SimConfig) -> np.ndarray:
    return quantize_bbit(x_a, cfg.analog_quantizer) if cfg.analog_quantizer is not None and x_a.size else x_a


def reference_run_monte_carlo(model: MixedModel, filt: LmmseFilter, cfg: SimConfig) -> SimResult:
    """Monte Carlo that draws every measurement row, one batch after another."""
    n_a = model.n_analog

    def batch_error(b, count):
        theta = sample_parameter(model.sigma_theta, RngStream(cfg.rng_seed, 2 * b), size=count)
        x_a, x_q = sample_measurements(model, theta, RngStream(cfg.rng_seed, 2 * b + 1))
        return filt.w[:, :n_a] @ _bbit(x_a, cfg) + filt.w[:, n_a:] @ x_q - theta

    return _batched_run(filt, cfg, batch_error)


def reference_copy_sums(model: MixedModel, theta: np.ndarray, rng: RngStream, analog_period: int, quantized_period: int):
    """Copy sums (s_a, s_q) of one realization, with every quantized copy drawn as a 16-bit word.

    The model and periods are those of the ``SampleBuffers`` of a run, and
    s_a is the run's analog sum (``model._copy_sums``) of an analog block
    drawn first from ``rng``; the periods are taken as given, unchecked.
    Then, with P = Phi(mu / sqrt(v/2)) per part of mu = G[:p] theta and
    v = var_q:

    1. one block of k * 2 * p * t 16-bit words, ``random_raw`` read as
       little-endian: copy j of row i counts +1 in a part when its word is
       below T = min(floor(2**16 P), 2**16 - 1);
    2. when some word equals its T, one binomial draw over the parts with
       such ties: each tied copy counts with probability f = 2**16 P - T.

    So each copy counts with probability (T + f) / 2**16 = P exactly, every
    count is Binomial(k, P), and each part of s_q is (2 * count - k) /
    sqrt(2).  A zero quantized variance draws no word: s_q is then
    k * quantize_1bit(mu).
    """
    theta = np.asarray(theta, dtype=np.complex128)
    p, t = quantized_period, theta.shape[1]
    k_a = model.n_analog // analog_period if analog_period else 0
    k = model.n_quantized // p if p else 0
    g = rng.generator()
    s_a = model.h[:analog_period] @ theta
    std_a = _part_std(model.var_a)
    with np.errstate(over="ignore"):
        if k_a > 1:
            s_a *= k_a
        if std_a:
            z = g.standard_normal((2,) + s_a.shape) * (std_a * np.sqrt(k_a))
            s_a.real += z[0]
            s_a.imag += z[1]

    mu = model.g[:p] @ theta
    sigma = _part_std(model.var_q)
    if sigma == 0.0 or not mu.size:
        return s_a, k * quantize_1bit(mu)
    if not np.isfinite(mu).all():
        raise QuantizerDomainError("1-bit quantizer requires finite input")
    with np.errstate(over="ignore"):
        scaled = 65536.0 * special.ndtr(np.stack([mu.real / sigma, mu.imag / sigma]))
    # The cast truncates, which is floor for these nonnegative values.
    thresholds = np.minimum(scaled, 65535.0).astype(np.uint16)
    n = k * 2 * p * t
    words = g.bit_generator.random_raw(-(-n // 4)).astype("<u8", copy=False).view("<u2")[:n].reshape(k, 2, p, t)
    counts = (words < thresholds).sum(axis=0)
    tied = np.flatnonzero(words == thresholds) % thresholds.size
    if tied.size:
        at, ties = np.unique(tied, return_counts=True)
        counts.reshape(-1)[at] += g.binomial(ties, scaled.reshape(-1)[at] - thresholds.reshape(-1)[at])
    parts = (2.0 * counts - k) * INV_SQRT2
    s_q = np.empty(mu.shape, dtype=np.complex128)
    s_q.real, s_q.imag = parts
    return s_a, s_q


def reference_word_run_monte_carlo(model: MixedModel, filt: LmmseFilter, cfg: SimConfig) -> SimResult:
    """Monte Carlo over the copy sums of :func:`reference_copy_sums`, on the streams of ``run_monte_carlo``."""
    p_a, p_q = _copy_periods(model, filt, cfg)
    n_a = model.n_analog
    w_a, w_q = filt.w[:, :p_a], filt.w[:, n_a : n_a + p_q]

    def batch_error(b, count):
        theta = sample_parameter(model.sigma_theta, RngStream(cfg.rng_seed, 2 * b), size=count)
        s_a, s_q = reference_copy_sums(model, theta, RngStream(cfg.rng_seed, 2 * b + 1), p_a, p_q)
        return w_a @ _bbit(s_a, cfg) + w_q @ s_q - theta

    return _batched_run(filt, cfg, batch_error)
