"""Exact second-order statistics and the LMMSE estimator for mixed data.

The quantized blocks follow from two classical results for jointly Gaussian
inputs passed through the sign quantizer: the arcsine law for the
auto-covariance of the quantized vector, and Bussgang's theorem for every
cross-covariance with an unquantized Gaussian quantity.  The estimator is
the standard linear MMSE solution

    w = C_theta_x @ inv(C_x),    mse = trace(Sigma_theta) - trace(w @ C_theta_x^H),

evaluated with a pivoted LU solve (never an explicit inverse) and guarded by
a 1-norm condition estimate.

:func:`prefix_mse` gives the MSE of every leading subset of rows at once.
Each entry of C_x and C_theta_x depends only on its own rows, so the first
k rows have the leading k x k block of C_x as their covariance, and its
Cholesky factor is the leading block of the full factor L.  With
Z = inv(L) @ C_theta_x^H, the MSE of the first k rows is
trace(Sigma_theta) minus the squared norm of the first k rows of Z.  The
matrix-solve search runs one such scan per analog count.  :func:`lmmse`
keeps the pivoted LU: a Cholesky solve there gives 0.5000000000000001
instead of the exact 0.5 for the scalar pure-analog model.

Both routes refuse models above ``MAX_DENSE_ROWS`` rows before any
covariance is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lapack, lu_factor, lu_solve

from .exceptions import (
    DegenerateCovarianceError,
    EstimatorUndefinedError,
    InstanceTooLargeError,
    ModelError,
    NumericalDomainError,
)
from .model import MixedModel

# Pearson ratios may drift past 1 by round-off; clip inside this band, error beyond.
ARCSIN_CLIP_TOL = 1e-9
# Refuse to solve when the 1-norm condition estimate exceeds this.
CONDITION_LIMIT = 1e12
# Tolerance for trace cancellation round-off before the MSE is clamped at zero.
MSE_ROUNDOFF_TOL = 1e-9
# Most rows a dense solve accepts.  A complex n x n matrix takes 16 n^2 bytes,
# 1 GiB here, and assembly keeps a few of them alive; the largest model the
# runtime-scaling benchmark solves has 6400 rows.
MAX_DENSE_ROWS = 8192


@dataclass(eq=False)
class CovarianceBundle:
    """All covariance blocks of the stacked measurement vector x = [x_a; x_q].

    ``c_x`` is the assembled (n_analog + n_quantized) auto-covariance and
    ``c_theta_x`` the cross-covariance of the parameter with x; the remaining
    fields are the individual blocks, including the pre-quantization
    covariance ``c_y`` they are derived from.
    """

    c_xa: np.ndarray
    c_y: np.ndarray
    c_xq: np.ndarray
    c_xa_xq: np.ndarray
    c_theta_xa: np.ndarray
    c_theta_xq: np.ndarray
    c_x: np.ndarray
    c_theta_x: np.ndarray


@dataclass(eq=False)
class LmmseFilter:
    """Linear estimator matrix with its analytic MSE and conditioning info."""

    w: np.ndarray
    mse: float
    condition: float


# ---------------------------------------------------------------------------
# Covariance blocks
# ---------------------------------------------------------------------------


def _gram_plus_diag(b: np.ndarray, sigma: np.ndarray, var: float) -> np.ndarray:
    """B sigma B^H + var * I without materializing a dense identity."""
    out = (b @ sigma) @ b.conj().T
    idx = np.arange(out.shape[0])
    out[idx, idx] += var
    return out


def cov_analog(model: MixedModel) -> np.ndarray:
    """Auto-covariance of the analog measurements (noise plus dither)."""
    return _gram_plus_diag(model.h, model.sigma_theta, model.var_a_total)


def cov_pre_quantization(model: MixedModel) -> np.ndarray:
    """Auto-covariance of the quantizer input y = G theta + w_q + w_dq."""
    return _gram_plus_diag(model.g, model.sigma_theta, model.var_q_total)


def _inv_sqrt_diag(c_y: np.ndarray) -> np.ndarray:
    d = np.diag(c_y).real
    if d.size and np.min(d) <= 0:
        raise DegenerateCovarianceError(
            "pre-quantization covariance has a non-positive diagonal entry"
        )
    return 1.0 / np.sqrt(d)


def cov_quantized(c_y: np.ndarray) -> np.ndarray:
    """Arcsine-law auto-covariance of the 1-bit quantized vector.

    Applies elementwise (2/pi) * [arcsin(Re r) + j*arcsin(Im r)] to the
    Pearson-normalized matrix r = D^{-1/2} C_y D^{-1/2}, D = diag(C_y).
    """
    c_y = np.asarray(c_y, dtype=np.complex128)
    if c_y.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    s = _inv_sqrt_diag(c_y)
    r = (s[:, None] * c_y) * s[None, :]
    max_re = np.max(np.abs(r.real))
    max_im = np.max(np.abs(r.imag))
    overshoot = max(max_re, max_im) - 1.0
    if overshoot > ARCSIN_CLIP_TOL:
        raise NumericalDomainError(
            f"normalized correlation exceeds 1 by {overshoot:.3e}, beyond clip tolerance"
        )
    re = np.arcsin(np.clip(r.real, -1.0, 1.0))
    if max_im <= 1e-8:
        # arcsin(x) == x in float64 for |x| <= 1e-8, so the pass is a no-op.
        im = r.imag
    else:
        im = np.arcsin(np.clip(r.imag, -1.0, 1.0))
    c_xq = (2.0 / np.pi) * (re + 1j * im)
    # The quantizer output has unit modulus, so the diagonal is exactly one.
    np.fill_diagonal(c_xq, 1.0)
    return c_xq


def cross_cov_theta_quantized(model: MixedModel, c_y: np.ndarray) -> np.ndarray:
    """Bussgang cross-covariance of the parameter with the quantized vector."""
    if model.n_quantized == 0:
        return np.zeros((model.m, 0), dtype=np.complex128)
    s = _inv_sqrt_diag(c_y)
    return np.sqrt(2.0 / np.pi) * (model.sigma_theta @ model.g.conj().T) * s[None, :]


def cross_cov_analog_quantized(model: MixedModel, c_y: np.ndarray) -> np.ndarray:
    """Bussgang cross-covariance of the analog and quantized measurements."""
    if model.n_quantized == 0 or model.n_analog == 0:
        return np.zeros((model.n_analog, model.n_quantized), dtype=np.complex128)
    s = _inv_sqrt_diag(c_y)
    return np.sqrt(2.0 / np.pi) * (model.h @ model.sigma_theta @ model.g.conj().T) * s[None, :]


def assemble(model: MixedModel) -> CovarianceBundle:
    """Build every covariance block and the stacked matrices c_x, c_theta_x."""
    na, nq = model.n_analog, model.n_quantized
    c_xa = cov_analog(model)
    c_y = cov_pre_quantization(model)
    c_xq = cov_quantized(c_y)
    c_xa_xq = cross_cov_analog_quantized(model, c_y)
    c_theta_xa = model.sigma_theta @ model.h.conj().T
    c_theta_xq = cross_cov_theta_quantized(model, c_y)

    n = na + nq
    c_x = np.empty((n, n), dtype=np.complex128)
    c_x[:na, :na] = c_xa
    c_x[:na, na:] = c_xa_xq
    c_x[na:, :na] = c_xa_xq.conj().T
    c_x[na:, na:] = c_xq
    c_theta_x = np.concatenate([c_theta_xa, c_theta_xq], axis=1)
    return CovarianceBundle(
        c_xa=c_xa,
        c_y=c_y,
        c_xq=c_xq,
        c_xa_xq=c_xa_xq,
        c_theta_xa=c_theta_xa,
        c_theta_xq=c_theta_xq,
        c_x=c_x,
        c_theta_x=c_theta_x,
    )


# ---------------------------------------------------------------------------
# Estimator
# ---------------------------------------------------------------------------


def check_dense_rows(n: int) -> None:
    """Refuse a dense solve of more than ``MAX_DENSE_ROWS`` rows, before any array is built."""
    if n > MAX_DENSE_ROWS:
        raise InstanceTooLargeError(f"a dense solve of {n} rows exceeds the limit of {MAX_DENSE_ROWS}")


def _checked_condition(rcond: float, info: int) -> float:
    """1-norm condition estimate from a LAPACK ``*con`` result, refused above ``CONDITION_LIMIT``."""
    if info != 0:
        raise EstimatorUndefinedError("condition estimation failed", condition=float("inf"))
    condition = float(1.0 / rcond) if rcond > 0 else float("inf")
    if condition > CONDITION_LIMIT:
        raise EstimatorUndefinedError(
            f"measurement covariance too ill-conditioned (estimate {condition:.3e})",
            condition=condition,
        )
    return condition


def _clamped_mse(mse: np.ndarray) -> np.ndarray:
    """``mse`` clamped at zero; a value below ``-MSE_ROUNDOFF_TOL`` is an error."""
    low = np.min(mse)
    if low < -MSE_ROUNDOFF_TOL:
        raise NumericalDomainError(f"MSE evaluated to {low:.3e} < 0 beyond round-off tolerance")
    return np.maximum(mse, 0.0)


def lmmse(model: MixedModel) -> LmmseFilter:
    """LMMSE filter and its analytic MSE via a pivoted linear solve."""
    check_dense_rows(model.n_analog + model.n_quantized)
    bundle = assemble(model)
    return lmmse_from_bundle(model, bundle)


def lmmse_from_bundle(model: MixedModel, bundle: CovarianceBundle) -> LmmseFilter:
    """Same as :func:`lmmse` for a pre-assembled covariance bundle."""
    c_x = bundle.c_x
    c_theta_x = bundle.c_theta_x
    prior_trace = float(np.trace(model.sigma_theta).real)
    n = c_x.shape[0]
    if n == 0:
        # No measurements: the estimator is empty and the MSE is the prior trace.
        return LmmseFilter(w=np.zeros((model.m, 0), dtype=np.complex128), mse=prior_trace, condition=1.0)

    anorm = np.linalg.norm(c_x, 1)
    try:
        with warnings.catch_warnings():
            # Exact singularity is detected from the factors right below.
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(c_x)
    except np.linalg.LinAlgError as exc:
        raise EstimatorUndefinedError(
            "measurement covariance is singular", condition=float("inf")
        ) from exc
    if not np.all(np.isfinite(np.diag(lu))) or np.any(np.diag(lu) == 0):
        raise EstimatorUndefinedError(
            "measurement covariance is singular", condition=float("inf")
        )
    condition = _checked_condition(*lapack.zgecon(lu, anorm, norm="1"))

    # Solve C_x X = C_theta_x^H; then w = X^H and the reduction term is
    # trace(C_theta_x @ X).
    x = lu_solve((lu, piv), c_theta_x.conj().T)
    mse = prior_trace - float(np.trace(c_theta_x @ x).real)
    return LmmseFilter(w=x.conj().T, mse=float(_clamped_mse(mse)), condition=condition)


def prefix_mse(model: MixedModel) -> np.ndarray:
    """LMMSE MSE of every leading subset of rows of x = [x_a; x_q].

    Entry k of the returned length-(n + 1) array is the MSE of the estimator
    that uses only the first k rows; entry 0 is the prior trace.  One
    Cholesky factorization and one triangular solve serve every k (see the
    module docstring).  A singular or non-finite factor, or a 1-norm
    condition estimate of the full C_x above ``CONDITION_LIMIT``, raises
    :class:`EstimatorUndefinedError`.  By Cauchy interlacing no leading
    block has a larger 2-norm condition number than the whole matrix.
    """
    check_dense_rows(model.n_analog + model.n_quantized)
    bundle = assemble(model)
    c_x = bundle.c_x
    anorm = np.linalg.norm(c_x, 1)
    chol, info = lapack.zpotrf(c_x, lower=1)
    if info != 0 or not np.all(np.isfinite(np.diag(chol))):
        raise EstimatorUndefinedError("measurement covariance is singular", condition=float("inf"))
    _checked_condition(*lapack.zpocon(chol, anorm, uplo="L"))
    z, _ = lapack.ztrtrs(chol, bundle.c_theta_x.conj().T, lower=1)
    reduction = np.concatenate([[0.0], np.cumsum(np.sum(z.real**2 + z.imag**2, axis=1))])
    return _clamped_mse(float(np.trace(model.sigma_theta).real) - reduction)


def estimate(filt: LmmseFilter, x: np.ndarray) -> np.ndarray:
    """Apply the linear estimator to a measurement vector (or column batch)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] != filt.w.shape[1]:
        raise ModelError(f"measurement length {x.shape[0]} does not match filter ({filt.w.shape[1]})")
    return filt.w @ x
