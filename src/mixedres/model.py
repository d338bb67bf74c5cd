"""Measurement models, quantizers, and reproducible random sampling.

The measurement vector concatenates an analog (continuous-valued) part

    x_a = H theta + w_a + w_da

and a 1-bit quantized part

    x_q = Q(G theta + w_q + w_dq),

where ``theta`` is a zero-mean circularly symmetric complex Gaussian
parameter with covariance ``sigma_theta`` and all noise terms are i.i.d.
complex Gaussian.  ``w_da`` and ``w_dq`` are optional dither terms added
before acquisition/quantization.  The convention throughout the package is
that a scalar CN(0, v) variable has independent real and imaginary parts of
variance v/2 each.

Two samplers draw from the model.  :func:`sample_measurements` realizes
every row: noise, then the sign.  :func:`sample_copy_sums` draws only what a
filter that treats the copies of a repeated block alike can see: the sum of
the copies.  Given theta, each 1-bit output of a row with mean mu is +1 with
probability Phi(mu / sqrt(v/2)) per real and imaginary part, independently
of the other rows, so the sum of k copies of a row is a binomial count,
drawn as k uniforms compared with that probability (k = 1 for a row that
does not repeat).  The sum of k_a analog copies is k_a H1 theta plus one
noise draw of variance k_a v.  Both sums have exactly the distribution of
the sums of the realized rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ModelError, QuantizerDomainError, SingularPriorError, require_finite

_MASK64 = (1 << 64) - 1

# Correctly rounded 1/sqrt(2); also equals np.sqrt(2)/2 bit for bit, which
# the 1-bit/b-bit equivalence property relies on.
INV_SQRT2 = np.sqrt(0.5)


# ---------------------------------------------------------------------------
# Reproducible random streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: (seed, stream_id) -> independent generator.

    The same pair always reproduces the same draws; distinct ``stream_id``
    values give statistically independent streams, so Monte-Carlo batches can
    be assigned disjoint ids and run in any order or in parallel.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Create a fresh generator positioned at the start of the stream."""
        entropy = [self.seed & _MASK64, self.stream_id & _MASK64]
        return np.random.default_rng(np.random.SeedSequence(entropy))


def _complex_normal(g: np.random.Generator, shape: tuple, var: float) -> np.ndarray:
    """Draw CN(0, var) samples (per-component real/imag variance var/2)."""
    z = g.standard_normal((2,) + shape)
    return (z[0] + 1j * z[1]) * np.sqrt(var / 2.0)


# ---------------------------------------------------------------------------
# Quantizers
# ---------------------------------------------------------------------------


# Level indices are computed in float64, which counts exactly up to 2**53.
MAX_QUANTIZER_BITS = 53


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform midrise quantizer: 2**bits levels spanning [lo, hi] per component."""

    bits: int
    lo: float
    hi: float

    def __post_init__(self):
        if not 1 <= self.bits <= MAX_QUANTIZER_BITS:
            raise ModelError(f"bits must be in [1, {MAX_QUANTIZER_BITS}], got {self.bits}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ModelError(f"quantizer range must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ModelError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not 0.0 < self.step < math.inf:
            raise ModelError(f"step of {self.bits} bits on [{self.lo}, {self.hi}] is not a positive finite float")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / 2**self.bits


def quantize_1bit(z):
    """Element-wise 1-bit quantization of a complex scalar or array.

    Each of Re(z) and Im(z) maps to +1 for values >= 0 (including -0.0) and
    -1 otherwise, and the result is scaled by 1/sqrt(2) so every output has
    unit modulus.  Real and complex64 inputs are widened to complex128
    first; a 0-d input returns a Python ``complex``.
    """
    z = np.asarray(z)
    # Adding +0.0 copies the interleaved (re, im) values and turns -0.0 into
    # +0.0, so copysign then yields the sign rule above without a comparison.
    parts = np.ascontiguousarray(z, dtype=np.complex128).view(np.float64) + 0.0
    if not np.isfinite(parts).all():
        raise QuantizerDomainError("1-bit quantizer requires finite input")
    np.copysign(INV_SQRT2, parts, out=parts)
    out = parts.view(np.complex128).reshape(z.shape)
    return out if out.ndim else complex(out)


def quantize_bbit(z, spec: QuantizerSpec):
    """Uniform midrise b-bit quantization applied to Re(z) and Im(z).

    Inputs outside [lo, hi] saturate to the nearest edge level.  With
    ``bits=1`` the quantizer reduces to a scaled sign function, matching
    :func:`quantize_1bit` up to the level scaling.
    """
    z = np.asarray(z)
    if not np.all(np.isfinite(z)):
        raise QuantizerDomainError("b-bit quantizer requires finite input")
    step = spec.step
    nlev = 2**spec.bits

    def component(x):
        k = np.floor((x - spec.lo) / step)
        # Rounding in (x - lo)/step can misbin values at a threshold; snap k
        # so that the bin edges lo + k*step themselves decide membership.
        k = k - (x < spec.lo + k * step)
        k = k + (x >= spec.lo + (k + 1) * step)
        k = np.clip(k, 0, nlev - 1)
        return spec.lo + (k + 0.5) * step

    # A tiny step can overflow the bin index to +-inf, which the clip saturates.
    with np.errstate(over="ignore"):
        out = component(z.real) + 1j * component(z.imag)
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# Model descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MixedModel:
    """General mixed-resolution measurement model.

    Attributes
    ----------
    h : np.ndarray
        Analog mixing matrix, shape (n_analog, m).
    g : np.ndarray
        Quantized-path mixing matrix, shape (n_quantized, m).
    sigma_theta : np.ndarray
        Hermitian positive-definite prior covariance, shape (m, m).
    var_a, var_q : float
        Analog and quantized-path noise variances.
    var_da, var_dq : float
        Dither variances added to the analog and quantized paths.
    """

    h: np.ndarray
    g: np.ndarray
    sigma_theta: np.ndarray
    var_a: float
    var_q: float
    var_da: float = 0.0
    var_dq: float = 0.0

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.complex128)
        g = np.asarray(self.g, dtype=np.complex128)
        sig = np.atleast_2d(np.asarray(self.sigma_theta, dtype=np.complex128))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "sigma_theta", sig)

        m = sig.shape[0]
        if sig.shape != (m, m):
            raise ModelError(f"sigma_theta must be square, got {sig.shape}")
        if h.ndim != 2 or h.shape[1] != m:
            raise ModelError(f"h must have shape (n_analog, {m}), got {h.shape}")
        if g.ndim != 2 or g.shape[1] != m:
            raise ModelError(f"g must have shape (n_quantized, {m}), got {g.shape}")
        if h.shape[0] + g.shape[0] < 1:
            raise ModelError("model needs at least one measurement row")
        for name, arr in (("h", h), ("g", g), ("sigma_theta", sig)):
            if not np.isfinite(arr).all():
                raise ModelError(f"{name} must have finite entries")
        for name in ("var_a", "var_q", "var_da", "var_dq"):
            require_finite(name, getattr(self, name))

        herm_gap = np.max(np.abs(sig - sig.conj().T)) if m else 0.0
        if herm_gap > 1e-12 * max(1.0, np.max(np.abs(sig))):
            raise ModelError("sigma_theta is not Hermitian")
        try:
            np.linalg.cholesky(sig)
        except np.linalg.LinAlgError as exc:
            raise SingularPriorError("sigma_theta is not positive definite") from exc

    @property
    def m(self) -> int:
        return self.sigma_theta.shape[0]

    @property
    def n_analog(self) -> int:
        return self.h.shape[0]

    @property
    def n_quantized(self) -> int:
        return self.g.shape[0]

    @property
    def var_a_total(self) -> float:
        """Analog-path noise plus dither variance."""
        return self.var_a + self.var_da

    @property
    def var_q_total(self) -> float:
        """Quantized-path noise plus dither variance."""
        return self.var_q + self.var_dq


@dataclass(frozen=True)
class OrthoBlockParams:
    """Scalar description of the orthonormal-block measurement model.

    H stacks ``n_a`` square blocks B_i with B_i^H B_i = rho_a * I, and G
    repeats one square block G_1 with G_1^H G_1 = rho_q * I, ``n_q`` times;
    the prior covariance is the identity.  Measurement counts are therefore
    ``m * n_a`` analog rows and ``m * n_q`` quantized rows.
    """

    m: int
    n_a: int
    n_q: int
    rho_a: float = 1.0
    rho_q: float = 1.0
    var_a: float = 1.0
    var_q: float = 1.0
    var_da: float = 0.0
    var_dq: float = 0.0

    def __post_init__(self):
        if self.m < 1:
            raise ModelError(f"m must be >= 1, got {self.m}")
        if self.n_a < 0 or self.n_q < 0:
            raise ModelError("block counts must be nonnegative")
        require_finite("rho_a", self.rho_a, positive=True)
        require_finite("rho_q", self.rho_q, positive=True)
        for name in ("var_a", "var_q", "var_da", "var_dq"):
            require_finite(name, getattr(self, name))

    @property
    def n_analog(self) -> int:
        return self.m * self.n_a

    @property
    def n_quantized(self) -> int:
        return self.m * self.n_q

    @property
    def var_a_total(self) -> float:
        return self.var_a + self.var_da

    @property
    def var_q_total(self) -> float:
        return self.var_q + self.var_dq


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_parameter(sigma_theta: np.ndarray, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Draw the parameter vector from CN(0, sigma_theta).

    Returns shape (m,) by default, or (m, size) with draws as columns.
    """
    sig = np.atleast_2d(np.asarray(sigma_theta, dtype=np.complex128))
    try:
        chol = np.linalg.cholesky(sig)
    except np.linalg.LinAlgError as exc:
        raise SingularPriorError("prior covariance is not positive definite") from exc
    m = sig.shape[0]
    g = rng.generator()
    z = _complex_normal(g, (m,) if size is None else (m, size), 1.0)
    return chol @ z


def _add_complex_normal(out: np.ndarray, g: np.random.Generator, var: float) -> None:
    """Add CN(0, var) samples to the complex128 array ``out`` in place.

    Draws the same planar (2,) + shape standard-normal block as
    :func:`_complex_normal` and gives the same sums bit for bit; a zero
    variance draws nothing from ``g``.
    """
    if var == 0.0:
        return
    _add_planar_normal(out, g, np.sqrt(var / 2.0))


def _add_planar_normal(out: np.ndarray, g: np.random.Generator, std: float) -> None:
    """Add ``std`` times one planar (2,) + shape standard-normal block to ``out`` in place."""
    z = g.standard_normal((2,) + out.shape)
    z *= std
    out.real += z[0]
    out.imag += z[1]


def _part_std(var: float, var_d: float) -> float:
    """Standard deviation of each real part of CN(0, var) + CN(0, var_d).

    sqrt(var + var_d) can overflow for two finite variances; the hypot of
    the square roots cannot, and stays positive for the smallest subnormal,
    where sqrt(var / 2) underflows to 0.
    """
    return float(np.hypot(np.sqrt(var), np.sqrt(var_d))) * INV_SQRT2


def sample_measurements(model: MixedModel, theta: np.ndarray, rng: RngStream):
    """Draw one realization (x_a, x_q) of the measurement model.

    ``theta`` may be a single vector of length m or an (m, t) batch of
    column vectors; the outputs have matching trailing shape.  Noise draws
    are taken from ``rng`` in the fixed order w_a, w_da, w_q, w_dq so that
    identical streams reproduce identical measurements.  A term whose
    variance is 0 is skipped and consumes no draws, so the terms after it
    take the draws it would have used.
    """
    theta = np.asarray(theta, dtype=np.complex128)
    if theta.shape[0] != model.m:
        raise ModelError(f"theta has leading dimension {theta.shape[0]}, expected {model.m}")
    g = rng.generator()

    x_a = model.h @ theta
    _add_complex_normal(x_a, g, model.var_a)
    _add_complex_normal(x_a, g, model.var_da)

    y = model.g @ theta
    _add_complex_normal(y, g, model.var_q)
    _add_complex_normal(y, g, model.var_dq)
    x_q = quantize_1bit(y) if y.size else y
    return x_a, x_q


def block_period(rows: np.ndarray) -> int:
    """Smallest p with ``rows == tile(rows[:p], n // p)`` by exact row equality, n = len(rows).

    Rows without a shorter period give p = n, and no rows give 0.  Only a
    row equal to row 0 can start a second copy, so one comparison of every
    row with row 0 rules out most candidates; for tiled rows the first
    candidate that divides n is usually the period.
    """
    n = rows.shape[0]
    if n < 2:
        return n
    starts_copy = (rows[1:] == rows[0]).all(axis=1).tolist()
    for p in range(1, n // 2 + 1):
        if starts_copy[p - 1] and n % p == 0 and (rows[p:] == rows[:-p]).all():
            return p
    return n


def _copies(n: int, period: int, name: str) -> int:
    """Number of copies of a ``period``-row block in ``n`` rows; 0 for no rows."""
    if n == 0 and period == 0:
        return 0
    if not 1 <= period <= n or n % period:
        raise ModelError(f"{name} period {period} does not divide {n} rows")
    return n // period


def sample_copy_sums(
    model: MixedModel,
    theta: np.ndarray,
    rng: RngStream,
    analog_period: int,
    quantized_period: int,
):
    """Draw the copy sums (s_a, s_q) of one realization of the measurement model.

    The analog rows must be k_a copies of their first ``analog_period`` rows
    and the quantized rows k copies of their first ``quantized_period`` rows,
    as :func:`block_period` finds them; a period equal to the row count
    claims no repetition.  ``s_a`` (``analog_period`` rows) and ``s_q``
    (``quantized_period`` rows) are the sums over the copies of x_a and x_q,
    with the same distribution as summing the rows that
    :func:`sample_measurements` draws, but from other draws of ``rng``:

    1. one CN(0, k_a * var_a_total) block added to k_a * H[:p_a] theta;
    2. one uniform block of shape (k, 2, p, t): copy j of row i counts +1
       in its real (imaginary) part when its uniform is below
       Phi(mu / sqrt(v/2)), mu being the real (imaginary) part of
       G[:p] theta and v = var_q_total, so each part of s_q is
       (2 * count - k) / sqrt(2).  Rows that do not repeat (k = 1) take
       the same path: one Bernoulli per row.

    A zero variance draws nothing: the analog sum is then k_a * H[:p_a]
    theta and the quantized sum k * quantize_1bit(G[:p] theta).
    """
    theta = np.asarray(theta, dtype=np.complex128)
    if theta.shape[0] != model.m:
        raise ModelError(f"theta has leading dimension {theta.shape[0]}, expected {model.m}")
    k_a = _copies(model.n_analog, analog_period, "analog")
    k = _copies(model.n_quantized, quantized_period, "quantized")
    g = rng.generator()

    s_a = model.h[:analog_period] @ theta
    std_a = _part_std(model.var_a, model.var_da)
    # An extreme model can overflow the sum; run_monte_carlo refuses the non-finite result.
    with np.errstate(over="ignore"):
        if k_a > 1:
            s_a *= k_a
        if std_a:
            _add_planar_normal(s_a, g, std_a * np.sqrt(k_a))

    mu = model.g[:quantized_period] @ theta
    if not mu.size:
        return s_a, mu
    sigma = _part_std(model.var_q, model.var_dq)
    if sigma == 0.0:
        return s_a, k * quantize_1bit(mu)
    if not np.isfinite(mu).all():
        raise QuantizerDomainError("1-bit quantizer requires finite input")
    # Imported here: scipy.special adds about 50 ms to every import of the CLI.
    from scipy.special import ndtr

    with np.errstate(over="ignore"):
        # A ratio that overflows to +-inf has probability exactly 1 or 0.
        prob = ndtr(np.stack([mu.real, mu.imag]) / sigma)
    # Summing the comparison's bytes in the narrowest type that holds k is
    # about 15x faster than np.count_nonzero along an axis.
    counts = (g.random((k,) + prob.shape) < prob).view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(k))
    parts = (2.0 * counts - k) * INV_SQRT2
    s_q = np.empty(mu.shape, dtype=np.complex128)
    s_q.real = parts[0]
    s_q.imag = parts[1]
    return s_a, s_q


# ---------------------------------------------------------------------------
# Model constructors
# ---------------------------------------------------------------------------


def _haar_unitary(m: int, g: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = _complex_normal(g, (m, m), 1.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return q * (d / np.abs(d))


def make_ortho_matrices(params: OrthoBlockParams, rng: RngStream):
    """Draw mixing matrices (H, G) satisfying the orthonormal-block structure.

    H stacks ``n_a`` independent scaled unitaries sqrt(rho_a) * U_i, so
    H^H H = rho_a * n_a * I; G repeats a single scaled unitary block, so
    G^H G = rho_q * n_q * I.
    """
    g = rng.generator()
    m = params.m
    # One draw of every block, the quantized block last, takes the same
    # normals from g in the same order as one _haar_unitary call per block,
    # and the stacked QR factors each block as a single call would.
    z = g.standard_normal((params.n_a + 1, 2, m, m))
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) * np.sqrt(0.5))
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d[d == 0] = 1.0  # measure-zero guard
    u = q * (d / np.abs(d))[:, None, :]
    h = (np.sqrt(params.rho_a) * u[:-1]).reshape(-1, m)
    # Drawing the quantized block also when n_q = 0 leaves H unchanged.
    gm = np.tile(np.sqrt(params.rho_q) * u[-1], (params.n_q, 1))
    return h, gm


def make_ortho_model(params: OrthoBlockParams, rng: RngStream) -> MixedModel:
    """Instantiate a full :class:`MixedModel` from orthonormal-block parameters."""
    h, g = make_ortho_matrices(params, rng)
    return MixedModel(
        h=h,
        g=g,
        sigma_theta=np.eye(params.m, dtype=np.complex128),
        var_a=params.var_a,
        var_q=params.var_q,
        var_da=params.var_da,
        var_dq=params.var_dq,
    )


def _require_counts(n_a: int, n_q: int) -> None:
    if n_a < 0 or n_q < 0:
        raise ModelError(f"measurement counts must be nonnegative, got n_a={n_a}, n_q={n_q}")
    if n_a + n_q < 1:
        raise ModelError("need at least one measurement (n_a + n_q >= 1)")


def make_scalar_model(n_a: int, n_q: int, var: float) -> MixedModel:
    """Scalar-parameter model: unit prior, all-ones mixing, equal noise variances.

    Satisfies the orthonormal-block assumptions with m=1 and unit block gains.
    """
    _require_counts(n_a, n_q)
    return MixedModel(
        h=np.ones((n_a, 1), dtype=np.complex128),
        g=np.ones((n_q, 1), dtype=np.complex128),
        sigma_theta=np.eye(1, dtype=np.complex128),
        var_a=var,
        var_q=var,
    )


def make_mimo_model(
    k: int,
    n_a: int,
    n_q: int,
    rho: float,
    var: float,
    pilot: str = "random-unitary",
    rng: RngStream | None = None,
) -> MixedModel:
    """Pilot-based channel-estimation model with k users.

    The pilot matrix Phi is unitary (random Haar draw, or the unitary DFT
    matrix when ``pilot="dft"``); both mixing matrices repeat sqrt(rho)*Phi,
    so the orthonormal-block assumptions hold with block gains rho.
    """
    if k < 1:
        raise ModelError(f"k must be >= 1, got {k}")
    _require_counts(n_a, n_q)
    if rho <= 0:
        raise ModelError("pilot power rho must be positive")
    if pilot == "random-unitary":
        g = (rng if rng is not None else RngStream(0)).generator()
        phi = _haar_unitary(k, g)
    elif pilot == "dft":
        idx = np.arange(k)
        phi = np.exp(-2j * np.pi * np.outer(idx, idx) / k) / np.sqrt(k)
    else:
        raise ModelError(f"unknown pilot type {pilot!r}")
    block = np.sqrt(rho) * phi
    return MixedModel(
        h=np.tile(block, (n_a, 1)),
        g=np.tile(block, (n_q, 1)),
        sigma_theta=np.eye(k, dtype=np.complex128),
        var_a=var,
        var_q=var,
    )
