"""Measurement models, quantizers, and reproducible random sampling.

The measurement vector concatenates an analog (continuous-valued) part

    x_a = H theta + w_a

and a 1-bit quantized part

    x_q = Q(G theta + w_q),

where ``theta`` is a zero-mean circularly symmetric complex Gaussian
parameter with covariance ``sigma_theta`` and all noise terms are i.i.d.
complex Gaussian.  A Gaussian dither added before acquisition or
quantization is, in distribution, more noise, so a dithered path is a path
whose noise variance includes its dither.  The convention throughout the
package is that a scalar CN(0, v) variable has independent real and
imaginary parts of variance v/2 each.

Two routes draw from the model.  :func:`sample_measurements` realizes
every row: noise, then the sign.  :func:`sample_copy_sums` serves a filter
that treats the copies of a repeated block (:func:`copy_layout`) alike, and
so sees their sum.  The sum of k_a analog copies is k_a H1 theta plus one noise
draw of variance k_a v.  The quantized sum is not drawn: given theta, each
1-bit output of a row with mean mu is +1 with probability
P = Phi(mu / sqrt(v/2)) per part, independently of the other outputs, so
each part of the sum of k copies is a Binomial(k, P) count, whose mean and
variance are returned instead.  Both follow from u = 2P - 1, which is
computed as erf(mu / sqrt(v)): that route has no cancellation near mu = 0.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace

import numpy as np

from .exceptions import ModelError, QuantizerDomainError, SingularPriorError, _count_text, require_finite

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
    be assigned disjoint ids and run in any order or in parallel.  Both are
    integers in [0, 2**64); any other value raises :class:`ModelError`
    rather than aliasing another stream.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64 and 0 <= self.stream_id < 2**64):
            raise ModelError(f"seed and stream id must be in [0, 2**64), got {self.seed} and {self.stream_id}")

    def generator(self) -> np.random.Generator:
        """Create a fresh generator positioned at the start of the stream."""
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream_id]))


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
        Analog and quantized-path noise variances; a dithered path's
        variance includes its dither.

    The prior is checked to be Hermitian positive definite, except when
    ``_identity_prior`` is set: :func:`block_model` sets it for the identity
    prior it builds itself.
    """

    h: np.ndarray
    g: np.ndarray
    sigma_theta: np.ndarray
    var_a: float
    var_q: float
    _identity_prior: InitVar[bool] = False

    def __post_init__(self, _identity_prior: bool):
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
        # The identity prior of block_model needs none of the prior's checks.
        arrays = [("h", h), ("g", g)] + ([] if _identity_prior else [("sigma_theta", sig)])
        for name, arr in arrays:
            if not np.isfinite(arr).all():
                raise ModelError(f"{name} must have finite entries")
        for name in ("var_a", "var_q"):
            require_finite(name, getattr(self, name))
        if _identity_prior:
            return

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

    def __post_init__(self):
        if self.m < 1:
            raise ModelError(f"m must be >= 1, got {_count_text(self.m)}")
        if self.n_a < 0 or self.n_q < 0:
            raise ModelError("block counts must be nonnegative")
        require_finite("rho_a", self.rho_a, positive=True)
        require_finite("rho_q", self.rho_q, positive=True)
        for name in ("var_a", "var_q"):
            require_finite(name, getattr(self, name))

    @property
    def n_analog(self) -> int:
        return self.m * self.n_a

    @property
    def n_quantized(self) -> int:
        return self.m * self.n_q


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _prefix(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(shape) items of the flat ``buf``, as a C-contiguous array of ``shape``."""
    return buf[: math.prod(shape)].reshape(shape)


class SampleBuffers:
    """Arrays that the batches of one Monte-Carlo run draw into.

    Built once for batches of up to ``trials`` trials of ``model`` with the
    given copy periods (see :func:`sample_copy_sums`).  They are memory
    only: every draw takes its prior and mixing rows from its own
    arguments.  The arrays that :func:`sample_parameter` and
    :func:`sample_copy_sums` return from them are views, which the next
    draw into the same buffers overwrites.  Each buffer is flat, and a
    batch of t trials uses a contiguous prefix of it:

    - ``theta``: the planar normal block of theta, then theta;
    - ``scratch`` (float64): theta's complex normals, then the analog normal
      block, then u = erf(mu / sqrt(v)) for both parts of s_q, whose first
      p * t values become the conditional variances of s_q, and then the
      caller's estimation error (:meth:`error`), which overwrites those
      variances;
    - ``sums``: [s_a; s_q], whose s_q rows hold mu until its mean replaces it.
    """

    def __init__(self, model: MixedModel, trials: int, analog_period: int, quantized_period: int):
        self.trials = trials
        self.m, self.periods, self.copies = _layout(model, analog_period, quantized_period)
        self.theta = np.empty(self.m * trials, dtype=np.complex128)
        self.scratch = np.empty(2 * max(self.m, *self.periods) * trials)
        self.sums = np.empty(sum(self.periods) * trials, dtype=np.complex128)

    def copy_sums(self, t: int) -> np.ndarray:
        """[s_a; s_q] of the last :func:`sample_copy_sums` draw of ``t`` trials, shape (p_a + p, t)."""
        return _prefix(self.sums, (sum(self.periods), t))

    def error(self, t: int) -> np.ndarray:
        """(m, t) complex scratch, free once the copy sums of ``t`` trials are drawn."""
        return _prefix(self.scratch.view(np.complex128), (self.m, t))


def sample_parameter(
    sigma_theta: np.ndarray, rng: RngStream, size: int | None = None, buffers: SampleBuffers | None = None
) -> np.ndarray:
    """Draw the parameter vector from CN(0, sigma_theta).

    Returns shape (m,) by default, or (m, size) with draws as columns: the
    Cholesky factor of ``sigma_theta`` times one planar (2, m, size) block
    of standard normals scaled by 1/sqrt(2).  With ``buffers`` (of the same
    m) the normals and the (m, size) draw are written into them, with the
    same values.
    """
    try:
        chol = np.linalg.cholesky(np.atleast_2d(np.asarray(sigma_theta, dtype=np.complex128)))
    except np.linalg.LinAlgError as exc:
        raise SingularPriorError("prior covariance is not positive definite") from exc
    m = chol.shape[0]
    shape = (m,) if size is None else (m, size)
    if buffers is None:
        planar, normals, theta = np.empty((2,) + shape), np.empty(shape, np.complex128), None
    elif size is None or size > buffers.trials or m != buffers.m:
        raise ModelError(f"buffers hold m = {buffers.m} and {buffers.trials} trials, got m = {m} and size {size}")
    else:
        planar = _prefix(buffers.theta.view(np.float64), (2,) + shape)
        normals = _prefix(buffers.scratch.view(np.complex128), shape)
        theta = _prefix(buffers.theta, shape)
    rng.generator().standard_normal(out=planar)
    np.multiply(planar[0], INV_SQRT2, out=normals.real)
    np.multiply(planar[1], INV_SQRT2, out=normals.imag)
    return np.matmul(chol, normals, out=theta)


def _add_complex_normal(out: np.ndarray, g: np.random.Generator, var: float) -> None:
    """Add CN(0, var) samples to the complex128 array ``out`` in place.

    Draws one planar (2,) + shape standard-normal block, scaled by
    sqrt(var / 2); a zero variance draws nothing from ``g``.
    """
    if var == 0.0:
        return
    _add_planar_normal(out, g, np.sqrt(var / 2.0))


def _add_planar_normal(out: np.ndarray, g: np.random.Generator, std: float, z: np.ndarray | None = None) -> None:
    """Add ``std`` times one planar (2,) + shape standard-normal block to ``out`` in place.

    The block is drawn into ``z`` when given (same values, no allocation).
    """
    z = g.standard_normal((2,) + out.shape) if z is None else g.standard_normal(out=z)
    z *= std
    out.real += z[0]
    out.imag += z[1]


def _part_std(var: float) -> float:
    """Standard deviation of each real part of CN(0, var).

    sqrt(var) * (1/sqrt(2)) stays positive for the smallest subnormal,
    where sqrt(var / 2) underflows to 0.
    """
    return float(np.sqrt(var)) * INV_SQRT2


def sample_measurements(model: MixedModel, theta: np.ndarray, rng: RngStream):
    """Draw one realization (x_a, x_q) of the measurement model.

    ``theta`` may be a single vector of length m or an (m, t) batch of
    column vectors; the outputs have matching trailing shape.  Noise draws
    are taken from ``rng`` in the fixed order w_a, w_q so that identical
    streams reproduce identical measurements.  A term whose variance is 0
    is skipped and consumes no draws, so w_q then takes the draws w_a
    would have used.
    """
    theta = np.asarray(theta, dtype=np.complex128)
    if theta.shape[0] != model.m:
        raise ModelError(f"theta has leading dimension {theta.shape[0]}, expected {model.m}")
    g = rng.generator()

    x_a = model.h @ theta
    _add_complex_normal(x_a, g, model.var_a)

    y = model.g @ theta
    _add_complex_normal(y, g, model.var_q)
    x_q = quantize_1bit(y) if y.size else y
    return x_a, x_q


def copy_layout(rows: np.ndarray, period: int | None = None) -> tuple[int, int]:
    """(p, k) with ``rows == tile(rows[:p], k)`` by exact row equality.

    This is the one test of how rows tile into copies.  Without ``period``,
    p is the smallest such period: rows without a shorter period give
    (n, 1), n = len(rows), and no rows give (0, 0).  A given ``period`` is
    checked with the same test; one that does not tile the rows (a period
    is 1 to n rows, or 0 for no rows) raises :class:`ModelError`.
    """
    n = rows.shape[0]
    # Complex entries are equal when both parts are: compare the float pairs, a faster test.
    rows = np.ascontiguousarray(rows, dtype=np.complex128).view(np.float64)
    if period is not None:
        candidates = [period]
    elif n <= 1:
        return n, n
    else:
        # A period divides n, and only a row equal to row 0 can start a second copy,
        # so comparing those rows with row 0 rules out most candidates.  p = n always tiles.
        low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        divisors = np.array(low + [n // d for d in reversed(low[1:]) if d * d != n])
        candidates = divisors[(rows[divisors] == rows[:1]).all(axis=1)].tolist() + [n]
    for p in candidates:
        if p == n or (1 <= p < n and n % p == 0 and (rows[p:] == rows[:-p]).all()):
            return p, n // max(p, 1)
    raise ModelError(f"rows are not copies of a block of period {period} ({n} rows)")


def _layout(model: MixedModel, analog_period: int, quantized_period: int) -> tuple:
    """(m, periods, copies) of the copy sums of ``model`` with the given periods."""
    copies = copy_layout(model.h, analog_period)[1], copy_layout(model.g, quantized_period)[1]
    return model.m, (analog_period, quantized_period), copies


def sample_copy_sums(
    model: MixedModel,
    theta: np.ndarray,
    rng: RngStream,
    analog_period: int,
    quantized_period: int,
    buffers: SampleBuffers | None = None,
):
    """Draw the analog copy sum s_a; give the mean and variance of the quantized one given theta.

    ``theta`` is an (m, t) batch of parameter columns.  The analog rows must
    be k_a copies of their first ``analog_period`` rows and the quantized
    rows k copies of their first ``quantized_period`` rows, as
    :func:`copy_layout` checks them; a period equal to the row count claims
    no repetition.  Returns ``(s_a, s_q, s_q_var)``, each with t columns:

    - ``s_a`` (p_a rows): one CN(0, k_a * var_a) block added to
      k_a * H[:p_a] theta, distributed as the sum of the rows that
      :func:`sample_measurements` draws.  It is the only draw from ``rng``.
    - ``s_q`` (p rows): the mean of the quantized copy sum.  With
      P = Phi(mu / sqrt(v/2)) per part of mu = G[:p] theta, v = var_q,
      each part of that sum is (2 * count - k) / sqrt(2) with
      count ~ Binomial(k, P), of mean k u / sqrt(2), where
      u = 2P - 1 = erf(mu / sqrt(v)) is computed as erf(|mu| / sqrt(v))
      with the sign of mu, so negating theta negates s_q exactly.
    - ``s_q_var`` (p rows): the variance of that sum, both parts together:
      2k (P_re (1 - P_re) + P_im (1 - P_im)) = k - k (u_re**2 + u_im**2) / 2.

    Both sums come from one product [H[:p_a]; G[:p]] theta.

    Rows that do not repeat (k = 1) take the same path.  A zero variance
    draws nothing: the analog sum is then k_a * H[:p_a] theta, the
    quantized mean k * quantize_1bit(G[:p] theta) and its variance 0.
    Without ``buffers`` the results are new arrays; with them, they are
    views into the buffers (see :class:`SampleBuffers`), which must have
    been made for the same m, periods and copy counts.
    """
    theta = np.asarray(theta, dtype=np.complex128)
    if theta.ndim != 2 or theta.shape[0] != model.m:
        raise ModelError(f"theta must have shape ({model.m}, trials), got {theta.shape}")
    t = theta.shape[1]
    layout = _layout(model, analog_period, quantized_period)
    if buffers is None:
        buffers = SampleBuffers(model, t, analog_period, quantized_period)
    held = (buffers.m, buffers.periods, buffers.copies)
    if held != layout or t > buffers.trials:
        raise ModelError(f"buffers of (m, periods, copies) {held} and {buffers.trials} trials do not fit {layout}, {t}")
    k_a, k = buffers.copies
    p_a, p = analog_period, quantized_period

    sums = buffers.copy_sums(t)
    np.matmul(np.concatenate([model.h[:p_a], model.g[:p]]), theta, out=sums)
    s_a, s_q = sums[:p_a], sums[p_a:]
    std_a = _part_std(model.var_a)
    # An extreme model can overflow the sum; run_monte_carlo refuses the non-finite result.
    with np.errstate(over="ignore"):
        if k_a > 1:
            s_a *= k_a
        if std_a:
            _add_planar_normal(s_a, rng.generator(), std_a * np.sqrt(k_a), _prefix(buffers.scratch, (2,) + s_a.shape))

    mu = s_q  # G[:p] theta, until its mean replaces it
    u = _prefix(buffers.scratch, (2, p, t))
    s_q_var = u[0]
    root_v = math.sqrt(model.var_q)
    if root_v == 0.0 or not mu.size:
        s_q[...] = k * quantize_1bit(mu)
        s_q_var[...] = 0.0
        return s_a, s_q, s_q_var
    # Keep an elementwise pass between the matmul and erf: without one, erf
    # ran 9x slower on a 10 x 8192 batch (21 ms against 2.3 ms).
    if not np.isfinite(mu).all():
        raise QuantizerDomainError("1-bit quantizer requires finite input")
    # Imported here: scipy.special adds about 0.3 s to every import of the CLI.
    from scipy.special import erf

    # u = 2P - 1 = erf(mu / sqrt(v)) per part.  erf is taken of |mu| / sqrt(v),
    # so that it does not branch on random signs, and u is given mu's sign.
    # A ratio that overflows to +-inf gives u = +-1.
    with np.errstate(over="ignore"):
        np.divide(mu.real, root_v, out=u[0])
        np.divide(mu.imag, root_v, out=u[1])
    np.abs(u, out=u)
    erf(u, out=u)
    np.copysign(u[0], mu.real, out=u[0])
    np.copysign(u[1], mu.imag, out=u[1])
    # u is sqrt(2) times the mean of one output, whose variance is (1 - u**2) / 2.
    np.multiply(u[0], k * INV_SQRT2, out=s_q.real)
    np.multiply(u[1], k * INV_SQRT2, out=s_q.imag)
    np.square(u, out=u)
    np.add(u[0], u[1], out=s_q_var)
    s_q_var *= -0.5 * k
    s_q_var += k
    return s_a, s_q, s_q_var


# ---------------------------------------------------------------------------
# Model constructors
# ---------------------------------------------------------------------------


def make_ortho_matrices(params: OrthoBlockParams, rng: RngStream):
    """Draw mixing matrices (H, G) satisfying the orthonormal-block structure.

    H stacks ``n_a`` independent scaled unitaries sqrt(rho_a) * U_i, so
    H^H H = rho_a * n_a * I; G repeats a single scaled unitary block, so
    G^H G = rho_q * n_q * I.  Each block is a Haar unitary: the Q factor of
    a CN(0, 1) matrix, its columns rotated so that R has a positive real
    diagonal.
    """
    g = rng.generator()
    m = params.m
    # One draw of every block, the quantized block last; the stacked QR
    # factors each block as a QR of that block alone would.
    z = g.standard_normal((params.n_a + 1, 2, m, m))
    # (re + i im) / sqrt(2), each part scaled into its place.
    w = np.empty((params.n_a + 1, m, m), dtype=np.complex128)
    np.multiply(z[:, 0], INV_SQRT2, out=w.real)
    np.multiply(z[:, 1], INV_SQRT2, out=w.imag)
    q, r = np.linalg.qr(w)
    d = r.diagonal(axis1=1, axis2=2).copy()
    d[d == 0] = 1.0  # measure-zero guard
    u = q * (d / np.abs(d))[:, None, :]
    h = (math.sqrt(params.rho_a) * u[:-1]).reshape(-1, m)
    # Drawing the quantized block also when n_q = 0 leaves H unchanged.
    gm = np.tile(math.sqrt(params.rho_q) * u[-1], (params.n_q, 1))
    return h, gm


def block_model(params: OrthoBlockParams, h: np.ndarray, g1: np.ndarray) -> MixedModel:
    """The model of ``params`` built from explicit blocks.

    Stacks the first ``params.n_a`` m-row blocks of ``h`` over
    ``params.n_q`` copies of the m-row block ``g1``, with the identity
    prior and the two noise variances of ``params``.  The
    block gains are those of the matrices given, not ``rho_a``/``rho_q``.
    The blocks and variances are checked as for any model; the identity
    prior is not re-proved positive definite.
    """
    m = params.m
    return MixedModel(
        h=h[: m * params.n_a],
        g=np.tile(g1, (params.n_q, 1)),
        sigma_theta=np.eye(m, dtype=np.complex128),
        var_a=params.var_a,
        var_q=params.var_q,
        _identity_prior=True,
    )


def make_ortho_model(params: OrthoBlockParams, rng: RngStream) -> MixedModel:
    """Instantiate a full :class:`MixedModel` from orthonormal-block parameters."""
    h, g1 = make_ortho_matrices(replace(params, n_q=1), rng)
    return block_model(params, h, g1)


def _require_counts(n_a: int, n_q: int) -> None:
    if n_a < 0 or n_q < 0:
        raise ModelError(f"measurement counts must be nonnegative, got n_a={_count_text(n_a)}, n_q={_count_text(n_q)}")
    if n_a + n_q < 1:
        raise ModelError("need at least one measurement (n_a + n_q >= 1)")


def make_scalar_model(n_a: int, n_q: int, var: float) -> MixedModel:
    """Scalar-parameter model: unit prior, all-ones mixing, equal noise variances.

    Satisfies the orthonormal-block assumptions with m=1 and unit block gains.
    """
    _require_counts(n_a, n_q)
    params = OrthoBlockParams(m=1, n_a=n_a, n_q=n_q, var_a=var, var_q=var)
    return block_model(params, np.ones((n_a, 1)), np.ones((1, 1)))


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
    so the orthonormal-block assumptions hold with block gains rho.  The
    random pilot is the quantized block of :func:`make_ortho_matrices` for
    one block of gain rho, drawn from ``rng`` (``RngStream(0)`` if None).
    """
    if k < 1:
        raise ModelError(f"k must be >= 1, got {k}")
    _require_counts(n_a, n_q)
    require_finite("rho", rho, positive=True)
    if pilot == "random-unitary":
        params = OrthoBlockParams(m=k, n_a=0, n_q=1, rho_q=rho)
        _, block = make_ortho_matrices(params, rng if rng is not None else RngStream(0))
    elif pilot == "dft":
        idx = np.arange(k)
        phi = np.exp(-2j * np.pi * np.outer(idx, idx) / k) / np.sqrt(k)
        block = np.sqrt(rho) * phi
    else:
        raise ModelError(f"unknown pilot type {pilot!r}")
    params = OrthoBlockParams(m=k, n_a=n_a, n_q=n_q, rho_a=rho, rho_q=rho, var_a=var, var_q=var)
    return block_model(params, np.tile(block, (n_a, 1)), block)
