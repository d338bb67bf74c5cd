"""Tests for model construction, validation, and random sampling."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats

from mixedres.closed_form import mse_closed_form
from mixedres.estimator import lmmse
from mixedres.exceptions import ModelError, QuantizerDomainError, SingularPriorError
from mixedres.model import (
    INV_SQRT2,
    MixedModel,
    OrthoBlockParams,
    RngStream,
    SampleBuffers,
    _part_std,
    make_mimo_model,
    make_ortho_matrices,
    make_scalar_model,
    quantize_1bit,
    sample_copy_sums,
    sample_measurements,
    sample_parameter,
)
from oracles import reference_complex_normal, reference_copy_sums, reference_haar_unitary


class TestMixedModelValidation:
    def test_rejects_non_hermitian_prior(self):
        sig = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ModelError):
            MixedModel(h=np.ones((1, 2)), g=np.zeros((0, 2)), sigma_theta=sig, var_a=1.0, var_q=1.0)

    def test_rejects_indefinite_prior(self):
        sig = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(SingularPriorError):
            MixedModel(h=np.ones((1, 2)), g=np.zeros((0, 2)), sigma_theta=sig, var_a=1.0, var_q=1.0)

    def test_rejects_negative_variance(self):
        with pytest.raises(ModelError):
            MixedModel(h=np.ones((1, 1)), g=np.zeros((0, 1)), sigma_theta=np.eye(1), var_a=-0.1, var_q=1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_variance(self, value):
        with pytest.raises(ModelError):
            MixedModel(h=np.ones((1, 1)), g=np.zeros((0, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=value)

    @pytest.mark.parametrize("field", ["h", "g", "sigma_theta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_matrix_entries(self, field, value):
        """A NaN or infinite entry is a ModelError here, not a bare ValueError later in lmmse."""
        arrays = {
            "h": np.ones((2, 2), dtype=complex),
            "g": np.ones((1, 2), dtype=complex),
            "sigma_theta": np.eye(2, dtype=complex),
        }
        arrays[field][0, 1] = complex(0.0, value) if field == "g" else value
        with pytest.raises(ModelError, match=f"^{field} must have finite entries"):
            MixedModel(**arrays, var_a=1.0, var_q=1.0)

    def test_rejects_empty_model(self):
        with pytest.raises(ModelError):
            MixedModel(h=np.zeros((0, 1)), g=np.zeros((0, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=1.0)

    def test_rejects_column_mismatch(self):
        with pytest.raises(ModelError):
            MixedModel(h=np.ones((2, 3)), g=np.zeros((0, 2)), sigma_theta=np.eye(2), var_a=1.0, var_q=1.0)

    def test_rejects_non_square_prior(self):
        with pytest.raises(ModelError, match=r"^sigma_theta must be square, got \(2, 3\)$"):
            MixedModel(h=np.ones((1, 3)), g=np.zeros((0, 3)), sigma_theta=np.ones((2, 3)), var_a=1.0, var_q=1.0)


class TestOrthoBlockParams:
    def test_validation(self):
        with pytest.raises(ModelError):
            OrthoBlockParams(m=0, n_a=1, n_q=0)
        with pytest.raises(ModelError):
            OrthoBlockParams(m=1, n_a=-1, n_q=0)
        with pytest.raises(ModelError):
            OrthoBlockParams(m=1, n_a=1, n_q=0, rho_a=0.0)
        with pytest.raises(ModelError):
            OrthoBlockParams(m=1, n_a=1, n_q=0, var_q=-1.0)

    @pytest.mark.parametrize("field", ["rho_a", "rho_q", "var_a", "var_q"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ModelError, match=field):
            OrthoBlockParams(m=1, n_a=1, n_q=1, **{field: value})

    def test_measurement_counts(self):
        p = OrthoBlockParams(m=3, n_a=2, n_q=5)
        assert p.n_analog == 6
        assert p.n_quantized == 15


class TestRngStream:
    def test_repeatable(self):
        a = RngStream(42, 7).generator().standard_normal(8)
        b = RngStream(42, 7).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(8)
        b = RngStream(42, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seed_and_stream_id_are_u64(self):
        """No aliasing modulo 2**64: -1 is not 2**64 - 1, nor 2**64 zero.
        The largest accepted values seed the generator unchanged."""
        for seed, stream_id in [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)]:
            with pytest.raises(ModelError, match="2\\*\\*64"):
                RngStream(seed, stream_id)
        top = 2**64 - 1
        a = RngStream(top, top).generator().standard_normal(8)
        b = np.random.default_rng(np.random.SeedSequence([top, top])).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "seed, stream_id, kind", [(1.5, 0, "float"), (0, 2.0, "float"), (True, 0, "bool"), (0, False, "bool")]
    )
    def test_seed_and_stream_id_are_integers(self, seed, stream_id, kind):
        """A float or a bool is refused, not truncated or counted as 0 or 1; numpy integers seed as ints do."""
        with pytest.raises(ModelError, match=f"^seed and stream id must be integers, got {kind}$"):
            RngStream(seed, stream_id)
        a = RngStream(np.uint64(3), np.int32(4)).generator().standard_normal(8)
        np.testing.assert_array_equal(a, RngStream(3, 4).generator().standard_normal(8))


class TestSampleParameter:
    def test_identity_prior_moments(self):
        theta = sample_parameter(np.eye(3), RngStream(0), size=100_000)
        emp = theta @ theta.conj().T / theta.shape[1]
        assert np.max(np.abs(emp - np.eye(3))) < 0.05

    def test_scalar_prior_component_variance(self):
        theta = sample_parameter(0.25 * np.eye(1), RngStream(1), size=100_000)
        for part in (theta.real, theta.imag):
            assert abs(part.var() - 0.125) < 0.05 * 0.125

    def test_deterministic(self):
        a = sample_parameter(np.eye(2), RngStream(3, 5))
        b = sample_parameter(np.eye(2), RngStream(3, 5))
        np.testing.assert_array_equal(a, b)

    def test_singular_prior_rejected(self):
        with pytest.raises(SingularPriorError):
            sample_parameter(np.zeros((2, 2)), RngStream(0))

    @pytest.mark.parametrize("size, message", [(-1, "nonnegative, got -1"), (2.0, "integers, got float"),
                                               (True, "integers, got bool")])
    def test_size_is_a_nonnegative_integer(self, size, message):
        with pytest.raises(ModelError, match=f"^size must be {message}$"):
            sample_parameter(np.eye(2), RngStream(0), size=size)

    def test_numpy_and_zero_sizes(self):
        got = sample_parameter(np.eye(2), RngStream(3), size=np.int64(5))
        assert got.tobytes() == sample_parameter(np.eye(2), RngStream(3), size=5).tobytes()
        assert sample_parameter(np.eye(2), RngStream(3), size=0).shape == (2, 0)


class TestSampleMeasurements:
    def test_zero_noise_analog_is_exact(self):
        model = MixedModel(
            h=np.array([[1.0, 2.0], [0.0, 1.0]]), g=np.ones((1, 2)),
            sigma_theta=np.eye(2), var_a=0.0, var_q=1.0,
        )
        theta = np.array([1 + 1j, -2j])
        x_a, _ = sample_measurements(model, theta, RngStream(0))
        np.testing.assert_array_equal(x_a, model.h @ theta)

    def test_quantized_has_unit_modulus(self):
        model = make_scalar_model(1, 4, 1.0)
        theta = sample_parameter(model.sigma_theta, RngStream(2))
        _, x_q = sample_measurements(model, theta, RngStream(3))
        np.testing.assert_allclose(np.abs(x_q), 1.0, atol=1e-15)

    def test_quantized_mean_zero_at_zero_parameter(self):
        """With theta = 0 the sign of pure noise is symmetric."""
        model = make_scalar_model(0, 1, 1.0)
        trials = 100_000
        theta = np.zeros((1, trials), dtype=complex)
        _, x_q = sample_measurements(model, theta, RngStream(4))
        se = np.sqrt(0.5 / trials)  # per-component variance of x_q is 1/2
        mean = x_q.mean()
        assert abs(mean.real) < 3 * se
        assert abs(mean.imag) < 3 * se

    def test_all_variances_zero_is_deterministic(self):
        model = MixedModel(
            h=np.ones((1, 1)), g=np.array([[2.0], [1.0j]]),
            sigma_theta=np.eye(1), var_a=0.0, var_q=0.0,
        )
        theta = np.array([0.3 - 0.8j])
        _, x_q = sample_measurements(model, theta, RngStream(9))
        np.testing.assert_array_equal(x_q, quantize_1bit(model.g @ theta))

    def test_dimension_mismatch(self):
        model = make_scalar_model(1, 1, 1.0)
        with pytest.raises(ModelError):
            sample_measurements(model, np.zeros(3), RngStream(0))

    @pytest.mark.parametrize("zero", list(itertools.product([False, True], repeat=4)))
    def test_draws_only_positive_variance_terms(self, zero):
        """Each path with a positive variance adds one planar CN block, drawn
        in the order w_a, w_q; a zero-variance path draws nothing.  A path's
        variance is its noise plus its dither (0.7 + 0.2 analog, 1.3 + 0.4
        quantized, ``zero`` switching each term off), so a dithered path
        draws one block of the sum.  With both variances positive this is
        the pre-skip sampler, bit for bit."""
        terms = {"var_a": (0.7, 0.2), "var_q": (1.3, 0.4)}
        variances = {
            name: sum(0.0 if off else v for off, v in zip(offs, terms[name]))
            for name, offs in (("var_a", zero[:2]), ("var_q", zero[2:]))
        }
        rng = np.random.default_rng(12)
        model = MixedModel(
            h=rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
            g=rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)),
            sigma_theta=np.eye(2), **variances,
        )
        theta = sample_parameter(model.sigma_theta, RngStream(5), size=6)

        class SharedStream:
            """Hands out one generator, so the draws it has left can be inspected."""

            def __init__(self):
                self.g = RngStream(8).generator()

            def generator(self):
                return self.g

        stream = SharedStream()
        x_a, x_q = sample_measurements(model, theta, stream)

        g = RngStream(8).generator()
        want_a = model.h @ theta
        if variances["var_a"]:
            want_a = want_a + reference_complex_normal(g, want_a.shape, variances["var_a"])
        y = model.g @ theta
        if variances["var_q"]:
            y = y + reference_complex_normal(g, y.shape, variances["var_q"])
        assert x_a.tobytes() == want_a.tobytes()
        assert x_q.tobytes() == quantize_1bit(y).tobytes()
        assert stream.g.bit_generator.state == g.bit_generator.state

    def test_deterministic_given_stream(self):
        model = make_scalar_model(2, 2, 1.3)
        theta = sample_parameter(model.sigma_theta, RngStream(50))
        xa1, xq1 = sample_measurements(model, theta, RngStream(51))
        xa2, xq2 = sample_measurements(model, theta, RngStream(51))
        np.testing.assert_array_equal(xa1, xa2)
        np.testing.assert_array_equal(xq1, xq2)


class _OneGenerator:
    """An RngStream stand-in that hands out one generator, so the draws it has left can be inspected."""

    def __init__(self):
        self.g = RngStream(8).generator()

    def generator(self):
        return self.g


def _tiled_model(seed, m, p_a, k_a, p, k, var_a=0.8, var_q=1.1):
    """Random complex model whose H is k_a copies of p_a rows and G is k copies of p rows."""
    rng = np.random.default_rng(seed)

    def cplx(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    root = cplx(m, m)
    return MixedModel(
        h=np.tile(cplx(p_a, m), (k_a, 1)),
        g=np.tile(cplx(p, m), (k, 1)),
        sigma_theta=root @ root.conj().T / m + 0.5 * np.eye(m),
        var_a=var_a, var_q=var_q,
    )


def _mean_and_variance(x):
    """Per-row mean and variance of the real and imaginary parts of ``x``, with their standard errors."""
    parts = np.stack([x.real, x.imag])
    t = parts.shape[-1]
    mean = parts.mean(axis=-1)
    dev = parts - mean[..., None]
    var = (dev**2).mean(axis=-1)
    fourth = (dev**4).mean(axis=-1)
    return mean, var, np.sqrt(var / t), np.sqrt(np.maximum(fourth - var**2, 0.0) / t)


def _copy_sums(model, theta, rng, analog_period, quantized_period):
    """``sample_copy_sums`` of ``theta`` into buffers made for this one draw."""
    buffers = SampleBuffers(model, theta.shape[1], analog_period, quantized_period)
    return sample_copy_sums(theta, rng, buffers)


class TestSampleCopySums:
    TRIALS = 20_000

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dither", [False, True])
    def test_sums_match_summed_rows(self, seed, dither):
        """For a fixed theta, every part of the analog copy sum, and of the
        word sampler's quantized one, has the mean and variance of the sum of
        the k rows that sample_measurements draws; the quantized mean and
        variance returned for that theta are those of the summed rows."""
        rng = np.random.default_rng(100 + seed)
        m, p_a, p = (int(v) for v in rng.integers(1, 4, size=3))
        k_a, k = (int(v) for v in rng.integers(1, 7, size=2))
        # A dither of variance d is d more noise on its path.
        model = _tiled_model(seed, m, p_a, k_a, p, k, var_a=0.8 + 0.3 * dither, var_q=1.1 + 0.6 * dither)
        theta = np.repeat(sample_parameter(model.sigma_theta, RngStream(seed, 1))[:, None], self.TRIALS, axis=1)
        s_a, s_q, s_q_var = _copy_sums(model, theta, RngStream(seed, 2), p_a, p)
        _, drawn_q = reference_copy_sums(model, theta, RngStream(seed, 2), p_a, p)
        x_a, x_q = sample_measurements(model, theta, RngStream(seed, 3))
        assert s_a.shape == (p_a, self.TRIALS) and s_q.shape == s_q_var.shape == (p, self.TRIALS)
        for got, rows, period in ((s_a, x_a, p_a), (drawn_q, x_q, p)):
            want = rows.reshape(-1, period, self.TRIALS).sum(axis=0)
            mean, var, se_mean, se_var = _mean_and_variance(got)
            ref_mean, ref_var, ref_se_mean, ref_se_var = _mean_and_variance(want)
            assert np.all(np.abs(mean - ref_mean) <= 4 * np.hypot(se_mean, ref_se_mean) + 1e-12)
            assert np.all(np.abs(var - ref_var) <= 4 * np.hypot(se_var, ref_se_var) + 1e-12)
        # Every column holds the same theta, so the mean and variance repeat.
        assert (s_q == s_q[:, :1]).all() and (s_q_var == s_q_var[:, :1]).all()
        # A sample that is all one level has a sample variance of 0, so the
        # standard errors come from the binomial moments of the mean.
        mean = np.stack([s_q.real[:, 0], s_q.imag[:, 0]])
        q = (1 - (mean * np.sqrt(2) / k) ** 2) / 4  # P (1 - P) per part
        var = 2 * k * q
        fourth = 4 * k * q * (1 + 3 * (k - 2) * q)
        assert s_q_var[:, 0] == pytest.approx(var.sum(axis=0), rel=1e-12, abs=1e-12)
        ref_mean, ref_var, _, _ = _mean_and_variance(x_q.reshape(-1, p, self.TRIALS).sum(axis=0))
        assert np.all(np.abs(mean - ref_mean) <= 4 * np.sqrt(var / self.TRIALS) + 1e-12)
        se_var = np.sqrt(np.maximum(fourth - var**2, 0.0) / self.TRIALS)
        assert np.all(np.abs(var - ref_var) <= 4 * se_var + 1e-12)

    def test_quantized_sum_is_a_count_of_signs(self):
        """Each part of the word sampler's s_q is (2 * count - k) / sqrt(2) for a count in 0..k."""
        model = _tiled_model(7, 2, 1, 1, 3, 5)
        theta = sample_parameter(model.sigma_theta, RngStream(7), size=200)
        _, s_q = reference_copy_sums(model, theta, RngStream(8), 1, 3)
        levels = (2.0 * np.arange(6) - 5) * INV_SQRT2
        assert np.isin(s_q.view(np.float64), levels).all()

    def test_zero_variance_draws_nothing(self):
        """With no noise and no dither the sums are k_a H1 theta and
        k quantize_1bit(G1 theta) exactly, with no quantized variance, and
        the stream is left untouched."""
        model = _tiled_model(9, 3, 2, 3, 2, 4, var_a=0.0, var_q=0.0)
        theta = sample_parameter(model.sigma_theta, RngStream(9), size=50)
        stream = _OneGenerator()
        s_a, s_q, s_q_var = _copy_sums(model, theta, stream, 2, 2)
        assert s_a.tobytes() == (3 * (model.h[:2] @ theta)).tobytes()
        assert s_q.tobytes() == (4 * quantize_1bit(model.g[:2] @ theta)).tobytes()
        assert not s_q_var.any()
        assert stream.g.bit_generator.state == RngStream(8).generator().bit_generator.state

    def test_zero_quantized_variance_draws_only_the_analog_block(self):
        model = _tiled_model(10, 2, 1, 2, 2, 3, var_a=0.5, var_q=0.0)
        theta = sample_parameter(model.sigma_theta, RngStream(10), size=40)
        stream = _OneGenerator()
        s_a, s_q, s_q_var = _copy_sums(model, theta, stream, 1, 2)
        g = RngStream(8).generator()
        g.standard_normal((2, 1, 40))
        assert stream.g.bit_generator.state == g.bit_generator.state
        assert s_q.tobytes() == (3 * quantize_1bit(model.g[:2] @ theta)).tobytes()
        assert not s_q_var.any()

    def test_nonzero_quantized_variance_draws_only_the_analog_block(self):
        """The 1-bit outputs are integrated out: with noise on both paths
        the stream still gives only the analog normal block."""
        model = _tiled_model(11, 2, 1, 2, 2, 3, var_a=0.5, var_q=0.7)
        theta = sample_parameter(model.sigma_theta, RngStream(11), size=40)
        stream = _OneGenerator()
        _copy_sums(model, theta, stream, 1, 2)
        g = RngStream(8).generator()
        g.standard_normal((2, 1, 40))
        assert stream.g.bit_generator.state == g.bit_generator.state

    def test_tiny_and_huge_variances(self):
        """sigma^2 = 1e-320 makes mu / sigma overflow to +-inf, whose
        probabilities are exactly 1 or 0; 1e308 stays finite."""
        tiny = _tiled_model(12, 1, 1, 2, 1, 3, var_a=1e-320, var_q=1e-320)
        theta = np.array([[1e200 + 1j * 1e200, -1e200 + 0.5j]])
        _, s_q, s_q_var = _copy_sums(tiny, theta, RngStream(12), 1, 1)
        assert s_q.tobytes() == (3 * quantize_1bit(tiny.g[:1] @ theta)).tobytes()
        assert not s_q_var.any()
        huge = _tiled_model(12, 1, 1, 2, 1, 3, var_a=1e308, var_q=1e308)
        results = _copy_sums(huge, theta, RngStream(13), 1, 1)
        assert all(np.isfinite(a).all() for a in results)

    def test_non_finite_mean_is_refused(self):
        model = _tiled_model(13, 1, 1, 1, 1, 2)
        theta = np.array([[np.inf + 0j]])
        with pytest.raises(QuantizerDomainError):
            _copy_sums(model, theta, RngStream(0), 1, 1)

    # (1, 2) and (2, 1) divide the rows, but the rows do not repeat with them.
    @pytest.mark.parametrize("periods", [(0, 2), (2, 0), (3, 2), (2, 3), (2, 8), (1, 2), (2, 1)])
    def test_periods_must_divide_the_rows(self, periods):
        model = _tiled_model(14, 1, 2, 2, 2, 2)
        with pytest.raises(ModelError, match="period"):
            SampleBuffers(model, 3, *periods)

    def test_dimension_mismatch(self):
        model = make_scalar_model(1, 1, 1.0)
        with pytest.raises(ModelError):
            sample_copy_sums(np.zeros(3), RngStream(0), SampleBuffers(model, 3, 1, 1))


class TestOneBitConditionalMean:
    """u = 2P - 1 = erf(mu / sqrt(v)), the sqrt(2)/k-scaled mean of each part of s_q."""

    @pytest.mark.parametrize("var", [1.0, 2.0, 0.3])
    def test_small_ratio_follows_the_series(self, var):
        """Near mu = 0, erf(x) = (2/sqrt(pi)) (x - x**3/3) + O(x**5): a route
        through 2 Phi - 1 cancels there and keeps only about 4 digits at 1e-12."""
        k = 5
        rng = np.random.default_rng(40)
        x = np.exp(rng.uniform(np.log(1e-12), np.log(1e-6), size=(2, 400)))
        x *= rng.choice([-1.0, 1.0], size=x.shape)
        theta = (np.sqrt(var) * (x[0] + 1j * x[1]))[None, :]
        ratio = np.stack([theta.real, theta.imag])[:, 0] / np.sqrt(var)
        _, s_q, _ = _copy_sums(make_scalar_model(1, k, var), theta, RngStream(41), 1, 1)
        u = np.stack([s_q.real, s_q.imag])[:, 0] * np.sqrt(2) / k
        series = 2 / np.sqrt(np.pi) * (ratio - ratio**3 / 3)
        np.testing.assert_allclose(u, series, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_negated_theta_negates_the_mean_exactly(self, seed):
        model = _tiled_model(42 + seed, 3, 2, 2, 3, 4)
        theta = sample_parameter(model.sigma_theta, RngStream(seed), size=500)
        _, s_q, s_q_var = _copy_sums(model, theta, RngStream(seed, 1), 2, 3)
        _, neg_q, neg_var = _copy_sums(model, -theta, RngStream(seed, 1), 2, 3)
        assert neg_q.tobytes() == (-s_q).tobytes()
        assert neg_var.tobytes() == s_q_var.tobytes()

    def test_overflowing_ratio_gives_the_sign_and_no_variance(self):
        """mu / sqrt(v) = +-inf in every part, as with noiseless outputs:
        each part of s_q is +-k / sqrt(2) and its variance is 0."""
        k = 4
        theta = np.array([[1e300 + 1e300j, -1e300 + 1e300j, 1e300 - 1e300j, -1e300 - 1e300j]])
        _, s_q, s_q_var = _copy_sums(make_scalar_model(1, k, 1e-300), theta, RngStream(43), 1, 1)
        want = k * INV_SQRT2 * np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j])
        assert s_q.tobytes() == want[None, :].tobytes()
        assert s_q_var.tobytes() == np.zeros((1, 4)).tobytes()


class TestStackedProduct:
    """One product [H[:p_a]; G[:p]] theta gives the same sums as the two separate products."""

    # (H rows, G rows, analog period, quantized period): no analog rows, no
    # quantized rows, three analog copies, and b-bit emulation, whose analog
    # period is n_a whatever the rows repeat.
    @pytest.mark.parametrize(
        "layout",
        [((0, 1), (2, 3), 0, 2), ((2, 3), (0, 1), 2, 0), ((2, 3), (2, 2), 2, 2), ((2, 3), (3, 2), 6, 3)],
        ids=["no-analog", "no-quantized", "k_a-3", "b-bit-emulation"],
    )
    def test_sums_equal_the_separate_products(self, layout):
        (p_a, k_a), (p, k), analog_period, quantized_period = layout
        var_q = 0.7
        model = _tiled_model(44, 3, p_a, k_a, p, k, var_a=0.0, var_q=var_q)
        theta = sample_parameter(model.sigma_theta, RngStream(44), size=300)
        s_a, s_q, _ = _copy_sums(model, theta, _OneGenerator(), analog_period, quantized_period)
        copies = model.n_analog // max(analog_period, 1)
        assert s_a.tobytes() == (copies * (model.h[:analog_period] @ theta)).tobytes()
        mu = model.g[:quantized_period] @ theta
        mean = [k * INV_SQRT2 * np.copysign(special.erf(np.abs(part) / np.sqrt(var_q)), part)
                for part in (mu.real, mu.imag)]
        assert s_q.real.tobytes() == mean[0].tobytes() and s_q.imag.tobytes() == mean[1].tobytes()


class _StubWords:
    """An RngStream stand-in whose word block repeats one 16-bit word; its normal and binomial draws are real."""

    def __init__(self, word: int, seed: int = 0):
        self.word, self.seed = word, seed

    def generator(self):
        g = RngStream(self.seed).generator()
        raw = np.uint64(self.word * 0x0001_0001_0001_0001)
        return SimpleNamespace(
            standard_normal=g.standard_normal,
            binomial=g.binomial,
            bit_generator=SimpleNamespace(random_raw=lambda n: np.full(n, raw, dtype=np.uint64)),
        )


def _quantized_counts(k, theta, stream):
    """The per-part copy counts (2, t) that the word sampler draws for k copies of the row 1 at quantized variance 0.9.

    Also checks that each part of s_q is exactly (2 * count - k) / sqrt(2).
    """
    _, s_q = reference_copy_sums(make_scalar_model(0, k, 0.9), theta, stream, 0, 1)
    parts = np.concatenate([s_q.real, s_q.imag])
    counts = np.rint((parts / INV_SQRT2 + k) / 2)
    assert np.array_equal(parts, (2.0 * counts - k) * INV_SQRT2)
    assert counts.min() >= 0 and counts.max() <= k
    return counts.astype(np.int64)


def _assert_binomial(counts, k, prob):
    """``counts`` are Binomial(k, prob) draws: all 0 or all k at prob 0 or 1,
    else by a chi-square test on the bins expecting at least 5, the rest pooled."""
    counts = counts.ravel()
    if prob in (0.0, 1.0):
        assert (counts == k * prob).all()
        return
    expected = stats.binom.pmf(np.arange(k + 1), k, prob) * counts.size
    observed = np.bincount(counts, minlength=k + 1)
    keep = expected >= 5
    obs, exp = observed[keep], expected[keep]
    if not keep.all():
        obs, exp = np.append(obs, observed[~keep].sum()), np.append(exp, expected[~keep].sum())
    assert stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue > 1e-6


class TestCopyCountExactness:
    """Each part's count of k quantized copies, drawn from 16-bit words by the
    reference sampler, is Binomial(k, P), P = Phi(mu / sigma)."""

    TRIALS = 20_000
    # mu / sigma, whose P is 0, 1/2, 1, and one where 2**16 P has a nonzero fraction.
    RATIOS = {"p0": -40.0, "half": 0.0, "p1": 40.0, "fraction": 1.2}

    def _theta(self, ratio, imag_ratio):
        sigma = _part_std(0.9)
        return np.full((1, self.TRIALS), ratio * sigma + 1j * imag_ratio * sigma), sigma

    @pytest.mark.parametrize("k", [1, 4, 300])
    @pytest.mark.parametrize("case", sorted(RATIOS))
    def test_counts_are_binomial(self, k, case):
        ratio = self.RATIOS[case]
        theta, sigma = self._theta(ratio, -ratio)
        counts = _quantized_counts(k, theta, RngStream(k, 1))
        for part, mu in enumerate((theta.real, theta.imag)):
            _assert_binomial(counts[part], k, float(special.ndtr(mu[0, 0] / sigma)))

    @pytest.mark.parametrize("k", [1, 300])
    @pytest.mark.parametrize("case", sorted(RATIOS))
    def test_tied_words_count_with_the_fraction(self, k, case):
        """Words equal to the threshold T = min(floor(2**16 P), 2**16 - 1)
        count with probability f = 2**16 P - T; the words next to T count
        always (below) or never (above)."""
        ratio = self.RATIOS[case]
        theta, sigma = self._theta(ratio, ratio)
        scaled = 65536.0 * float(special.ndtr(ratio * sigma / sigma))
        threshold = min(int(scaled), 65535)
        fraction = scaled - threshold
        assert 0.0 < fraction < 1.0 if case == "fraction" else fraction in (0.0, 1.0)
        _assert_binomial(_quantized_counts(k, theta, _StubWords(threshold, seed=k)), k, fraction)
        if threshold > 0:
            assert (_quantized_counts(k, theta, _StubWords(threshold - 1)) == k).all()
        if threshold < 65535:
            assert (_quantized_counts(k, theta, _StubWords(threshold + 1)) == 0).all()

    def test_more_than_255_copies_count_past_a_byte(self):
        """k = 300 needs 16-bit counts: P close to 1 gives counts above 255."""
        theta, _ = self._theta(3.0, 40.0)
        counts = _quantized_counts(300, theta, RngStream(2))
        assert counts[0].max() > 255 and (counts[1] == 300).all()


class TestSampleBuffers:
    """Draws into one set of buffers against draws into fresh ones."""

    @pytest.mark.parametrize("dither", [False, True])
    def test_copy_sums_into_buffers_equal_fresh_sums(self, dither):
        """A full batch and then a shorter one (a run's last batch) drawn into
        the same buffers give the bytes of sums drawn into fresh buffers."""
        model = _tiled_model(31, 2, 2, 3, 3, 4, var_a=0.8 + 0.3 * dither, var_q=1.1 + 0.6 * dither)
        buffers = SampleBuffers(model, 300, 2, 3)
        for seed, size in ((3, 300), (4, 117)):
            theta = sample_parameter(model.sigma_theta, RngStream(seed), size=size)
            got = sample_copy_sums(theta, RngStream(seed, 1), buffers)
            want = _copy_sums(model, theta, RngStream(seed, 1), 2, 3)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_slot_has_no_analog_block_without_analog_noise(self):
        buffers = SampleBuffers(_tiled_model(36, 2, 1, 2, 2, 3, var_a=0.0), 20, 1, 2)
        theta_block, analog_block = buffers.slot(0, 20)
        assert theta_block.shape == (2, 2, 20) and analog_block is None

    def test_buffers_must_fit_the_draw(self):
        model = _tiled_model(33, 2, 1, 2, 2, 3)
        buffers = SampleBuffers(model, 10, 1, 2)
        theta = sample_parameter(model.sigma_theta, RngStream(8), size=11)
        with pytest.raises(ModelError, match="buffers"):
            sample_copy_sums(theta, RngStream(9), buffers)
        with pytest.raises(ModelError, match="buffers"):
            sample_copy_sums(np.zeros((3, 10)), RngStream(9), buffers)


class TestOrthoMatrices:
    @pytest.mark.parametrize("m,n_a,n_q", [(1, 1, 1), (2, 3, 2), (5, 0, 4), (16, 8, 8), (4, 8, 0)])
    def test_block_identities(self, m, n_a, n_q):
        params = OrthoBlockParams(m=m, n_a=n_a, n_q=n_q, rho_a=1.7, rho_q=0.4)
        h, g = make_ortho_matrices(params, RngStream(10 * m + n_a))
        assert h.shape == (m * n_a, m)
        assert g.shape == (m * n_q, m)
        if n_a:
            gap = np.max(np.abs(h.conj().T @ h - 1.7 * n_a * np.eye(m)))
            assert gap <= 1e-10
        if n_q:
            gap = np.max(np.abs(g.conj().T @ g - 0.4 * n_q * np.eye(m)))
            assert gap <= 1e-10

    def test_quantized_blocks_repeat(self):
        params = OrthoBlockParams(m=3, n_a=1, n_q=3)
        _, g = make_ortho_matrices(params, RngStream(5))
        np.testing.assert_array_equal(g[0:3], g[3:6])
        np.testing.assert_array_equal(g[0:3], g[6:9])

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("n_a", [0, 1, 3, 7])
    def test_equals_one_haar_draw_per_block(self, m, n_a):
        """The stacked draw is, bit for bit, one ``reference_haar_unitary``
        call per analog block followed by one for the quantized block."""
        params = OrthoBlockParams(m=m, n_a=n_a, n_q=2, rho_a=1.7, rho_q=0.4)
        gen = RngStream(m + n_a).generator()
        blocks = [np.sqrt(1.7) * reference_haar_unitary(m, gen) for _ in range(n_a)]
        g_block = np.sqrt(0.4) * reference_haar_unitary(m, gen)
        h, g = make_ortho_matrices(params, RngStream(m + n_a))
        np.testing.assert_array_equal(h, np.array(blocks, dtype=np.complex128).reshape(-1, m))
        np.testing.assert_array_equal(g, np.tile(g_block, (2, 1)))

    def test_deterministic(self):
        params = OrthoBlockParams(m=2, n_a=2, n_q=2)
        h1, g1 = make_ortho_matrices(params, RngStream(6, 1))
        h2, g2 = make_ortho_matrices(params, RngStream(6, 1))
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(g1, g2)


class TestScalarModel:
    def test_pure_analog(self):
        model = make_scalar_model(1, 0, 1.0)
        assert model.n_analog == 1 and model.n_quantized == 0

    def test_pure_quantized(self):
        model = make_scalar_model(0, 5, 2.0)
        assert model.n_analog == 0 and model.n_quantized == 5
        assert model.var_q == 2.0

    def test_orthonormal_block_admissible(self):
        """All-ones columns satisfy the block structure with unit gains."""
        model = make_scalar_model(3, 2, 1.0)
        np.testing.assert_allclose(model.h.conj().T @ model.h, 3.0)
        np.testing.assert_allclose(model.g.conj().T @ model.g, 2.0)
        np.testing.assert_array_equal(model.g[0], model.g[1])

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            make_scalar_model(0, 0, 1.0)

    @pytest.mark.parametrize("n_a, n_q", [(-1, 2), (2, -1), (-1, -1)])
    def test_rejects_negative_counts(self, n_a, n_q):
        with pytest.raises(ModelError, match="nonnegative"):
            make_scalar_model(n_a, n_q, 1.0)


class TestMimoModel:
    def test_pilot_unitarity(self):
        model = make_mimo_model(6, 1, 1, rho=2.0, var=1.0, rng=RngStream(8))
        phi = model.h[:6] / np.sqrt(2.0)
        assert np.max(np.abs(phi.conj().T @ phi - np.eye(6))) <= 1e-10

    def test_dft_pilot_unitarity(self):
        model = make_mimo_model(5, 1, 0, rho=1.0, var=1.0, pilot="dft")
        phi = model.h[:5]
        assert np.max(np.abs(phi.conj().T @ phi - np.eye(5))) <= 1e-10

    def test_block_dimensions(self):
        model = make_mimo_model(10, 2, 3, rho=1.0, var=1.0, rng=RngStream(0))
        assert model.h.shape == (20, 10)
        assert model.g.shape == (30, 10)

    @pytest.mark.parametrize("n_a, n_q", [(0, 2), (3, 0)])
    def test_zero_count_gives_empty_block(self, n_a, n_q):
        model = make_mimo_model(3, n_a, n_q, rho=1.0, var=1.0, pilot="dft")
        assert model.h.shape == (3 * n_a, 3) and model.g.shape == (3 * n_q, 3)
        assert model.h.dtype == model.g.dtype == np.complex128

    @pytest.mark.parametrize("n_a, n_q", [(-1, 2), (2, -1), (0, 0)])
    def test_rejects_bad_counts(self, n_a, n_q):
        with pytest.raises(ModelError):
            make_mimo_model(3, n_a, n_q, rho=1.0, var=1.0, rng=RngStream(0))

    @pytest.mark.parametrize("k", [0, -2])
    def test_rejects_no_users(self, k):
        with pytest.raises(ModelError, match=f"^k must be >= 1, got {k}$"):
            make_mimo_model(k, 1, 1, rho=1.0, var=1.0, rng=RngStream(0))

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("seed", [None, 0, 7])
    def test_random_pilot_is_one_haar_draw(self, k, seed):
        """Both mixing matrices tile sqrt(rho) times one Haar unitary drawn
        from ``rng``, bit for bit; no ``rng`` means ``RngStream(0)``."""
        rng = None if seed is None else RngStream(seed)
        model = make_mimo_model(k, 2, 3, rho=2.5, var=1.0, rng=rng)
        block = np.sqrt(2.5) * reference_haar_unitary(k, RngStream(seed or 0).generator())
        np.testing.assert_array_equal(model.h, np.tile(block, (2, 1)))
        np.testing.assert_array_equal(model.g, np.tile(block, (3, 1)))

    @pytest.mark.parametrize("pilot", ["random-unitary", "dft"])
    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_pilot_power(self, pilot, rho):
        with pytest.raises(ModelError, match="rho"):
            make_mimo_model(3, 1, 1, rho=rho, var=1.0, pilot=pilot, rng=RngStream(0))

    def test_unknown_pilot_rejected(self):
        with pytest.raises(ModelError):
            make_mimo_model(4, 1, 1, rho=1.0, var=1.0, pilot="hadamard")

    def test_matches_closed_form_mse(self):
        """The pilot model is a block-orthonormal instance, so the scalar
        closed form must reproduce its matrix-solve MSE."""
        k, n_a, n_q, rho, var = 4, 2, 3, 1.5, 0.8
        model = make_mimo_model(k, n_a, n_q, rho=rho, var=var, rng=RngStream(11))
        params = OrthoBlockParams(m=k, n_a=n_a, n_q=n_q, rho_a=rho, rho_q=rho, var_a=var, var_q=var)
        assert lmmse(model).mse == pytest.approx(mse_closed_form(params).value, abs=1e-9 * k)
