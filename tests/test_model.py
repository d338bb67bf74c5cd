"""Tests for model construction, validation, and random sampling."""

import itertools

import numpy as np
import pytest

from mixedres.closed_form import mse_closed_form
from mixedres.estimator import lmmse
from mixedres.exceptions import ModelError, QuantizerDomainError, SingularPriorError
from mixedres.model import (
    INV_SQRT2,
    MixedModel,
    OrthoBlockParams,
    RngStream,
    _complex_normal,
    _haar_unitary,
    make_mimo_model,
    make_ortho_matrices,
    make_scalar_model,
    quantize_1bit,
    sample_copy_sums,
    sample_measurements,
    sample_parameter,
)


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

    def test_total_variances(self):
        m = MixedModel(
            h=np.ones((1, 1)), g=np.ones((1, 1)), sigma_theta=np.eye(1),
            var_a=0.5, var_q=1.0, var_da=0.25, var_dq=2.0,
        )
        assert m.var_a_total == 0.75
        assert m.var_q_total == 3.0


class TestOrthoBlockParams:
    def test_validation(self):
        with pytest.raises(ModelError):
            OrthoBlockParams(m=0, n_a=1, n_q=0)
        with pytest.raises(ModelError):
            OrthoBlockParams(m=1, n_a=-1, n_q=0)
        with pytest.raises(ModelError):
            OrthoBlockParams(m=1, n_a=1, n_q=0, rho_a=0.0)
        with pytest.raises(ModelError):
            OrthoBlockParams(m=1, n_a=1, n_q=0, var_dq=-1.0)

    @pytest.mark.parametrize("field", ["rho_a", "rho_q", "var_a", "var_q", "var_da", "var_dq"])
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
        """Each term with a positive variance adds one planar CN block drawn
        in the order w_a, w_da, w_q, w_dq; a zero-variance term draws
        nothing.  With every variance positive this is the pre-skip sampler,
        bit for bit."""
        names = ("var_a", "var_da", "var_q", "var_dq")
        variances = {name: 0.0 if off else v for name, off, v in zip(names, zero, (0.7, 0.2, 1.3, 0.4))}
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
        for name in ("var_a", "var_da"):
            if variances[name]:
                want_a = want_a + _complex_normal(g, want_a.shape, variances[name])
        y = model.g @ theta
        for name in ("var_q", "var_dq"):
            if variances[name]:
                y = y + _complex_normal(g, y.shape, variances[name])
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


def _tiled_model(seed, m, p_a, k_a, p, k, var_a=0.8, var_q=1.1, var_da=0.0, var_dq=0.0):
    """Random complex model whose H is k_a copies of p_a rows and G is k copies of p rows."""
    rng = np.random.default_rng(seed)

    def cplx(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    root = cplx(m, m)
    return MixedModel(
        h=np.tile(cplx(p_a, m), (k_a, 1)),
        g=np.tile(cplx(p, m), (k, 1)),
        sigma_theta=root @ root.conj().T / m + 0.5 * np.eye(m),
        var_a=var_a, var_q=var_q, var_da=var_da, var_dq=var_dq,
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


class TestSampleCopySums:
    TRIALS = 20_000

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dither", [False, True])
    def test_sums_match_summed_rows(self, seed, dither):
        """For a fixed theta, every part of each copy sum has the mean and
        variance of the sum of the k rows that sample_measurements draws."""
        rng = np.random.default_rng(100 + seed)
        m, p_a, p = (int(v) for v in rng.integers(1, 4, size=3))
        k_a, k = (int(v) for v in rng.integers(1, 7, size=2))
        model = _tiled_model(
            seed, m, p_a, k_a, p, k,
            var_da=0.3 if dither else 0.0, var_dq=0.6 if dither else 0.0,
        )
        theta = np.repeat(sample_parameter(model.sigma_theta, RngStream(seed, 1))[:, None], self.TRIALS, axis=1)
        s_a, s_q = sample_copy_sums(model, theta, RngStream(seed, 2), p_a, p)
        x_a, x_q = sample_measurements(model, theta, RngStream(seed, 3))
        assert s_a.shape == (p_a, self.TRIALS) and s_q.shape == (p, self.TRIALS)
        for got, rows, period in ((s_a, x_a, p_a), (s_q, x_q, p)):
            want = rows.reshape(-1, period, self.TRIALS).sum(axis=0)
            mean, var, se_mean, se_var = _mean_and_variance(got)
            ref_mean, ref_var, ref_se_mean, ref_se_var = _mean_and_variance(want)
            assert np.all(np.abs(mean - ref_mean) <= 4 * np.hypot(se_mean, ref_se_mean) + 1e-12)
            assert np.all(np.abs(var - ref_var) <= 4 * np.hypot(se_var, ref_se_var) + 1e-12)

    def test_quantized_sum_is_a_count_of_signs(self):
        """Each part of s_q is (2 * count - k) / sqrt(2) for a count in 0..k."""
        model = _tiled_model(7, 2, 1, 1, 3, 5)
        theta = sample_parameter(model.sigma_theta, RngStream(7), size=200)
        _, s_q = sample_copy_sums(model, theta, RngStream(8), 1, 3)
        levels = (2.0 * np.arange(6) - 5) * INV_SQRT2
        assert np.isin(s_q.view(np.float64), levels).all()

    def test_zero_variance_draws_nothing(self):
        """With no noise and no dither the sums are k_a H1 theta and
        k quantize_1bit(G1 theta) exactly, and the stream is left untouched."""
        model = _tiled_model(9, 3, 2, 3, 2, 4, var_a=0.0, var_q=0.0)
        theta = sample_parameter(model.sigma_theta, RngStream(9), size=50)
        stream = _OneGenerator()
        s_a, s_q = sample_copy_sums(model, theta, stream, 2, 2)
        assert s_a.tobytes() == (3 * (model.h[:2] @ theta)).tobytes()
        assert s_q.tobytes() == (4 * quantize_1bit(model.g[:2] @ theta)).tobytes()
        assert stream.g.bit_generator.state == RngStream(8).generator().bit_generator.state

    def test_zero_quantized_variance_draws_only_the_analog_block(self):
        model = _tiled_model(10, 2, 1, 2, 2, 3, var_a=0.5, var_q=0.0)
        theta = sample_parameter(model.sigma_theta, RngStream(10), size=40)
        stream = _OneGenerator()
        s_a, s_q = sample_copy_sums(model, theta, stream, 1, 2)
        g = RngStream(8).generator()
        g.standard_normal((2, 1, 40))
        assert stream.g.bit_generator.state == g.bit_generator.state
        assert s_q.tobytes() == (3 * quantize_1bit(model.g[:2] @ theta)).tobytes()

    def test_tiny_and_huge_variances(self):
        """sigma^2 = 1e-320 makes mu / sigma overflow to +-inf, whose
        probabilities are exactly 1 or 0; 1e308 stays finite."""
        tiny = _tiled_model(12, 1, 1, 2, 1, 3, var_a=1e-320, var_q=1e-320)
        theta = np.array([[1e200 + 1j * 1e200, -1e200 + 0.5j]])
        _, s_q = sample_copy_sums(tiny, theta, RngStream(12), 1, 1)
        assert s_q.tobytes() == (3 * quantize_1bit(tiny.g[:1] @ theta)).tobytes()
        huge = _tiled_model(12, 1, 1, 2, 1, 3, var_a=1e308, var_q=1e308)
        s_a, s_q = sample_copy_sums(huge, theta, RngStream(13), 1, 1)
        assert np.isfinite(s_a).all() and np.isfinite(s_q).all()

    @pytest.mark.parametrize("copies", [1, 3])
    def test_noise_and_dither_whose_sum_overflows(self, copies):
        """var + var_d overflows to inf for var = var_d = 1e308, but each
        path's scale stays finite, on a tiled model and an untiled one."""
        model = _tiled_model(
            15, 2, 2, copies, 3, copies, var_a=1e308, var_q=1e308, var_da=1e308, var_dq=1e308,
        )
        assert np.isinf(model.var_a_total) and np.isinf(model.var_q_total)
        theta = sample_parameter(model.sigma_theta, RngStream(15), size=400)
        s_a, s_q = sample_copy_sums(model, theta, RngStream(16), 2, 3)
        assert np.isfinite(s_a).all()
        # The noise swamps mu, so every sign is a fair coin.
        levels = (2.0 * np.arange(copies + 1) - copies) * INV_SQRT2
        assert np.isin(s_q.view(np.float64), levels).all()
        assert abs(s_q.view(np.float64).mean()) < 4 * np.sqrt(copies / 2 / s_q.view(np.float64).size)

    def test_non_finite_mean_is_refused(self):
        model = _tiled_model(13, 1, 1, 1, 1, 2)
        theta = np.array([[np.inf + 0j]])
        with pytest.raises(QuantizerDomainError):
            sample_copy_sums(model, theta, RngStream(0), 1, 1)

    @pytest.mark.parametrize("periods", [(0, 2), (2, 0), (3, 2), (2, 3), (2, 8)])
    def test_periods_must_divide_the_rows(self, periods):
        model = _tiled_model(14, 1, 2, 2, 2, 2)
        with pytest.raises(ModelError, match="period"):
            sample_copy_sums(model, np.zeros((1, 3)), RngStream(0), *periods)

    def test_dimension_mismatch(self):
        model = make_scalar_model(1, 1, 1.0)
        with pytest.raises(ModelError):
            sample_copy_sums(model, np.zeros(3), RngStream(0), 1, 1)


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
        """The stacked draw is, bit for bit, one ``_haar_unitary`` call per
        analog block followed by one for the quantized block."""
        params = OrthoBlockParams(m=m, n_a=n_a, n_q=2, rho_a=1.7, rho_q=0.4)
        gen = RngStream(m + n_a).generator()
        blocks = [np.sqrt(1.7) * _haar_unitary(m, gen) for _ in range(n_a)]
        g_block = np.sqrt(0.4) * _haar_unitary(m, gen)
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
