"""Tests for the covariance blocks of the stacked measurement vector."""

import numpy as np
import pytest

from mixedres.estimator import (
    assemble,
    cov_analog,
    cov_pre_quantization,
    cov_quantized,
    cross_cov_analog_quantized,
    cross_cov_theta_quantized,
)
from mixedres.exceptions import DegenerateCovarianceError, NumericalDomainError
from mixedres.model import (
    MixedModel,
    OrthoBlockParams,
    RngStream,
    make_ortho_model,
    make_scalar_model,
)
from oracles import assert_within_se, empirical_second_moments


def _random_model(seed, m=3, n_a=2, n_q=2, **variances):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    sigma = a @ a.conj().T + m * np.eye(m)
    h = rng.standard_normal((n_a, m)) + 1j * rng.standard_normal((n_a, m))
    g = rng.standard_normal((n_q, m)) + 1j * rng.standard_normal((n_q, m))
    variances = {"var_a": 0.7, "var_q": 1.3, "var_da": 0.1, "var_dq": 0.2, **variances}
    return MixedModel(h=h, g=g, sigma_theta=sigma, **variances)


class TestAnalogCovariance:
    def test_zero_mixing(self):
        model = MixedModel(
            h=np.zeros((3, 2)), g=np.ones((1, 2)), sigma_theta=np.eye(2),
            var_a=0.5, var_q=1.0, var_da=0.25,
        )
        np.testing.assert_allclose(cov_analog(model), 0.75 * np.eye(3), atol=0)

    def test_scalar_two_measurements(self):
        model = make_scalar_model(2, 0, 1.0)
        np.testing.assert_allclose(cov_analog(model), [[2.0, 1.0], [1.0, 2.0]], atol=1e-15)

    def test_hermitian_psd(self):
        c = cov_analog(_random_model(0))
        assert np.max(np.abs(c - c.conj().T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(c)) >= -1e-10


class TestPreQuantizationCovariance:
    def test_zero_mixing(self):
        model = MixedModel(
            h=np.ones((1, 2)), g=np.zeros((3, 2)), sigma_theta=np.eye(2),
            var_a=1.0, var_q=0.5, var_dq=0.2,
        )
        np.testing.assert_allclose(cov_pre_quantization(model), 0.7 * np.eye(3), atol=0)

    def test_block_structure_for_ortho_draw(self):
        """Repeated quantized blocks give rho_q on every cross-block diagonal."""
        params = OrthoBlockParams(m=3, n_a=0, n_q=4, rho_q=1.6, var_q=0.9)
        model = make_ortho_model(params, RngStream(21))
        c_y = cov_pre_quantization(model)
        expected = 1.6 * np.kron(np.ones((4, 4)), np.eye(3)) + 0.9 * np.eye(12)
        np.testing.assert_allclose(c_y, expected, atol=1e-12)
        np.testing.assert_allclose(np.diag(c_y).real, 1.6 + 0.9, atol=1e-12)


class TestQuantizedCovariance:
    def test_diagonal_input_gives_identity(self):
        c_y = np.diag([1.0, 2.5, 0.3]).astype(complex)
        np.testing.assert_array_equal(cov_quantized(c_y), np.eye(3, dtype=complex))

    def test_half_correlation(self):
        """Pearson ratio 1/2 maps to (2/pi) * arcsin(1/2) = 1/3."""
        c_y = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        c_xq = cov_quantized(c_y)
        np.testing.assert_allclose(c_xq[0, 1], 1.0 / 3.0, atol=1e-15)
        assert c_xq[0, 0] == 1.0

    def test_diagonal_is_exactly_one(self):
        c = cov_quantized(cov_pre_quantization(_random_model(1)))
        np.testing.assert_array_equal(np.diag(c), np.ones(2, dtype=complex))

    def test_degenerate_diagonal_rejected(self):
        with pytest.raises(DegenerateCovarianceError):
            cov_quantized(np.zeros((2, 2), dtype=complex))

    def test_overshoot_beyond_clip_rejected(self):
        c_y = np.array([[1.0, 1.1], [1.1, 1.0]], dtype=complex)
        with pytest.raises(NumericalDomainError):
            cov_quantized(c_y)

    def test_marginal_overshoot_clipped(self):
        c_y = np.array([[1.0, 1.0 + 5e-10], [1.0 + 5e-10, 1.0]], dtype=complex)
        c_xq = cov_quantized(c_y)
        np.testing.assert_allclose(c_xq[0, 1], 1.0, atol=1e-12)

    def test_pearson_ratios_bounded(self):
        for seed in range(20):
            c_y = cov_pre_quantization(_random_model(seed))
            d = np.diag(c_y).real
            s = 1.0 / np.sqrt(d)
            r = (s[:, None] * c_y) * s[None, :]
            assert np.max(np.abs(r.real)) <= 1.0 + 1e-12
            assert np.max(np.abs(r.imag)) <= 1.0 + 1e-12


class TestCrossCovariances:
    def test_zero_mixing_gives_zero(self):
        model = MixedModel(
            h=np.ones((2, 2)), g=np.zeros((2, 2)), sigma_theta=np.eye(2),
            var_a=1.0, var_q=1.0,
        )
        c_y = cov_pre_quantization(model)
        assert np.all(cross_cov_theta_quantized(model, c_y) == 0)
        assert np.all(cross_cov_analog_quantized(model, c_y) == 0)

    def test_scalar_values(self):
        """Unit gains and unit noise give the 1/sqrt(pi) cross terms."""
        model = make_scalar_model(1, 1, 1.0)
        c_y = cov_pre_quantization(model)
        np.testing.assert_allclose(
            cross_cov_theta_quantized(model, c_y), [[1 / np.sqrt(np.pi)]], atol=1e-15
        )
        np.testing.assert_allclose(
            cross_cov_analog_quantized(model, c_y), [[1 / np.sqrt(np.pi)]], atol=1e-15
        )


class TestAssemble:
    def test_no_quantized_block(self):
        model = make_scalar_model(3, 0, 0.5)
        bundle = assemble(model)
        np.testing.assert_array_equal(bundle.c_x, bundle.c_xa)
        np.testing.assert_array_equal(bundle.c_theta_x, model.sigma_theta @ model.h.conj().T)

    def test_no_analog_block(self):
        model = make_scalar_model(0, 3, 0.5)
        bundle = assemble(model)
        np.testing.assert_array_equal(bundle.c_x, bundle.c_xq)

    def test_hermitian_and_psd_random_models(self):
        """Eigenvalue check over many random models is its own oracle."""
        rng = np.random.default_rng(7)
        for trial in range(200):
            m = int(rng.integers(1, 7))
            n_a = int(rng.integers(0, 4))
            n_q = int(rng.integers(0, 4))
            if n_a + n_q == 0:
                n_q = 1
            model = _random_model(int(rng.integers(1 << 30)), m=m, n_a=n_a, n_q=n_q)
            c_x = assemble(model).c_x
            assert np.max(np.abs(c_x - c_x.conj().T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(c_x)) >= -1e-8


class TestMonteCarloConsistency:
    """Sampled second moments agree with the analytic blocks (loose SE budget
    here; the strict 3-SE / 1e6-trial versions run in the acceptance suite)."""

    def test_scalar_arcsine_block(self):
        params = OrthoBlockParams(m=1, n_a=0, n_q=2, rho_q=1.0, var_q=1.0)
        model = make_ortho_model(params, RngStream(31))
        bundle = assemble(model)
        np.testing.assert_allclose(bundle.c_xq, [[1.0, 1 / 3], [1 / 3, 1.0]], atol=1e-12)
        moments = empirical_second_moments(model, 100_000, seed=77, pairs=[("xq", "xq")])
        mean, se_r, se_i = moments[("xq", "xq")]
        assert_within_se(mean, bundle.c_xq, se_r, se_i, n_se=4.0)

    def test_bussgang_blocks(self):
        model = make_scalar_model(1, 1, 1.0)
        bundle = assemble(model)
        moments = empirical_second_moments(
            model, 100_000, seed=78, pairs=[("theta", "xq"), ("xa", "xq")]
        )
        for key, analytic in (
            (("theta", "xq"), bundle.c_theta_xq),
            (("xa", "xq"), bundle.c_xa_xq),
        ):
            mean, se_r, se_i = moments[key]
            assert_within_se(mean, analytic, se_r, se_i, n_se=4.0)

    def test_general_complex_model_blocks(self):
        model = _random_model(99, m=2, n_a=2, n_q=3)
        bundle = assemble(model)
        moments = empirical_second_moments(
            model, 200_000, seed=79,
            pairs=[("xa", "xa"), ("xq", "xq"), ("xa", "xq"), ("theta", "xq")],
        )
        for key, analytic in (
            (("xa", "xa"), bundle.c_xa),
            (("xq", "xq"), bundle.c_xq),
            (("xa", "xq"), bundle.c_xa_xq),
            (("theta", "xq"), bundle.c_theta_xq),
        ):
            mean, se_r, se_i = moments[key]
            assert_within_se(mean, analytic, se_r, se_i, n_se=4.5)

    def test_dither_only_noise_blocks(self):
        """Zero path noise with positive dither on both paths: the sampler
        skips w_a and w_q and draws only the dither terms, whose moments
        must still match the analytic blocks of the total variances."""
        model = _random_model(101, m=2, n_a=2, n_q=3, var_a=0.0, var_q=0.0, var_da=0.6, var_dq=0.9)
        bundle = assemble(model)
        moments = empirical_second_moments(
            model, 200_000, seed=80,
            pairs=[("xa", "xa"), ("xq", "xq"), ("xa", "xq"), ("theta", "xq")],
        )
        for key, analytic in (
            (("xa", "xa"), bundle.c_xa),
            (("xq", "xq"), bundle.c_xq),
            (("xa", "xq"), bundle.c_xa_xq),
            (("theta", "xq"), bundle.c_theta_xq),
        ):
            mean, se_r, se_i = moments[key]
            assert_within_se(mean, analytic, se_r, se_i, n_se=4.5)
