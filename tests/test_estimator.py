"""Tests for the matrix-solve LMMSE estimator."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedres import estimator
from mixedres.closed_form import mse_closed_form, mse_grid
from mixedres.estimator import MAX_DENSE_ROWS, assemble, copy_scan_mse, estimate, lmmse, prefix_mse
from mixedres.exceptions import EstimatorUndefinedError, InstanceTooLargeError, ModelError
from mixedres.model import (
    MixedModel,
    OrthoBlockParams,
    RngStream,
    make_ortho_matrices,
    make_ortho_model,
    make_scalar_model,
    sample_measurements,
    sample_parameter,
)
from oracles import random_ortho_params, reference_lmmse


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
        with pytest.raises(EstimatorUndefinedError):
            copy_scan_mse(model, [2], [0])

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


@st.composite
def copy_models(draw):
    """General models (any H, any prior) whose G is k >= 2 copies of one block, or untiled."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = draw(st.integers(min_value=1, max_value=4))
    p = draw(st.integers(min_value=1, max_value=4))
    n_a = draw(st.integers(min_value=0, max_value=12))
    tiled = draw(st.booleans())
    k = draw(st.integers(min_value=2, max_value=30)) if tiled else draw(st.integers(min_value=0, max_value=8))
    if n_a + p * k == 0:
        n_a = 1

    def cplx(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    g = np.tile(cplx(p, m), (k, 1)) if tiled else cplx(p * k, m)
    root = cplx(m, m)
    variance = st.floats(min_value=0.05, max_value=5.0)
    dither = st.one_of(st.just(0.0), variance)
    return MixedModel(
        h=cplx(n_a, m),
        g=g,
        sigma_theta=root @ root.conj().T + 0.1 * np.eye(m),
        var_a=draw(variance),
        var_q=draw(variance),
        var_da=draw(dither),
        var_dq=draw(dither),
    )


class TestCopyReducedSolve:
    """``lmmse`` factors only n_a + p rows; the full-matrix LU is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(copy_models())
    def test_matches_the_full_matrix_solve(self, model):
        try:
            ref = reference_lmmse(model)
        except EstimatorUndefinedError:
            return
        try:
            got = lmmse(model)
        except EstimatorUndefinedError:
            # The two guards bound different quantities; a refusal is fine
            # only where the full-matrix estimate is not far inside the limit.
            assert ref.condition > 1e-4 * estimator.CONDITION_LIMIT
            return
        assert abs(got.mse - ref.mse) <= 1e-12 * model.m
        assert got.w.shape == ref.w.shape
        if ref.w.size:
            assert np.max(np.abs(got.w - ref.w)) <= 1e-10 * np.max(np.abs(ref.w))
        if assemble(model).period in (0, model.n_quantized):
            assert got.mse == ref.mse
            assert got.condition == ref.condition
            np.testing.assert_array_equal(got.w, ref.w)

    @pytest.mark.parametrize(
        "model",
        [
            make_scalar_model(0, 3, 0.0),
            make_scalar_model(1, 3, 0.0),
            make_ortho_model(OrthoBlockParams(m=2, n_a=1, n_q=3, var_q=0.0), RngStream(4)),
        ],
        ids=["scalar-quantized", "scalar-mixed", "ortho"],
    )
    def test_zero_noise_copies_refused_by_both_routes(self, model):
        with pytest.raises(EstimatorUndefinedError):
            reference_lmmse(model)
        with pytest.raises(EstimatorUndefinedError):
            lmmse(model)

    def test_condition_bound_covers_the_copy_differences(self):
        """A strong analog row and nearly noiseless copies: C~ alone has a
        condition near 1e6, but the copy differences have variance D near
        1e-7 (var_q = 1e-14) or 1e-5 (var_q = 1e-10), which the bound must
        count as the full-matrix estimate does."""

        def model(var_q):
            return MixedModel(h=np.array([[1e3]]), g=np.ones((3, 1)), sigma_theta=np.eye(1), var_a=1e6, var_q=var_q)

        for solve in (reference_lmmse, lmmse):
            with pytest.raises(EstimatorUndefinedError):
                solve(model(1e-14))
        ref, got = reference_lmmse(model(1e-10)), lmmse(model(1e-10))
        assert 0.5 * ref.condition < got.condition < 2.0 * ref.condition

    def test_factors_no_more_than_the_reduced_rows(self, monkeypatch):
        shapes = []
        real_lu_factor = estimator.lu_factor

        def recording_lu_factor(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_lu_factor(a, *args, **kwargs)

        monkeypatch.setattr(estimator, "lu_factor", recording_lu_factor)
        model = make_ortho_model(OrthoBlockParams(m=3, n_a=2, n_q=20), RngStream(2))
        filt = lmmse(model)
        p = assemble(model).period
        assert shapes and all(rows <= model.n_analog + p for rows, _ in shapes)
        assert filt.w.shape == (3, model.n_analog + model.n_quantized)

    def test_writes_no_dense_matrix(self, monkeypatch):
        """On a 1920-row tiled model the call allocates less than one complex
        n x n matrix at its peak, and the bundle's dense c_x stays unbuilt."""
        bundles = []
        real_assemble = estimator.assemble

        def recording_assemble(model):
            bundles.append(real_assemble(model))
            return bundles[-1]

        monkeypatch.setattr(estimator, "assemble", recording_assemble)
        model = make_ortho_model(OrthoBlockParams(m=10, n_a=0, n_q=192), RngStream(5))
        n = model.n_analog + model.n_quantized
        assert n == 1920
        tracemalloc.start()
        try:
            lmmse(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n**2
        assert len(bundles) == 1
        assert bundles[0]._dense is None


@st.composite
def scan_instances(draw):
    """A model whose G is one block g1, and every (analog prefix, copy count) point of it.

    H and g1 are general (any rows, with g1 possibly repeating a shorter
    block) or an orthonormal-block draw; the prior is general with general
    blocks.  A noiseless quantizer (var_q = 0) comes with copy counts of at
    most 1 of a g1 that does not repeat, the only points it leaves regular.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = draw(st.integers(min_value=1, max_value=4))
    noiseless = draw(st.booleans())
    variance = st.floats(min_value=0.05, max_value=5.0)
    var_a, var_q = draw(variance), 0.0 if noiseless else draw(variance)

    def cplx(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    if draw(st.booleans()):
        params = OrthoBlockParams(
            m=m, n_a=draw(st.integers(min_value=0, max_value=4)), n_q=1,
            rho_a=draw(variance), rho_q=draw(variance), var_a=var_a, var_q=var_q,
        )
        h, g1 = make_ortho_matrices(params, RngStream(int(rng.integers(1 << 30))))
        sigma = np.eye(m)
    else:
        h = cplx(draw(st.integers(min_value=0, max_value=12)), m)
        period = draw(st.integers(min_value=1, max_value=3))
        g1 = np.tile(cplx(period, m), (1 if noiseless else draw(st.integers(min_value=1, max_value=3)), 1))
        root = cplx(m, m)
        sigma = root @ root.conj().T + 0.1 * np.eye(m)
    copies_max = 1 if noiseless else draw(st.integers(min_value=0, max_value=8))
    model = MixedModel(h=h, g=g1, sigma_theta=sigma, var_a=var_a, var_q=var_q)
    points = [(a, c) for a in range(model.n_analog + 1) for c in range(copies_max + 1)]
    return model, points


class TestCopyScanMse:
    """``copy_scan_mse`` against the dense prefix scan of each point's model."""

    @settings(max_examples=150, deadline=None)
    @given(scan_instances())
    def test_equals_the_dense_prefix_scan(self, instance):
        model, points = instance
        rows, copies = np.array(points).T
        got = copy_scan_mse(model, rows, copies)
        r = model.n_quantized
        for (a, c), value in zip(points, got):
            if a == 0 and c == 0:
                assert value == float(np.trace(model.sigma_theta).real)
                continue
            cut = MixedModel(
                h=model.h[:a], g=np.tile(model.g, (c, 1)), sigma_theta=model.sigma_theta,
                var_a=model.var_a, var_q=model.var_q,
            )
            assert cut.n_analog + cut.n_quantized <= 2000
            assert abs(value - prefix_mse(cut)[a + c * r]) <= 1e-12 * model.m, (a, c)

    def test_equals_the_closed_form_on_orthonormal_blocks(self):
        """Criterion 1's tolerance, 1e-9 * m, at every (n_a, n_q) point."""
        rng = np.random.default_rng(77)
        for _ in range(40):
            params = random_ortho_params(rng, m_max=4, n_a_max=5, n_q_max=12)
            h, g1 = make_ortho_matrices(replace(params, n_q=1), RngStream(int(rng.integers(1 << 30))))
            model = MixedModel(h=h, g=g1, sigma_theta=np.eye(params.m), var_a=params.var_a, var_q=params.var_q)
            n_a, n_q = np.meshgrid(np.arange(params.n_a + 1), np.arange(params.n_q + 1), indexing="ij")
            got = copy_scan_mse(model, params.m * n_a.ravel(), n_q.ravel())
            closed = mse_grid(params.m, n_a.ravel(), n_q.ravel(), params.rho_a, params.rho_q, params.var_a, params.var_q)
            assert np.max(np.abs(got - closed)) <= 1e-9 * params.m

    def test_noiseless_copies_refused(self):
        """var_q = 0: one copy solves, and any point with two copies refuses the scan."""
        model = MixedModel(h=np.ones((1, 1)), g=np.ones((1, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=0.0)
        single = MixedModel(h=np.ones((1, 1)), g=np.ones((1, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=0.0)
        assert abs(copy_scan_mse(model, [1, 0], [1, 1])[0] - lmmse(single).mse) <= 1e-15
        with pytest.raises(EstimatorUndefinedError, match="identical"):
            copy_scan_mse(model, [1, 0], [1, 2])

    def test_block_with_a_shorter_period(self):
        """g1 = [b; b] is two copies of b per requested copy: at var_q = 0 even
        one copy of g1 is singular, and with noise it is the model of 2 n_q rows."""
        g1 = np.array([[1.0 + 0.5j], [1.0 + 0.5j]])
        noisy = MixedModel(h=np.ones((1, 1)), g=g1, sigma_theta=np.eye(1), var_a=1.0, var_q=0.5)
        got = copy_scan_mse(noisy, [1, 1], [1, 3])
        for value, c in zip(got, [1, 3]):
            tiled = MixedModel(h=np.ones((1, 1)), g=np.tile(g1, (c, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=0.5)
            assert abs(value - lmmse(tiled).mse) <= 1e-14
        noiseless = MixedModel(h=np.ones((1, 1)), g=g1, sigma_theta=np.eye(1), var_a=1.0, var_q=0.0)
        with pytest.raises(EstimatorUndefinedError):
            copy_scan_mse(noiseless, [1], [1])

    @pytest.mark.parametrize("rows, copies", [([2], [0]), ([-1], [0]), ([0], [-1]), ([0, 1], [0])])
    def test_rejects_points_outside_the_model(self, rows, copies):
        model = MixedModel(h=np.ones((1, 1)), g=np.ones((1, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=1.0)
        with pytest.raises(ModelError):
            copy_scan_mse(model, rows, copies)

    def test_refused_before_assembly(self, monkeypatch):
        def no_assembly(model):
            raise AssertionError("covariance assembled for an oversized scan")

        monkeypatch.setattr(estimator, "assemble", no_assembly)
        model = MixedModel(
            h=np.ones((MAX_DENSE_ROWS, 1)), g=np.ones((1, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=1.0
        )
        with pytest.raises(InstanceTooLargeError, match=str(MAX_DENSE_ROWS)):
            copy_scan_mse(model, [0], [1])
