"""Tests for the covariance blocks of the stacked measurement vector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedres.estimator import (
    assemble,
    cov_analog,
    cov_pre_quantization,
    cov_quantized,
    cross_cov_analog_quantized,
    cross_cov_theta_quantized,
    lmmse_from_bundle,
)
from mixedres.exceptions import DegenerateCovarianceError, NumericalDomainError
from mixedres.model import (
    MixedModel,
    OrthoBlockParams,
    RngStream,
    block_period as _block_period,
    make_ortho_model,
    make_scalar_model,
)
from oracles import assert_within_se, dense_blocks, empirical_second_moments, reference_assemble


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

    def test_symmetrizing_keeps_the_largest_finite_entries_finite(self):
        """Entries near the float64 maximum survive the Hermitian averaging."""
        model = MixedModel(
            h=np.ones((2, 1)), g=np.ones((1, 1)), sigma_theta=np.array([[1e308]]),
            var_a=0.0, var_q=1.0,
        )
        np.testing.assert_array_equal(cov_analog(model), np.full((2, 2), 1e308))


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
        np.testing.assert_array_equal(bundle.c_x, dense_blocks(bundle)["c_xq"])

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


class TestBlockPeriod:
    ROWS = np.array([[1.0, 2.0], [3.0, 1j], [1.0, 2.0], [0.5, 0.0]])

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_or_one_row(self, n):
        assert _block_period(self.ROWS[:n]) == n

    def test_equal_rows_have_period_one(self):
        assert _block_period(np.tile(self.ROWS[:1], (7, 1))) == 1

    def test_tiled_block(self):
        assert _block_period(np.tile(self.ROWS, (5, 1))) == 4

    def test_repeated_row_inside_the_block(self):
        block = self.ROWS[[0, 0, 1]]
        assert _block_period(np.tile(block, (3, 1))) == 3

    def test_repeating_prefix_that_does_not_tile(self):
        # Rows a b a: period 2 does not divide 3.  Rows a b a c: 2 divides 4,
        # but the second pair differs from the first.
        assert _block_period(self.ROWS[:3]) == 3
        assert _block_period(self.ROWS) == 4

    def test_cut_copy_is_not_a_period(self):
        assert _block_period(np.tile(self.ROWS[:2], (4, 1))[:-1]) == 7


@st.composite
def quantized_layouts(draw):
    """Mixed models whose G is tiled, untiled, all-equal, tiled from a block
    with a repeated row, or tiled and then cut inside a copy."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = draw(st.integers(min_value=1, max_value=4))
    p = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=8))
    n_a = draw(st.integers(min_value=0, max_value=6))
    layout = draw(st.sampled_from(["tiled", "untiled", "all-equal", "repeat-inside", "cut"]))

    def cplx(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    block = cplx(p, m)
    if layout == "untiled":
        g = cplx(p * k, m)
    elif layout == "all-equal":
        g = np.tile(block[:1], (p * k, 1))
    else:
        if layout == "repeat-inside":
            block[-1] = block[0]
        g = np.tile(block, (k, 1))
        if layout == "cut":
            g = g[: max(p * k - draw(st.integers(min_value=1, max_value=p)), 1)]
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


class TestBlockAssembly:
    @settings(max_examples=200, deadline=None)
    @given(quantized_layouts())
    def test_matches_assembly_over_every_row(self, model):
        """One-period assembly equals the dense assembly over all n_q rows.

        The two Grams run over different rows, so entries may differ by
        round-off.  The arcsine map multiplies such a difference by its
        derivative, at most 1 / sqrt(1 - r^2) for the largest off-diagonal
        Pearson ratio r, so the quantized block gets that factor on its bound.
        """
        na = model.n_analog
        bundle = assemble(model)
        ref = reference_assemble(model)
        c_y = cov_pre_quantization(model)
        s = 1.0 / np.sqrt(np.diag(c_y).real)
        r = (s[:, None] * c_y) * s[None, :]
        np.fill_diagonal(r, 0.0)
        r_max = max(np.max(np.abs(r.real), initial=0.0), np.max(np.abs(r.imag), initial=0.0))
        arcsine_gain = 1.0 / np.sqrt(1.0 - r_max**2)
        blocks, ref_blocks = dense_blocks(bundle), dense_blocks(ref)
        for name in ("c_xa", "c_xq", "c_xa_xq", "c_theta_xa", "c_theta_xq", "c_theta_x"):
            got, want = blocks[name], ref_blocks[name]
            assert got.shape == want.shape, name
            if want.size:
                bound = 1e-15 * np.max(np.abs(want)) * (arcsine_gain if name == "c_xq" else 1.0)
                assert np.max(np.abs(got - want)) <= bound, name
        assert bundle.c_x.shape == ref.c_x.shape
        # The one-period blocks are the blocks of the dense expansion.
        p, k = bundle.period, bundle.copies
        np.testing.assert_array_equal(bundle.c_x[:na, :na], bundle.c_xa)
        np.testing.assert_array_equal(bundle.c_theta_x[:, :na], bundle.c_theta_xa)
        for j in range(k):
            cols = slice(na + j * p, na + (j + 1) * p)
            np.testing.assert_array_equal(bundle.c_x[:na, cols], bundle.c_aq1)
            np.testing.assert_array_equal(bundle.c_theta_x[:, cols], bundle.c_theta_q1)
            for i in range(k):
                rows = slice(na + i * p, na + (i + 1) * p)
                np.testing.assert_array_equal(bundle.c_x[rows, cols], bundle.a1 if i == j else bundle.a2)
        assert np.all(np.diag(blocks["c_xq"]) == 1.0)
        np.testing.assert_array_equal(bundle.c_x[na:, :na], bundle.c_x[:na, na:].conj().T)
        mse = lmmse_from_bundle(model, bundle).mse
        assert abs(mse - lmmse_from_bundle(model, ref).mse) <= 1e-12 * model.m

    @settings(max_examples=200, deadline=None)
    @given(quantized_layouts())
    def test_c_x_is_exactly_hermitian(self, model):
        """Both triangles of c_x are exact conjugates and the diagonal is
        real, so a solver that reads one triangle sees the matrix that a
        solver reading both does."""
        c_x = assemble(model).c_x
        np.testing.assert_array_equal(c_x, c_x.conj().T)
        assert np.all(c_x.diagonal().imag == 0)
        for c in (cov_analog(model), cov_quantized(cov_pre_quantization(model))):
            np.testing.assert_array_equal(c, c.conj().T)
            assert np.all(c.diagonal().imag == 0)

    def test_solve_leaves_the_bundle_intact(self):
        """The solve reads the bundle's blocks, so it must not factor them in place."""
        model = make_scalar_model(2, 3, 1.0)
        bundle = assemble(model)
        names = ("c_xa", "c_theta_xa", "c_aq1", "c_theta_q1", "a1", "a2")
        before = {name: getattr(bundle, name).copy() for name in names}
        lmmse_from_bundle(model, bundle)
        for name in names:
            np.testing.assert_array_equal(getattr(bundle, name), before[name], err_msg=name)


class TestMonteCarloConsistency:
    """Sampled second moments agree with the analytic blocks (loose SE budget
    here; the strict 3-SE / 1e6-trial versions run in the acceptance suite)."""

    def test_scalar_arcsine_block(self):
        params = OrthoBlockParams(m=1, n_a=0, n_q=2, rho_q=1.0, var_q=1.0)
        model = make_ortho_model(params, RngStream(31))
        c_xq = dense_blocks(assemble(model))["c_xq"]
        np.testing.assert_allclose(c_xq, [[1.0, 1 / 3], [1 / 3, 1.0]], atol=1e-12)
        moments = empirical_second_moments(model, 100_000, seed=77, pairs=[("xq", "xq")])
        mean, se_r, se_i = moments[("xq", "xq")]
        assert_within_se(mean, c_xq, se_r, se_i, n_se=4.0)

    def test_bussgang_blocks(self):
        model = make_scalar_model(1, 1, 1.0)
        blocks = dense_blocks(assemble(model))
        moments = empirical_second_moments(
            model, 100_000, seed=78, pairs=[("theta", "xq"), ("xa", "xq")]
        )
        for key, analytic in (
            (("theta", "xq"), blocks["c_theta_xq"]),
            (("xa", "xq"), blocks["c_xa_xq"]),
        ):
            mean, se_r, se_i = moments[key]
            assert_within_se(mean, analytic, se_r, se_i, n_se=4.0)

    def test_general_complex_model_blocks(self):
        model = _random_model(99, m=2, n_a=2, n_q=3)
        blocks = dense_blocks(assemble(model))
        moments = empirical_second_moments(
            model, 200_000, seed=79,
            pairs=[("xa", "xa"), ("xq", "xq"), ("xa", "xq"), ("theta", "xq")],
        )
        for key, analytic in (
            (("xa", "xa"), blocks["c_xa"]),
            (("xq", "xq"), blocks["c_xq"]),
            (("xa", "xq"), blocks["c_xa_xq"]),
            (("theta", "xq"), blocks["c_theta_xq"]),
        ):
            mean, se_r, se_i = moments[key]
            assert_within_se(mean, analytic, se_r, se_i, n_se=4.5)

    def test_dither_only_noise_blocks(self):
        """Zero path noise with positive dither on both paths: the sampler
        skips w_a and w_q and draws only the dither terms, whose moments
        must still match the analytic blocks of the total variances."""
        model = _random_model(101, m=2, n_a=2, n_q=3, var_a=0.0, var_q=0.0, var_da=0.6, var_dq=0.9)
        blocks = dense_blocks(assemble(model))
        moments = empirical_second_moments(
            model, 200_000, seed=80,
            pairs=[("xa", "xa"), ("xq", "xq"), ("xa", "xq"), ("theta", "xq")],
        )
        for key, analytic in (
            (("xa", "xa"), blocks["c_xa"]),
            (("xq", "xq"), blocks["c_xq"]),
            (("xa", "xq"), blocks["c_xa_xq"]),
            (("theta", "xq"), blocks["c_theta_xq"]),
        ):
            mean, se_r, se_i = moments[key]
            assert_within_se(mean, analytic, se_r, se_i, n_se=4.5)
