"""Tests for the closed-form MSE and filter of the orthonormal-block model.

The matrix-solve estimator acts as the independent oracle for every closed
form here; acceptance runs the large randomized equivalence sweeps.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedres.closed_form import (
    alpha,
    beta,
    filter_closed_form,
    mse_closed_form,
    mse_grid,
    mse_noiseless_quantized_limit,
    mse_pure_analog,
    mse_pure_quantized,
)
from mixedres.estimator import lmmse
from mixedres.exceptions import AssumptionViolationError, NumericalDomainError
from mixedres.model import OrthoBlockParams, RngStream, make_ortho_matrices, make_ortho_model

scales = st.floats(min_value=0.1, max_value=10.0)
counts = st.integers(min_value=0, max_value=10)


class TestAlpha:
    def test_noiseless_is_zero(self):
        assert alpha(1.0, 0.0) == 0.0

    def test_equal_gain_and_noise(self):
        """arccos(1/2) = pi/3 gives exactly 2/3."""
        assert alpha(1.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_large_noise_limit(self):
        assert alpha(1.0, 1e12) == pytest.approx(1.0, abs=1e-5)

    @given(scales, scales)
    @settings(max_examples=100)
    def test_range(self, rho_q, vq):
        a = alpha(rho_q, vq)
        assert 0.0 <= a < 1.0


class TestBeta:
    def test_no_analog_measurements(self):
        expected = (2 / np.pi) * np.arcsin(1 / 3) / 1.0
        assert beta(0, 2.0, 1.0, 5.0, 2.0) == pytest.approx(expected, abs=1e-15)

    def test_unit_parameters(self):
        expected = 1.0 / 3.0 - 1.0 / (2.0 * np.pi)
        assert beta(1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_zero_over_zero_guard(self):
        # n_a = 0 with zero analog variance must not produce NaN.
        value = beta(0, 1.0, 1.0, 0.0, 1.0)
        assert np.isfinite(value) and value > 0

    @given(counts, scales, scales, scales, scales)
    @settings(max_examples=200)
    def test_positive(self, n_a, rho_a, rho_q, va, vq):
        assert beta(n_a, rho_a, rho_q, va, vq) > 0.0


class TestPureAnalog:
    def test_unit_case(self):
        assert mse_pure_analog(1, 1, 1.0, 1.0) == 0.5

    def test_no_measurements(self):
        assert mse_pure_analog(3, 0, 1.0, 1.0) == 3.0

    def test_consistency_limit(self):
        assert mse_pure_analog(1, 10**9, 1.0, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_matches_matrix_solve(self):
        params = OrthoBlockParams(m=3, n_a=4, n_q=0, rho_a=0.7, var_a=2.2)
        model = make_ortho_model(params, RngStream(2))
        assert mse_pure_analog(3, 4, 0.7, 2.2) == pytest.approx(lmmse(model).mse, abs=1e-10)

    def test_monotone_in_count(self):
        values = [mse_pure_analog(1, n, 1.3, 0.9) for n in range(100)]
        assert np.all(np.diff(values) <= 0)

    def test_noiseless_round_off_clamped_like_the_grid(self):
        """Noiseless analog rows leave m - m * x / x a round-off below zero;
        the scalar view clamps it as mse_grid does."""
        value = mse_pure_analog(7, 121, 0.0490522336928644, 0.0)
        assert value == 0.0
        assert value == mse_grid(7, 121, 0, 0.0490522336928644, 1.0, 0.0, 1.0)


class TestPureQuantized:
    def test_no_measurements(self):
        assert mse_pure_quantized(2, 0, 1.0, 1.0) == 2.0

    def test_single_measurement_unit_noise(self):
        assert mse_pure_quantized(1, 1, 1.0, 1.0) == pytest.approx(1 - 1 / np.pi, abs=1e-15)

    def test_monotone_in_count(self):
        values = [mse_pure_quantized(1, n, 1.0, 1.0) for n in range(101)]
        assert np.all(np.diff(values) <= 0)

    def test_matches_general_branch(self):
        params = OrthoBlockParams(m=2, n_a=0, n_q=7, rho_q=1.4, var_q=0.6)
        assert mse_closed_form(params).value == mse_pure_quantized(2, 7, 1.4, 0.6)


class TestClosedFormMse:
    def test_no_data_returns_prior_trace(self):
        params = OrthoBlockParams(m=5, n_a=0, n_q=0)
        assert mse_closed_form(params).value == 5.0

    def test_noiseless_analog_is_exact_recovery(self):
        params = OrthoBlockParams(m=2, n_a=1, n_q=3, var_a=0.0)
        assert mse_closed_form(params).value == 0.0

    def test_scalar_mixed_matches_matrix_solve(self):
        params = OrthoBlockParams(m=1, n_a=1, n_q=2, rho_a=1.0, rho_q=1.0, var_a=1.0, var_q=1.0)
        model = make_ortho_model(params, RngStream(4))
        assert mse_closed_form(params).value == pytest.approx(lmmse(model).mse, abs=1e-9)

    def test_dithered_matches_matrix_solve(self):
        """Dither enters only through the path variances, so the general
        estimator on the dithered model is the oracle for the dithered form."""
        params = OrthoBlockParams(
            m=2, n_a=2, n_q=3, rho_a=1.2, rho_q=0.8,
            var_a=0.5 + 0.3, var_q=0.7 + 1.1,
        )
        model = make_ortho_model(params, RngStream(5))
        assert mse_closed_form(params).value == pytest.approx(lmmse(model).mse, abs=1e-9 * 2)

    @given(counts, counts, scales, scales, scales, scales)
    @settings(max_examples=200)
    def test_extra_quantized_measurement_never_hurts(self, n_a, n_q, rho_a, rho_q, va, vq):
        params = OrthoBlockParams(m=2, n_a=n_a, n_q=n_q, rho_a=rho_a, rho_q=rho_q, var_a=va, var_q=vq)
        more = replace(params, n_q=n_q + 1)
        assert mse_closed_form(more).value <= mse_closed_form(params).value + 1e-12 * 2

    def test_analog_dither_never_helps(self):
        """Holding everything else fixed, analog dither only adds noise."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            params = OrthoBlockParams(
                m=int(rng.integers(1, 5)),
                n_a=int(rng.integers(1, 5)),
                n_q=int(rng.integers(0, 8)),
                rho_a=float(rng.uniform(0.2, 5)),
                rho_q=float(rng.uniform(0.2, 5)),
                var_a=float(rng.uniform(0.1, 3)),
                # Noise plus a quantized-path dither.
                var_q=float(rng.uniform(0.1, 3)) + float(rng.choice([0.0, 0.5, 1.5])),
            )
            grid = np.arange(0.0, 2.0 + 1e-12, 0.1)
            values = [mse_closed_form(replace(params, var_a=params.var_a + v)).value for v in grid]
            assert np.all(np.diff(values) >= -1e-12)


class TestNoiselessQuantizedLimit:
    def test_agrees_with_closed_form_at_tiny_noise(self):
        for n_q in (1, 5, 50):
            for n_a in (0, 1, 3):
                params = OrthoBlockParams(
                    m=1, n_a=n_a, n_q=n_q, rho_a=1.4, var_a=0.8, var_q=1e-12
                )
                limit = mse_noiseless_quantized_limit(1, n_a, 1.4, 0.8)
                assert mse_closed_form(params).value == pytest.approx(limit, abs=1e-6)

    def test_no_analog_value(self):
        assert mse_noiseless_quantized_limit(3, 0, 1.0, 0.7) == pytest.approx(
            3 * (1 - 2 / np.pi), abs=1e-15
        )

    def test_constant_in_quantized_count(self):
        # The expression takes no n_q argument at all; pin the independence
        # through the closed form instead.
        vals = [
            mse_closed_form(OrthoBlockParams(m=1, n_a=2, n_q=n_q, var_a=1.0, var_q=0.0)).value
            for n_q in (1, 7, 80)
        ]
        assert max(vals) - min(vals) <= 1e-12


class TestFilterClosedForm:
    def _compare(self, params, seed):
        h, g = make_ortho_matrices(params, RngStream(seed))
        closed = filter_closed_form(params, h, g)
        general = lmmse(make_ortho_model(params, RngStream(seed)))
        np.testing.assert_allclose(closed.w, general.w, atol=1e-8)
        assert closed.mse == pytest.approx(general.mse, abs=1e-9 * params.m)

    def test_matches_matrix_solve(self):
        self._compare(OrthoBlockParams(m=3, n_a=2, n_q=4, rho_a=0.9, rho_q=1.8, var_a=0.6, var_q=1.1), 12)

    def test_matches_matrix_solve_scalar(self):
        self._compare(OrthoBlockParams(m=1, n_a=1, n_q=1, var_a=1.0, var_q=1.0), 13)

    def test_matches_matrix_solve_dithered(self):
        self._compare(
            OrthoBlockParams(
                m=2, n_a=1, n_q=2, rho_a=1.1, rho_q=0.7,
                var_a=0.4 + 0.2, var_q=0.9 + 0.6,
            ),
            14,
        )

    def test_scalar_coefficients_by_hand(self):
        """Unit scalar case: both coefficients follow from the two-by-two solve."""
        params = OrthoBlockParams(m=1, n_a=1, n_q=1, var_a=1.0, var_q=1.0)
        h, g = np.ones((1, 1), dtype=complex), np.ones((1, 1), dtype=complex)
        filt = filter_closed_form(params, h, g)
        a = 2.0 / 3.0
        b = 1.0 / 3.0 - 1.0 / (2.0 * np.pi)
        s = a + b
        c1 = 1.0 / 2.0 - 2.0 / (np.pi * 2.0 * s * 4.0)
        c2 = np.sqrt(2.0 / (np.pi * 2.0)) / (s * 2.0)
        np.testing.assert_allclose(filt.w, [[c1, c2]], atol=1e-15)

    def test_pure_analog_coefficient(self):
        params = OrthoBlockParams(m=2, n_a=3, n_q=0, rho_a=1.5, var_a=0.5)
        h, g = make_ortho_matrices(params, RngStream(15))
        filt = filter_closed_form(params, h, g)
        np.testing.assert_allclose(filt.w, h.conj().T / (1.5 * 3 + 0.5), atol=1e-12)

    @pytest.mark.parametrize("field", ["h", "g"])
    def test_rejects_wrong_shape(self, field):
        params = OrthoBlockParams(m=2, n_a=1, n_q=1)
        h, g = make_ortho_matrices(params, RngStream(19))
        shapes = {"h": h, "g": g}
        shapes[field] = shapes[field][:, :1]
        with pytest.raises(AssumptionViolationError, match=rf"^{field} must have shape \(2, 2\), got \(2, 1\)$"):
            filter_closed_form(params, shapes["h"], shapes["g"])

    def test_no_measurements_give_the_prior_trace(self):
        params = OrthoBlockParams(m=3, n_a=0, n_q=0)
        filt = filter_closed_form(params, np.zeros((0, 3)), np.zeros((0, 3)))
        assert filt.w.shape == (3, 0) and filt.mse == 3.0

    def test_rejects_wrong_gain(self):
        params = OrthoBlockParams(m=2, n_a=1, n_q=1, rho_a=1.0, rho_q=1.0)
        h, g = make_ortho_matrices(params, RngStream(16))
        with pytest.raises(AssumptionViolationError):
            filter_closed_form(params, 2.0 * h, g)

    def test_rejects_wrong_quantized_gain(self):
        """A G block of gain 4 where rho_q = 1: g1^H g1 is 4 I, not rho_q I."""
        params = OrthoBlockParams(m=2, n_a=1, n_q=2, rho_a=1.0, rho_q=1.0)
        h, g = make_ortho_matrices(params, RngStream(16))
        with pytest.raises(AssumptionViolationError, match=r"^g block deviates from rho_q\*I by 3\.000e\+00"):
            filter_closed_form(params, h, 2.0 * g)

    def test_non_finite_coefficient_is_refused(self):
        """With gains of 1e-320 and noiseless paths the MSE is 0, but c2 is
        sqrt(2 / (pi * 1e-320)) = inf times a zero analog variance, a NaN."""
        params = OrthoBlockParams(m=1, n_a=1, n_q=1, rho_a=1e-320, rho_q=1e-320, var_a=0.0, var_q=0.0)
        root = np.sqrt(np.array([[1e-320]]))
        with pytest.raises(NumericalDomainError, match="closed-form filter is not finite"):
            filter_closed_form(params, root, root)

    def test_huge_analog_gain_is_no_overflow_error(self):
        """(rho_a n_a + var_a)**2 overflows a float for rho_a = 1e200; squared
        as an array it is inf, so c1 is 1 / (rho_a n_a), not an OverflowError."""
        params = OrthoBlockParams(m=1, n_a=1, n_q=1, rho_a=1e200, rho_q=1.0, var_a=1.0, var_q=1.0)
        filt = filter_closed_form(params, np.array([[1e100]]), np.ones((1, 1)))
        # c1 * h = 1e-200 * 1e100; the quantized column is small and finite.
        assert filt.w[0, 0] == pytest.approx(1e-100, rel=1e-15) and 0.0 < filt.w[0, 1].real < 1e-200

    def test_rejects_unequal_quantized_blocks(self):
        params = OrthoBlockParams(m=2, n_a=0, n_q=2, rho_q=1.0)
        _, g_a = make_ortho_matrices(params, RngStream(17))
        _, g_b = make_ortho_matrices(params, RngStream(18))
        mixed = np.vstack([g_a[:2], g_b[:2]])  # valid gains, unequal blocks
        with pytest.raises(AssumptionViolationError):
            filter_closed_form(params, np.zeros((0, 2)), mixed)
        # The message names the first block that differs.
        mixed = np.vstack([g_a[:2], g_a[:2], g_b[:2]])
        with pytest.raises(AssumptionViolationError, match="quantized block 2 differs"):
            filter_closed_form(replace(params, n_q=3), np.zeros((0, 2)), mixed)


class TestBlockStructureInOtherUnits:
    """The structure check's tolerance scales with the gains: exact blocks
    pass at any gain, and a perturbation of 1e-6 relative fails at any gain."""

    @staticmethod
    def _blocks(rho):
        params = OrthoBlockParams(m=4, n_a=2, n_q=3, rho_a=rho, rho_q=rho, var_a=0.8 * rho, var_q=0.8 * rho)
        h, g = make_ortho_matrices(params, RngStream(20))
        return params, h, g

    @pytest.mark.parametrize("rho", [1e8, 1e12])
    def test_exact_blocks_pass_at_large_gains(self, rho):
        params, h, g = self._blocks(rho)
        filt = filter_closed_form(params, h, g)
        unit = replace(params, rho_a=1.0, rho_q=1.0, var_a=0.8, var_q=0.8)
        assert filt.mse == pytest.approx(mse_closed_form(unit).value, rel=1e-12)

    @pytest.mark.parametrize("rho", [1.0, 1e8])
    @pytest.mark.parametrize(
        "block, message",
        [("analog", r"^h\^H h deviates"), ("quantized", r"^g block deviates"), ("copy", r"^quantized block 1 differs")],
    )
    def test_perturbed_block_is_refused(self, rho, block, message):
        params, h, g = self._blocks(rho)
        scale = 1.0 + 1e-6
        if block == "analog":
            h[:4] *= scale  # one of the two analog blocks
        elif block == "quantized":
            g *= scale  # every copy, so only the gain is off
        else:
            g[4:8] *= scale  # the second copy only
        with pytest.raises(AssumptionViolationError, match=message):
            filter_closed_form(params, h, g)
