"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Every criterion is pinned to its stated tolerance and wall-clock budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from mixedres.allocation import (
    DitherScheme,
    PowerBudget,
    allocate,
    allocate_exhaustive,
    max_nq,
    noiseless_quantized_policy,
)
from mixedres.closed_form import alpha, beta, filter_closed_form, mse_closed_form
from mixedres.estimator import assemble, lmmse
from mixedres.model import (
    MixedModel,
    OrthoBlockParams,
    RngStream,
    make_ortho_matrices,
    make_ortho_model,
    make_scalar_model,
)
from mixedres.simulate import DEFAULT_ANALOG_QUANTIZER, SimConfig, bench_runtime, run_monte_carlo, sweep_allocation_vs_noise
from oracles import assert_within_se, dense_blocks, empirical_second_moments, log_uniform, random_ortho_params


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({label}): PASS  [{elapsed:.1f}s / budget {budget_s:.0f}s]")
    assert elapsed < budget_s, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_closed_form_equivalence():
    """Closed-form MSE and filter match the matrix-solve path on 500 draws."""
    with criterion(1, "closed-form equivalence", 60.0):
        rng = np.random.default_rng(1001)
        for trial in range(500):
            params = random_ortho_params(rng, m_max=8, n_a_max=6, n_q_max=10)
            seed = int(rng.integers(1 << 30))
            h, g = make_ortho_matrices(params, RngStream(seed))
            model = MixedModel(
                h=h, g=g, sigma_theta=np.eye(params.m), var_a=params.var_a, var_q=params.var_q
            )
            general = lmmse(model)
            closed_value = mse_closed_form(params).value
            assert abs(closed_value - general.mse) <= 1e-9 * params.m, (
                f"trial {trial}: MSE gap {abs(closed_value - general.mse):.2e}"
            )
            closed_filter = filter_closed_form(params, h, g)
            assert np.max(np.abs(closed_filter.w - general.w)) <= 1e-8, f"trial {trial}: filter gap"


def test_criterion_2_known_scalar_values():
    """Pure-path scalar MSEs: exact analytics plus Monte-Carlo agreement."""
    with criterion(2, "known scalar values", 60.0):
        analog = make_scalar_model(1, 0, 1.0)
        quantized = make_scalar_model(0, 1, 1.0)
        filt_a = lmmse(analog)
        filt_q = lmmse(quantized)
        assert filt_a.mse == 0.5
        assert filt_q.mse == pytest.approx(1 - 1 / np.pi, abs=1e-12)
        assert mse_closed_form(OrthoBlockParams(m=1, n_a=1, n_q=0)).value == 0.5
        assert mse_closed_form(OrthoBlockParams(m=1, n_a=0, n_q=1)).value == pytest.approx(
            1 - 1 / np.pi, abs=1e-12
        )
        for model, filt, seed in ((analog, filt_a, 2002), (quantized, filt_q, 2003)):
            res = run_monte_carlo(model, filt, SimConfig(trials=100_000, rng_seed=seed))
            assert abs(res.empirical_mse - res.analytic_mse) <= 3 * res.std_error


def test_criterion_3_covariance_oracles():
    """Arcsine and Bussgang blocks match sampled moments at 1e6 trials."""
    with criterion(3, "covariance oracles", 300.0):
        trials = 1_000_000
        scalar = make_ortho_model(
            OrthoBlockParams(m=1, n_a=1, n_q=2, var_a=1.0, var_q=1.0), RngStream(3001)
        )
        rng = np.random.default_rng(3002)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        general = MixedModel(
            h=rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            g=rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
            sigma_theta=a @ a.conj().T + 2 * np.eye(2),
            var_a=0.6,
            var_q=1.2,
        )
        for model, seed in ((scalar, 3003), (general, 3004)):
            blocks = dense_blocks(assemble(model))
            moments = empirical_second_moments(
                model, trials, seed=seed,
                pairs=[("xa", "xa"), ("xq", "xq"), ("xa", "xq"), ("theta", "xq")],
            )
            for key, analytic in (
                (("xa", "xa"), blocks["c_xa"]),
                (("xq", "xq"), blocks["c_xq"]),
                (("xa", "xq"), blocks["c_xa_xq"]),
                (("theta", "xq"), blocks["c_theta_xq"]),
            ):
                mean, se_re, se_im = moments[key]
                assert_within_se(mean, analytic, se_re, se_im, n_se=3.0)


def test_criterion_4_allocation_optimality():
    """Frontier search equals the exhaustive matrix-solve reference."""
    with criterion(4, "frontier search vs exhaustive oracle", 600.0):
        rng = np.random.default_rng(4001)
        for trial in range(100):
            m = int(rng.integers(1, 4))
            bits = int(rng.integers(2, 5))
            n_a_cap = int(rng.integers(0, 4))
            extra = int(rng.integers(1, 9))
            budget = PowerBudget(
                bits=bits, p_max_norm=float(2**bits * m * n_a_cap + 2 * m * extra)
            )
            params = OrthoBlockParams(
                m=m, n_a=0, n_q=0,
                rho_a=log_uniform(rng, 0.1, 10.0),
                rho_q=log_uniform(rng, 0.1, 10.0),
                var_a=log_uniform(rng, 0.1, 10.0),
                var_q=log_uniform(rng, 0.1, 10.0),
            )
            fast = allocate(params, budget)
            ref = allocate_exhaustive(params, budget, rng=RngStream(int(rng.integers(1 << 30))))
            assert abs(fast.mse_star - ref.mse_star) <= 1e-12, f"trial {trial}"
            assert fast.n_q_star == max_nq(fast.n_a_star, m, budget)


def test_criterion_5_monotonicity_sweep():
    """Extra quantized blocks never hurt; alpha and beta stay in range."""
    with criterion(5, "monotonicity and coefficient ranges", 10.0):
        rng = np.random.default_rng(5001)
        for _ in range(10_000):
            params = random_ortho_params(rng, m_max=6, n_a_max=6, n_q_max=10)
            a = alpha(params.rho_q, params.var_q_total)
            b = beta(
                params.n_a, params.rho_a, params.rho_q,
                params.var_a_total, params.var_q_total,
            )
            assert 0.0 <= a < 1.0
            assert b > 0.0
            here = mse_closed_form(params).value
            more = mse_closed_form(replace(params, n_q=params.n_q + 1)).value
            assert more <= here + 1e-12 * params.m


def test_criterion_6_regime_structure_with_dither():
    """Noise sweep shows analog, mixed, and quantized regimes in order, and
    dither optimization only ever helps (strictly, somewhere inside)."""
    with criterion(6, "allocation regimes and dither dominance", 120.0):
        budget = PowerBudget(bits=6, p_max_norm=float(2**6 * 10 * 20))
        grid = [float(v) for v in np.geomspace(0.05, 3.0, 25)]
        rows = sweep_allocation_vs_noise(10, budget, grid, DitherScheme())

        def regime(row):
            if row["n_q_star"] == 0 and row["n_a_star"] > 0:
                return "analog"
            if row["n_a_star"] == 0 and row["n_q_star"] > 0:
                return "quantized"
            return "mixed"

        labels = [regime(row) for row in rows]
        assert labels[0] == "analog"
        assert labels[-1] == "quantized"
        assert "mixed" in labels
        order = {"analog": 0, "mixed": 1, "quantized": 2}
        ranks = [order[lab] for lab in labels]
        assert ranks == sorted(ranks), f"regimes not contiguous: {labels}"

        strict = False
        for idx, row in enumerate(rows):
            assert row["mse_optimal_dithered"] <= row["mse_optimal"] + 1e-15
            if 0 < idx < len(rows) - 1 and row["mse_optimal_dithered"] < row["mse_optimal"] - 1e-12:
                strict = True
        assert strict, "dither never strictly improved an interior point"


def test_criterion_7_noiseless_policy_agreement():
    """The analytic decision rule matches the numerical vanishing-noise limit."""
    with criterion(7, "noiseless-quantized policy", 60.0):
        rng = np.random.default_rng(7001)
        for trial in range(50):
            m = int(rng.integers(1, 9))
            bits = int(rng.integers(2, 8))
            n_a_cap = int(rng.integers(0, 7))
            extra = int(rng.integers(0, 2 ** (bits - 1) + 4))
            p = 2**bits * m * n_a_cap + 2 * m * extra
            if p == 0:
                p = 2 * m
            budget = PowerBudget(bits=bits, p_max_norm=float(p))
            rho_a = log_uniform(rng, 0.1, 10.0)
            var_a = log_uniform(rng, 0.1, 10.0)
            decision = noiseless_quantized_policy(m, budget, rho_a, var_a)
            params = OrthoBlockParams(
                m=m, n_a=0, n_q=0, rho_a=rho_a,
                rho_q=log_uniform(rng, 0.1, 10.0), var_a=var_a, var_q=1e-12,
            )
            numerical = allocate(params, budget)
            assert (decision.n_a, decision.n_q) == (
                numerical.n_a_star, numerical.n_q_star
            ), f"trial {trial}: policy {decision} vs search {numerical.n_a_star, numerical.n_q_star}"


def test_criterion_9_bbit_analog_emulation():
    """Six-bit analog emulation does not measurably degrade agreement."""
    with criterion(9, "b-bit analog emulation", 300.0):
        for sigma2, seed in ((0.5, 9001), (1.0, 9002), (2.0, 9003)):
            model = make_scalar_model(1, 1, sigma2)
            filt = lmmse(model)
            ideal = run_monte_carlo(model, filt, SimConfig(trials=100_000, rng_seed=seed))
            emulated = run_monte_carlo(
                model, filt,
                SimConfig(trials=100_000, rng_seed=seed, analog_quantizer=DEFAULT_ANALOG_QUANTIZER),
            )
            gap_ideal = abs(ideal.empirical_mse - ideal.analytic_mse)
            gap_emulated = abs(emulated.empirical_mse - emulated.analytic_mse)
            assert gap_emulated - gap_ideal < emulated.std_error, f"sigma2={sigma2}"


def test_criterion_8_runtime_scaling():
    """Closed-form sweep cost is flat in the parameter dimension, and the
    matrix-solve sweep at full scale is at least 10x slower.

    The direct arm uses 2 measured repetitions (not the default 10): a single
    full-scale sweep takes minutes on this hardware, and the required 10x
    margin holds by several orders of magnitude.
    """
    with criterion(8, "runtime scaling", 600.0):
        closed_only = bench_runtime(
            [1, 3, 10], [20], bits=6, sigma2=1.0,
            repeats=11, warmup=2, include_direct=False,
        )
        medians = [res.closed_form_time.median_s for res in closed_only]
        assert max(medians) < 2.0 * min(medians), f"closed-form medians vary too much: {medians}"

        full = bench_runtime(
            [10], [20], bits=6, sigma2=1.0,
            repeats=11, direct_repeats=2, warmup=1,
        )[0]
        ratio = full.direct_time.median_s / full.closed_form_time.median_s
        assert ratio >= 10.0, f"direct/closed ratio only {ratio:.1f}"
        print(
            f"  closed-form medians across M=1,3,10: "
            f"{[f'{v*1e6:.0f}us' for v in medians]}; direct/closed ratio {ratio:.2e}"
        )
