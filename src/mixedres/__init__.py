"""Bayesian estimation from mixed-resolution (analog + 1-bit) measurements.

The package provides the exact second-order statistics and LMMSE estimator
for the general mixed model, a closed-form MSE and filter for the
orthonormal-block special case, power-constrained allocation of measurement
types with optional dither optimization, and a seeded Monte-Carlo harness
that validates the closed forms against simulation.
"""

from .allocation import (
    AllocationResult,
    DitherScheme,
    PolicyDecision,
    PowerBudget,
    allocate,
    allocate_exhaustive,
    allocate_with_dither,
    max_nq,
    na_range,
    noiseless_quantized_policy,
)
from .closed_form import (
    ClosedFormMse,
    alpha,
    beta,
    filter_closed_form,
    mse_closed_form,
    mse_grid,
    mse_noiseless_quantized_limit,
    mse_pure_analog,
    mse_pure_quantized,
)
from .exceptions import (
    AssumptionViolationError,
    ConfigError,
    DegenerateCovarianceError,
    EstimatorUndefinedError,
    InstanceTooLargeError,
    MixedResError,
    ModelError,
    NumericalDomainError,
    QuantizerDomainError,
    SingularPriorError,
)
from .estimator import (
    CovarianceBundle,
    LmmseFilter,
    assemble,
    cov_analog,
    cov_pre_quantization,
    cov_quantized,
    cross_cov_analog_quantized,
    cross_cov_theta_quantized,
    estimate,
    lmmse,
    prefix_mse,
)
from .model import (
    MixedModel,
    OrthoBlockParams,
    QuantizerSpec,
    RngStream,
    SampleBuffers,
    copy_layout,
    make_mimo_model,
    make_ortho_matrices,
    make_ortho_model,
    make_scalar_model,
    quantize_1bit,
    quantize_bbit,
    sample_measurements,
    sample_parameter,
)
from .simulate import (
    BenchResult,
    SimConfig,
    SimResult,
    TimingStats,
    bench_runtime,
    run_monte_carlo,
    sweep_allocation_vs_noise,
    sweep_mse_vs_noise,
)

__version__ = "0.1.0"
