"""Boundary-corrected kernel distribution function estimation."""

from .analysis import (
    MiseTerms,
    NoOptimalBandwidthError,
    PointwiseError,
    asymptotic_pointwise,
    exact_bias,
    exact_integrated_variance,
    exact_mise,
    exact_mse_curve,
    exact_variance,
    mise_terms,
    pointwise_error,
)
from .boundary import (
    FAMILY_NAMES,
    BoundaryKernelFamily,
    ConditionCheck,
)
from .distributions import (
    BetaMixture,
    Uniform,
    replicate_rng,
    solve_params,
)
from .estimator import (
    EstimatorConfig,
    evaluate_grid,
    is_proper,
)
from .kernels import KERNEL_NAMES, BaseKernel
from .quadrature import QuadratureError, integrate
from .simulation import SimConfig, SimResult, run_ise, summarize

__version__ = "0.1.0"
