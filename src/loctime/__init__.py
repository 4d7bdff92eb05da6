"""White-noise analysis of fBm self-intersection local times, numerically.

The package computes the S-transform of (truncated, regularized)
self-intersection local times of d-dimensional fractional Brownian
motion for every Hurst parameter in (0, 1), together with the
supporting layers: the dual fractional operators behind the fBm
white-noise representation, an adaptive quadrature engine for
power-law endpoint singularities on the time triangle, the chaos
expansion kernels, and Monte Carlo cross-checks with reproducible
counter-based sampling.
"""

from .errors import (AccuracyError, AdmissibilityError, ConfigError,
                     ConsistencyError, LoctimeError, NonIntegrableError,
                     SingularPointError)
from .fracops import (Hurst, Interval, PairingTable, bound_ratio,
                      dual_apply, increment_kernel, normalization_constant,
                      pairing_closed_form, pairing_indicator)
from .kernels import (KernelArgument, KernelIndex, SeriesReport,
                      kernel_value, kernel_value_regularized,
                      odd_kernel_zero, series_reconstruction)
from .mc import (BLOCK, McEstimate, PathEnsemble, WhiteNoiseGrid,
                 covariance_from_kernels, fbm_covariance,
                 make_midpoint_times, mc_grid_bias,
                 mc_local_time_regularized, mc_s_transform,
                 mc_weight_check, sample_paths_cholesky,
                 sample_paths_whitenoise)
from .quadrature import (QuadratureResult, divergence_probe,
                         integrate_interval, integrate_triangle_singular,
                         triangle_power_moment)
from .stransform import (AdmissibilityResult, DeltaSpec, UEstimateReport,
                         admissibility, exp_truncated, is_admissible,
                         minimal_truncation_level, s_char_exp, s_delta,
                         s_local_time, u_estimate_check)
from .testfunctions import (TestFunction, VectorTestFunction,
                            gaussian_bump, hermite_bundle,
                            hermite_function, linear_combination,
                            zero_bundle, zero_function)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LoctimeError", "ConfigError", "SingularPointError", "AccuracyError",
    "ConsistencyError", "NonIntegrableError", "AdmissibilityError",
    # test functions
    "TestFunction", "VectorTestFunction", "zero_function", "gaussian_bump",
    "hermite_function", "linear_combination", "zero_bundle",
    "hermite_bundle",
    # fractional operators
    "Hurst", "Interval", "PairingTable", "normalization_constant",
    "increment_kernel", "dual_apply", "pairing_indicator",
    "pairing_closed_form", "bound_ratio",
    # quadrature
    "QuadratureResult", "integrate_interval", "integrate_triangle_singular",
    "triangle_power_moment", "divergence_probe",
    # S-transform
    "DeltaSpec", "AdmissibilityResult", "admissibility",
    "minimal_truncation_level", "is_admissible", "exp_truncated",
    "s_char_exp", "s_delta", "s_local_time", "u_estimate_check",
    "UEstimateReport",
    # chaos kernels
    "KernelIndex", "KernelArgument", "odd_kernel_zero", "kernel_value",
    "kernel_value_regularized", "series_reconstruction", "SeriesReport",
    # Monte Carlo
    "BLOCK", "WhiteNoiseGrid", "PathEnsemble", "McEstimate",
    "fbm_covariance", "covariance_from_kernels", "make_midpoint_times",
    "sample_paths_whitenoise", "sample_paths_cholesky",
    "mc_local_time_regularized", "mc_s_transform", "mc_weight_check",
    "mc_grid_bias",
]
