"""Multiprecision laboratory for Dirichlet-series coefficients of zeta.

Solves the high-precision linear systems whose solutions are the finite
Dirichlet-series coefficients interpolating zeta on an ordinate grid, models
the resulting profile with a two-parameter sigmoid, calibrates the
generalized per-s weights that make the divergent series convergent, and
verifies the construction against the functional equation.
"""

__version__ = "0.1.0"

from .errors import NumericalError, ValidationError, ZetaLabError
from .oracle import OracleResult, chi, gamma, zeta
from .precision import (
    ComplexAP,
    PrecisionContext,
    make_complex,
    power_term,
    to_string,
)
from .series import (
    BCalibration,
    ExponentialFit,
    ScalingFit,
    calibrate_b,
    fit_power_law,
    fit_sigma_dependence,
    generalized_delta,
    truncation_length,
    weighted_zeta,
)
from .sigmoid import SigmoidFit, construct_fit, fit_residual, scale_from_formula, sigmoid_eval
from .solver import (
    CoefficientSet,
    GridSpec,
    HalfCrossing,
    assemble_system,
    build_grid,
    half_crossing,
    solve_coefficients,
    solve_grid,
)
from .spiral import SpiralTrace, functional_residual, raw_partial_sums, weighted_partial_sums

__all__ = [
    "__version__",
    "ZetaLabError",
    "ValidationError",
    "NumericalError",
    "PrecisionContext",
    "ComplexAP",
    "make_complex",
    "power_term",
    "to_string",
    "OracleResult",
    "zeta",
    "gamma",
    "chi",
    "GridSpec",
    "CoefficientSet",
    "HalfCrossing",
    "build_grid",
    "assemble_system",
    "solve_coefficients",
    "solve_grid",
    "half_crossing",
    "SigmoidFit",
    "sigmoid_eval",
    "scale_from_formula",
    "fit_residual",
    "construct_fit",
    "BCalibration",
    "ScalingFit",
    "ExponentialFit",
    "generalized_delta",
    "truncation_length",
    "weighted_zeta",
    "calibrate_b",
    "fit_power_law",
    "fit_sigma_dependence",
    "SpiralTrace",
    "raw_partial_sums",
    "weighted_partial_sums",
    "functional_residual",
]
