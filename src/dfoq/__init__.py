"""Quadratic models from simplex derivatives, with verifiable error bounds.

The package builds minimum-norm and minimum-Frobenius-norm interpolation
models, generalized simplex gradients and Hessians, the worst-case constants
that bound their errors, and a harness (`dfoq`) that sweeps set radii and
checks every bound against measured errors.
"""

from .errors import (
    DfoqError,
    DirectionDomainError,
    EvaluationError,
    InfeasibleError,
    InvalidInputError,
)
from .linalg import DEFAULT_RESIDUAL_TOL, matrix_norm, pinv
from .sample_sets import PoisednessReport, SampleSet, poisedness
from .simplex import (
    DirectionPack,
    Oracle,
    centred_gsg,
    delta_delta_f,
    delta_f,
    gsg,
    gsh,
    shifted_frame,
)
from .models import (
    GradTerm,
    QSSpec,
    QuadraticModel,
    SolveDiagnostics,
    build_qs,
    interpolation_check,
    qs_preset,
    solve_mfn,
    solve_mn,
)
from .bounds import (
    BoundConstants,
    LipschitzData,
    ball_points,
    directional_bound_aligned,
    directional_bound_cross,
    directional_bound_general,
    directional_bound_gsh_cross,
    directional_bound_gsh_general,
    fit_slope,
    gsh_error_bound_global,
    hess_error_bound_global,
    kappa_generic,
    kappa_mH_mfn,
    kappa_mH_mn,
    kappa_mH_qs,
    measure_errors,
)
from .relationships import (
    BilinearProblem,
    gsh_sample_set,
    mfn_from_gsh,
    mn_coordinate_centred,
    mn_from_gsh,
    mn_shifted_frame,
    solve_bilinear_min_frobenius,
    transform_instance,
)
from . import testbed

__version__ = "0.1.0"

__all__ = [
    "DfoqError", "DirectionDomainError", "EvaluationError", "InfeasibleError",
    "InvalidInputError",
    "DEFAULT_RESIDUAL_TOL", "pinv", "matrix_norm",
    "SampleSet", "PoisednessReport", "poisedness",
    "Oracle", "DirectionPack", "delta_f", "gsg", "delta_delta_f", "gsh",
    "centred_gsg", "shifted_frame",
    "QuadraticModel", "SolveDiagnostics", "QSSpec", "GradTerm",
    "solve_mn", "solve_mfn", "build_qs", "interpolation_check", "qs_preset",
    "LipschitzData", "BoundConstants", "kappa_generic", "kappa_mH_mfn",
    "kappa_mH_mn", "kappa_mH_qs", "directional_bound_aligned",
    "directional_bound_cross", "directional_bound_general",
    "hess_error_bound_global", "directional_bound_gsh_cross",
    "directional_bound_gsh_general", "gsh_error_bound_global",
    "ball_points", "measure_errors", "fit_slope",
    "BilinearProblem", "solve_bilinear_min_frobenius", "gsh_sample_set",
    "mn_from_gsh", "mfn_from_gsh", "mn_shifted_frame", "mn_coordinate_centred",
    "transform_instance",
    "testbed",
]
