"""Toolkit for interconnected dynamical systems on multiple time scales.

Build a :class:`SystemStack` of subsystems ordered slow to fast, pick an
interconnection conditioning (plain, singular perturbation, predictive
sensitivity, preconditioned, or an approximate-sensitivity variant), then
simulate it, certify its stability, or run the bundled cascade-control,
converter, and bilevel-optimization case studies.
"""

from . import casestudies, registry
from .bilevel import (BilevelProblem, IterateLog, PointClassification,
                      SolutionVerdict, as_system_stack, classify_point,
                      lower_solve, reduced_hessian_fd, solve_discrete,
                      total_gradient)
from .conditioning import (ApproximateSensitivity, Plain, Preconditioned,
                           PredictiveSensitivity, Scheme, SingularPerturbation,
                           conditioned_field, conditioning_matrix, discrete_step,
                           frozen_sensitivity_provider, noisy_sensitivity_provider)
from .errors import (ConvergenceError, EvaluationError, NotSteadyStateError,
                     SingularMatrixError, StackDefinitionError)
from .integrate import IntegrationSettings, Trajectory, integrate_ode, manifold_error
from .model import Subsystem, SystemStack, finite_difference_jacobian, linear_stack
from .sensitivity import (SensitivityTable, jacobian_grid, reduced_field,
                          steady_state_solve, total_derivative_table)
from .stability import (BlockTriangularForm, ContractionCertificate, StabilityReport,
                        Verdict, block_triangular_form, classify_local_stability,
                        contraction_check, distance_bound_margins, eigenvalues,
                        jacobian_at, match_eigenvalues)

__version__ = "0.1.0"

__all__ = [
    "ApproximateSensitivity", "BilevelProblem", "BlockTriangularForm",
    "ContractionCertificate", "ConvergenceError", "EvaluationError",
    "IntegrationSettings", "IterateLog", "NotSteadyStateError", "Plain",
    "PointClassification", "Preconditioned", "PredictiveSensitivity",
    "Scheme", "SensitivityTable", "SingularMatrixError", "SingularPerturbation",
    "SolutionVerdict", "StabilityReport", "StackDefinitionError",
    "Subsystem", "SystemStack", "Trajectory", "Verdict", "as_system_stack",
    "block_triangular_form", "classify_local_stability", "classify_point",
    "conditioned_field", "conditioning_matrix", "contraction_check",
    "discrete_step", "distance_bound_margins", "eigenvalues",
    "finite_difference_jacobian", "frozen_sensitivity_provider",
    "integrate_ode", "jacobian_at", "jacobian_grid", "linear_stack",
    "lower_solve", "manifold_error", "match_eigenvalues",
    "noisy_sensitivity_provider", "reduced_field", "reduced_hessian_fd",
    "solve_discrete", "steady_state_solve", "total_derivative_table",
    "total_gradient",
]
