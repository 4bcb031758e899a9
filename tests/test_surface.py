"""The surface of the package: the public names it exports, and which
public functions take a defaulted parameter. Each defaulted parameter is a
setting some caller chooses; settings no caller chooses are module
constants instead. Adding a name or a knob means editing these lists."""

import inspect
import pkgutil

import predsens

KEPT_DEFAULTS = {
    "bilevel.solve_discrete.eps",
    "bilevel.solve_discrete.max_iter",
    "bilevel.solve_discrete.tol",
    "cli.run.argv",
    "conditioning.noisy_sensitivity_provider.seed",
    "model.finite_difference_jacobian.step",
    "model.linear_stack.offsets",
    "sensitivity.solve_checked.level",
    "stability.classify_local_stability.tol",
}

KEPT_NAMES = {
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
}


def _defaulted_parameters() -> set[str]:
    found = set()
    for info in pkgutil.iter_modules(predsens.__path__):
        module = __import__(f"predsens.{info.name}", fromlist=["_"])
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.add(f"{info.name}.{name}.{param.name}")
    return found


def test_defaulted_public_parameters_are_the_kept_settings():
    assert _defaulted_parameters() == KEPT_DEFAULTS


def test_public_names_are_the_kept_names():
    assert len(predsens.__all__) == len(set(predsens.__all__))
    assert set(predsens.__all__) == KEPT_NAMES
