"""The tunable surface of the package: which public functions take a
defaulted parameter. Each one is a setting some caller chooses; settings no
caller chooses are module constants instead, so adding a knob means
editing this list."""

import inspect
import pkgutil

import predsens

KEPT_DEFAULTS = {
    "bilevel.reduced_hessian_fd.x2_guess",
    "bilevel.solve_discrete.eps",
    "bilevel.solve_discrete.max_iter",
    "bilevel.solve_discrete.tol",
    "casestudies.cascade_stack.x1_ref",
    "casestudies.run_black_start.settings",
    "cli.run.argv",
    "conditioning.noisy_sensitivity_provider.seed",
    "model.finite_difference_jacobian.step",
    "model.linear_stack.offsets",
    "sensitivity.solve_checked.level",
    "stability.classify_local_stability.tol",
    "stability.jacobian_at.method",
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
