"""Bilevel optimization through total derivatives of the upper objective.

The upper level minimizes F1(x1, x2) over x1 subject to x2 minimizing
F2(x1, x2). With an invertible lower Hessian, the lower solution map has
sensitivity S = -inv(H22) H21 and the upper gradient along the solution
manifold is the total derivative D = grad1 F1 + S^T grad2 F1, both of which
extend to arbitrary points. Gradient flow on (-D, -grad2 F2) then turns
strict local solutions into exponentially stable equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .conditioning import Conditioner, PredictiveSensitivity, _forward_substitute, compile_scheme
from .errors import SingularMatrixError
from .model import (Array, Subsystem, SystemStack, _block, finite_difference_jacobian,
                    state_columns, write_csv)
from .sensitivity import STEADY_STATE_TOL, solve_checked, steady_state_solve

Vec = np.ndarray
Grad = Callable[[Vec, Vec], Vec]
Hess = Callable[[Vec, Vec], Array]

#: Central-difference step of :func:`reduced_hessian_fd`, scaled by (1 + |x1_k|).
REDUCED_HESSIAN_FD_STEP = 1e-4


@dataclass(frozen=True)
class BilevelProblem:
    """Upper/lower objectives with gradient providers.

    The lower-level Hessian blocks fall back to central differences of the
    lower gradient when no analytic provider is given.
    """

    upper: Callable[[Vec, Vec], float]
    lower: Callable[[Vec, Vec], float]
    grad_upper_x1: Grad
    grad_upper_x2: Grad
    grad_lower_x2: Grad
    hess_lower_x2x2: Hess | None = None
    hess_lower_x2x1: Hess | None = None
    n1: int = 1
    n2: int = 1

    def hess22(self, x1: Vec, x2: Vec) -> Array:
        if self.hess_lower_x2x2 is not None:
            return _block(self.hess_lower_x2x2(x1, x2))
        return finite_difference_jacobian(lambda y: self.grad_lower_x2(x1, y), x2)

    def hess21(self, x1: Vec, x2: Vec) -> Array:
        if self.hess_lower_x2x1 is not None:
            return _block(self.hess_lower_x2x1(x1, x2))
        return finite_difference_jacobian(lambda y: self.grad_lower_x2(y, x2), x1)


def _vec(v, size: int, name: str) -> Vec:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size != size:
        raise ValueError(f"{name} has {arr.size} entries, expected {size}")
    return arr


def sensitivity(problem: BilevelProblem, x1, x2) -> Array:
    """Extended lower-solution sensitivity -inv(H22) H21 at any point."""
    x1 = _vec(x1, problem.n1, "x1")
    x2 = _vec(x2, problem.n2, "x2")
    return solve_checked(problem.hess22(x1, x2), -problem.hess21(x1, x2), level=1)


def total_gradient(problem: BilevelProblem, x1, x2) -> Vec:
    """Extended total derivative of the upper objective w.r.t. x1."""
    x1 = _vec(x1, problem.n1, "x1")
    x2 = _vec(x2, problem.n2, "x2")
    s = solve_checked(problem.hess22(x1, x2), -problem.hess21(x1, x2), level=1)
    g1 = np.asarray(problem.grad_upper_x1(x1, x2), dtype=float).reshape(-1)
    g2 = np.asarray(problem.grad_upper_x2(x1, x2), dtype=float).reshape(-1)
    return g1 + s.T @ g2


def lower_solve(problem: BilevelProblem, x1, guess) -> Vec:
    """Solve grad2 F2(x1, .) = 0 from ``guess``: the steady state of the fast
    level of :func:`as_system_stack` at upstream block ``x1``."""
    x1 = _vec(x1, problem.n1, "x1")
    g = _vec(guess, problem.n2, "guess")
    return steady_state_solve(as_system_stack(problem), 1, np.concatenate([x1, g]))[problem.n1:]


def reduced_hessian_fd(problem: BilevelProblem, x1, x2_guess=None) -> Array:
    """Second total derivative of the upper objective by central differences.

    Differentiates x1 -> D(x1, x2*(x1)) with the lower level re-solved by
    Newton at each probe; matches the third-derivative expansion to
    O(REDUCED_HESSIAN_FD_STEP^2) while staying independently checkable.
    """
    x1 = _vec(x1, problem.n1, "x1")
    guess = x1.copy() if x2_guess is None else _vec(x2_guess, problem.n2, "x2_guess")
    if guess.size != problem.n2:
        guess = np.zeros(problem.n2)
    center = lower_solve(problem, x1, guess)

    def total_on_manifold(z: Vec) -> Vec:
        x2 = lower_solve(problem, z, center)
        return total_gradient(problem, z, x2)

    return finite_difference_jacobian(total_on_manifold, x1, REDUCED_HESSIAN_FD_STEP)


class SolutionVerdict(str, Enum):
    STRICT_LOCAL_SOLUTION_CANDIDATE = "StrictLocalSolutionCandidate"
    STATIONARY_NOT_SUFFICIENT = "StationaryNotSufficient"
    NOT_STATIONARY = "NotStationary"


@dataclass
class PointClassification:
    stationary: bool
    lower_hessian_min_eig: float
    reduced_hessian: Array | None
    verdict: SolutionVerdict


def classify_point(problem: BilevelProblem, x1, x2) -> PointClassification:
    """First- and second-order test of a candidate bilevel solution.

    Stationarity needs both the lower gradient and the total derivative to
    vanish (norms <= STEADY_STATE_TOL); sufficiency additionally needs the
    lower and the reduced Hessian positive definite (min eigenvalue above it).
    """
    tol = STEADY_STATE_TOL
    x1 = _vec(x1, problem.n1, "x1")
    x2 = _vec(x2, problem.n2, "x2")
    g2 = np.asarray(problem.grad_lower_x2(x1, x2), dtype=float).reshape(-1)
    d = total_gradient(problem, x1, x2)
    stationary = float(np.linalg.norm(g2)) <= tol and float(np.linalg.norm(d)) <= tol
    h22 = problem.hess22(x1, x2)
    low_eig = float(np.min(np.linalg.eigvalsh(0.5 * (h22 + h22.T))))
    if not stationary:
        return PointClassification(False, low_eig, None, SolutionVerdict.NOT_STATIONARY)
    red = reduced_hessian_fd(problem, x1, x2_guess=x2)
    red_eig = float(np.min(np.linalg.eigvalsh(0.5 * (red + red.T))))
    if low_eig > tol and red_eig > tol:
        verdict = SolutionVerdict.STRICT_LOCAL_SOLUTION_CANDIDATE
    else:
        verdict = SolutionVerdict.STATIONARY_NOT_SUFFICIENT
    return PointClassification(True, low_eig, red, verdict)


@dataclass
class IterateLog:
    iterates: Array  # (k, n1 + n2)
    residuals: Array
    converged: bool
    iterations_used: int
    diverged: bool = False
    n1: int = 1
    n2: int = 1

    def to_csv(self, path) -> None:
        write_csv(path, ",".join(["iter", *state_columns((self.n1, self.n2)), "residual"]),
                  [np.arange(self.iterates.shape[0]), self.iterates, self.residuals])


DIVERGENCE_CAP = 1e6
DESCENT_MAX_ITER = 200  # default step count of solve_discrete
DESCENT_TOL = 1e-8  # default residual at which solve_discrete stops


def solve_discrete(problem: BilevelProblem, method: str, tau: float, x0,
                   max_iter: int = DESCENT_MAX_ITER, tol: float = DESCENT_TOL,
                   eps: float | None = None) -> IterateLog:
    """Simultaneous discrete descent x + tau M^{-1} f(x) on the gradient-flow
    stack f = (-D, -grad2 F2) of :func:`as_system_stack`, with step size tau.

    ``method`` picks the conditioner M, compiled by
    :func:`~predsens.conditioning.compile_scheme`: ``"ps"`` is
    :class:`~predsens.conditioning.PredictiveSensitivity`, which feeds the
    upper step forward through the sensitivity; ``"gda"`` divides the lower
    step by ``eps`` (the descent analogue of singular perturbation, for any
    positive eps, above 1 too). The residual is the norm of f.

    Leaving ``DIVERGENCE_CAP``, or reaching a singular lower Hessian (kept
    with a NaN residual), ends the run as diverged; one at ``x0`` raises.
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if method not in ("ps", "gda"):
        raise ValueError(f"method must be 'ps' or 'gda', got {method!r}")
    if method == "gda" and (eps is None or not 0 < eps < np.inf):
        raise ValueError(f"gda needs a positive, finite eps, got {eps}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    if np.isnan(tol):
        raise ValueError("tol must be a number, got nan")
    n1 = problem.n1
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != n1 + problem.n2:
        raise ValueError(f"x0 has {x.size} entries, expected {n1 + problem.n2}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite, got {x.tolist()}")
    stack = as_system_stack(problem)
    cond = compile_scheme(stack, PredictiveSensitivity() if method == "ps"
                          else Conditioner((1.0, float(eps)), None, False))
    iterates, residuals = [], []
    for used in range(max_iter + 1):
        try:
            f = stack.field(x)
        except SingularMatrixError:  # run-off: the lower Hessian vanished
            if used == 0:
                raise
            f = np.full(x.size, np.nan)
        iterates.append(x)
        residuals.append(float(np.hypot(np.linalg.norm(f[:n1]), np.linalg.norm(f[n1:]))))
        converged = bool(residuals[-1] <= tol)
        diverged = used > 0 and bool(np.linalg.norm(x) > DIVERGENCE_CAP
                                     or not np.isfinite(residuals[-1]))
        if converged or diverged or used == max_iter:
            break
        sens = None if cond.sens is None else cond.sens(x)
        x = x + tau * np.concatenate(_forward_substitute(cond, sens, [f[:n1], f[n1:]]))
    return IterateLog(iterates=np.asarray(iterates), residuals=np.asarray(residuals),
                      converged=converged, iterations_used=used, diverged=diverged,
                      n1=n1, n2=problem.n2)


def as_system_stack(problem: BilevelProblem) -> SystemStack:
    """Two-level gradient-flow stack (-D, -grad2 F2) for the generic machinery.

    The fast subsystem carries analytic Jacobian blocks from the lower
    Hessians, so the generic sensitivity table reproduces the bilevel
    sensitivity exactly; the slow subsystem differentiates by finite
    differences (its analytic Jacobian would need third derivatives).
    """
    n1, n2 = problem.n1, problem.n2

    def f_slow(x: Array) -> Vec:
        return -total_gradient(problem, x[:n1], x[n1:])

    def f_fast(x: Array) -> Vec:
        return -np.asarray(problem.grad_lower_x2(x[:n1], x[n1:]), dtype=float).reshape(-1)

    def jac_fast(x: Array) -> list[Array]:
        x1, x2 = x[:n1], x[n1:]
        return [-problem.hess21(x1, x2), -problem.hess22(x1, x2)]

    return SystemStack([Subsystem(n1, f_slow), Subsystem(n2, f_fast, jac_fast)])
