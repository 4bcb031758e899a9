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

from .errors import SingularMatrixError
from .model import Array, Subsystem, SystemStack, finite_difference_jacobian, write_csv
from .sensitivity import STEADY_STATE_TOL, _newton, solve_checked

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
            return np.atleast_2d(np.asarray(self.hess_lower_x2x2(x1, x2), dtype=float))
        return finite_difference_jacobian(lambda y: self.grad_lower_x2(x1, y), x2)

    def hess21(self, x1: Vec, x2: Vec) -> Array:
        if self.hess_lower_x2x1 is not None:
            return np.atleast_2d(np.asarray(self.hess_lower_x2x1(x1, x2), dtype=float))
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
    s = sensitivity(problem, x1, x2)
    g1 = np.asarray(problem.grad_upper_x1(x1, x2), dtype=float).reshape(-1)
    g2 = np.asarray(problem.grad_upper_x2(x1, x2), dtype=float).reshape(-1)
    return g1 + s.T @ g2


def lower_solve(problem: BilevelProblem, x1, guess) -> Vec:
    """Newton solve of grad2 F2(x1, .) = 0 from ``guess``."""
    x1 = _vec(x1, problem.n1, "x1")
    g = _vec(guess, problem.n2, "guess")
    return _newton(
        lambda y: np.asarray(problem.grad_lower_x2(x1, y), dtype=float).reshape(-1),
        lambda y: problem.hess22(x1, y),
        g, what="lower-level solve")


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
        cols = ["iter"]
        cols += ["x1" if self.n1 == 1 else f"x1_{k}" for k in range(self.n1)]
        cols += ["x2" if self.n2 == 1 else f"x2_{k}" for k in range(self.n2)]
        cols.append("residual")
        write_csv(path, ",".join(cols),
                  [np.arange(self.iterates.shape[0]), self.iterates, self.residuals])


DIVERGENCE_CAP = 1e6


def solve_discrete(problem: BilevelProblem, method: str, tau: float, x0,
                   max_iter: int = 200, tol: float = 1e-8,
                   eps: float | None = None) -> IterateLog:
    """Simultaneous discrete descent on both levels with step size tau.

    ``method="ps"`` feeds the upper update forward through the sensitivity;
    ``method="gda"`` scales the lower step by 1/eps instead (the descent
    analogue of the singular-perturbation conditioning).

    Leaving ``DIVERGENCE_CAP``, or reaching a singular lower Hessian (kept
    with a NaN residual), ends the run as diverged; one at ``x0`` raises.
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if method not in ("ps", "gda"):
        raise ValueError(f"method must be 'ps' or 'gda', got {method!r}")
    if method == "gda":
        if eps is None or not 0 < eps < np.inf:
            raise ValueError(f"gda needs a positive, finite eps, got {eps}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != problem.n1 + problem.n2:
        raise ValueError(f"x0 has {x0.size} entries, expected {problem.n1 + problem.n2}")
    x1 = x0[:problem.n1].copy()
    x2 = x0[problem.n1:].copy()

    iterates = [np.concatenate([x1, x2])]
    d = total_gradient(problem, x1, x2)
    g2 = np.asarray(problem.grad_lower_x2(x1, x2), dtype=float).reshape(-1)
    residuals = [float(np.hypot(np.linalg.norm(d), np.linalg.norm(g2)))]
    converged = residuals[0] <= tol
    diverged = False
    used = 0
    for k in range(max_iter):
        if converged or diverged:
            break
        step1 = -tau * d
        if method == "ps":
            s = sensitivity(problem, x1, x2)
            step2 = -tau * g2 + s @ step1
        else:
            step2 = -(tau / eps) * g2
        x1 = x1 + step1
        x2 = x2 + step2
        used = k + 1
        try:
            d = total_gradient(problem, x1, x2)
        except SingularMatrixError:  # run-off: the lower Hessian vanished
            d = np.full(problem.n1, np.nan)
        g2 = np.asarray(problem.grad_lower_x2(x1, x2), dtype=float).reshape(-1)
        residuals.append(float(np.hypot(np.linalg.norm(d), np.linalg.norm(g2))))
        iterates.append(np.concatenate([x1, x2]))
        if residuals[-1] <= tol:
            converged = True
        if np.linalg.norm(iterates[-1]) > DIVERGENCE_CAP or not np.isfinite(residuals[-1]):
            diverged = True
    return IterateLog(iterates=np.asarray(iterates), residuals=np.asarray(residuals),
                      converged=converged, iterations_used=used, diverged=diverged,
                      n1=problem.n1, n2=problem.n2)


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
