"""Total derivatives, steady-state sensitivities, and steady-state solves.

The central object is the table of total derivatives ``D[i][j]`` and
sensitivities ``S[i][j]`` (j < i), built by eliminating levels from the
fastest subsystem down to the slowest:

    D[i][N-1] = partial of f_i w.r.t. the fastest block
    D[i][j]   = partial[i][j] + sum_{k > max(i, j)} D[i][k] @ S[k][j]
    S[i][j]   = -inverse(D[i][i]) @ D[i][j]          for j < i

``S[i][j]`` equals the derivative of the steady-state map of level i with
respect to block j whenever all levels faster than i sit at their steady
states, but the table itself is defined (and computed here) at arbitrary
points. A conditioned field reads only ``S``, which needs the partial rows
1..N-1 alone; :func:`sensitivity_blocks` builds just that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, SingularMatrixError, StackDefinitionError
from .model import (Array, SystemStack, _block, as_flat, finite_difference_jacobian,
                    DEFAULT_FD_STEP)

#: Diagonal blocks with a 2-norm condition estimate beyond this are treated
#: as singular (Assumption-style invertibility violation).
CONDITION_LIMIT = 1e12

NEWTON_MAX_ITER = 100
NEWTON_TOL = 1e-12

#: A point counts as a steady state while norm(f) stays within this.
STEADY_STATE_TOL = 1e-8


def solve_checked(a: Array, b: Array, level: int | None = None) -> Array:
    """``np.linalg.solve(a, b)`` behind a singularity guard.

    A matrix with a non-finite entry, or with a 2-norm condition estimate
    (from its singular values) that is infinite or beyond
    :data:`CONDITION_LIMIT`, raises :class:`SingularMatrixError` with
    ``level`` and ``cond`` (NaN for a non-finite matrix).

    A 1x1 ``a`` that is finite and nonzero against one float64 right-hand
    column (``b`` of shape ``(1,)`` or ``(1, 1)``) skips the guard and LAPACK
    and returns ``b / a[0, 0]``. That drops no check, since the condition
    number of such a matrix is exactly 1, and the result is bit for bit
    ``np.linalg.solve``'s, overflow to inf included. Only a quotient that
    may leave the float range runs under ``np.errstate(over="ignore")``: one
    with ``|b| < |pivot| * 2**1000`` stays below ``2**1000``, so it skips the
    context manager. The path takes one column only because with more
    columns LAPACK multiplies by the reciprocal, ``b * (1 / a)``, which
    rounds differently.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b)
    if a.size == 1 and a.ndim <= 2 and b.shape in ((1,), (1, 1)) and b.dtype == float:
        pivot = a.item()
        if pivot != 0.0 and math.isfinite(pivot):
            if abs(b.item()) < abs(pivot) * 2.0 ** 1000:
                return b / pivot
            with np.errstate(over="ignore"):
                return b / pivot
    a = _block(a)
    if np.isfinite(a).all():
        sv = np.linalg.svd(a, compute_uv=False)
        cond = np.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    else:
        cond = np.nan
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        where = "" if level is None else f" at subsystem {level}"
        raise SingularMatrixError(
            f"matrix{where} is numerically singular (condition estimate {cond:.3e})",
            level=level, cond=cond)
    return np.linalg.solve(a, b)


def jacobian_row(stack: SystemStack, i: int, x: Array) -> list[Array]:
    """Partial blocks of f_i with respect to every state block.

    This is where analytic Jacobian blocks are read, so this is where they
    are checked: a wrong block count or shape raises
    :class:`StackDefinitionError` with ``index=i``.
    """
    sub = stack.subsystems[i]
    if sub.jacobian is not None:
        row = [_block(b) for b in sub.jacobian(x)]
        shapes = [b.shape for b in row]
        expected = [(sub.dim, d) for d in stack.dims]
        if shapes != expected:
            raise StackDefinitionError(
                f"jacobian of subsystem {i} returned blocks of shapes {shapes}, "
                f"expected {expected}", index=i)
        return row
    full = finite_difference_jacobian(lambda y: stack.field_block(i, y), x, DEFAULT_FD_STEP)
    return [full[:, stack.offsets[j]:stack.offsets[j + 1]] for j in range(len(stack))]


def jacobian_grid(stack: SystemStack, point) -> list[list[Array]]:
    """All partial blocks ``grid[i][j]`` at a point, analytic where available."""
    x = as_flat(stack, point)
    return [jacobian_row(stack, i, x) for i in range(len(stack))]


def _dense(grid: list[list[Array]], offsets) -> Array:
    """``np.block(grid)`` for a square grid of blocks ``grid[i][j]`` of shape
    ``(dims[i], dims[j])``: each block copied in at its offsets."""
    out = np.empty((offsets[-1], offsets[-1]))
    for i, row in enumerate(grid):
        for j, blk in enumerate(row):
            out[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = blk
    return out


@dataclass
class SensitivityTable:
    """Partial, total, and sensitivity blocks evaluated at one point.

    ``total[i][j]`` is D[i][j]; ``sens[i][j]`` is S[i][j] for j < i and
    None otherwise.
    """

    partial: list[list[Array]]
    total: list[list[Array]]
    sens: list[list[Array | None]]


def _eliminate(grid: list, lowest: int) -> tuple[list, list]:
    """The elimination recursion for levels N-1 down to ``lowest``; it reads
    the partial rows ``grid[lowest:]`` only and returns ``(total, sens)``.
    When the recursion stops above level 0 only S is wanted, so the fastest
    level's D blocks are the grid's own, read only by the solves for its S
    and never written. Every other D block is a new array, since products
    read it and numpy can round a strided block differently from its copy."""
    n = len(grid)
    total: list[list[Array | None]] = [[None] * n for _ in range(n)]
    sens: list[list[Array | None]] = [[None] * n for _ in range(n)]
    for i in range(n - 1, lowest - 1, -1):
        for j in range(n - 1, -1, -1):
            d = grid[i][j]
            if i < n - 1 or lowest == 0:
                d = np.array(d, dtype=float)
                for k in range(max(i, j) + 1, n):
                    d += total[i][k] @ sens[k][j]
            total[i][j] = d
        for j in range(i):
            sens[i][j] = solve_checked(total[i][i], -total[i][j], level=i)
    return total, sens


def total_derivative_table(stack: SystemStack, point) -> SensitivityTable:
    """Run the fast-to-slow elimination recursion at ``point`` down to the
    slowest level: every partial block, ``D`` (row 0 included) and ``S``.

    Requires every diagonal total-derivative block D[i][i] for i >= 1 to be
    invertible; a violation raises :class:`SingularMatrixError` naming the
    level.
    """
    grid = jacobian_grid(stack, point)
    total, sens = _eliminate(grid, 0)
    return SensitivityTable(partial=grid, total=total, sens=sens)  # type: ignore[arg-type]


def sensitivity_blocks(stack: SystemStack, point) -> list[list[Array | None]]:
    """The ``sens`` of :func:`total_derivative_table`, bit for bit, from the
    Jacobian rows 1..N-1 alone: the recursion stops at level 1, since row 0
    feeds no S. The fastest level's blocks are read in place, not copied,
    since only S is returned. A singular D[i][i] raises as in the table."""
    x = as_flat(stack, point)
    grid = [None] + [jacobian_row(stack, i, x) for i in range(1, len(stack))]
    return _eliminate(grid, 1)[1]


def _newton(residual, jacobian, y0: Array, what: str) -> Array:
    """Damped Newton iteration (step halving on residual increase) to NEWTON_TOL."""
    y = np.array(y0, dtype=float)
    r = residual(y)
    rn = float(np.linalg.norm(r))
    for it in range(NEWTON_MAX_ITER):
        if rn <= NEWTON_TOL:
            return y
        step = solve_checked(jacobian(y), -r)
        alpha = 1.0
        for _ in range(40):
            cand = y + alpha * step
            rc = residual(cand)
            rcn = float(np.linalg.norm(rc))
            if np.isfinite(rcn) and rcn < rn:
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                f"{what}: damping stalled at residual {rn:.3e}",
                residual=rn, iterations=it)
        y, r, rn = cand, rc, rcn
    if rn <= NEWTON_TOL:
        return y
    raise ConvergenceError(
        f"{what}: no convergence within {NEWTON_MAX_ITER} iterations "
        f"(last residual {rn:.3e})", residual=rn, iterations=NEWTON_MAX_ITER)


def steady_state_solve(stack: SystemStack, level: int, point) -> Array:
    """Solve f_j = 0 jointly for all levels j >= ``level``.

    ``point`` is a flat state: its blocks x_0 .. x_{level-1} stay fixed and
    its blocks from ``level`` on are the Newton start. Returns the flat
    point with those blocks at their joint root, which coincides with the
    nested steady-state maps of the individual levels.
    """
    n = len(stack)
    if not 0 <= level < n:
        raise IndexError(f"level {level} out of range for {n} subsystems")
    start = as_flat(stack, point)
    head = start[:stack.offsets[level]]

    def compose(y: Array) -> Array:
        return np.concatenate([head, y])

    def residual(y: Array) -> Array:
        x = compose(y)
        return np.concatenate([stack.field_block(j, x) for j in range(level, n)])

    def jac(y: Array) -> Array:
        x = compose(y)
        rows = []
        for j in range(level, n):
            row = jacobian_row(stack, j, x)
            rows.append(np.hstack(row[level:]))
        return np.vstack(rows)

    y = _newton(residual, jac, start[stack.offsets[level]:],
                what=f"steady state from level {level}")
    return compose(y)


def steady_state_map(stack: SystemStack, level: int) -> Callable[[Array], Array]:
    """The steady state of the levels >= ``level`` as a function of the
    upstream blocks: the returned map takes states, one flat state per row,
    and gives for each row the solved levels (flat, in level order).

    On an affine stack (every subsystem declares ``constant_jacobian``) it is
    ``x -> G x_up + h``: ``h`` is one :func:`steady_state_solve` from the zero
    point and each column of ``G`` one from a unit point, minus ``h``. On any
    other stack each row is one :func:`steady_state_solve` from its own
    blocks. ``level`` is checked when the map is built; solve errors propagate.
    """
    if not 0 <= level < len(stack):
        raise IndexError(f"level {level} out of range for {len(stack)} subsystems")
    cut = stack.offsets[level]
    if not stack.constant_jacobian:
        return lambda states: np.reshape([steady_state_solve(stack, level, x)[cut:] for x in states],
                                         (len(states), stack.total_dim - cut))
    h = steady_state_solve(stack, level, np.zeros(stack.total_dim))[cut:]
    g = np.empty((h.size, cut))
    for k, unit in enumerate(np.eye(cut, stack.total_dim)):
        g[:, k] = steady_state_solve(stack, level, unit)[cut:] - h
    return lambda states: states[:, :cut] @ g.T + h


def reduced_field(stack: SystemStack, level: int, point) -> Array:
    """f_level at the flat ``point`` with all faster levels at their steady
    states, solved from the point's own faster blocks; the fastest level is
    evaluated at the point as it is.
    """
    n = len(stack)
    if not 0 <= level < n:
        raise IndexError(f"level {level} out of range for {n} subsystems")
    x = as_flat(stack, point)
    if level + 1 < n:
        x = steady_state_solve(stack, level + 1, x)
    return stack.field_block(level, x)
