"""Interconnection conditionings and the conditioned vector field.

Every conditioning is an invertible matrix M multiplying the stacked state
derivative, ``M xdot = f(x)``. The conditioned field M^{-1} f is never
formed by dense inversion; the unit-lower-triangular structure is exploited
by forward substitution through the blocks. Each scheme differs only in its
gains H_i and its sensitivity source, and :func:`compile_scheme` is the one
place that maps a scheme to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

import numpy as np

from .errors import EvaluationError, StackDefinitionError
from .model import Array, SystemStack, _block, as_flat
from .sensitivity import (_dense, jacobian_grid, sensitivity_blocks, solve_checked,
                          total_derivative_table)


@dataclass(frozen=True)
class Plain:
    """No conditioning: xdot = f(x)."""


@dataclass(frozen=True)
class SingularPerturbation:
    """Diagonal time-scale conditioning: xdot_i = f_i / eps_i.

    One epsilon per subsystem, the slowest pinned to 1 and the rest
    positive and nonincreasing toward the fast end.
    """

    epsilons: tuple[float, ...]

    def __init__(self, epsilons: Sequence[float]):
        eps = tuple(float(e) for e in epsilons)
        if not eps or eps[0] != 1.0:
            raise ValueError(f"epsilons must start at 1, got {eps}")
        if not all(e > 0 for e in eps):  # NaN fails the comparison too
            raise ValueError(f"epsilons must be positive, got {eps}")
        if any(b > a for a, b in zip(eps, eps[1:])):
            raise ValueError(f"epsilons must be nonincreasing, got {eps}")
        object.__setattr__(self, "epsilons", eps)


@dataclass(frozen=True)
class PredictiveSensitivity:
    """Feed slow-state motion forward through the steady-state sensitivities."""


@dataclass(frozen=True)
class Preconditioned:
    """Predictive-sensitivity with per-level gains H_i.

    Each gain is a nonzero scalar or an invertible (n_i, n_i) matrix;
    level i integrates xdot_i = H_i f_i + sum_{j<i} S[i][j] xdot_j.
    """

    gains: tuple

    def __init__(self, gains: Sequence):
        object.__setattr__(self, "gains", tuple(gains))


SensProvider = Callable[[SystemStack, Array], Sequence[Sequence[Array | None]]]


@dataclass(frozen=True)
class ApproximateSensitivity:
    """Predictive-sensitivity driven by an approximate sensitivity provider.

    ``provider(stack, x)`` returns blocks ``s[i][j]`` for j < i (entries for
    j >= i are ignored), letting experiments script frozen or perturbed
    sensitivities. Each must be (dims[i], dims[j]), or a scalar for 1x1;
    :func:`compile_scheme` raises :class:`StackDefinitionError` otherwise.
    """

    provider: SensProvider


Scheme = Union[Plain, SingularPerturbation, PredictiveSensitivity,
               Preconditioned, ApproximateSensitivity]


@dataclass(frozen=True)
class Conditioner:
    """A scheme compiled for one stack: M = diag(H_i)^{-1} L, where L is unit
    lower triangular with off-diagonal blocks -S[i][j].

    ``gains`` holds H_i per level (None: every H_i is the identity); a float
    ``e`` stands for H_i = I / e and is applied by division, so singular
    perturbation computes f_i / eps_i exactly as written. ``sens`` maps a
    flat state to the blocks S[i][j] (None: L = I). ``exact`` marks ``sens``
    as the exact S of the elimination recursion (:func:`sensitivity_blocks`).
    """

    gains: tuple | None
    sens: Callable[[Array], Sequence[Sequence[Array | None]]] | None
    exact: bool

    def gain(self, i: int, v: Array) -> Array:
        """H_i v."""
        if self.gains is None:
            return v
        h = self.gains[i]
        return v / h if isinstance(h, float) else h @ v


def compile_scheme(stack: SystemStack, scheme: Scheme | Conditioner) -> Conditioner:
    """Validate ``scheme`` against ``stack`` and compile it to a :class:`Conditioner`;
    a Conditioner is returned unchanged, so a caller can compile once and pass it on."""
    n = len(stack)
    if isinstance(scheme, Conditioner):
        return scheme
    if isinstance(scheme, Plain):
        return Conditioner(None, None, False)
    if isinstance(scheme, SingularPerturbation):
        if len(scheme.epsilons) != n:
            raise ValueError(f"scheme has {len(scheme.epsilons)} epsilons for {n} subsystems")
        return Conditioner(scheme.epsilons, None, False)
    if isinstance(scheme, ApproximateSensitivity):
        return Conditioner(None, lambda x: _provided_blocks(stack, scheme.provider(stack, x)), False)

    def exact(x: Array):
        return sensitivity_blocks(stack, x)

    if isinstance(scheme, PredictiveSensitivity):
        return Conditioner(None, exact, True)
    if not isinstance(scheme, Preconditioned):
        raise TypeError(f"unknown scheme {scheme!r}")
    if len(scheme.gains) != n:
        raise ValueError(f"scheme has {len(scheme.gains)} gains for {n} subsystems")
    mats = []
    for i, (g, d) in enumerate(zip(scheme.gains, stack.dims)):
        arr = np.asarray(g, dtype=float)
        if not (math.isfinite(arr) if arr.ndim == 0 else np.isfinite(arr).all()):
            raise ValueError(f"gain {i} must be finite, got {g}")
        if arr.ndim == 0:
            if arr == 0.0:
                raise ValueError(f"gain {i} must be invertible, got 0")
            arr = float(arr) * np.eye(d)
        elif arr.shape != (d, d):
            raise ValueError(f"gain {i} has shape {arr.shape}, expected ({d},{d})")
        else:
            solve_checked(arr, np.eye(d), level=i)  # invertibility guard
        mats.append(arr)
    return Conditioner(tuple(mats), exact, True)


def _provided_blocks(stack: SystemStack, sens) -> list[list[Array | None]]:
    """A provider's blocks S[i][j] (j < i) as float arrays, each checked to be
    (dims[i], dims[j]); a missing block or a wrong shape raises
    :class:`StackDefinitionError` with ``index=i``, and so does a row that is
    not a sequence (``index=1`` for a whole result that is not). A scalar is a
    1x1 block, None zero."""
    dims = stack.dims
    out: list[list[Array | None]] = [[]]
    for i in range(1, len(stack)):
        row = sens[i] if i < _sized(sens, "its result", 1) else ()
        if _sized(row, f"row {i}", i) < i:
            raise StackDefinitionError(f"sensitivity provider returned {len(row)} blocks "
                                       f"S[{i}][j], expected {i}", index=i)
        out.append([])
        for j in range(i):
            b = row[j]
            if b is not None:
                b = _block(b)
                if b.shape != (dims[i], dims[j]):
                    raise StackDefinitionError(
                        f"sensitivity provider returned a block S[{i}][{j}] of shape "
                        f"{b.shape}, expected {(dims[i], dims[j])}", index=i)
            out[i].append(b)
    return out


def _sized(items, what: str, index: int) -> int:
    try:
        return len(items)
    except TypeError:
        raise StackDefinitionError(f"sensitivity provider returned {items!r} as {what}, "
                                   f"expected a sequence", index=index) from None


def _forward_substitute(cond: Conditioner, sens, blocks: list[Array]) -> list[Array]:
    xdot: list[Array] = []
    for i, f in enumerate(blocks):
        v = cond.gain(i, f)
        if sens is not None:
            for j in range(i):
                if sens[i][j] is not None:
                    v = v + sens[i][j] @ xdot[j]
        xdot.append(v)
    return xdot


def conditioned_field(stack: SystemStack, scheme: Scheme | Conditioner, point) -> Array:
    """Evaluate the conditioned derivative M^{-1} f at a point."""
    x = as_flat(stack, point)
    cond = compile_scheme(stack, scheme)
    f_blocks = [stack.field_block(i, x) for i in range(len(stack))]
    sens = None if cond.sens is None else cond.sens(x)
    out = np.concatenate(_forward_substitute(cond, sens, f_blocks))
    if not np.isfinite(out).all():
        raise EvaluationError(f"conditioned field is non-finite at {x!r}")
    return out


def is_affine(stack: SystemStack, cond: Conditioner) -> bool:
    """Whether the conditioned field is an affine map ``x -> A_c x + b_c``:
    every subsystem declares ``constant_jacobian`` and the sensitivities are
    exact or absent (an approximate provider may vary with the state), so M
    and the Jacobian are constant."""
    return (cond.sens is None or cond.exact) and stack.constant_jacobian


def make_conditioned_field(stack: SystemStack, scheme: Scheme) -> Callable[[Array], Array]:
    """Closure over (stack, scheme) for tight integration loops.

    When :func:`is_affine` holds, ``x -> A_c x + b_c`` is compiled here once:
    ``A_c`` is :func:`conditioned_jacobian` at the origin, where a singular
    diagonal block raises, and ``b_c`` is :func:`conditioning_matrix`'s
    ``apply_inverse`` (S from that Jacobian's table) of ``f(0)``. A non-finite
    value, by overflow included, raises :class:`EvaluationError` without a
    warning, so :func:`~predsens.integrate.integrate_ode` refuses such a field
    at time 0.0, while it builds its step map. The message names no point: the
    argument may be an RK4 stage point, not a state of the run. Otherwise every
    call evaluates :func:`conditioned_field` afresh on the scheme compiled once.
    """
    cond = compile_scheme(stack, scheme)
    if not is_affine(stack, cond):
        return lambda x: conditioned_field(stack, cond, x)
    origin = np.zeros(stack.total_dim)
    a_c, table = conditioned_jacobian(stack, cond, origin)
    if table is not None:
        cond = replace(cond, sens=lambda _x: table.sens)
    b_c = conditioning_matrix(stack, cond, origin)[1](stack.field(origin))

    def field(x: Array) -> Array:
        with np.errstate(over="ignore", invalid="ignore"):
            out = a_c @ x + b_c
        if not np.isfinite(out).all():
            raise EvaluationError("conditioned field is non-finite")
        return out

    return field


def conditioning_matrix(stack: SystemStack, scheme: Scheme | Conditioner, point):
    """Dense conditioning matrix M at a point, plus its inverse action.

    Returns ``(M, apply_inverse)`` where ``apply_inverse(v)`` computes
    M^{-1} v by forward substitution, so that
    ``apply_inverse(stack.field(x)) == conditioned_field(stack, scheme, x)``.
    """
    x = as_flat(stack, point)
    cond = compile_scheme(stack, scheme)
    sens = None if cond.sens is None else cond.sens(x)
    off = stack.offsets
    rows = [slice(off[i], off[i + 1]) for i in range(len(stack))]
    m = np.eye(stack.total_dim)
    # M = diag(H_i^{-1}) @ L with L unit lower triangular carrying -S blocks.
    if sens is not None:
        for i in range(len(stack)):
            for j in range(i):
                if sens[i][j] is not None:
                    m[rows[i], rows[j]] = -sens[i][j]
    for i, h in enumerate(cond.gains or ()):
        if isinstance(h, float):
            m[rows[i], :] *= h
        else:
            m[rows[i], :] = solve_checked(h, np.eye(stack.dims[i]), level=i) @ m[rows[i], :]

    def apply_inverse(v: Array) -> Array:
        v = np.asarray(v, dtype=float)
        return np.concatenate(_forward_substitute(cond, sens, [v[r] for r in rows]))

    return m, apply_inverse


def conditioned_jacobian(stack: SystemStack, scheme: Scheme | Conditioner, x: Array):
    """M^{-1} grad f at ``x``, as ``(jac, table)``; no dense M is built. The
    columns of grad f are forward-substituted as one batch of ``(d_i, 1)``
    columns per level, so numpy runs, per column, the matrix-vector products the
    ``apply_inverse`` of :func:`conditioning_matrix` would run on it: ``jac`` is
    that ``apply_inverse`` applied column by column, bit for bit. An exact
    conditioner reads grad f and S from one :func:`total_derivative_table`,
    returned as ``table``; any other conditioner builds none (``table`` is None)
    and calls its provider, if any, once."""
    cond = compile_scheme(stack, scheme)
    table = total_derivative_table(stack, x) if cond.exact else None
    sens = table.sens if cond.exact else None if cond.sens is None else cond.sens(x)
    off = stack.offsets
    grad = _dense(jacobian_grid(stack, x) if table is None else table.partial, off)
    cols = grad.T  # row k is column k of grad f
    xdot = _forward_substitute(cond, sens, [cols[:, off[i]:off[i + 1], None]
                                            for i in range(len(stack))])
    jac = np.concatenate(xdot, axis=1).reshape(stack.total_dim, stack.total_dim).T.copy()
    return jac, table


def discrete_step(stack: SystemStack, scheme: Scheme, point) -> Array:
    """One conditioned update x + M^{-1} f(x).

    Any step-size scaling is expected to be folded into the stack's fields
    (see SystemStack.scaled); equilibria of f are fixed points.
    """
    x = as_flat(stack, point)
    return x + conditioned_field(stack, scheme, x)


def frozen_sensitivity_provider(stack: SystemStack, at_point) -> SensProvider:
    """Provider returning the exact sensitivities frozen at a reference point."""
    frozen = total_derivative_table(stack, as_flat(stack, at_point)).sens
    return lambda _stack, _x: frozen


def noisy_sensitivity_provider(sigma: float, seed: int = 0) -> SensProvider:
    """Provider adding zero-mean Gaussian noise (scale ``sigma``) to the exact
    sensitivities. The noise is drawn from a generator seeded by ``seed`` and
    the bytes of the state, so the provider is a function of the state.
    A ``sigma`` that is negative (-0.0 included) or not finite raises
    ``ValueError`` here."""
    if not 0.0 <= sigma < math.inf or math.copysign(1.0, sigma) < 0:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")

    def provider(stack: SystemStack, x: Array):
        x = np.asarray(x, dtype=float)
        rng = np.random.default_rng([seed, *x.view(np.uint64).tolist()])
        sens = sensitivity_blocks(stack, x)
        out: list[list[Array | None]] = []
        for i, row in enumerate(sens):
            out.append([None if blk is None else blk + rng.normal(0.0, sigma, blk.shape)
                        for blk in row])
        return out

    return provider
