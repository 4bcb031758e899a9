"""Core representations of stacked subsystems ordered slow to fast.

A :class:`SystemStack` holds N subsystems. Subsystem ``i`` owns a state
block of dimension ``dims[i]`` and a vector field ``f_i`` evaluated on the
full stacked state. A state (a point) is always a flat array of length
``total_dim``, blocks in stack order; all matrices produced elsewhere in the
package use the same block ordering, with index 0 the slowest subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError, StackDefinitionError

Array = np.ndarray
FieldFn = Callable[[Array], Array]
JacobianFn = Callable[[Array], Sequence[Array]]

#: Default central-difference step, scaled per coordinate by (1 + |x_k|).
DEFAULT_FD_STEP = 1e-6


def _block(values) -> Array:
    """``values`` as a float array of at least two dimensions, as
    ``np.atleast_2d(np.asarray(values, dtype=float))`` gives it, without the
    ``atleast_2d`` call for an array that is already 2-D."""
    out = np.asarray(values, dtype=float)
    return out if out.ndim >= 2 else np.atleast_2d(out)


def _frozen(values) -> Array:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Subsystem:
    """One level of the stack.

    ``field`` maps the full stacked state (1-D array of length total_dim)
    to this subsystem's derivative block of length ``dim``. ``jacobian``,
    when given, maps the full stacked state to the list of partial blocks
    of ``field`` with respect to every state block, in stack order. When
    absent, central finite differences are used. Both are checked where
    they are read (:meth:`SystemStack.field_block` and
    :func:`predsens.sensitivity.jacobian_row`); a wrong length or block
    shape raises :class:`StackDefinitionError` with this level's index.

    ``constant_jacobian`` declares that those partial blocks do not depend
    on the state, i.e. that ``field`` is affine. It is never inferred;
    setting it on every subsystem lets the conditioned field, the
    integrator step and the steady-state maps be compiled once (see
    :func:`predsens.conditioning.make_conditioned_field`).
    """

    dim: int
    field: FieldFn
    jacobian: JacobianFn | None = None
    constant_jacobian: bool = False

    def __post_init__(self):
        if self.dim <= 0:
            raise StackDefinitionError(f"subsystem dimension must be positive, got {self.dim}")


class SystemStack:
    """Ordered subsystems, index 0 slowest through index N-1 fastest."""

    def __init__(self, subsystems: Sequence[Subsystem]):
        if not subsystems:
            raise StackDefinitionError("a stack needs at least one subsystem")
        self.subsystems = tuple(subsystems)
        self.dims = tuple(s.dim for s in self.subsystems)
        self.offsets = tuple(int(o) for o in np.concatenate([[0], np.cumsum(self.dims)]))
        self.total_dim = self.offsets[-1]

    def __len__(self) -> int:
        return len(self.subsystems)

    @property
    def constant_jacobian(self) -> bool:
        """Whether every subsystem declares ``constant_jacobian``, i.e. the
        stack is affine."""
        return all(s.constant_jacobian for s in self.subsystems)

    def field_block(self, i: int, x: Array) -> Array:
        out = np.asarray(self.subsystems[i].field(x), dtype=float).reshape(-1)
        if out.shape != (self.dims[i],):
            raise StackDefinitionError(
                f"field of subsystem {i} returned length {out.size}, expected {self.dims[i]}",
                index=i)
        return out

    def field(self, x: Array) -> Array:
        return np.concatenate([self.field_block(i, x) for i in range(len(self))])

    def scaled(self, factor: float) -> "SystemStack":
        """New stack whose fields (and Jacobians) are multiplied by ``factor``.

        Used to fold a discrete-time step size into the fields. Each
        subsystem keeps its ``constant_jacobian`` declaration.
        """
        factor = float(factor)

        def make(sub: Subsystem) -> Subsystem:
            jac = None
            if sub.jacobian is not None:
                jac = lambda x, _j=sub.jacobian: [factor * np.asarray(b, dtype=float)
                                                  for b in _j(x)]
            return Subsystem(sub.dim, lambda x, _f=sub.field: factor * np.asarray(_f(x), dtype=float),
                             jac, sub.constant_jacobian)

        return SystemStack([make(s) for s in self.subsystems])


def as_flat(stack: SystemStack, point) -> Array:
    """``point`` as a float array; it must be flat, of length ``total_dim``."""
    try:
        x = np.asarray(point, dtype=float)
    except ValueError as exc:  # a ragged block list, or not numbers
        raise StackDefinitionError(f"state is not a flat array: {exc}") from exc
    if x.shape != (stack.total_dim,):
        raise StackDefinitionError(
            f"state has shape {x.shape}, expected ({stack.total_dim},)")
    return x


def finite_difference_jacobian(field: FieldFn, point, step: float = DEFAULT_FD_STEP) -> Array:
    """Central-difference Jacobian of ``field`` at ``point``.

    The step for coordinate k is ``step * (1 + |x_k|)``, balancing truncation
    against rounding for double precision.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(point, dtype=float).reshape(-1)
    base = np.asarray(field(x), dtype=float).reshape(-1)
    if not np.all(np.isfinite(base)):
        raise EvaluationError(f"field returned non-finite values at {x!r}")
    jac = np.empty((base.size, x.size))
    for k in range(x.size):
        h = step * (1.0 + abs(x[k]))
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        fp = np.asarray(field(xp), dtype=float).reshape(-1)
        fm = np.asarray(field(xm), dtype=float).reshape(-1)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise EvaluationError(f"field returned non-finite values near {x!r}")
        jac[:, k] = (fp - fm) / (2.0 * h)
    return jac


def state_columns(dims: Sequence[int]) -> list[str]:
    """CSV column names of a flat state: ``x<i+1>`` for a scalar level i,
    else ``x<i+1>_<k>`` for its k-th component."""
    return [f"x{i + 1}" if d == 1 else f"x{i + 1}_{k}"
            for i, d in enumerate(dims) for k in range(d)]


#: Rows stacked and formatted per ``%`` operation by :func:`write_csv`. Larger
#: blocks fragment the heap and raise the peak memory of a long write.
CSV_BLOCK_ROWS = 64


def write_csv(path, header: str, columns: Sequence[Array]) -> None:
    """Write ``columns`` (1-D arrays, or 2-D blocks of columns) side by side
    under a ``header`` line, every value in round-trip ``.17g`` form.

    The bytes are those of ``np.savetxt`` with ``fmt="%.17g"``,
    ``delimiter=","`` and ``comments=""``, but rows are formatted a block at
    a time. Columns of unequal length raise ``ValueError`` before the file
    is opened.
    """
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns must have one common length, got {sorted(lengths)}")
    rows = lengths.pop()
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns])
            line = ",".join(["%.17g"] * block.shape[1]) + "\n"
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def linear_stack(dims: Sequence[int], blocks, offsets=None) -> SystemStack:
    """Build an affine stack  f_i(x) = sum_j A[i][j] x_j + c[i].

    ``blocks[i][j]`` is the (dims[i], dims[j]) matrix A[i][j]; ``offsets``
    gives the constant terms c[i] (default zero). Analytic Jacobians are the
    given blocks, and every subsystem declares ``constant_jacobian``.
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    if any(d <= 0 for d in dims):
        raise StackDefinitionError(f"dims must be positive, got {dims}")
    if len(blocks) != n:
        raise StackDefinitionError(f"expected {n} block rows, got {len(blocks)}")
    mats: list[list[Array]] = []
    for i in range(n):
        if len(blocks[i]) != n:
            raise StackDefinitionError(
                f"block row {i} has {len(blocks[i])} entries, expected {n}", index=i)
        row = []
        for j in range(n):
            m = _block(blocks[i][j])
            if m.shape != (dims[i], dims[j]):
                raise StackDefinitionError(
                    f"block ({i},{j}) has shape {m.shape}, expected ({dims[i]},{dims[j]})",
                    index=i)
            row.append(_frozen(m))
        mats.append(row)
    consts = []
    for i in range(n):
        c = np.zeros(dims[i]) if offsets is None else np.asarray(offsets[i], dtype=float).reshape(-1)
        if c.shape != (dims[i],):
            raise StackDefinitionError(
                f"offset {i} has length {c.size}, expected {dims[i]}", index=i)
        consts.append(_frozen(c))

    cuts = np.concatenate([[0], np.cumsum(dims)]).astype(int)

    def make(i: int) -> Subsystem:
        row = mats[i]
        c = consts[i]

        def f(x: Array, _row=row, _c=c) -> Array:
            out = _c.copy()
            for j in range(n):
                out += _row[j] @ x[cuts[j]:cuts[j + 1]]
            return out

        return Subsystem(dims[i], f, lambda x, _row=row: list(_row), constant_jacobian=True)

    return SystemStack([make(i) for i in range(n)])
