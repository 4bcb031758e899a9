"""Core representations of stacked subsystems ordered slow to fast.

A :class:`SystemStack` holds N subsystems. Subsystem ``i`` owns a state
block of dimension ``dims[i]`` and a vector field ``f_i`` evaluated on the
full stacked state. A state (a point) is always a flat array of length
``total_dim``, blocks in stack order; all matrices produced elsewhere in the
package use the same block ordering, with index 0 the slowest subsystem.
"""

from __future__ import annotations

import numbers
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


#: Rows stacked and formatted together by :func:`write_csv`. Smaller blocks
#: pay numpy's cost per call more often; larger ones fault in fresh pages for
#: their temporaries on every block and raise the peak memory.
CSV_BLOCK_ROWS = 1024


# Tables of the ``%.17g`` block formatter, indexed by a cell's decimal
# exponent X plus _E0. Exactly formatted cells have X in [-281, 282].
_E0 = 282


def _words(texts: list[bytes], width: int = 8) -> Array:
    """``texts`` NUL-padded to ``width`` bytes, one row of uint64 words each."""
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts),
                         np.uint64).reshape(len(texts), -1)


def _pow10_table() -> tuple[Array, ...]:
    """10**(16 - X) as hi + lo, hi also split into 26- and 27-bit halves
    (Veltkamp), from exact integer arithmetic."""
    his, los = [], []
    for k in range(16 - _E0, 17 + _E0):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        n, d = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * d - n * den) / (den * d))
    hi = np.array(his[::-1])
    c = 134217729.0 * hi
    hi1 = c - (c - hi)
    return hi, hi1, hi - hi1, np.array(los[::-1])


_POW10 = _pow10_table()
_EXPONENTS = range(-_E0, _E0 + 1)
_FIXED = range(-4, 17)  # %.17g prints these exponents without an exponent part
# Head word [separator, sign, "0." and up to three zeros, leading digit]:
# _LEAD by leading digit + 10 * sign, _PREFIX by exponent.
_LEAD = _words([b"\0" + sign + bytes(5) + bytes([48 + d])
                for sign in (b"\0", b"-") for d in range(10)]).reshape(-1)
_PREFIX = _words([b"\0\0" + (b"0." + b"0" * (-x - 1) if x in _FIXED and x < 0 else b"")
                  for x in _EXPONENTS]).reshape(-1)
_TAIL = _words([b"" if x in _FIXED else b"e%+03d" % x for x in _EXPONENTS]).reshape(-1)
# Digits shown before the point, by exponent.
_WHOLE = np.array([x + 1 if 0 <= x < 17 else 0 if x in _FIXED else 1 for x in _EXPONENTS],
                  np.int16)


def _group_tables() -> tuple[Array, Array]:
    """By 4-digit group g: its digits d as byte pairs (".", d), one uint64
    word per group; and, for the group in position j of digits 1..16, the
    place of its last nonzero digit among them, or 0."""
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    pairs = np.full((10000, 4, 2), 46, np.uint8)
    pairs[:, :, 1] = 48 + digits
    last = np.where(g > 0, 4 * np.arange(4)[:, None] + 4
                    - np.argmax(digits[:, ::-1] > 0, axis=1), 0)
    return pairs.reshape(10000, 8).view(np.uint64).reshape(-1), last.astype(np.int16)


_PAIRS, _LAST = _group_tables()


def _keep_masks() -> Array:
    """Column 18 s + w masks the four pair words of a cell with s
    significant digits, w of them before the point: it keeps digits 1 to
    max(s, w) - 1, and the point after digit w - 1 when a fraction follows."""
    s, w, j = np.arange(18)[:, None, None], np.arange(18)[None, :, None], np.arange(16)
    keep = np.zeros((18, 18, 16, 2), np.uint8)
    keep[..., 0] = np.where((j == w - 1) & (w < s), 255, 0)
    keep[..., 1] = np.where(j < np.maximum(s, w) - 1, 255, 0)
    return np.ascontiguousarray(keep.reshape(18 * 18, 32).view(np.uint64).T)


_KEEP = _keep_masks()


def _scaled(a: Array, x: Array) -> tuple[Array, Array]:
    """``a * 10**(16 - X)`` as an integer part and a fraction in [0, 1),
    within 1e-14, for ``x`` = X + _E0: a Dekker product with the
    double-double power of ten."""
    hi, hi1, hi2, lo = (t.take(x) for t in _POW10)
    p = a * hi
    c = 134217729.0 * a
    a1 = c - (c - a)
    a2 = a - a1
    r = (((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2) + a * lo
    f = np.floor(r)
    return p.astype(np.int64) + f.astype(np.int64), r - f


def _rounded(v: Array) -> tuple[Array, Array, Array]:
    """Each ``|v|`` rounded to 17 significant digits, N * 10**(X - 16) with
    10**16 <= N < 10**17, as (N, X + _E0, whether the rounding is exact)."""
    a = np.abs(v)
    exact = (a >= 1e-280) & (a <= 1e280)
    a[~exact] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    x += _E0
    n, frac = _scaled(a, x)
    off = np.flatnonzero((n < 10 ** 16) | (n >= 10 ** 17))
    if off.size:  # log10 missed the exponent by one
        x[off] += np.where(n[off] < 10 ** 16, -1, 1)
        n[off], frac[off] = _scaled(a[off], x[off])
        still = off[(n[off] < 10 ** 16) | (n[off] >= 10 ** 17)]
        exact[still] = False  # left to %; N only has to index the digit tables
        n[still] = 10 ** 16
    exact &= np.abs(frac - 0.5) >= 1e-6
    n += frac > 0.5
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    x += carry
    return n, x, exact


def _lay_out(v: Array, n: Array, x: Array, words: Array) -> None:
    """Write the head word and the four pair words of each cell into
    ``words[:, :5]``."""
    lead, rest = np.divmod(n, 10 ** 16)
    groups = np.empty((4, v.size), np.int64)
    np.divmod(rest // 10 ** 8, 10000, out=(groups[0], groups[1]))
    np.divmod(rest % 10 ** 8, 10000, out=(groups[2], groups[3]))
    del rest
    keep = np.maximum(np.maximum(_LAST[0].take(groups[0]), _LAST[1].take(groups[1])),
                      np.maximum(_LAST[2].take(groups[2]), _LAST[3].take(groups[3])))
    keep += 1
    keep *= 18
    keep += _WHOLE.take(x)
    lead += 10 * np.signbit(v)
    np.bitwise_or(_PREFIX.take(x), _LEAD.take(lead), out=words[:, 0])
    pairs = _PAIRS.take(groups)
    del groups
    pairs &= _KEEP.take(keep, axis=1)
    words[:, 1:5] = pairs.T


def _format_rows(block: Array) -> bytearray:
    """The rows of a 2-D float block as ``np.savetxt(fmt="%.17g",
    delimiter=",")`` writes them.

    Each cell is rounded to 17 significant digits in numpy, from the exact
    product of ``|v|`` with a double-double power of ten, whose error is
    below 1e-14 (:func:`_rounded`). The digits are read four at a time from
    tables and laid out in %g's fixed or exponent form in five or six
    NUL-padded uint64 words per cell; the NULs are dropped at the end. Cells
    this cannot decide are formatted by ``%`` itself: zeros, non-finite
    values, ``|v|`` outside [1e-280, 1e280], and those whose scaled fraction
    lies within 1e-6 of one half.
    """
    rows, cols = block.shape
    v = block.reshape(-1)
    n, x, exact = _rounded(v)
    tail = _TAIL.take(x)
    width = 6 if tail.any() else 5
    text = bytearray(8 * width * v.size)
    words = np.frombuffer(text, np.uint64).reshape(v.size, width)
    _lay_out(v, n, x, words)
    if width == 6:
        words[:, 5] = tail
    chars = words.view(np.uint8)
    spill = np.flatnonzero(~exact)
    if spill.size:
        bits, inverse = np.unique(v[spill].view(np.uint64), return_inverse=True)
        texts = [b"\0\0" + b"%.17g" % value for value in bits.view(np.float64).tolist()]
        chars[spill] = _words(texts, 8 * width).view(np.uint8)[inverse]
    heads = chars.reshape(rows, cols, -1)[:, :, 0]  # NUL where the layout left it
    heads[:, 1:] = 44
    heads[1:, 0] = 10
    out = text.translate(None, b"\0")
    out.append(10)
    return out


def write_csv(path, header: str, columns: Sequence[Array]) -> None:
    """Write ``columns`` (1-D arrays, or 2-D blocks of columns) side by side
    under a ``header`` line, every value in round-trip ``.17g`` form.

    The bytes are those of ``np.savetxt`` with ``fmt="%.17g"``,
    ``delimiter=","`` and ``comments=""``; rows are formatted
    ``CSV_BLOCK_ROWS`` at a time by :func:`_format_rows`. Columns of unequal
    length raise ``ValueError`` before the file is opened.
    """
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns must have one common length, got {sorted(lengths)}")
    rows = lengths.pop()
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode() + b"\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns])
            fh.write(_format_rows(block.astype(float, copy=False)))


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim > 0


def _is_integral(value) -> bool:
    return not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and float(value).is_integer())


def _numbers(values, what: str, index: int) -> Array:
    """``values`` as a float array of finite entries, or :class:`StackDefinitionError`;
    numpy reads ``None`` as NaN and a string, bytes or bool as a number, so such
    an entry is refused, and so is an integer too large for a float."""
    try:
        out = _block(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StackDefinitionError(f"{what} is not an array of numbers: {exc}",
                                   index=index) from exc
    if not np.isfinite(out).all():
        raise StackDefinitionError(f"{what} has a null or non-finite entry", index=index)
    # The float conversion succeeded, so the nesting is regular and an object
    # array of ``values`` holds its entries as given.
    kind = values.dtype.kind if isinstance(values, np.ndarray) else "O"
    if kind in "USb" or kind == "O" and any(isinstance(v, (str, bytes, bool, np.bool_))
                                            for v in np.array(values, dtype=object).flat):
        raise StackDefinitionError(f"{what} has a string, bytes or bool entry", index=index)
    return out


def linear_stack(dims: Sequence[int], blocks, offsets=None) -> SystemStack:
    """Build an affine stack  f_i(x) = sum_j A[i][j] x_j + c[i].

    ``blocks[i][j]`` is the (dims[i], dims[j]) matrix A[i][j]; ``offsets``
    gives the constant terms c[i] (default zero). Analytic Jacobians are the
    given blocks, and every subsystem declares ``constant_jacobian``. A
    dimension that is not an integral number (a bool included), a block row
    or offset list of another nesting, or an entry that is not a finite number
    (``None``, a string, bytes or a bool included) raises :class:`StackDefinitionError`.
    """
    if not _is_list(dims) or not all(_is_integral(d) for d in dims):
        raise StackDefinitionError(f"dims must be a list of integers, got {dims!r}")
    dims = [int(d) for d in dims]
    n = len(dims)
    if any(d <= 0 for d in dims):
        raise StackDefinitionError(f"dims must be positive, got {dims}")
    if not _is_list(blocks):
        raise StackDefinitionError(f"blocks must be a list of {n} block rows, got {blocks!r}")
    if len(blocks) != n:
        raise StackDefinitionError(f"expected {n} block rows, got {len(blocks)}")
    if offsets is not None and not (_is_list(offsets) and len(offsets) == n):
        raise StackDefinitionError(f"offsets must be a list of {n} vectors, got {offsets!r}")
    mats: list[list[Array]] = []
    for i in range(n):
        if not _is_list(blocks[i]):
            raise StackDefinitionError(
                f"block row {i} must be a list of {n} blocks, got {blocks[i]!r}", index=i)
        if len(blocks[i]) != n:
            raise StackDefinitionError(
                f"block row {i} has {len(blocks[i])} entries, expected {n}", index=i)
        row = []
        for j in range(n):
            m = _numbers(blocks[i][j], f"block ({i},{j})", i)
            if m.shape != (dims[i], dims[j]):
                raise StackDefinitionError(
                    f"block ({i},{j}) has shape {m.shape}, expected ({dims[i]},{dims[j]})",
                    index=i)
            row.append(_frozen(m))
        mats.append(row)
    consts = []
    for i in range(n):
        c = np.zeros(dims[i]) if offsets is None else \
            _numbers(offsets[i], f"offset {i}", i).reshape(-1)
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
