"""Jacobians, eigenvalue classification, and contraction certificates.

Local verdicts follow the linearization test: strictly negative spectral
abscissa means exponential stability, strictly positive means instability,
and a band of width 1e-9 around zero is reported as Marginal so verdicts do
not flap at analytic stability boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conditioning import Conditioner, Scheme, compile_scheme, conditioned_jacobian
from .errors import ConvergenceError, NotSteadyStateError
from .model import Array, SystemStack, _block, as_flat
from .sensitivity import STEADY_STATE_TOL, _dense, steady_state_map, total_derivative_table

#: Verdicts stay Marginal while |max Re lambda| <= this.
STABILITY_TOL = 1e-9

#: Contraction holds at a point while max eig(P D + D^T P + Q) <= this.
CONTRACTION_RESIDUAL_TOL = 1e-10


class Verdict(str, Enum):
    EXPONENTIALLY_STABLE = "ExponentiallyStable"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"


def eigenvalues(matrix) -> Array:
    """All eigenvalues of a square real matrix (LAPACK Hessenberg + QR)."""
    a = _block(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - QR failures are rare
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def match_eigenvalues(a, b) -> float:
    """Greedy multiset matching distance between two eigenvalue lists: each
    entry of ``a`` in turn takes the nearest remaining entry of ``b`` (the
    first of equally near ones), and the largest distance taken is returned,
    ``inf`` for lists of different lengths. The distances are Python
    ``complex`` differences and ``abs``, which round as numpy's scalars do."""
    a = np.asarray(a, dtype=complex).tolist()
    b = np.asarray(b, dtype=complex).tolist()
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for lam in a:
        dists = [abs(lam - mu) for mu in b]
        k = dists.index(min(dists))
        del b[k]
        worst = max(worst, dists[k])
    return worst


def jacobian_at(stack: SystemStack, scheme: Scheme | Conditioner, point) -> Array:
    """M^{-1} grad f at ``point``, M being the scheme's conditioning matrix.

    This equals the Jacobian of the conditioned field M^{-1} f at steady
    states (where f = 0 cancels the derivative of M^{-1}), and everywhere
    for conditionings with a state-independent M. The scheme is compiled
    once.
    """
    return conditioned_jacobian(stack, scheme, as_flat(stack, point))[0]


def _steady_point(stack: SystemStack, point, tol: float) -> Array:
    """``point`` as a flat state, checked to be finite with ``norm(f) <= tol``."""
    x = as_flat(stack, point)
    if not np.isfinite(x).all():
        raise ValueError(f"point must be finite, got {x.tolist()}")
    if math.isnan(tol):
        raise ValueError("tol must be a number, got nan")
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    fnorm = float(np.linalg.norm(stack.field(x)))
    if not fnorm <= tol:
        raise NotSteadyStateError(
            f"point is not a steady state (residual {fnorm:.3e} > {tol:.1e})")
    return x


@dataclass
class BlockTriangularForm:
    """Upper-block-triangular similarity image of the conditioned Jacobian.

    ``matrix`` carries the total-derivative diagonal blocks; ``transforms``
    is the sequence of unit-lower-triangular similarity factors (fastest
    level first) whose product is the inverse conditioning matrix.
    """

    matrix: Array
    transforms: list[Array]
    diagonal_blocks: list[Array]
    similarity_gap: float


def block_triangular_form(stack: SystemStack, point) -> BlockTriangularForm:
    """Triangularize the conditioned Jacobian at a steady state.

    Requires a finite point with ``norm(f(point)) <= STEADY_STATE_TOL``. The
    returned matrix has the blocks D[i][i] on its diagonal, which at a
    steady state equal the Jacobians of the reduced-order fields.
    """
    x = _steady_point(stack, point, STEADY_STATE_TOL)
    table = total_derivative_table(stack, x)
    n = len(stack)
    off = stack.offsets
    transforms = []
    minv = np.eye(stack.total_dim)
    for i in range(n - 1, 0, -1):
        t = np.eye(stack.total_dim)
        for j in range(i):
            t[off[i]:off[i + 1], off[j]:off[j + 1]] = table.sens[i][j]
        transforms.append(t)
        minv = minv @ t
    grad = _dense(table.partial, off)
    a_tilde = grad @ minv
    diag = [table.total[i][i] for i in range(n)]
    gap = match_eigenvalues(eigenvalues(a_tilde),
                            eigenvalues(minv @ grad))
    return BlockTriangularForm(matrix=a_tilde, transforms=transforms,
                               diagonal_blocks=diag, similarity_gap=gap)


@dataclass
class StabilityReport:
    eigenvalues: Array
    block_eigenvalues: list[Array] | None
    verdict: Verdict
    spectral_abscissa: float
    block_spectrum_gap: float | None = None

    def to_json_dict(self) -> dict:
        blocks = self.block_eigenvalues
        return {"verdict": self.verdict.value,
                "spectral_abscissa": self.spectral_abscissa,
                "eigenvalues": _pairs(self.eigenvalues),
                "block_eigenvalues": None if blocks is None else [_pairs(b) for b in blocks]}


def _pairs(lams: Array) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in lams]


def _sorted_eigs(a: Array) -> Array:
    lams = eigenvalues(a)
    order = np.lexsort((lams.imag, lams.real))
    return lams[order]


def classify_local_stability(stack: SystemStack, scheme: Scheme, steady_point,
                             tol: float = STEADY_STATE_TOL) -> StabilityReport:
    """Eigenvalue verdict for the conditioned system at an equilibrium.

    For the exact schemes (predictive sensitivity and preconditioned) the
    report also carries the eigenvalues of the per-level blocks H_i D[i][i],
    read from the table the Jacobian came from; they must agree with the
    full spectrum as a multiset (checked to 1e-6). A scheme that does not fit
    the stack (checked first), a non-finite point or a NaN ``tol`` raises
    ``ValueError``.
    """
    cond = compile_scheme(stack, scheme)
    x = _steady_point(stack, steady_point, tol)
    jac, table = conditioned_jacobian(stack, cond, x)
    lams = _sorted_eigs(jac)
    abscissa = float(np.max(lams.real))
    if abscissa < -STABILITY_TOL:
        verdict = Verdict.EXPONENTIALLY_STABLE
    elif abscissa > STABILITY_TOL:
        verdict = Verdict.UNSTABLE
    else:
        verdict = Verdict.MARGINAL

    block_lams = gap = None
    if table is not None:
        block_lams = [_sorted_eigs(cond.gain(i, table.total[i][i])) for i in range(len(stack))]
        union = np.concatenate(block_lams)
        gap = match_eigenvalues(lams, union)
        # Repeated eigenvalues can be defective; QR then locates them only to
        # roughly eps**(1/m) for a cluster of size m, so the cross-check
        # loosens when the block spectrum itself is clustered.
        scale = 1.0 + float(np.max(np.abs(union)))
        spectrum = union.tolist()
        sep = min((abs(u - v) for k, u in enumerate(spectrum) for v in spectrum[k + 1:]),
                  default=math.inf)
        limit = 1e-6 * scale
        if sep <= 100.0 * limit:
            limit = max(limit, 50.0 * float(np.finfo(float).eps) ** 0.25 * scale)
        if gap > limit:
            raise ConvergenceError(
                f"block spectrum disagrees with full spectrum (gap {gap:.3e})")
    return StabilityReport(eigenvalues=lams, block_eigenvalues=block_lams,
                           verdict=verdict, spectral_abscissa=abscissa,
                           block_spectrum_gap=gap)


@dataclass
class ContractionCertificate:
    """Sampled contraction check with the induced inverse bounds.

    ``holds`` is True when P_i D[i][i] + D[i][i]^T P_i + Q_i stayed negative
    semidefinite (max eigenvalue <= residual tolerance) at every sample
    point, D[i][i] being the total-derivative diagonal blocks. The bound
    2 norm(P_i) / lambda_min(Q_i) then caps norm(inverse(D[i][i])); its
    sampled verification is recorded in ``bounds_verified``.
    """

    holds: bool
    inverse_bound: list[float]
    max_residual_eig: list[float]
    max_inverse_norm: list[float]
    bounds_verified: bool


def _check_spd(name: str, mats: list[Array], dims) -> list[Array]:
    out = []
    for i, m in enumerate(mats):
        a = np.asarray(m, dtype=float)
        if a.ndim == 0:
            a = float(a) * np.eye(dims[i])
        if a.shape != (dims[i], dims[i]):
            raise ValueError(f"{name}[{i}] has shape {a.shape}, expected ({dims[i]},{dims[i]})")
        if not np.allclose(a, a.T, atol=1e-12):
            raise ValueError(f"{name}[{i}] must be symmetric")
        if np.min(np.linalg.eigvalsh(a)) <= 0:
            raise ValueError(f"{name}[{i}] must be positive definite")
        out.append(a)
    return out


def contraction_check(stack: SystemStack, p, q, sample_points) -> ContractionCertificate:
    """Check the per-level contraction inequalities at the sample points.

    On an affine stack (every subsystem declares ``constant_jacobian``) the
    blocks D[i][i] are the same at every point, so one table, built at the
    first point, stands for all of them."""
    n = len(stack)
    p, q = list(p), list(q)
    if len(p) != n or len(q) != n:
        raise ValueError(f"need one P and one Q per subsystem ({n})")
    p_mats = _check_spd("P", p, stack.dims)
    q_mats = _check_spd("Q", q, stack.dims)
    pts = [as_flat(stack, pt) for pt in sample_points]
    if stack.constant_jacobian:
        pts = pts[:1]
    bound = [2.0 * float(np.linalg.norm(p_mats[i], 2)) / float(np.min(np.linalg.eigvalsh(q_mats[i])))
             for i in range(n)]
    max_res = [-np.inf] * n
    max_inv = [0.0] * n
    holds = True
    for x in pts:
        table = total_derivative_table(stack, x)
        for i in range(n):
            d = table.total[i][i]
            resid = p_mats[i] @ d + d.T @ p_mats[i] + q_mats[i]
            lam = float(np.max(np.linalg.eigvalsh(0.5 * (resid + resid.T))))
            max_res[i] = max(max_res[i], lam)
            if lam > CONTRACTION_RESIDUAL_TOL:
                holds = False
            sv = np.linalg.svd(d, compute_uv=False)
            inv_norm = np.inf if sv[-1] == 0 else float(1.0 / sv[-1])
            max_inv[i] = max(max_inv[i], inv_norm)
    bounds_verified = holds and all(
        max_inv[i] <= bound[i] * (1.0 + 1e-12) + 1e-12 for i in range(n))
    return ContractionCertificate(holds=holds, inverse_bound=bound,
                                  max_residual_eig=max_res,
                                  max_inverse_norm=max_inv,
                                  bounds_verified=bounds_verified)


def distance_bound_margins(stack: SystemStack, certificate: ContractionCertificate,
                           points) -> Array:
    """Check norm(x_i - x_i^s) <= bound_i * norm(reduced field at level i).

    Returns the matrix of margins bound_i * norm(f_i^r) - norm(x_i - x_i^s),
    one row per point; nonnegative rows mean the distance bound holds. The
    steady states of each level come from one
    :func:`~predsens.sensitivity.steady_state_map` applied to every point,
    and the reduced field of level i is read at the points with the levels
    faster than i at those of level i + 1.
    """
    n = len(stack)
    pts = [as_flat(stack, pt) for pt in points]
    margins = np.empty((len(pts), n))
    off = stack.offsets
    xs = np.reshape(pts, (len(pts), stack.total_dim))
    solved = [steady_state_map(stack, i)(xs) for i in range(n)]
    for i in range(n):
        dist = np.linalg.norm(xs[:, off[i]:off[i + 1]] - solved[i][:, :stack.dims[i]], axis=1)
        reduced_at = xs if i + 1 == n else np.hstack([xs[:, :off[i + 1]], solved[i + 1]])
        fr = np.array([np.linalg.norm(stack.field_block(i, y)) for y in reduced_at])
        margins[:, i] = certificate.inverse_bound[i] * fr - dist
    return margins
