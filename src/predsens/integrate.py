"""Fixed-step integration of conditioned fields and tracking diagnostics.

Explicit Euler and the classic fourth-order Runge-Kutta scheme only; both
are deterministic, since instability and tracking claims are asserted as
crisp boolean test outcomes rather than tuned through a step controller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conditioning
from .conditioning import Scheme, is_affine, make_conditioned_field
from .errors import (ConvergenceError, EvaluationError, SingularMatrixError,
                     StackDefinitionError)
from .model import Array, SystemStack, as_flat
from .sensitivity import steady_state_map, steady_state_solve

DEFAULT_DIVERGENCE_THRESHOLD = 1e6

#: A state beyond this max-norm counts as diverged whatever the threshold,
#: so a run ends before the stages of a step through the field could
#: overflow.
OVERFLOW_LIMIT = 1e150

#: A run reserves its whole state grid up front (only the rows it writes
#: become resident); a grid of more bytes than this is refused before the
#: first step.
MAX_STATE_BYTES = 2**30

#: An affine run steps this many rows at most before it checks their norms.
AFFINE_BLOCK_ROWS = 1024

#: Scheme evaluation failures, the wrong shape of a provider block included.
_EVALUATION_ERRORS = (SingularMatrixError, ConvergenceError, EvaluationError,
                     StackDefinitionError)


@dataclass(frozen=True)
class IntegrationSettings:
    method: str = "rk4"  # "euler" or "rk4"
    dt: float = 1e-3
    t_end: float = 1.0
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD

    def __post_init__(self):
        if self.method not in ("euler", "rk4"):
            raise ValueError(f"method must be 'euler' or 'rk4', got {self.method!r}")
        if not (0 < self.dt < np.inf and 0 < self.t_end < np.inf):
            raise ValueError(f"dt and t_end must be positive and finite, "
                             f"got {self.dt} and {self.t_end}")
        steps = self.t_end / self.dt
        if not steps < np.inf or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_end={self.t_end} is not a whole number of dt={self.dt} steps")
        if not self.divergence_threshold > 0:  # NaN fails the comparison too
            raise ValueError(f"divergence_threshold must be positive (inf allowed), "
                             f"got {self.divergence_threshold}")


@dataclass
class Trajectory:
    """Sampled states on a constant time grid.

    ``states`` has one row per sample; ``diverged`` is set when the max-norm
    passed the threshold or ``OVERFLOW_LIMIT``, or a state went non-finite,
    with ``diverged_at`` the detection time.
    """

    times: Array
    states: Array
    diverged: bool = False
    diverged_at: float | None = None

    @property
    def final_state(self) -> Array:
        return self.states[-1]


def _euler_step(f, x: Array, dt: float) -> Array:
    return x + dt * f(x)


def _rk4_step(f, x: Array, dt: float) -> Array:
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_map(f, step, dt: float, dim: int) -> tuple[Array, Array]:
    """``(P, q)`` with ``step(f, x, dt) == P @ x + q`` for an affine ``f``,
    built from ``dim + 1`` steps of ``f`` itself; a non-finite entry raises
    :class:`EvaluationError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = step(f, np.zeros(dim), dt)
        p = np.column_stack([step(f, unit, dt) - q for unit in np.eye(dim)])
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise EvaluationError(f"affine step map is non-finite at dt={dt}")
    return p, q


def integrate_ode(stack: SystemStack, scheme: Scheme, x0,
                  settings: IntegrationSettings) -> Trajectory:
    """Integrate the conditioned field from ``x0`` on a fixed grid.

    Stops early (diverged=True) once any state exceeds the divergence
    threshold or ``OVERFLOW_LIMIT`` in max-norm, or turns non-finite. Scheme
    evaluation failures propagate with the failing time attached as
    ``exc.time``: the time of the step that met them, or 0.0 for one met
    before the first step, such as a singular diagonal block or a
    non-finite value found while compiling the field or its step map.

    When the conditioned field is affine (:func:`~predsens.conditioning.is_affine`)
    one step is the affine map ``x -> P x + q``, built once from the field and
    iterated on every step of the run, up to ``AFFINE_BLOCK_ROWS`` rows at a
    time: ``P.dot`` writes each product straight into its row and ``q`` is
    added in place, the bits of ``P @ x + q``. Any other field is stepped one
    row at a time, each step from the array the previous one returned.
    Either way the new rows are written into the state array and checked
    together: the run ends at their first row past the limit, which is kept
    if finite and dropped if not, and ``diverged_at`` is that row's time.

    The state array holds the whole grid, reserved once; a grid of more than
    ``MAX_STATE_BYTES`` bytes raises ``ValueError`` before anything is
    compiled or stepped.
    """
    x = as_flat(stack, x0)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    step = _rk4_step if settings.method == "rk4" else _euler_step
    dt = settings.dt
    rows = int(round(settings.t_end / dt)) + 1
    limit = min(settings.divergence_threshold, OVERFLOW_LIMIT)
    if rows * x.nbytes > MAX_STATE_BYTES:
        raise ValueError(f"a grid of {rows:.4g} rows of {x.size} states is over "
                         f"MAX_STATE_BYTES = {MAX_STATE_BYTES} bytes")
    states = np.empty((rows, x.size))
    states[0] = x
    count = 0  # rows written; a failure before the first step is at time 0.0
    diverged_at = None
    try:
        cond = conditioning.compile_scheme(stack, scheme)  # the one compile of this run
        f = make_conditioned_field(stack, cond)
        affine = is_affine(stack, cond)
        if affine:
            p, q = _step_map(f, step, dt, x.size)
            dot = p.dot
        count = 1
        while count < rows and diverged_at is None:
            if affine:
                end = min(rows, count + AFFINE_BLOCK_ROWS)
                # rows after the one that ends a run may overflow; they are dropped
                with np.errstate(over="ignore", invalid="ignore"):
                    for prev, row in zip(states[count - 1:end - 1], states[count:end]):
                        dot(prev, out=row)
                        row += q
            else:
                end = count + 1
                x = states[count] = step(f, x, dt)
            sizes = np.abs(states[count:end]).max(axis=1)
            past = np.flatnonzero(~(sizes <= limit))  # NaN is past too
            if past.size:
                cut = count + int(past[0])
                diverged_at = cut * dt
                end = cut + 1 if sizes[past[0]] < np.inf else cut
            count = end
    except _EVALUATION_ERRORS as exc:
        exc.time = count * dt  # type: ignore[attr-defined]
        raise
    return Trajectory(times=np.arange(count) * dt,
                      states=states if count == rows else states[:count].copy(),
                      diverged=diverged_at is not None, diverged_at=diverged_at)


def manifold_error(stack: SystemStack, trajectory: Trajectory, level: int) -> Array:
    """Distance of each level >= ``level`` from its steady-state map.

    Returns an array of shape (samples, N - level); column c holds
    ``norm(x_i(t) - x_i^s(x_0(t), ..., x_{i-1}(t)))`` for i = level + c.
    On an affine stack the map of each level is built once
    (:func:`~predsens.sensitivity.steady_state_map`) and applied to every
    sample; if building it fails, its column is NaN. Otherwise each sample
    is solved on its own, warm-started from the previous sample, and a
    failed solve leaves NaN in that entry.
    """
    n = len(stack)
    if not 0 <= level < n:
        raise IndexError(f"level {level} out of range for {n} subsystems")
    states = trajectory.states
    out = np.full((states.shape[0], n - level), np.nan)
    off = stack.offsets
    if stack.constant_jacobian:
        for c, i in enumerate(range(level, n)):
            try:
                steady = steady_state_map(stack, i)
            except (SingularMatrixError, ConvergenceError):
                continue
            block = states[:, off[i]:off[i + 1]]
            out[:, c] = np.linalg.norm(block - steady(states)[:, :stack.dims[i]], axis=1)
        return out
    warm: list[Array | None] = [None] * (n - level)
    for k, x in enumerate(states):
        for c, i in enumerate(range(level, n)):
            start = x if warm[c] is None else np.concatenate([x[:off[i]], warm[c]])
            try:
                solved = steady_state_solve(stack, i, start)
            except (SingularMatrixError, ConvergenceError):
                warm[c] = None
                continue
            warm[c] = solved[off[i]:]
            out[k, c] = float(np.linalg.norm((x - solved)[off[i]:off[i + 1]]))
    return out
