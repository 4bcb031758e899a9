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
from .errors import ConvergenceError, SingularMatrixError
from .model import Array, SystemStack, as_flat
from .sensitivity import steady_state_map, steady_state_solve

DEFAULT_DIVERGENCE_THRESHOLD = 1e6

#: A state beyond this max-norm counts as diverged whatever the threshold,
#: so a run ends before the stages of a step through the field could
#: overflow.
OVERFLOW_LIMIT = 1e150

#: States are written into a preallocated block of this many rows; a full
#: block is replaced by one four times larger, capped at the whole grid, so a
#: run that stops early never reserves memory for the whole grid.
FIRST_STATE_ROWS = 4096


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
    built from ``dim + 1`` steps of ``f`` itself."""
    q = step(f, np.zeros(dim), dt)
    return np.column_stack([step(f, unit, dt) - q for unit in np.eye(dim)]), q


def integrate_ode(stack: SystemStack, scheme: Scheme, x0,
                  settings: IntegrationSettings) -> Trajectory:
    """Integrate the conditioned field from ``x0`` on a fixed grid.

    Stops early (diverged=True) once any state exceeds the divergence
    threshold or ``OVERFLOW_LIMIT`` in max-norm, or turns non-finite. Scheme
    evaluation failures propagate with the failing time attached as
    ``exc.time``; a failure found while compiling an affine field is
    reported at time 0.0.

    When the conditioned field is affine (:func:`~predsens.conditioning.is_affine`)
    one step is the affine map ``x -> P x + q``, built once from the field and
    iterated on every step of the run.
    """
    x = as_flat(stack, x0)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    try:
        cond = conditioning.compile_scheme(stack, scheme)  # the one compile of this run
        f = make_conditioned_field(stack, cond)
    except (SingularMatrixError, ConvergenceError) as exc:
        exc.time = 0.0  # type: ignore[attr-defined]
        raise
    step = _rk4_step if settings.method == "rk4" else _euler_step
    n_steps = int(round(settings.t_end / settings.dt))
    dt = settings.dt
    affine = is_affine(stack, cond)
    if affine:
        p, q = _step_map(f, step, dt, x.size)
    limit = min(settings.divergence_threshold, OVERFLOW_LIMIT)

    rows = n_steps + 1
    states = np.empty((min(rows, FIRST_STATE_ROWS), x.size))
    states[0] = x
    count = 1
    diverged = False
    diverged_at = None
    for k in range(n_steps):
        t_next = (k + 1) * dt
        if affine:
            x_new = p @ x + q
        else:
            try:
                x_new = step(f, x, dt)
            except (SingularMatrixError, ConvergenceError) as exc:
                exc.time = t_next  # type: ignore[attr-defined]
                raise
        size = np.abs(x_new).max()
        if not size < np.inf:  # NaN fails the comparison too
            diverged, diverged_at = True, t_next
            break
        x = x_new
        if count == len(states):
            grown = np.empty((min(rows, 4 * count), x.size))
            grown[:count] = states
            states = grown
        states[count] = x
        count += 1
        if size > limit:
            diverged, diverged_at = True, t_next
            break
    return Trajectory(times=np.arange(count) * dt,
                      states=states if count == len(states) else states[:count].copy(),
                      diverged=diverged, diverged_at=diverged_at)


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
    samples = states.shape[0]
    out = np.full((samples, n - level), np.nan)
    if stack.constant_jacobian:
        for c, i in enumerate(range(level, n)):
            try:
                steady = steady_state_map(stack, i)
            except (SingularMatrixError, ConvergenceError):
                continue
            block = states[:, stack.offsets[i]:stack.offsets[i + 1]]
            out[:, c] = np.linalg.norm(block - steady(states)[:, :stack.dims[i]], axis=1)
        return out
    warm: list[Array | None] = [None] * (n - level)
    for k in range(samples):
        blocks = stack.split(states[k])
        for c, i in enumerate(range(level, n)):
            guess = warm[c] if warm[c] is not None else np.concatenate(blocks[i:])
            try:
                solved = steady_state_solve(stack, i, blocks[:i], guess)
            except (SingularMatrixError, ConvergenceError):
                warm[c] = None
                continue
            warm[c] = np.concatenate(solved)
            out[k, c] = float(np.linalg.norm(blocks[i] - solved[0]))
    return out
