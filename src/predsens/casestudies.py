"""Bundled applications: cascade PI control and a converter RLC filter.

Both stacks are affine and built by :func:`~predsens.model.linear_stack` from
their blocks and offsets, so every conditioning, stability check, and
integrator in the package applies to them unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .bilevel import BilevelProblem
from .conditioning import Scheme
from .integrate import IntegrationSettings, Trajectory, integrate_ode
from .model import Array, SystemStack, linear_stack, write_csv

# Rotation by +90 degrees; multiplies a rectangular-coordinate phasor by j.
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


class FeedForward(str, Enum):
    """How the PI controllers compensate the plant drift a_i x_i.

    STATE cancels a_i x_i exactly; the conditioned loop is then stable for
    any K_P, K_I > 0. REFERENCE cancels a_i x_i^r instead, which needs
    K_P > a besides K_I > 0. NONE applies the raw PI gains (not scaled by
    1/b), which needs a - b K_P < 0 and b K_I > 0.
    """

    STATE = "state"
    REFERENCE = "reference"
    NONE = "none"


@dataclass(frozen=True)
class CascadeParams:
    """First-order plants  xdot_i = a_i x_i + b_i u_i  under PI control."""

    a1: float = 0.0
    b1: float = 1.0
    a2: float = 0.0
    b2: float = 1.0
    kp1: float = 1.0
    ki1: float = 1.0
    kp2: float = 1.0
    ki2: float = 1.0
    feedforward: FeedForward = FeedForward.STATE

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "feedforward" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.b1 == 0.0 or self.b2 == 0.0:
            raise ValueError("b1 and b2 must be nonzero (feed-forward divides by b)")
        if self.ki2 == 0.0:
            raise ValueError("ki2 must be nonzero (the inner steady state divides by it)")


def _outer_reference_law(p: CascadeParams) -> tuple[float, float, float]:
    """Coefficients of the inner reference x2_ref = p1 x1 + p2 zeta1 + p3 x1_ref."""
    if p.feedforward is FeedForward.STATE:
        return -(p.a1 + p.kp1) / p.b1, -p.ki1 / p.b1, p.kp1 / p.b1
    if p.feedforward is FeedForward.REFERENCE:
        return -p.kp1 / p.b1, -p.ki1 / p.b1, (p.kp1 - p.a1) / p.b1
    return -p.kp1, -p.ki1, p.kp1


def _inner_loop_law(p: CascadeParams) -> tuple[float, float, float]:
    """Coefficients of xdot2 = q1 x2 + q2 x2_ref + q3 zeta2."""
    if p.feedforward is FeedForward.STATE:
        return -p.kp2, p.kp2, -p.ki2
    if p.feedforward is FeedForward.REFERENCE:
        return p.a2 - p.kp2, p.kp2 - p.a2, -p.ki2
    return p.a2 - p.b2 * p.kp2, p.b2 * p.kp2, -p.b2 * p.ki2


@dataclass
class CascadeMatrices:
    """Closed-loop matrices in the state order (x1, zeta1, x2, zeta2).

    ``A`` is the plain closed loop, ``T A`` the sensitivity-conditioned
    one, and ``A_tilde`` the similarity image of T A with the two per-loop
    blocks on its diagonal (PI companion blocks under STATE feed-forward).
    ``s_row`` is the sensitivity of the inner steady state to (x1, zeta1)."""

    A: Array
    T: Array
    B: Array
    A_tilde: Array
    s_row: Array


def cascade_matrices(params: CascadeParams) -> CascadeMatrices:
    p1, p2, p3 = _outer_reference_law(params)
    q1, q2, q3 = _inner_loop_law(params)
    a = np.array([
        [params.a1, 0.0, params.b1, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [q2 * p1, q2 * p2, q1, q3],
        [-p1, -p2, 1.0, 0.0],
    ])
    b = np.array([0.0, -1.0, q2 * p3, -p3])
    s_row = np.array([p1, p2])
    # inner steady state: x2 = x2_ref, zeta2 = -(q1 + q2) x2_ref / q3
    s_block = np.vstack([s_row, -(q1 + q2) / q3 * s_row])
    t = np.eye(4)
    t[2:, :2] = s_block
    t_inv = np.eye(4)
    t_inv[2:, :2] = -s_block
    a_tilde = t_inv @ (t @ a) @ t
    return CascadeMatrices(A=a, T=t, B=b, A_tilde=a_tilde, s_row=s_row)


def cascade_stack(params: CascadeParams, x1_ref: float) -> SystemStack:
    """Two-level affine stack: slow block (x1, zeta1), fast block (x2, zeta2).

    The blocks are those of :func:`cascade_matrices`' ``A`` and the offsets
    ``B * x1_ref``, built by :func:`~predsens.model.linear_stack`."""
    mats = cascade_matrices(params)
    a, b = mats.A, mats.B
    return linear_stack([2, 2], [[a[:2, :2], a[:2, 2:]], [a[2:, :2], a[2:, 2:]]],
                        [b[:2] * x1_ref, b[2:] * x1_ref])


def cascade_equilibrium(params: CascadeParams, x1_ref: float) -> Array:
    """x1 at its reference and x2 holding the plant; the integral states
    absorb whatever drift the feed-forward variant does not cancel."""
    p1, p2, p3 = _outer_reference_law(params)
    q1, q2, q3 = _inner_loop_law(params)
    x2 = -params.a1 * x1_ref / params.b1
    zeta1 = (x2 - (p1 + p3) * x1_ref) / p2
    zeta2 = -(q1 + q2) * x2 / q3
    return np.array([x1_ref, zeta1, x2, zeta2])


@dataclass(frozen=True)
class RlcParams:
    """Converter LC-filter plant in rotating-frame rectangular coordinates.

    The modulated voltage sets the current i, cancelling R and L, which are
    therefore no parameters; i regulates the capacitor voltage v toward
    ``v_ref``. Gains follow the cascaded PI layout, outer loop (k_pv, k_iv),
    inner loop (k_pi, k_ii). Values default to the bundled simulation ones."""

    c: float = 300e-6
    omega: float = 2.0 * math.pi * 50.0
    v_ref: tuple[float, float] = (120.0, 0.0)
    k_pv: float = 30.0
    k_iv: float = 0.3
    k_pi: float = 50.0
    k_ii: float = 100.0

    def __post_init__(self):
        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")


def rlc_stack(params: RlcParams) -> SystemStack:
    """Slow block (v, zeta_v), fast block (i, zeta_i), built by
    :func:`~predsens.model.linear_stack`.

    The inner current reference is
    i_ref = rot90 * omega * C * v + C * (-k_pv (v - v_ref) - k_iv zeta_v),
    and the modulated voltage cancels the R, L coupling so the current loop
    reduces to its PI dynamics:
    dv = i / C - rot90 * omega * v, dzeta_v = v - v_ref,
    di = -k_pi (i - i_ref) - k_ii zeta_i, dzeta_i = i - i_ref.
    The offsets are these derivatives at the zero state.
    """
    p = params
    vref = np.asarray(p.v_ref, dtype=float)
    jw = ROT90 * p.omega
    i2 = np.eye(2)
    z2 = np.zeros((2, 2))

    # d(i_ref)/dv, d(i_ref)/dzeta_v, and i_ref at the zero state
    diref_dv = p.c * (jw - p.k_pv * i2)
    diref_dz = -p.c * p.k_iv * i2
    r0 = p.c * (p.k_pv * vref)

    slow_blocks = [np.block([[-jw, z2], [i2, z2]]),
                   np.block([[i2 / p.c, z2], [z2, z2]])]
    fast_blocks = [np.block([[p.k_pi * diref_dv, p.k_pi * diref_dz],
                             [-diref_dv, -diref_dz]]),
                   np.block([[-p.k_pi * i2, -p.k_ii * i2], [i2, z2]])]
    offsets = [np.concatenate([np.zeros(2), -vref]),
               np.concatenate([p.k_pi * r0, -r0])]
    return linear_stack([4, 4], [slow_blocks, fast_blocks], offsets)


def rlc_equilibrium(params: RlcParams) -> Array:
    vref = np.asarray(params.v_ref, dtype=float)
    i_eq = params.c * params.omega * (ROT90 @ vref)
    return np.concatenate([vref, np.zeros(2), i_eq, np.zeros(2)])


V_BASE = 120.0  # volts per unit
DIVERGENCE_PU = 10.0
SETTLE_BAND_PU = 0.01  # |v| has settled once it stays within 1 % of 1 p.u.


@dataclass
class BlackStartMetrics:
    """Per-unit voltage trace and the summary numbers read off it."""

    voltage_magnitude_pu: Array
    frequency_hz: Array
    overshoot_pu: float
    settling_time_s: float | None
    stable: bool
    diverged_at: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "stable": self.stable,
            "overshoot_pu": self.overshoot_pu,
            "settling_time_s": self.settling_time_s,
            "diverged_at": self.diverged_at,
            "final_voltage_magnitude_pu": float(self.voltage_magnitude_pu[-1]),
            "final_frequency_hz": float(self.frequency_hz[-1]),
        }


def default_black_start_settings() -> IntegrationSettings:
    return IntegrationSettings(method="rk4", dt=1e-5, t_end=0.2)


def black_start_metrics(params: RlcParams, trajectory: Trajectory) -> BlackStartMetrics:
    """Magnitude, frequency, overshoot, and settling read from a trajectory.

    The instantaneous frequency is omega / 2 pi plus the central-difference
    rate of the unwrapped voltage angle. The run counts as stable only when
    nothing diverged and |v| never left ``DIVERGENCE_PU``.
    """
    t = trajectory.times
    v = trajectory.states[:, 0:2]
    mag_pu = np.linalg.norm(v, axis=1) / V_BASE
    angle = np.unwrap(np.arctan2(v[:, 1], v[:, 0]))
    freq = np.full_like(mag_pu, params.omega / (2.0 * math.pi))
    if t.size >= 3:
        freq[1:-1] += (angle[2:] - angle[:-2]) / (t[2:] - t[:-2]) / (2.0 * math.pi)
        freq[0] = freq[1]
        freq[-1] = freq[-2]

    diverged_at = trajectory.diverged_at
    over = np.flatnonzero(mag_pu > DIVERGENCE_PU)
    if over.size:
        first = float(t[over[0]])
        diverged_at = first if diverged_at is None else min(diverged_at, first)
    stable = not trajectory.diverged and over.size == 0

    overshoot = float(np.max(mag_pu)) - 1.0
    settling = None
    if stable:
        outside = np.flatnonzero(np.abs(mag_pu - 1.0) > SETTLE_BAND_PU)
        if outside.size == 0:
            settling = float(t[0])
        elif outside[-1] + 1 < t.size:
            settling = float(t[outside[-1] + 1])
    return BlackStartMetrics(voltage_magnitude_pu=mag_pu, frequency_hz=freq,
                             overshoot_pu=overshoot, settling_time_s=settling,
                             stable=stable, diverged_at=diverged_at)


def run_black_start(params: RlcParams, scheme: Scheme, settings: IntegrationSettings):
    """Zero-state start toward the constant voltage reference.

    Returns the trajectory plus the metrics derived from its v block.
    """
    stack = rlc_stack(params)
    x0 = np.zeros(stack.total_dim)
    trajectory = integrate_ode(stack, scheme, x0, settings)
    return trajectory, black_start_metrics(params, trajectory)


BLACK_START_CSV_HEADER = ("t,v_re,v_im,zeta_v_re,zeta_v_im,"
                          "i_re,i_im,zeta_i_re,zeta_i_im,v_mag_pu,freq_hz")


def write_black_start_csv(path, trajectory: Trajectory, metrics: BlackStartMetrics) -> None:
    write_csv(path, BLACK_START_CSV_HEADER,
              [trajectory.times, trajectory.states,
               metrics.voltage_magnitude_pu, metrics.frequency_hz])


def bilevel_example_problem() -> BilevelProblem:
    """Scalar example with a strict local solution at the origin.

    Upper objective -x1^2/2 + x2^2; lower objective
    (x2^2/4 - x1 x2/2) exp(-x2^2/2), whose Gaussian envelope makes the
    lower Hessian decay away from the axis.
    """

    def upper(x1, x2):
        return float(-0.5 * x1[0] ** 2 + x2[0] ** 2)

    def lower(x1, x2):
        return float((0.25 * x2[0] ** 2 - 0.5 * x1[0] * x2[0]) * math.exp(-0.5 * x2[0] ** 2))

    def grad_upper_x1(x1, x2):
        return np.array([-x1[0]])

    def grad_upper_x2(x1, x2):
        return np.array([2.0 * x2[0]])

    def _h(x1, x2):
        # cubic factor of the lower gradient before the Gaussian envelope
        return 0.5 * (x2 - x1) - 0.25 * x2 ** 3 + 0.5 * x1 * x2 ** 2

    def grad_lower_x2(x1, x2):
        return np.array([math.exp(-0.5 * x2[0] ** 2) * _h(x1[0], x2[0])])

    def hess_lower_x2x2(x1, x2):
        a, b = x1[0], x2[0]
        hprime = 0.5 - 0.75 * b ** 2 + a * b
        return np.array([[math.exp(-0.5 * b ** 2) * (hprime - b * _h(a, b))]])

    def hess_lower_x2x1(x1, x2):
        b = x2[0]
        return np.array([[math.exp(-0.5 * b ** 2) * 0.5 * (b ** 2 - 1.0)]])

    return BilevelProblem(upper=upper, lower=lower,
                          grad_upper_x1=grad_upper_x1, grad_upper_x2=grad_upper_x2,
                          grad_lower_x2=grad_lower_x2,
                          hess_lower_x2x2=hess_lower_x2x2,
                          hess_lower_x2x1=hess_lower_x2x1,
                          n1=1, n2=1)
