"""Fixed-step integration, divergence detection, and manifold diagnostics."""

import dataclasses
import warnings

import numpy as np
import pytest

import predsens as ps
from predsens import conditioning, integrate, registry


def _per_call(stack):
    """The same stack without its ``constant_jacobian`` declarations, so
    every step and every steady state is computed from the fields afresh."""
    return ps.SystemStack([dataclasses.replace(s, constant_jacobian=False)
                           for s in stack.subsystems])


def _random_affine_stacks(seed, count):
    """Affine stacks with N in {2, 3}, block dims 1..3 and constant terms;
    diagonal blocks shifted by -2 I."""
    rng = np.random.default_rng(seed)
    stacks = []
    for _ in range(count):
        n = int(rng.integers(2, 4))
        dims = [int(rng.integers(1, 4)) for _ in range(n)]
        blocks = [[rng.normal(size=(dims[i], dims[j]))
                   - (2.0 * np.eye(dims[i]) if i == j else 0.0)
                   for j in range(n)] for i in range(n)]
        stacks.append(ps.linear_stack(dims, blocks, [rng.normal(size=d) for d in dims]))
    return stacks


def _schemes(n):
    return [ps.Plain(), ps.SingularPerturbation([1.0, 0.5, 0.25][:n]),
            ps.PredictiveSensitivity(), ps.Preconditioned([1.0, 2.0, 0.5][:n])]


def test_scalar_decay_rk4_matches_exponential():
    stack = ps.linear_stack([1], [[[[-1.0]]]])
    traj = ps.integrate_ode(stack, ps.Plain(), [1.0],
                            ps.IntegrationSettings("rk4", 0.01, 1.0))
    assert abs(traj.final_state[0] - np.exp(-1.0)) <= 1e-8


def test_equilibrium_start_stays_constant():
    stack = registry.get_stack("cascade")
    eq = registry.equilibrium("cascade")
    traj = ps.integrate_ode(stack, ps.PredictiveSensitivity(), eq,
                            ps.IntegrationSettings("rk4", 1e-3, 0.5))
    assert not traj.diverged
    assert np.max(np.abs(traj.states - eq)) <= 1e-9


def test_tracking_follows_analytic_solution(tracking_stack):
    """Conditioned fast level rides the slow decay: both states equal e^{-t}."""
    traj = ps.integrate_ode(tracking_stack, ps.PredictiveSensitivity(), [1.0, 1.0],
                            ps.IntegrationSettings("rk4", 1e-3, 2.0))
    exact = np.exp(-traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-9
    assert np.max(np.abs(traj.states[:, 1] - exact)) <= 1e-9
    err = ps.manifold_error(tracking_stack, traj, 1)
    assert np.nanmax(err) <= 1e-9


def test_manifold_error_plain_lag_matches_analytic(tracking_stack):
    """Without conditioning the fast level lags its steady-state map; the gap
    from (1, 0) is e^{-t} |t - 1|: unit at the start, gone by t = 1, then a
    small decaying hump."""
    traj = ps.integrate_ode(tracking_stack, ps.Plain(), [1.0, 0.0],
                            ps.IntegrationSettings("rk4", 1e-3, 6.0))
    err = ps.manifold_error(tracking_stack, traj, 1)[:, 0]
    analytic = np.exp(-traj.times) * np.abs(traj.times - 1.0)
    assert abs(err[0] - 1.0) <= 1e-12
    assert np.max(np.abs(err - analytic)) <= 1e-6
    first_second = err[: int(1.0 / 1e-3)]
    assert np.all(np.diff(first_second) < 0)


def test_manifold_invariance_cascade_from_fast_manifold_start():
    from predsens import casestudies as cs
    stack = cs.cascade_stack(cs.CascadeParams(), x1_ref=1.0)
    start = ps.steady_state_solve(stack, 1, [0.5, -0.2, 0.0, 0.0])
    traj = ps.integrate_ode(stack, ps.PredictiveSensitivity(), start,
                            ps.IntegrationSettings("rk4", 1e-3, 2.0))
    err = ps.manifold_error(stack, traj, 1)
    assert np.nanmax(err) <= 1e-9


def test_manifold_invariance_fourth_order_on_nonlinear_stack():
    """On the nonlinear gradient-flow stack the conditioned dynamics leave
    the steady-state manifold only through integration error, which shrinks
    at the RK4 rate (>= 15x per two halvings, down to rounding)."""
    from predsens import casestudies as cs
    from predsens.bilevel import as_system_stack, lower_solve

    problem = cs.bilevel_example_problem()
    stack = as_system_stack(problem)
    x1 = 0.3
    x0 = np.array([x1, lower_solve(problem, [x1], [x1])[0]])
    errs = []
    for dt in (8e-3, 4e-3, 2e-3):
        traj = ps.integrate_ode(stack, ps.PredictiveSensitivity(), x0,
                                ps.IntegrationSettings("rk4", dt, 1.0))
        errs.append(float(np.nanmax(ps.manifold_error(stack, traj, 1))))
    assert errs[0] <= 1e-9
    assert errs[2] * 15.0 <= errs[0] + 1e-14


def test_manifold_error_zero_at_global_equilibrium():
    stack = registry.get_stack("linear3")
    traj = ps.integrate_ode(stack, ps.Plain(), np.zeros(3),
                            ps.IntegrationSettings("rk4", 0.01, 0.1))
    err = ps.manifold_error(stack, traj, 0)
    assert np.nanmax(err) <= 1e-12


def test_rk4_and_euler_orders_of_accuracy():
    stack = ps.linear_stack([1], [[[[-1.0]]]])
    exact = np.exp(-1.0)

    def global_error(method, dt):
        traj = ps.integrate_ode(stack, ps.Plain(), [1.0],
                                ps.IntegrationSettings(method, dt, 1.0))
        return abs(traj.final_state[0] - exact)

    rk4 = [global_error("rk4", dt) for dt in (0.05, 0.025, 0.0125)]
    for a, b in zip(rk4, rk4[1:]):
        assert 13.0 <= a / b <= 19.0
    euler = [global_error("euler", dt) for dt in (0.01, 0.005, 0.0025)]
    for a, b in zip(euler, euler[1:]):
        assert 1.9 <= a / b <= 2.1


def test_divergence_detection_threshold(r2_stack):
    """The slow-fast counterexample under the diagonal conditioning blows up
    past the stability boundary and decays below it."""
    settings = ps.IntegrationSettings("rk4", 0.01, 240.0)
    bad = ps.integrate_ode(r2_stack, ps.SingularPerturbation([1.0, 0.6]),
                           [1.0, 0.0], settings)
    assert bad.diverged and bad.diverged_at is not None
    good = ps.integrate_ode(r2_stack, ps.SingularPerturbation([1.0, 0.4]),
                            [1.0, 0.0], settings)
    assert not good.diverged
    assert np.linalg.norm(good.final_state) < 1e-2


def test_settings_validation():
    with pytest.raises(ValueError):
        ps.IntegrationSettings("rk5", 0.1, 1.0)
    with pytest.raises(ValueError):
        ps.IntegrationSettings("rk4", 0.0, 1.0)
    with pytest.raises(ValueError):
        ps.IntegrationSettings("rk4", 2.0, 1.0)
    # non-finite dt or t_end, and a step count that overflows
    for dt, t_end in ((np.nan, 1.0), (np.inf, 1.0), (0.1, np.inf), (0.1, np.nan),
                      (1e-300, 1e300)):
        with pytest.raises(ValueError):
            ps.IntegrationSettings("rk4", dt, t_end)
    with pytest.raises(ValueError):
        ps.IntegrationSettings("rk4", 0.1, 1.0, divergence_threshold=np.nan)
    ps.IntegrationSettings("rk4", 0.1, 1.0, divergence_threshold=np.inf)
    with pytest.raises(ValueError):
        ps.integrate_ode(registry.get_stack("r2"), ps.Plain(), [np.nan, 0.0],
                         ps.IntegrationSettings("rk4", 0.1, 1.0))


def test_settings_reject_a_grid_that_misses_t_end():
    with pytest.raises(ValueError, match="whole number"):
        ps.IntegrationSettings("rk4", 0.4, 1.0)
    with pytest.raises(ValueError, match="whole number"):
        ps.IntegrationSettings("euler", 0.3, 1.0)
    # grids that are whole up to rounding are accepted and reach t_end
    for dt, t_end in ((1e-5, 0.2), (1e-4, 3.5), (0.04, 10.0), (0.1, 0.3)):
        ps.IntegrationSettings("rk4", dt, t_end)
    traj = ps.integrate_ode(registry.get_stack("r2"), ps.Plain(), [1.0, 0.0],
                            ps.IntegrationSettings("rk4", 0.1, 0.3))
    assert traj.times.size == 4 and abs(traj.times[-1] - 0.3) <= 1e-12


def test_noisy_provider_runs_repeat(r2_stack):
    """One scheme object integrated twice gives the same trajectory: the
    noise depends on the state only, not on how often it was drawn."""
    scheme = ps.ApproximateSensitivity(ps.noisy_sensitivity_provider(0.1, seed=7))
    settings = ps.IntegrationSettings("rk4", 0.01, 1.0)
    a = ps.integrate_ode(r2_stack, scheme, [1.0, -0.5], settings)
    b = ps.integrate_ode(r2_stack, scheme, [1.0, -0.5], settings)
    assert np.array_equal(a.states, b.states)


def test_scheme_failure_carries_failing_time():
    # fast diagonal block degenerates once the constant field drags x2 low
    def jac_fast(x):
        d = x[1] if x[1] > 0.01 else 0.0
        return [np.array([[0.0]]), np.array([[d]])]

    stack = ps.SystemStack([
        ps.Subsystem(1, lambda x: np.array([-x[0]]),
                     lambda x: [np.array([[-1.0]]), np.array([[0.0]])]),
        ps.Subsystem(1, lambda x: np.array([-1.0]), jac_fast),
    ])
    with pytest.raises(ps.SingularMatrixError) as err:
        ps.integrate_ode(stack, ps.PredictiveSensitivity(), [1.0, 0.05],
                         ps.IntegrationSettings("euler", 0.01, 2.0))
    assert getattr(err.value, "time", None) is not None


def test_nan_diagonal_block_raises_singular_with_level_and_time():
    # the analytic fast diagonal block turns NaN once x2 falls below 0.01
    def jac_fast(x):
        d = x[1] if x[1] > 0.01 else np.nan
        return [np.array([[0.0]]), np.array([[d]])]

    stack = ps.SystemStack([
        ps.Subsystem(1, lambda x: np.array([-x[0]]),
                     lambda x: [np.array([[-1.0]]), np.array([[0.0]])]),
        ps.Subsystem(1, lambda x: np.array([-1.0]), jac_fast),
    ])
    with pytest.raises(ps.SingularMatrixError) as err:
        ps.integrate_ode(stack, ps.PredictiveSensitivity(), [1.0, 0.05],
                         ps.IntegrationSettings("euler", 0.01, 2.0))
    assert err.value.level == 1
    assert np.isnan(err.value.cond)
    assert 0.0 < err.value.time <= 0.05


def test_nonfinite_field_mid_run_carries_its_time():
    # the slow state grows at rate 1 (exactly, in steps of 1/16); the fast
    # field turns NaN once it passes 0.5, on step 10, from 0.5625
    stack = ps.SystemStack([
        ps.Subsystem(1, lambda x: np.array([1.0])),
        ps.Subsystem(1, lambda x: np.array([np.nan if x[0] > 0.5 else -x[1]])),
    ])
    with pytest.raises(ps.EvaluationError) as err:
        ps.integrate_ode(stack, ps.Plain(), [0.0, 0.0], ps.IntegrationSettings("euler", 0.0625, 1.0))
    assert err.value.time == 10 * 0.0625


@pytest.mark.parametrize("rows", [[[None]], [[], []], [[], None], [[], 0.5], None],
                         ids=["missing-row", "short-row", "none-row", "scalar-row", "none-result"])
def test_provider_with_too_few_blocks_carries_its_time(r2_stack, rows):
    """A provider error is a scheme evaluation failure like any other: it
    names its level and carries the time of the step that met it."""
    scheme = ps.ApproximateSensitivity(lambda _stack, _x: rows)
    with pytest.raises(ps.StackDefinitionError) as err:
        ps.integrate_ode(r2_stack, scheme, [1.0, 0.5], ps.IntegrationSettings("euler", 0.125, 1.0))
    assert err.value.index == 1
    assert err.value.time == 0.125


_SINGULAR = [[[[-1.0]], [[1.0]]], [[[1.0]], [[0.0]]]]
_OVERFLOWING = [[[[1e200]], [[0.0]]], [[[0.0]], [[-1.0]]]]


@pytest.mark.parametrize("blocks, scheme, method, dt, error, level", [
    (_SINGULAR, ps.PredictiveSensitivity(), "rk4", 0.01, ps.SingularMatrixError, 1),
    (_OVERFLOWING, ps.Plain(), "rk4", 0.01, ps.EvaluationError, None),
    (_OVERFLOWING, ps.PredictiveSensitivity(), "rk4", 0.01, ps.EvaluationError, None),
    (_OVERFLOWING, ps.Plain(), "euler", 1e110, ps.EvaluationError, None),
], ids=["singular", "overflow-plain", "overflow-predsens", "overflow-step-map"])
def test_singular_block_found_while_compiling_is_reported_at_time_zero(
        blocks, scheme, method, dt, error, level):
    """Failures met before the first step are reported at time 0.0, with no
    warning: a fast diagonal block that is exactly zero, an affine field that
    overflows in an RK4 stage while the step map is built, and a step map
    that overflows from finite field values (an Euler step of 1e110)."""
    stack = ps.linear_stack([1, 1], blocks)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error) as err:
            ps.integrate_ode(stack, scheme, [1.0, 1.0], ps.IntegrationSettings(method, dt, 100 * dt))
    assert getattr(err.value, "level", None) == level
    assert err.value.time == 0.0


@pytest.mark.parametrize("scheme, x0", [
    (ps.Plain(), [1e200, 0.0]),
    (ps.SingularPerturbation([1.0, 1e-300]), [2.0, 2.0])], ids=["huge-start", "tiny-eps"])
def test_per_call_run_that_leaves_the_float_range_raises_without_a_warning(scheme, x0):
    """A per-call run is under the run's ``np.errstate`` too: an RK4 stage
    that overflows on ``bilevel-example`` ends the run with the failing step's
    time, and numpy warns of nothing."""
    stack = registry.get_stack("bilevel-example")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ps.SingularMatrixError) as err:
            ps.integrate_ode(stack, scheme, x0, ps.IntegrationSettings("rk4", 1e-3, 0.01))
    assert err.value.time == 1e-3


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_field_writing_into_its_argument_leaves_stored_rows(method):
    """A per-call run steps from the array the previous step returned, so a
    field that overwrites its argument cannot rewrite the rows already stored."""
    def scribbling(x):
        out = -x.copy()
        x[:] = 7.0
        return out

    stack = ps.SystemStack([ps.Subsystem(1, scribbling)])
    step = integrate._rk4_step if method == "rk4" else integrate._euler_step
    x, rows = np.array([1.0]), [[1.0]]
    for _ in range(8):
        x = step(lambda y: ps.conditioned_field(stack, ps.Plain(), y), x, 0.125)
        rows.append(x.copy())
    traj = ps.integrate_ode(stack, ps.Plain(), [1.0], ps.IntegrationSettings(method, 0.125, 1.0))
    assert np.array_equal(traj.states, rows)


def test_nonaffine_run_validates_its_scheme_once(monkeypatch):
    """The per-call field reuses the record compiled when the run starts."""
    stack = registry.get_stack("bilevel-example")
    scheme = ps.Preconditioned([np.eye(1), 2.0 * np.eye(1)])
    compiled = []
    original = conditioning.compile_scheme

    def counting(stack, scheme):
        if not isinstance(scheme, conditioning.Conditioner):
            compiled.append(scheme)
        return original(stack, scheme)

    monkeypatch.setattr(conditioning, "compile_scheme", counting)
    traj = ps.integrate_ode(stack, scheme, [0.4, 0.4],
                            ps.IntegrationSettings("rk4", 0.04, 0.2))
    assert traj.times.size == 6
    assert len(compiled) == 1


def test_manifold_error_marks_unsolvable_samples_nan():
    stack = ps.SystemStack([
        ps.Subsystem(1, lambda x: np.array([-x[0]])),
        ps.Subsystem(1, lambda x: np.array([1.0 + x[1] ** 2])),  # rootless
    ])
    traj = ps.integrate_ode(stack, ps.Plain(), [1.0, 0.0],
                            ps.IntegrationSettings("euler", 0.1, 0.3))
    err = ps.manifold_error(stack, traj, 1)
    assert np.all(np.isnan(err))


def test_grid_over_the_byte_cap_is_refused_before_any_step(monkeypatch):
    """A grid of more than ``MAX_STATE_BYTES`` bytes raises ``ValueError``
    before the field is called; a grid of exactly the cap runs."""
    monkeypatch.setattr(integrate, "MAX_STATE_BYTES", 320)  # 20 rows of 2 states
    calls = []

    def slow(x):
        calls.append(x)
        return np.array([-x[0]])

    stack = ps.SystemStack([ps.Subsystem(1, slow),
                            ps.Subsystem(1, lambda x: np.array([x[0] - x[1]]))])
    with pytest.raises(ValueError, match="a grid of 21 rows of 2 states is over MAX_STATE_BYTES"):
        ps.integrate_ode(stack, ps.Plain(), [1.0, 0.0], ps.IntegrationSettings("euler", 0.1, 2.0))
    assert calls == []
    traj = ps.integrate_ode(stack, ps.Plain(), [1.0, 0.0], ps.IntegrationSettings("euler", 0.1, 1.9))
    assert traj.states.shape == (20, 2) and len(calls) == 19


def test_affine_step_map_matches_per_call_steps():
    """On affine stacks one step is the map x -> P x + q; runs through it
    match runs that step through the field, in divergence, time grid and
    states (1e-10 of the state scale)."""
    # slow level grows like e^{t/2}: crosses the threshold 10 near t = 4.6
    unstable = ps.linear_stack([1, 1], [[[[0.5]], [[0.0]]], [[[1.0]], [[-1.0]]]])
    diverged = 0
    for stack in _random_affine_stacks(71, 5) + [unstable]:
        x0 = np.linspace(-1.0, 1.0, stack.total_dim)
        for scheme in _schemes(len(stack)):
            for method in ("euler", "rk4"):
                settings = ps.IntegrationSettings(method, 0.05, 6.0, divergence_threshold=10.0)
                fast = ps.integrate_ode(stack, scheme, x0, settings)
                ref = ps.integrate_ode(_per_call(stack), scheme, x0, settings)
                assert (fast.diverged, fast.diverged_at) == (ref.diverged, ref.diverged_at)
                assert np.array_equal(fast.times, ref.times)
                assert np.array_equal(fast.times, [k * 0.05 for k in range(fast.times.size)])
                assert fast.states.shape == ref.states.shape
                scale = max(1.0, float(np.max(np.abs(ref.states))))
                assert np.max(np.abs(fast.states - ref.states)) <= 1e-10 * scale
                diverged += ref.diverged
    assert diverged >= 8


def test_overflowing_affine_run_ends_as_per_call_run(r2_stack):
    """Without a threshold the unstable counterexample grows until it passes
    ``OVERFLOW_LIMIT``, before any step could overflow; the run ends there
    (diverged, at the same time) whether it steps through the map or the
    field."""
    settings = ps.IntegrationSettings("rk4", 0.5, 20000.0, divergence_threshold=np.inf)
    fast = ps.integrate_ode(r2_stack, ps.Plain(), [1.0, 0.0], settings)
    ref = ps.integrate_ode(_per_call(r2_stack), ps.Plain(), [1.0, 0.0], settings)
    assert ref.diverged and ref.diverged_at < 20000.0
    assert integrate.OVERFLOW_LIMIT < np.abs(ref.final_state).max() < np.inf
    assert (fast.diverged, fast.diverged_at) == (ref.diverged, ref.diverged_at)
    assert fast.states.shape == ref.states.shape


def test_affine_manifold_error_matches_per_sample_solves():
    """The once-built steady-state maps give the per-sample Newton values
    (1e-10) and the same NaN pattern; the third stack's fastest block is
    zero, so its last level has no steady state."""
    singular_tail = ps.linear_stack(
        [1, 2, 1],
        [[[[-1.0]], [[0.5, 0.0]], [[0.0]]],
         [[[1.0], [0.0]], [[-2.0, 1.0], [0.0, -3.0]], [[0.0], [1.0]]],
         [[[1.0]], [[0.0, 1.0]], [[0.0]]]],
        [[0.0], [0.1, -0.2], [0.3]])
    for stack in _random_affine_stacks(72, 2) + [singular_tail]:
        x0 = np.linspace(-1.0, 1.0, stack.total_dim)
        traj = ps.integrate_ode(stack, ps.Plain(), x0, ps.IntegrationSettings("rk4", 0.05, 2.0))
        fast = ps.manifold_error(stack, traj, 0)
        ref = ps.manifold_error(_per_call(stack), traj, 0)
        assert np.array_equal(np.isnan(fast), np.isnan(ref))
        both = ~np.isnan(ref)
        assert np.max(np.abs(fast[both] - ref[both])) <= 1e-10
    assert np.all(np.isnan(fast[:, 2])) and not np.any(np.isnan(fast[:, :2]))
