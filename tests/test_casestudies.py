"""Cascade PI matrices and stack, the converter filter stack, black-start
metrics, and the bundled bilevel example."""

import dataclasses
import json
import math

import numpy as np
import pytest

import predsens as ps
from predsens import casestudies as cs


UNIT = cs.CascadeParams()  # a=0, b=1, every gain 1


def test_cascade_matrices_unit_gains():
    mats = cs.cascade_matrices(UNIT)
    assert np.allclose(mats.s_row, [-1.0, -1.0], atol=0)
    assert np.allclose(mats.A[2], [-1.0, -1.0, -1.0, -1.0], atol=0)
    assert np.allclose(mats.A[0], [0.0, 0.0, 1.0, 0.0], atol=0)
    assert np.allclose(mats.B, [0.0, -1.0, 1.0, -1.0], atol=0)
    # loop without the feed-forward conditioning is unstable
    assert np.max(ps.eigenvalues(mats.A).real) > 1e-6


def test_cascade_conditioned_matrix_is_companion_pair():
    mats = cs.cascade_matrices(UNIT)
    # A_tilde is block triangular with the two PI companion blocks
    assert np.allclose(mats.A_tilde[:2, :2], [[-1.0, -1.0], [1.0, 0.0]], atol=1e-12)
    assert np.allclose(mats.A_tilde[2:, 2:], [[-1.0, -1.0], [1.0, 0.0]], atol=1e-12)
    assert np.max(np.abs(mats.A_tilde[2:, :2])) <= 1e-12
    expected = [-0.5 + math.sqrt(3) / 2 * 1j, -0.5 - math.sqrt(3) / 2 * 1j] * 2
    assert ps.match_eigenvalues(ps.eigenvalues(mats.A_tilde), expected) <= 1e-9


def test_cascade_zero_integral_gain_drops_sensitivity_entry():
    mats = cs.cascade_matrices(cs.CascadeParams(ki1=0.0))
    assert mats.s_row[1] == 0.0


def test_cascade_params_validation():
    with pytest.raises(ValueError):
        cs.CascadeParams(b1=0.0)
    with pytest.raises(ValueError, match="ki2 must be nonzero"):
        cs.CascadeParams(ki2=0.0)
    for name in ("a1", "b2", "kp2", "ki1"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
                cs.CascadeParams(**{name: value})


def test_cascade_similarity_for_random_gains():
    """eig(T A) equals eig(A_tilde) within 1e-8 for random positive gains."""
    rng = np.random.default_rng(21)
    for _ in range(50):
        kp1, ki1, kp2, ki2 = rng.uniform(0.2, 5.0, 4)
        b1 = rng.uniform(0.5, 2.0)
        mats = cs.cascade_matrices(cs.CascadeParams(
            a1=rng.uniform(-1, 1), b1=b1, kp1=kp1, ki1=ki1, kp2=kp2, ki2=ki2))
        gap = ps.match_eigenvalues(ps.eigenvalues(mats.T @ mats.A),
                                   ps.eigenvalues(mats.A_tilde))
        assert gap <= 1e-8


def test_cascade_stack_sensitivity_matches_closed_form():
    rng = np.random.default_rng(22)
    for _ in range(50):
        params = cs.CascadeParams(
            a1=rng.uniform(-1, 1), b1=rng.uniform(0.5, 2.0),
            kp1=rng.uniform(0.2, 5), ki1=rng.uniform(0.2, 5),
            kp2=rng.uniform(0.2, 5), ki2=rng.uniform(0.2, 5))
        stack = cs.cascade_stack(params, x1_ref=rng.normal())
        table = ps.total_derivative_table(stack, rng.normal(size=4))
        expected = np.vstack([cs.cascade_matrices(params).s_row, np.zeros(2)])
        assert np.allclose(table.sens[1][0], expected, atol=1e-12)


def test_cascade_stack_unit_gain_sensitivity():
    stack = cs.cascade_stack(UNIT, x1_ref=1.0)
    table = ps.total_derivative_table(stack, np.zeros(4))
    assert np.allclose(table.sens[1][0], [[-1.0, -1.0], [0.0, 0.0]], atol=0)


def test_cascade_equilibrium_holds():
    params = cs.CascadeParams(a1=0.5, b1=2.0)
    stack = cs.cascade_stack(params, x1_ref=1.0)
    eq = cs.cascade_equilibrium(params, 1.0)
    assert np.allclose(eq, [1.0, 0.0, -0.25, 0.0], atol=0)
    assert np.linalg.norm(stack.field(eq)) <= 1e-14


@pytest.mark.parametrize("inner", [(1.0, 1.0), (2.2, 3.1)])
def test_cascade_grid_of_positive_gains_is_stable(inner):
    """Conditioned loop is exponentially stable across a 5 x 5 grid of outer
    gains for both an equal-gain inner loop (repeated spectra) and a
    detuned one."""
    for kp in np.linspace(0.5, 4.0, 5):
        for ki in np.linspace(0.5, 4.0, 5):
            params = cs.CascadeParams(kp1=kp, ki1=ki, kp2=inner[0], ki2=inner[1])
            stack = cs.cascade_stack(params, x1_ref=1.0)
            report = ps.classify_local_stability(
                stack, ps.PredictiveSensitivity(),
                cs.cascade_equilibrium(params, 1.0))
            assert report.verdict == ps.Verdict.EXPONENTIALLY_STABLE


def test_cascade_feedforward_variants():
    """Drift compensation via the state (default), via the reference, or not
    at all. The closed-form equilibrium and sensitivity block track the
    variant, and the conditioned loop's stability boundary moves exactly as
    the variant dictates."""
    for ff in cs.FeedForward:
        params = cs.CascadeParams(a1=0.7, b1=1.3, a2=-0.4, b2=0.8, kp1=2.0,
                                  ki1=1.5, kp2=3.0, ki2=2.5, feedforward=ff)
        stack = cs.cascade_stack(params, x1_ref=1.0)
        eq = cs.cascade_equilibrium(params, 1.0)
        assert np.linalg.norm(stack.field(eq)) <= 1e-12
        mats = cs.cascade_matrices(params)
        table = ps.total_derivative_table(stack, np.zeros(4))
        assert np.allclose(table.sens[1][0], mats.T[2:, :2], atol=1e-12)
        gap = ps.match_eigenvalues(ps.eigenvalues(mats.T @ mats.A),
                                   ps.eigenvalues(mats.A_tilde))
        assert gap <= 1e-8

    # reference feed-forward: stable iff K_P > a
    for kp2, expected in [(1.5, ps.Verdict.EXPONENTIALLY_STABLE),
                          (0.5, ps.Verdict.UNSTABLE)]:
        params = cs.CascadeParams(a2=1.0, kp2=kp2,
                                  feedforward=cs.FeedForward.REFERENCE)
        report = ps.classify_local_stability(
            cs.cascade_stack(params, 1.0), ps.PredictiveSensitivity(),
            cs.cascade_equilibrium(params, 1.0))
        assert report.verdict == expected
    # no feed-forward: stable iff a - b K_P < 0
    for kp2, expected in [(0.6, ps.Verdict.EXPONENTIALLY_STABLE),
                          (0.4, ps.Verdict.UNSTABLE)]:
        params = cs.CascadeParams(a2=1.0, b2=2.0, kp2=kp2,
                                  feedforward=cs.FeedForward.NONE)
        report = ps.classify_local_stability(
            cs.cascade_stack(params, 1.0), ps.PredictiveSensitivity(),
            cs.cascade_equilibrium(params, 1.0))
        assert report.verdict == expected


def test_rlc_field_vanishes_at_reference_equilibrium():
    params = cs.RlcParams()
    stack = cs.rlc_stack(params)
    eq = cs.rlc_equilibrium(params)
    assert np.linalg.norm(stack.field(eq)) <= 1e-10


def test_rlc_zero_rotation_decouples_axes():
    params = cs.RlcParams(omega=0.0, v_ref=(0.0, 0.0))
    stack = cs.rlc_stack(params)
    jac = ps.jacobian_at(stack, ps.Plain(), np.zeros(8))
    re_idx, im_idx = [0, 2, 4, 6], [1, 3, 5, 7]
    assert np.max(np.abs(jac[np.ix_(re_idx, im_idx)])) == 0.0
    assert np.max(np.abs(jac[np.ix_(im_idx, re_idx)])) == 0.0
    report = ps.classify_local_stability(stack, ps.Plain(), np.zeros(8))
    assert report.verdict == ps.Verdict.EXPONENTIALLY_STABLE


def test_rlc_param_validation():
    with pytest.raises(ValueError):
        cs.RlcParams(c=0.0)
    with pytest.raises(ValueError):
        cs.RlcParams(omega=-1.0)
    for bad in ({"k_pi": np.nan}, {"k_ii": np.inf}, {"v_ref": (np.nan, 0.0)}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            cs.RlcParams(**bad)
    for gone in ("r", "l"):  # the modulated voltage cancels R and L
        with pytest.raises(TypeError):
            cs.RlcParams(**{gone: 1e-3})


def test_every_rlc_param_reaches_the_model():
    """Perturbing any one field moves the field at a fixed nonzero state or
    the equilibrium: no parameter is accepted and then ignored."""
    base = cs.RlcParams()
    x = np.random.default_rng(3).normal(size=8)
    field, eq = cs.rlc_stack(base).field(x), cs.rlc_equilibrium(base)
    for f in dataclasses.fields(cs.RlcParams):
        value = getattr(base, f.name)
        moved = dataclasses.replace(
            base, **{f.name: tuple(1.5 * v + 1.0 for v in value)
                     if isinstance(value, tuple) else 1.5 * value})
        assert (not np.array_equal(cs.rlc_stack(moved).field(x), field)
                or not np.array_equal(cs.rlc_equilibrium(moved), eq)), f.name


def test_rlc_low_gain_tier_verdicts():
    params = cs.RlcParams(k_pi=50.0, k_ii=100.0)
    stack = cs.rlc_stack(params)
    eq = cs.rlc_equilibrium(params)
    plain = ps.classify_local_stability(stack, ps.Plain(), eq, tol=1e-6)
    cond = ps.classify_local_stability(stack, ps.PredictiveSensitivity(), eq,
                                       tol=1e-6)
    assert plain.verdict == ps.Verdict.UNSTABLE
    assert cond.verdict == ps.Verdict.EXPONENTIALLY_STABLE


def test_rlc_equilibrium_newton_recovery():
    params = cs.RlcParams()
    stack = cs.rlc_stack(params)
    eq = cs.rlc_equilibrium(params)
    rng = np.random.default_rng(14)
    solved = ps.steady_state_solve(stack, 0, eq + rng.normal(0, 1.0, 8))
    assert np.linalg.norm(stack.field(solved)) <= 1e-10
    assert np.max(np.abs(solved - eq)) <= 1e-8


def test_black_start_metrics_from_shared_runs(black_start_runs):
    """Black-start claims on the shared runs: the plain low-gain loop leaves
    the 10 p.u. band while every conditioned tier stays stable at 1 p.u.
    and 50 Hz."""
    _, plain_low = black_start_runs[("plain", 50.0, 100.0)]
    assert not plain_low.stable
    assert float(np.max(plain_low.voltage_magnitude_pu)) > 10.0
    assert plain_low.diverged_at is not None

    for kpi, kii in [(50.0, 100.0), (100.0, 200.0), (250.0, 500.0)]:
        traj, met = black_start_runs[("predsens", kpi, kii)]
        assert met.stable
        assert not traj.diverged
        assert abs(met.voltage_magnitude_pu[-1] - 1.0) <= 0.05
        assert abs(met.frequency_hz[-1] - 50.0) <= 0.5


def test_black_start_overshoot_comparisons(black_start_runs):
    """At the top gain tier the conditioned overshoot is far below the plain
    one, and conditioned overshoot keeps shrinking from the middle tier."""
    params = cs.RlcParams(k_pi=250.0, k_ii=500.0)
    settings = ps.IntegrationSettings(method="rk4", dt=2e-5, t_end=0.2)
    _, plain_hi = cs.run_black_start(params, ps.Plain(), settings)
    _, ps_mid = black_start_runs[("predsens", 100.0, 200.0)]
    _, ps_hi = black_start_runs[("predsens", 250.0, 500.0)]
    assert plain_hi.stable
    assert ps_hi.overshoot_pu <= plain_hi.overshoot_pu
    assert ps_hi.overshoot_pu <= ps_mid.overshoot_pu


def test_compiled_black_start_matches_per_call_trajectory():
    """The 50/100 tier integrated through the once-compiled affine field
    stays within 1e-10 of the per-call run, relative to the state scale."""
    stack = cs.rlc_stack(cs.RlcParams(k_pi=50.0, k_ii=100.0))
    per_call = ps.SystemStack([dataclasses.replace(s, constant_jacobian=False)
                               for s in stack.subsystems])
    settings = ps.IntegrationSettings(method="rk4", dt=1e-5, t_end=0.02)
    x0 = np.zeros(stack.total_dim)
    compiled = ps.integrate_ode(stack, ps.PredictiveSensitivity(), x0, settings)
    reference = ps.integrate_ode(per_call, ps.PredictiveSensitivity(), x0, settings)
    scale = np.max(np.abs(reference.states))
    assert np.max(np.abs(compiled.states - reference.states)) <= 1e-10 * scale


def test_black_start_csv_and_json(tmp_path, black_start_runs):
    traj, met = black_start_runs[("predsens", 250.0, 500.0)]
    path = tmp_path / "blackstart.csv"
    cs.write_black_start_csv(path, traj, met)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,v_re,v_im,zeta_v_re,zeta_v_im,"
                        "i_re,i_im,zeta_i_re,zeta_i_im,v_mag_pu,freq_hz")
    assert len(lines) == traj.times.size + 1
    data = met.to_json_dict()
    json.dumps(data)
    assert data["stable"] is True
    assert abs(data["final_frequency_hz"] - 50.0) <= 0.5


def test_low_gain_tier_settles_shortly_after_the_default_horizon():
    """The 50/100 conditioned run carries a ~2.6 % voltage hump at 0.2 s
    (integral windup from the zero start discharging through the slow inner
    mode) and enters the 1 % band near t = 0.8 s."""
    params = cs.RlcParams(k_pi=50.0, k_ii=100.0)
    settings = ps.IntegrationSettings(method="rk4", dt=1e-4, t_end=1.2)
    _, met = cs.run_black_start(params, ps.PredictiveSensitivity(), settings)
    assert met.stable
    k02 = int(round(0.2 / settings.dt))
    assert 0.015 <= met.voltage_magnitude_pu[k02] - 1.0 <= 0.04
    assert met.settling_time_s is not None
    assert 0.5 <= met.settling_time_s <= 1.0


def test_frequency_estimate_at_equilibrium_start():
    params = cs.RlcParams(k_pi=250.0, k_ii=500.0)
    stack = cs.rlc_stack(params)
    eq = cs.rlc_equilibrium(params)
    traj = ps.integrate_ode(stack, ps.PredictiveSensitivity(), eq,
                            ps.IntegrationSettings("rk4", 1e-4, 0.01))
    met = cs.black_start_metrics(params, traj)
    assert np.max(np.abs(met.frequency_hz - 50.0)) <= 1e-6
    assert met.settling_time_s == 0.0
    assert abs(met.overshoot_pu) <= 1e-9


def test_bilevel_example_reference_values():
    prob = cs.bilevel_example_problem()
    zero = np.zeros(1)
    assert np.allclose(prob.hess22(zero, zero), [[0.5]], atol=1e-14)
    assert np.allclose(prob.grad_lower_x2(zero, zero), [0.0], atol=0)
    assert abs(ps.reduced_hessian_fd(prob, [0.0], [0.0])[0, 0] - 1.0) <= 1e-3
