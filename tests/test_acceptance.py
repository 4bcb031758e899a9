"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

 1. Two-level counterexample: diagonal conditioning flips from stable to
    unstable across eps = 1/2; eigenvalues match the closed form to 1e-9.
 2. Spectrum preservation: conditioned Jacobian spectrum equals the union
    of reduced-block spectra on 100 random stacks (1e-6).
 3. Manifold tracking: conditioned fast level stays on its steady-state map
    under RK4 (1e-9 at dt = 1e-3 on the tracking stack; on the nonlinear
    bilevel flow the error falls >= 15x after halving dt twice).
 4. Cascade PI: plain loop unstable, conditioned loop carries the two PI
    companion spectra (1e-8, high-precision eigensolve for the defective
    repeated pair).
 5. Scalar preconditioning scales the block spectra by the gains (1e-6).
 6. Discrete conditioned step has spectrum 1 + lambda (1e-6).
 7. Bilevel descent comparison with step 1/4 from the in-basin start
    (0.4, 0.4): the conditioned update reaches 1e-3 first, eps = 1/4
    descent later, eps = 1/2 never gets below 1e-1. From (2, 2), outside
    the basin of the local solution, all three diverge.
 8. Bilevel derivative values at the origin and the finite-difference
    oracle agreement of the sensitivity (1e-4 relative, 50 points).
 9. Converter black start: plain low-gain loop leaves 10 p.u., conditioned
    tiers stable at 1 p.u. / 50 Hz with overshoot nonincreasing in the
    gains; |v| settles within 1 % by 0.2 s at gains 250/500 and by 1.0 s
    at 50/100, whose slow inner PI root (-2.09 1/s) bounds its settling.
10. Contraction certificate on the counterexample stack with the induced
    inverse and distance bounds at 100 random points.
"""

import math
import time

import numpy as np
import pytest

import predsens as ps
from predsens import casestudies as cs
from predsens import registry


def _report(num: int, description: str, clauses: list[tuple[str, bool]]) -> None:
    failed = [name for name, ok in clauses if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = (f"  [{'; '.join(name for name, _ in clauses)}]" if not failed
              else f"  [failing: {'; '.join(failed)}]")
    print(f"ACCEPTANCE {num:2d} {status}: {description}{detail}")
    assert not failed, f"criterion {num}: {description}{detail}"


def test_criterion_01_two_level_stability_threshold(r2_stack):
    t0 = time.perf_counter()
    clauses = []
    for eps, expected in ((0.49, ps.Verdict.EXPONENTIALLY_STABLE),
                          (0.51, ps.Verdict.UNSTABLE)):
        report = ps.classify_local_stability(
            r2_stack, ps.SingularPerturbation([1.0, eps]), [0.0, 0.0])
        clauses.append((f"verdict at eps={eps}", report.verdict == expected))
        # closed-form Jacobian [[1, -2], [1/(2 eps), -1/(2 eps)]]
        trace = 1.0 - 1.0 / (2.0 * eps)
        det = 1.0 / (2.0 * eps)
        disc = complex(trace * trace - 4.0 * det) ** 0.5
        roots = [(trace + disc) / 2.0, (trace - disc) / 2.0]
        gap = ps.match_eigenvalues(report.eigenvalues, roots)
        clauses.append((f"eigenvalues at eps={eps} (gap {gap:.1e})", gap <= 1e-9))
    clauses.append(("runtime < 1 s", time.perf_counter() - t0 < 1.0))
    _report(1, "diagonal conditioning flips stability across eps = 1/2", clauses)


def test_criterion_02_spectrum_preservation(random_linear_suite):
    t0 = time.perf_counter()
    worst = 0.0
    for stack in random_linear_suite:
        x0 = np.zeros(stack.total_dim)
        jac = ps.jacobian_at(stack, ps.PredictiveSensitivity(), x0)
        table = ps.total_derivative_table(stack, x0)
        union = np.concatenate([ps.eigenvalues(table.total[i][i])
                                for i in range(len(stack))])
        worst = max(worst, ps.match_eigenvalues(ps.eigenvalues(jac), union))
    elapsed = time.perf_counter() - t0
    _report(2, "conditioned spectrum equals block spectra on 100 random stacks",
            [(f"worst gap {worst:.1e} <= 1e-6", worst <= 1e-6),
             (f"runtime {elapsed:.1f} s < 10 s", elapsed < 10.0)])


def test_criterion_03_manifold_tracking(tracking_stack):
    from predsens.bilevel import as_system_stack, lower_solve

    t0 = time.perf_counter()
    traj = ps.integrate_ode(tracking_stack, ps.PredictiveSensitivity(),
                            [1.0, 1.0], ps.IntegrationSettings("rk4", 1e-3, 2.0))
    tracking = float(np.nanmax(ps.manifold_error(tracking_stack, traj, 1)))
    # The tracking run starts on its manifold, an invariant subspace of the
    # affine RK4 step, so its error is 0 at every dt; the RK4 order shows on
    # the nonlinear bilevel flow from the lower branch at x1 = 0.3.
    problem = cs.bilevel_example_problem()
    stack = as_system_stack(problem)
    x0 = np.array([0.3, lower_solve(problem, [0.3], [0.3])[0]])
    errs = []
    for dt in (8e-3, 4e-3, 2e-3):
        flow = ps.integrate_ode(stack, ps.PredictiveSensitivity(), x0,
                                ps.IntegrationSettings("rk4", dt, 1.0))
        errs.append(float(np.nanmax(ps.manifold_error(stack, flow, 1))))
    elapsed = time.perf_counter() - t0
    _report(3, "fast level rides its steady-state map under RK4",
            [(f"max error {tracking:.1e} <= 1e-9 at dt=1e-3 on tracking", tracking <= 1e-9),
             (f">= 15x reduction after two halvings on the bilevel flow "
              f"({errs[0]:.1e} -> {errs[2]:.1e})", errs[2] * 15.0 <= errs[0]),
             (f"runtime {elapsed:.1f} s < 5 s", elapsed < 5.0)])


def test_criterion_04_cascade_spectra():
    mp = pytest.importorskip("mpmath")
    t0 = time.perf_counter()
    mats = cs.cascade_matrices(cs.CascadeParams())
    plain_unstable = float(np.max(ps.eigenvalues(mats.A).real)) > 1e-6
    # T A has two defective complex pairs; double-precision QR only locates
    # them to ~sqrt(eps), so the 1e-8 comparison uses a 40-digit eigensolve.
    mp.mp.dps = 40
    ta = (mats.T @ mats.A).tolist()
    lams, _ = mp.eig(mp.matrix(ta))
    lams = np.array([complex(v) for v in lams])
    expected = np.array([-0.5 + math.sqrt(3) / 2 * 1j,
                         -0.5 - math.sqrt(3) / 2 * 1j] * 2)
    gap = ps.match_eigenvalues(lams, expected)
    double_gap = ps.match_eigenvalues(ps.eigenvalues(mats.T @ mats.A), expected)
    elapsed = time.perf_counter() - t0
    _report(4, "plain cascade unstable, conditioned one carries companion spectra",
            [("plain loop has an eigenvalue with Re > 1e-6", plain_unstable),
             (f"conditioned spectrum gap {gap:.1e} <= 1e-8", gap <= 1e-8),
             (f"double-precision agreement {double_gap:.1e} <= 1e-6",
              double_gap <= 1e-6),
             (f"runtime {elapsed:.2f} s < 1 s", elapsed < 1.0)])


def test_criterion_05_preconditioned_scaling(r2_stack):
    report = ps.classify_local_stability(r2_stack, ps.Preconditioned([2.0, 3.0]),
                                         [0.0, 0.0])
    union = np.concatenate(report.block_eigenvalues)
    gap = ps.match_eigenvalues(union, [2.0 * -1.0, 3.0 * -0.5])
    _report(5, "scalar gains scale the block spectra",
            [(f"blocks equal (-2, -1.5) within 1e-6 (gap {gap:.1e})", gap <= 1e-6)])


def test_criterion_06_discrete_step_spectrum(random_linear_suite):
    worst = 0.0
    for stack in random_linear_suite:
        x0 = np.zeros(stack.total_dim)
        table = ps.total_derivative_table(stack, x0)
        union = np.concatenate([ps.eigenvalues(table.total[i][i])
                                for i in range(len(stack))])
        step_jac = ps.finite_difference_jacobian(
            lambda y: ps.discrete_step(stack, ps.PredictiveSensitivity(), y), x0)
        worst = max(worst, ps.match_eigenvalues(ps.eigenvalues(step_jac),
                                                1.0 + union))
    _report(6, "discrete conditioned step has spectrum 1 + lambda",
            [(f"worst gap {worst:.1e} <= 1e-6", worst <= 1e-6)])


def test_criterion_07_bilevel_descent_comparison():
    t0 = time.perf_counter()
    problem = cs.bilevel_example_problem()

    def first_below(log, level):
        norms = np.linalg.norm(log.iterates, axis=1)
        hits = np.flatnonzero(norms <= level)
        return int(hits[0]) if hits.size else None

    def compare(x0):
        return (ps.solve_discrete(problem, "ps", 0.25, x0, max_iter=200),
                ps.solve_discrete(problem, "gda", 0.25, x0, max_iter=200, eps=0.5),
                ps.solve_discrete(problem, "gda", 0.25, x0, max_iter=200, eps=0.25))

    # On the lower-level branch x1 = x2 (x2^2 - 2) / (2 (x2^2 - 1)), |x2| < 1,
    # the reduced upper objective -x1^2/2 + x2(x1)^2 peaks at |x1| ~ 0.6146
    # and is unbounded below beyond it, so the comparison runs from the
    # in-basin start (0.4, 0.4); from (2, 2) every correct descent method
    # runs off, and the criterion asserts exactly that.
    log_ps, log_g2, log_g4 = compare([0.4, 0.4])
    far = compare([2.0, 2.0])
    k_ps = first_below(log_ps, 1e-3)
    k_g4 = first_below(log_g4, 1e-3)
    elapsed = time.perf_counter() - t0
    _report(7, "bilevel descent comparison from (0.4, 0.4), step 1/4",
            [(f"conditioned reaches 1e-3 within 200 iterations (got {k_ps})",
              k_ps is not None),
             ("eps=1/2 simultaneous descent stays above 1e-1",
              first_below(log_g2, 1e-1) is None),
             (f"eps=1/4 converges but slower (got {k_g4} vs {k_ps})",
              k_g4 is not None and k_ps is not None and k_g4 > k_ps),
             ("all three updates diverge from (2, 2), outside the basin",
              all(log.diverged for log in far)),
             (f"runtime {elapsed:.2f} s < 1 s", elapsed < 1.0)])


def test_criterion_08_bilevel_derivative_oracles():
    problem = cs.bilevel_example_problem()
    d0 = float(np.linalg.norm(ps.total_gradient(problem, [0.0], [0.0])))
    h0 = ps.reduced_hessian_fd(problem, [0.0])[0, 0]
    rng = np.random.default_rng(7)
    worst = 0.0
    for a in rng.uniform(-0.55, 0.55, 50):
        # the branch through the origin stays near x2 = x1
        x2s = ps.lower_solve(problem, [a], [a])
        s = ps.bilevel.sensitivity(problem, [a], x2s)[0, 0]
        h = 1e-5
        xp = ps.lower_solve(problem, [a + h], x2s)
        xm = ps.lower_solve(problem, [a - h], x2s)
        fd = (xp[0] - xm[0]) / (2.0 * h)
        worst = max(worst, abs(s - fd) / max(1e-12, abs(fd)))
    _report(8, "bilevel derivatives at the origin plus sensitivity FD oracle",
            [(f"total gradient at origin = {d0:.1e} (== 0)", d0 <= 1e-12),
             (f"reduced Hessian {h0:.6f} = 1 +- 1e-3", abs(h0 - 1.0) <= 1e-3),
             (f"sensitivity vs re-solved map, worst rel {worst:.1e} <= 1e-4",
              worst <= 1e-4)])


def test_criterion_09_black_start_patterns(black_start_runs):
    _, plain_low = black_start_runs[("plain", 50.0, 100.0)]
    tiers = [black_start_runs[("predsens", k, i)][1]
             for k, i in ((50.0, 100.0), (100.0, 200.0), (250.0, 500.0))]
    low, high = tiers[0], tiers[2]
    elapsed = black_start_runs["tiers_elapsed"]

    # The conditioned spectrum is the union of the block spectra; at 50/100
    # the inner PI roots are -47.9 and -2.087 1/s. The zero start leaves an
    # inner error whose slow-root component scales like 2 / k_pi and
    # discharges at ~2.09 1/s: a ~2.6 % voltage hump at t = 0.2 s that
    # enters the 1 % band near t = 0.8 s, for any correct realization of
    # the loop. The hump shrinks with k_pi, so the 0.2 s deadline belongs
    # to the 250/500 tier and the 50/100 tier gets its own longer run. The
    # other clauses stay on the shared 0.2 s horizon, where tiers 1 and 2
    # are still rising and the overshoot comparison is defined.
    _, low_long = cs.run_black_start(
        cs.RlcParams(k_pi=50.0, k_ii=100.0), ps.PredictiveSensitivity(),
        ps.IntegrationSettings(method="rk4", dt=1e-4, t_end=1.2))

    def settled_by(met, deadline):
        return (met.settling_time_s is not None and met.settling_time_s <= deadline
                and abs(float(met.voltage_magnitude_pu[-1]) - 1.0) <= 0.01)

    freq_end = float(low.frequency_hz[-1])
    over = [m.overshoot_pu for m in tiers]
    _report(9, "black start: plain diverges, conditioned tiers track 1 p.u.",
            [("plain 50/100 exceeds 10 p.u.",
              float(np.max(plain_low.voltage_magnitude_pu)) > 10.0),
             ("conditioned 50/100 stable", low.stable),
             (f"50/100 |v| within 1 % of 1 p.u. by 1.0 s "
              f"(settles at {low_long.settling_time_s})",
              settled_by(low_long, 1.0)),
             (f"250/500 |v| within 1 % of 1 p.u. by 0.2 s "
              f"(settles at {high.settling_time_s})", settled_by(high, 0.2)),
             (f"frequency within 0.5 Hz of 50 by 0.2 s (got {freq_end:.3f})",
              abs(freq_end - 50.0) <= 0.5),
             (f"overshoot nonincreasing {[round(o, 4) for o in over]}",
              over[0] >= over[1] >= over[2]),
             ("all tiers stable", all(m.stable for m in tiers)),
             (f"runtime {elapsed:.1f} s < 60 s for the three tiers",
              elapsed < 60.0)])


def test_criterion_10_contraction_certificate(r2_stack):
    rng = np.random.default_rng(3)
    points = [rng.uniform(-5.0, 5.0, 2) for _ in range(100)]
    cert = ps.contraction_check(r2_stack, [1.0, 1.0], [2.0, 1.0], points)
    margins = ps.distance_bound_margins(r2_stack, cert, points)
    _report(10, "contraction certificate with inverse and distance bounds",
            [("certificate holds", cert.holds),
             (f"fast inverse norm {cert.max_inverse_norm[1]:.6f} <= bound "
              f"{cert.inverse_bound[1]:.1f}", cert.bounds_verified),
             (f"distance bound margins >= 0 (min {np.min(margins):.1e})",
              float(np.min(margins)) >= -1e-9)])
