"""Total derivatives, candidate classification, the discrete solvers, and
the bridge into the generic stack machinery."""

import numpy as np
import pytest

import predsens as ps
from predsens import casestudies as cs
from predsens.bilevel import lower_solve, sensitivity, total_gradient


@pytest.fixture(scope="module")
def example():
    return cs.bilevel_example_problem()


def quadratic_problem():
    """F1 = -x1^2/2 + x2^2, F2 = (x2 - x1)^2 / 2; the lower solution tracks
    x1 exactly, reducing the upper objective to +x1^2/2."""
    return ps.BilevelProblem(
        upper=lambda x1, x2: float(-0.5 * x1[0] ** 2 + x2[0] ** 2),
        lower=lambda x1, x2: float(0.5 * (x2[0] - x1[0]) ** 2),
        grad_upper_x1=lambda x1, x2: np.array([-x1[0]]),
        grad_upper_x2=lambda x1, x2: np.array([2.0 * x2[0]]),
        grad_lower_x2=lambda x1, x2: np.array([x2[0] - x1[0]]),
        hess_lower_x2x2=lambda x1, x2: np.array([[1.0]]),
        hess_lower_x2x1=lambda x1, x2: np.array([[-1.0]]))


def no_coupling_problem():
    """Lower objective ignores x1, so the total derivative is the plain
    upper gradient."""
    return ps.BilevelProblem(
        upper=lambda x1, x2: float(np.sin(x1[0]) + x2[0] ** 2),
        lower=lambda x1, x2: float(0.5 * x2[0] ** 2),
        grad_upper_x1=lambda x1, x2: np.array([np.cos(x1[0])]),
        grad_upper_x2=lambda x1, x2: np.array([2.0 * x2[0]]),
        grad_lower_x2=lambda x1, x2: np.array([x2[0]]),
        hess_lower_x2x2=lambda x1, x2: np.array([[1.0]]),
        hess_lower_x2x1=lambda x1, x2: np.array([[0.0]]))


def test_gradient_providers_agree_with_fd(example):
    rng = np.random.default_rng(42)
    for _ in range(50):
        a, b = rng.uniform(-2.0, 2.0, 2)
        x1, x2 = np.array([a]), np.array([b])
        h = 1e-6 * (1.0 + abs(a))
        fd1 = (example.upper(np.array([a + h]), x2)
               - example.upper(np.array([a - h]), x2)) / (2 * h)
        assert abs(example.grad_upper_x1(x1, x2)[0] - fd1) <= 1e-5 * (1 + abs(fd1))
        h = 1e-6 * (1.0 + abs(b))
        fd2 = (example.lower(x1, np.array([b + h]))
               - example.lower(x1, np.array([b - h]))) / (2 * h)
        assert abs(example.grad_lower_x2(x1, x2)[0] - fd2) <= 1e-5 * (1 + abs(fd2))


def test_total_gradient_at_origin(example):
    assert np.allclose(total_gradient(example, [0.0], [0.0]), [0.0], atol=1e-14)
    assert np.allclose(example.hess22(np.zeros(1), np.zeros(1)), [[0.5]],
                       atol=1e-14)


def test_total_gradient_quadratic_closed_form():
    prob = quadratic_problem()
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.normal(size=2)
        d = total_gradient(prob, [a], [b])
        assert abs(d[0] - (-a + 2.0 * b)) <= 1e-12


def test_total_gradient_without_coupling():
    prob = no_coupling_problem()
    d = total_gradient(prob, [0.3], [0.7])
    assert abs(d[0] - np.cos(0.3)) <= 1e-14


def test_total_gradient_singular_hessian_raises():
    prob = ps.BilevelProblem(
        upper=lambda x1, x2: 0.0, lower=lambda x1, x2: 0.0,
        grad_upper_x1=lambda x1, x2: np.zeros(1),
        grad_upper_x2=lambda x1, x2: np.zeros(1),
        grad_lower_x2=lambda x1, x2: np.zeros(1),
        hess_lower_x2x2=lambda x1, x2: np.array([[0.0]]),
        hess_lower_x2x1=lambda x1, x2: np.array([[1.0]]))
    with pytest.raises(ps.SingularMatrixError):
        total_gradient(prob, [0.0], [0.0])


def test_reduced_hessian_example(example):
    hess = ps.reduced_hessian_fd(example, [0.0])
    assert abs(hess[0, 0] - 1.0) <= 1e-3


def test_reduced_hessian_quadratic_exact():
    hess = ps.reduced_hessian_fd(quadratic_problem(), [0.3])
    assert abs(hess[0, 0] - 1.0) <= 1e-9


def test_reduced_hessian_without_coupling():
    hess = ps.reduced_hessian_fd(no_coupling_problem(), [0.2])
    assert abs(hess[0, 0] - (-np.sin(0.2))) <= 1e-6


def test_fd_hessian_fallback_matches_analytic(example):
    bare = ps.BilevelProblem(
        upper=example.upper, lower=example.lower,
        grad_upper_x1=example.grad_upper_x1, grad_upper_x2=example.grad_upper_x2,
        grad_lower_x2=example.grad_lower_x2)
    x1, x2 = np.array([0.3]), np.array([-0.4])
    assert np.allclose(bare.hess22(x1, x2), example.hess22(x1, x2), atol=1e-7)
    assert np.allclose(bare.hess21(x1, x2), example.hess21(x1, x2), atol=1e-7)


def test_classify_points(example):
    assert (ps.classify_point(example, [0.0], [0.0]).verdict
            == ps.SolutionVerdict.STRICT_LOCAL_SOLUTION_CANDIDATE)
    off = ps.classify_point(example, [1.0], [1.0])
    assert off.verdict == ps.SolutionVerdict.NOT_STATIONARY
    assert off.reduced_hessian is None

    saddle = ps.BilevelProblem(
        upper=lambda x1, x2: float(-x1[0] ** 2),
        lower=lambda x1, x2: float(0.5 * (x2[0] - x1[0]) ** 2),
        grad_upper_x1=lambda x1, x2: np.array([-2.0 * x1[0]]),
        grad_upper_x2=lambda x1, x2: np.array([0.0]),
        grad_lower_x2=lambda x1, x2: np.array([x2[0] - x1[0]]),
        hess_lower_x2x2=lambda x1, x2: np.array([[1.0]]),
        hess_lower_x2x1=lambda x1, x2: np.array([[-1.0]]))
    report = ps.classify_point(saddle, [0.0], [0.0])
    assert report.verdict == ps.SolutionVerdict.STATIONARY_NOT_SUFFICIENT
    assert abs(report.reduced_hessian[0, 0] + 2.0) <= 1e-6


def test_discrete_descent_pattern_from_inside_the_basin(example):
    """From (0.4, 0.4): the conditioned update converges fast, the 1/4-scaled
    simultaneous descent converges strictly slower, and the 1/2-scaled one
    orbits without approaching the solution (its linearization sits exactly
    on the continuous stability boundary)."""
    logs = {}
    logs["ps"] = ps.solve_discrete(example, "ps", 0.25, [0.4, 0.4])
    logs["gda4"] = ps.solve_discrete(example, "gda", 0.25, [0.4, 0.4], eps=0.25)
    logs["gda2"] = ps.solve_discrete(example, "gda", 0.25, [0.4, 0.4], eps=0.5)

    def first_below(log, level):
        norms = np.linalg.norm(log.iterates, axis=1)
        hits = np.flatnonzero(norms <= level)
        return int(hits[0]) if hits.size else None

    k_ps = first_below(logs["ps"], 1e-3)
    k_gda4 = first_below(logs["gda4"], 1e-3)
    assert k_ps is not None and k_ps <= 200
    assert logs["ps"].converged
    assert k_gda4 is not None and k_gda4 > k_ps
    assert first_below(logs["gda2"], 1e-1) is None


def test_basin_escape_from_far_start(example):
    """(2, 2) lies outside the local solution's basin: the reduced upper
    objective peaks near |x1| = 0.62 and is unbounded below past it, so every
    method runs off along the lower-level branch."""
    for method, eps in [("ps", None), ("gda", 0.25), ("gda", 0.5)]:
        log = ps.solve_discrete(example, method, 0.25, [2.0, 2.0], eps=eps)
        assert log.diverged and not log.converged
        assert np.min(np.linalg.norm(log.iterates, axis=1)) > 1.0


@pytest.mark.parametrize("method, eps, x0, steps", [("gda", 0.5, [0.05, -0.206], 63),
                                                     ("ps", None, [-0.406, 0.449], 1)])
def test_run_off_to_a_singular_lower_hessian_is_divergence(example, method, eps, x0, steps):
    """An iterate where exp(-x2^2/2) has driven the lower Hessian to 0 ends
    the run as diverged, kept with a NaN residual."""
    log = ps.solve_discrete(example, method, 0.25, x0, eps=eps)
    assert log.diverged and not log.converged
    assert log.iterations_used == steps and log.iterates.shape[0] == steps + 1
    assert np.isnan(log.residuals[-1]) and np.all(np.isfinite(log.residuals[:-1]))
    assert np.all(np.isfinite(log.iterates))
    x1, x2 = log.iterates[-1][:1], log.iterates[-1][1:]
    with pytest.raises(ps.SingularMatrixError):
        total_gradient(example, x1, x2)
    with pytest.raises(ps.SingularMatrixError):  # a singular start still raises
        ps.solve_discrete(example, method, 0.25, log.iterates[-1], eps=eps)


def test_solve_discrete_validation(example):
    with pytest.raises(ValueError):
        ps.solve_discrete(example, "ps", -0.1, [0.0, 0.0])
    with pytest.raises(ValueError):
        ps.solve_discrete(example, "gda", 0.1, [0.0, 0.0])  # missing eps
    for tau in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ps.solve_discrete(example, "ps", tau, [0.0, 0.0])
    for eps in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ps.solve_discrete(example, "gda", 0.1, [0.0, 0.0], eps=eps)
    with pytest.raises(ValueError):
        ps.solve_discrete(example, "newton", 0.1, [0.0, 0.0])


def test_iterate_log_csv(tmp_path, example):
    log = ps.solve_discrete(example, "ps", 0.25, [0.4, 0.4], max_iter=5)
    path = tmp_path / "iterates.csv"
    log.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,x1,x2,residual"
    assert len(lines) == log.iterates.shape[0] + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.4


def test_as_system_stack_reproduces_conditioned_flow(example):
    """The generic machinery applied to the gradient-flow stack reproduces
    the direct conditioned updates to 1e-10 on 100 random points."""
    stack = ps.as_system_stack(example)
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = rng.uniform(-0.5, 0.5, 2)
        cf = ps.conditioned_field(stack, ps.PredictiveSensitivity(), p)
        d = total_gradient(example, p[:1], p[1:])
        g2 = example.grad_lower_x2(p[:1], p[1:])
        s = sensitivity(example, p[:1], p[1:])
        direct = np.concatenate([-d, -g2 + s @ (-d)])
        assert np.max(np.abs(cf - direct)) <= 1e-10


def test_total_gradient_matches_fd_of_reduced_objective(example):
    rng = np.random.default_rng(13)
    for a in rng.uniform(-0.55, 0.55, 50):
        x2s = lower_solve(example, [a], [a])  # branch through the origin
        d = total_gradient(example, [a], x2s)[0]
        h = 1e-5
        fp = example.upper(np.array([a + h]), lower_solve(example, [a + h], x2s))
        fm = example.upper(np.array([a - h]), lower_solve(example, [a - h], x2s))
        fd = (fp - fm) / (2.0 * h)
        assert abs(d - fd) <= 1e-4 * (1.0 + abs(fd))


def test_candidate_classification_matches_flow_stability(example):
    """Strict candidates are exactly the exponentially stable equilibria of
    the conditioned gradient flow, checked on the bundled problems."""
    cases = [
        (example, [0.0, 0.0]),
        (quadratic_problem(), [0.0, 0.0]),
    ]
    for prob, point in cases:
        verdict = ps.classify_point(prob, point[:1], point[1:]).verdict
        stack = ps.as_system_stack(prob)
        stab = ps.classify_local_stability(stack, ps.PredictiveSensitivity(),
                                           point, tol=1e-8)
        assert verdict == ps.SolutionVerdict.STRICT_LOCAL_SOLUTION_CANDIDATE
        assert stab.verdict == ps.Verdict.EXPONENTIALLY_STABLE

    saddle = ps.BilevelProblem(
        upper=lambda x1, x2: float(-x1[0] ** 2),
        lower=lambda x1, x2: float(0.5 * (x2[0] - x1[0]) ** 2),
        grad_upper_x1=lambda x1, x2: np.array([-2.0 * x1[0]]),
        grad_upper_x2=lambda x1, x2: np.array([0.0]),
        grad_lower_x2=lambda x1, x2: np.array([x2[0] - x1[0]]),
        hess_lower_x2x2=lambda x1, x2: np.array([[1.0]]),
        hess_lower_x2x1=lambda x1, x2: np.array([[-1.0]]))
    assert (ps.classify_point(saddle, [0.0], [0.0]).verdict
            == ps.SolutionVerdict.STATIONARY_NOT_SUFFICIENT)
    stab = ps.classify_local_stability(ps.as_system_stack(saddle),
                                       ps.PredictiveSensitivity(), [0.0, 0.0])
    assert stab.verdict == ps.Verdict.UNSTABLE


def test_quadratic_stack_block_eigenvalues():
    stack = ps.as_system_stack(quadratic_problem())
    report = ps.classify_local_stability(stack, ps.PredictiveSensitivity(),
                                         [0.0, 0.0])
    assert ps.match_eigenvalues(np.concatenate(report.block_eigenvalues),
                                [-1.0, -1.0]) <= 1e-6


def test_no_coupling_stack_has_zero_sensitivity():
    stack = ps.as_system_stack(no_coupling_problem())
    table = ps.total_derivative_table(stack, [0.4, 0.2])
    assert np.max(np.abs(table.sens[1][0])) <= 1e-9


def test_zero_sum_minimax_runs_unchanged():
    """F2 = -F1 turns the solver into simultaneous descent-ascent; on the
    classic saddle it still converges."""
    prob = ps.BilevelProblem(
        upper=lambda x1, x2: float(x1[0] ** 2 - x2[0] ** 2),
        lower=lambda x1, x2: float(-x1[0] ** 2 + x2[0] ** 2),
        grad_upper_x1=lambda x1, x2: np.array([2.0 * x1[0]]),
        grad_upper_x2=lambda x1, x2: np.array([-2.0 * x2[0]]),
        grad_lower_x2=lambda x1, x2: np.array([2.0 * x2[0]]),
        hess_lower_x2x2=lambda x1, x2: np.array([[2.0]]),
        hess_lower_x2x1=lambda x1, x2: np.array([[0.0]]))
    log = ps.solve_discrete(prob, "ps", 0.25, [1.0, 1.0])
    assert log.converged
    assert np.linalg.norm(log.iterates[-1]) <= 1e-6
    log = ps.solve_discrete(prob, "gda", 0.25, [1.0, 1.0], eps=0.5)
    assert log.converged
