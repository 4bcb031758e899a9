"""Eigenvalue machinery, similarity structure, verdicts, and contraction
certificates with their induced inverse and distance bounds."""

import dataclasses

import numpy as np
import pytest

import predsens as ps
from predsens import casestudies as cs
from predsens import conditioning, registry, sensitivity, stability
from predsens.bilevel import as_system_stack


def test_eigenvalues_rotation_and_companion_and_diagonal():
    assert ps.match_eigenvalues(ps.eigenvalues([[0.0, -1.0], [1.0, 0.0]]),
                                [1j, -1j]) <= 1e-12
    expected = [-0.5 + np.sqrt(3) / 2 * 1j, -0.5 - np.sqrt(3) / 2 * 1j]
    assert ps.match_eigenvalues(ps.eigenvalues([[-1.0, -1.0], [1.0, 0.0]]),
                                expected) <= 1e-12
    assert ps.match_eigenvalues(ps.eigenvalues(np.diag([2.5, -3.0])),
                                [2.5, -3.0]) <= 1e-14


def test_match_eigenvalues_ties_lengths_and_empty_lists():
    """A tie goes to the first nearest entry: 0 takes 1 before -1 (then -1
    meets -1), and 0 takes 1j before -1j (then 1j meets -1j). Lists of different
    lengths are infinitely apart, and two empty lists 0.0 apart; every
    distance is a Python float."""
    assert ps.match_eigenvalues([0.0, -1.0], [1.0, -1.0]) == 1.0
    assert ps.match_eigenvalues([0.0, 1j], [1j, -1j]) == 2.0
    assert ps.match_eigenvalues([1.0], [1.0, 2.0]) == np.inf
    assert ps.match_eigenvalues([], [1.0]) == np.inf
    empty = ps.match_eigenvalues([], np.array([]))
    assert empty == 0.0 and type(empty) is float


def test_eigenvalues_residuals_with_recomputed_eigenvectors():
    """For each eigenvalue, the smallest-singular-direction of (A - lam I)
    satisfies norm(A v - lam v) <= 1e-8 norm(A)."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.normal(size=(6, 6))
        for lam in ps.eigenvalues(a):
            _, _, vh = np.linalg.svd(a - lam * np.eye(6))
            v = vh[-1].conj()
            assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * np.linalg.norm(a)


def test_eigenvalues_input_validation():
    with pytest.raises(ValueError):
        ps.eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        ps.eigenvalues([[np.inf, 0.0], [0.0, 1.0]])


def test_jacobian_r2_singular_perturbation(r2_stack):
    for eps in (0.3, 1.0):
        expected = np.array([[1.0, -2.0],
                             [0.5 / eps, -0.5 / eps]])
        scheme = ps.SingularPerturbation([1.0, eps])
        jac = ps.jacobian_at(r2_stack, scheme, [0.4, -0.2])
        assert np.allclose(jac, expected, atol=1e-12)
        jac_fd = ps.finite_difference_jacobian(
            lambda y: ps.conditioned_field(r2_stack, scheme, y), [0.4, -0.2])
        assert np.allclose(jac_fd, expected, atol=1e-9)


def test_jacobian_r2_predictive(r2_stack):
    jac = ps.jacobian_at(r2_stack, ps.PredictiveSensitivity(), [0.0, 0.0])
    assert np.allclose(jac, [[1.0, -2.0], [1.5, -2.5]], atol=1e-12)
    assert ps.match_eigenvalues(ps.eigenvalues(jac), [-1.0, -0.5]) <= 1e-12


def test_jacobian_decoupled_plain_block_diagonal():
    stack = ps.linear_stack([1, 1], [[[[-1.0]], [[0.0]]], [[[0.0]], [[-2.0]]]])
    jac = ps.finite_difference_jacobian(
        lambda y: ps.conditioned_field(stack, ps.Plain(), y), [0.7, 0.7])
    assert np.allclose(jac, np.diag([-1.0, -2.0]), atol=1e-9)


def test_block_triangular_form_r2(r2_stack):
    form = ps.block_triangular_form(r2_stack, [0.0, 0.0])
    assert np.allclose(form.matrix, [[-1.0, -2.0], [0.0, -0.5]], atol=1e-12)
    assert form.similarity_gap <= 1e-10


def test_block_triangular_form_decoupled_identity_transform():
    stack = ps.linear_stack([1, 1], [[[[-1.0]], [[0.0]]], [[[0.0]], [[-2.0]]]])
    form = ps.block_triangular_form(stack, [0.0, 0.0])
    for t in form.transforms:
        assert np.array_equal(t, np.eye(2))


def test_block_triangular_form_cascade_companion_blocks():
    params = cs.CascadeParams()
    stack = cs.cascade_stack(params, x1_ref=1.0)
    form = ps.block_triangular_form(stack, cs.cascade_equilibrium(params, 1.0))
    expected = [-0.5 + np.sqrt(3) / 2 * 1j, -0.5 - np.sqrt(3) / 2 * 1j]
    for blk in form.diagonal_blocks:
        assert ps.match_eigenvalues(ps.eigenvalues(blk), expected) <= 1e-9
    # generic elimination reproduces the closed-form conditioned matrix
    assert np.allclose(form.matrix, cs.cascade_matrices(params).A_tilde, atol=1e-12)
    # strictly upper block triangular below the diagonal
    assert np.max(np.abs(form.matrix[2:, :2])) <= 1e-12


def test_block_triangular_form_requires_steady_state(r2_stack):
    with pytest.raises(ps.NotSteadyStateError):
        ps.block_triangular_form(r2_stack, [1.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        ps.block_triangular_form(r2_stack, [np.nan, 0.0])


def test_classify_r2_across_the_stability_boundary(r2_stack):
    stable = ps.classify_local_stability(
        r2_stack, ps.SingularPerturbation([1.0, 0.49]), [0.0, 0.0])
    assert stable.verdict == ps.Verdict.EXPONENTIALLY_STABLE
    unstable = ps.classify_local_stability(
        r2_stack, ps.SingularPerturbation([1.0, 0.51]), [0.0, 0.0])
    assert unstable.verdict == ps.Verdict.UNSTABLE


def test_classify_marginal_band():
    stack = ps.linear_stack([1], [[[[0.0]]]])
    report = ps.classify_local_stability(stack, ps.Plain(), [0.0])
    assert report.verdict == ps.Verdict.MARGINAL


def test_classify_cascade_plain_unstable():
    params = cs.CascadeParams()
    stack = cs.cascade_stack(params, x1_ref=1.0)
    report = ps.classify_local_stability(stack, ps.Plain(),
                                         cs.cascade_equilibrium(params, 1.0))
    assert report.verdict == ps.Verdict.UNSTABLE


def test_classify_r2_predictive_block_spectrum(r2_stack):
    report = ps.classify_local_stability(r2_stack, ps.PredictiveSensitivity(),
                                         [0.0, 0.0])
    assert report.verdict == ps.Verdict.EXPONENTIALLY_STABLE
    assert ps.match_eigenvalues(report.eigenvalues, [-1.0, -0.5]) <= 1e-9
    assert report.block_spectrum_gap <= 1e-9
    assert ps.match_eigenvalues(np.concatenate(report.block_eigenvalues),
                                [-1.0, -0.5]) <= 1e-12


@pytest.mark.parametrize("scheme, has_blocks", [
    (ps.Plain(), False),
    (ps.SingularPerturbation([1.0, 0.3]), False),
    (ps.PredictiveSensitivity(), True),
    (ps.Preconditioned([2.0, 3.0]), True),
    (ps.ApproximateSensitivity(lambda stack, x: [[None, None], [np.array([[0.5]]), None]]),
     False),
], ids=["plain", "singular", "predsens", "precond", "approx"])
def test_block_spectra_only_for_exact_sensitivities(r2_stack, scheme, has_blocks):
    """Block eigenvalues are reported exactly when the scheme's sensitivities
    are the exact table; they are then those of H_i D[i][i]."""
    report = ps.classify_local_stability(r2_stack, scheme, [0.0, 0.0])
    if not has_blocks:
        assert report.block_eigenvalues is None and report.block_spectrum_gap is None
        return
    gains = getattr(scheme, "gains", (1.0, 1.0))
    expected = [-1.0 * gains[0], -0.5 * gains[1]]
    assert ps.match_eigenvalues(np.concatenate(report.block_eigenvalues), expected) <= 1e-12
    assert report.block_spectrum_gap <= 1e-9


@pytest.mark.parametrize("make_scheme, tables", [
    (lambda _stack: ps.PredictiveSensitivity(), 1),
    (lambda _stack: ps.Preconditioned([2.0, 0.5, 1.5]), 1),
    (lambda _stack: ps.Plain(), 0),
    (lambda _stack: ps.SingularPerturbation([1.0, 0.5, 0.25]), 0),
    (lambda stack: ps.ApproximateSensitivity(ps.frozen_sensitivity_provider(stack, np.zeros(3))),
     0),
], ids=["predsens", "precond", "plain", "singular", "frozen"])
def test_classify_builds_at_most_one_table(linear3_stack, count_calls, make_scheme, tables):
    """An exact scheme's block spectra are read from the table its Jacobian
    was assembled from, so a verdict builds one table; any other scheme
    builds none. (The frozen provider builds its own table when it is made,
    before the count starts.)"""
    scheme = make_scheme(linear3_stack)
    built = [count_calls(conditioning, "total_derivative_table"),
             count_calls(stability, "total_derivative_table")]
    report = ps.classify_local_stability(linear3_stack, scheme, np.zeros(3))
    assert sum(map(len, built)) == tables
    assert (report.block_eigenvalues is not None) == (tables == 1)


def test_stability_checks_build_no_conditioning_matrix(count_calls):
    """Verdicts, Jacobians and the triangular form never build the dense M,
    under scalar or matrix gains; an exact affine compile builds it once, for
    its ``b_c``."""
    stack = ps.linear_stack([1, 2], [[[[-2.0]], [[0.5, 0.0]]],
                                     [[[1.0], [0.0]], [[-3.0, 1.0], [0.0, -2.0]]]])
    origin = np.zeros(3)
    built = count_calls(conditioning, "conditioning_matrix")
    for scheme in (ps.PredictiveSensitivity(), ps.Preconditioned([2.0, 0.5]),
                   ps.Preconditioned([[[2.0]], [[1.0, 0.5], [0.0, 2.0]]])):
        ps.classify_local_stability(stack, scheme, origin)
        ps.jacobian_at(stack, scheme, origin)
    ps.block_triangular_form(stack, origin)
    assert built == []
    conditioning.make_conditioned_field(stack, ps.PredictiveSensitivity())
    assert len(built) == 1


def test_classify_requires_steady_point(r2_stack):
    with pytest.raises(ps.NotSteadyStateError):
        ps.classify_local_stability(r2_stack, ps.Plain(), [0.5, 0.0])
    for point in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            ps.classify_local_stability(r2_stack, ps.Plain(), point)
    with pytest.raises(ValueError, match="tol"):
        ps.classify_local_stability(r2_stack, ps.Plain(), [1.0, 1.0], tol=np.nan)
    # no residual is below a negative tol: a configuration error, not a failed check
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        ps.classify_local_stability(r2_stack, ps.Plain(), [0.0, 0.0], tol=-1.0)


def test_similarity_preservation_on_random_stacks(random_linear_suite):
    """Conditioned spectrum equals the union of the per-level reduced-block
    spectra (within 1e-6) at the origin equilibrium."""
    for stack in random_linear_suite[:25]:
        x0 = np.zeros(stack.total_dim)
        report = ps.classify_local_stability(stack, ps.PredictiveSensitivity(), x0)
        union = np.concatenate(report.block_eigenvalues)
        assert ps.match_eigenvalues(report.eigenvalues, union) <= 1e-6


def test_preconditioned_scaling_of_block_spectra(random_linear_suite):
    """Scalar gains h_i multiply the per-level spectra (within 1e-6)."""
    gains = [2.0, 3.0, 4.0]
    for stack in random_linear_suite[:25]:
        n = len(stack)
        x0 = np.zeros(stack.total_dim)
        base = ps.classify_local_stability(stack, ps.PredictiveSensitivity(), x0)
        pre = ps.classify_local_stability(stack, ps.Preconditioned(gains[:n]), x0)
        for i in range(n):
            scaled = gains[i] * base.block_eigenvalues[i]
            assert ps.match_eigenvalues(pre.block_eigenvalues[i], scaled) <= 1e-6


def test_discrete_step_spectrum_is_one_plus_blocks(random_linear_suite):
    """Eigenvalues of the conditioned update map are 1 + lambda for the
    continuous block eigenvalues (within 1e-6)."""
    for stack in random_linear_suite[:25]:
        x0 = np.zeros(stack.total_dim)
        report = ps.classify_local_stability(stack, ps.PredictiveSensitivity(), x0)
        union = np.concatenate(report.block_eigenvalues)
        step_jac = ps.finite_difference_jacobian(
            lambda y: ps.discrete_step(stack, ps.PredictiveSensitivity(), y), x0)
        assert ps.match_eigenvalues(ps.eigenvalues(step_jac), 1.0 + union) <= 1e-6


def test_contraction_certificate_r2(r2_stack):
    rng = np.random.default_rng(3)
    points = [rng.uniform(-5.0, 5.0, 2) for _ in range(100)]
    cert = ps.contraction_check(r2_stack, [1.0, 1.0], [2.0, 1.0], points)
    assert cert.holds and cert.bounds_verified
    assert cert.inverse_bound == [1.0, 2.0]
    assert max(cert.max_residual_eig) <= 1e-10
    # bound is tight for this stack: norm(inverse) hits it exactly
    assert np.allclose(cert.max_inverse_norm, [1.0, 2.0], atol=1e-12)


def test_contraction_fails_for_expanding_field():
    stack = ps.linear_stack([1], [[[[1.0]]]])
    cert = ps.contraction_check(stack, [1.0], [1.0], [[0.5]])
    assert not cert.holds


def test_contraction_fails_where_lower_hessian_decays():
    stack = as_system_stack(cs.bilevel_example_problem())
    far = [np.array([0.3, 3.5]), np.array([-0.2, 4.2]), np.array([0.1, -4.5])]
    cert = ps.contraction_check(stack, [1.0, 1.0], [1.0, 1.0], far)
    assert not cert.holds


def test_contraction_input_validation(r2_stack):
    with pytest.raises(ValueError):
        ps.contraction_check(r2_stack, [-1.0, 1.0], [1.0, 1.0], [[0.0, 0.0]])
    with pytest.raises(ValueError):
        ps.contraction_check(r2_stack, [1.0, 1.0], [0.0, 1.0], [[0.0, 0.0]])
    stack = cs.cascade_stack(cs.CascadeParams(), 0.0)
    with pytest.raises(ValueError):
        ps.contraction_check(stack, [np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0],
                             [1.0, 1.0], [np.zeros(4)])


def test_contraction_needs_one_matrix_per_level(r2_stack):
    """A wrong number of P or Q matrices is reported as such, before any of
    them is checked against the level dimensions."""
    message = r"need one P and one Q per subsystem \(2\)"
    for p, q in (([1.0, 1.0, 1.0], [2.0, 1.0]), ([1.0], [2.0, 1.0]),
                 ([1.0, 1.0], [2.0, 1.0, 1.0]), ([1.0, 1.0], [2.0])):
        with pytest.raises(ValueError, match=message):
            ps.contraction_check(r2_stack, p, q, [[1.0, 0.5]])


def _per_point(stack):
    """``stack`` with its ``constant_jacobian`` declarations dropped, so every
    check on it works point by point."""
    return ps.SystemStack([dataclasses.replace(s, constant_jacobian=False)
                           for s in stack.subsystems])


def test_contraction_builds_one_table_on_an_affine_stack(r2_stack, count_calls):
    """On an affine stack every point has the same D[i][i], so one table
    stands for 300 points; a non-affine stack still needs one per point."""
    built = count_calls(stability, "total_derivative_table")
    points = np.random.default_rng(4).uniform(-5.0, 5.0, (300, 2))
    ps.contraction_check(r2_stack, [1.0, 1.0], [2.0, 1.0], points)
    assert len(built) == 1
    bilevel = registry.get_stack("bilevel-example")
    ps.contraction_check(bilevel, [1.0, 1.0], [1.0, 1.0], points[:7] / 20.0)
    assert len(built) == 1 + 7


@pytest.mark.parametrize("name", ["r2", "rlc", "cascade", "linear3"])
def test_affine_contraction_matches_the_per_point_check(name):
    """The one-table certificate of an affine stack equals, field for field,
    the one checked at every point, and so does that of no points at all:
    nothing to violate, no residual and no inverse norm seen."""
    stack = registry.get_stack(name)
    n = len(stack)
    rng = np.random.default_rng(5)
    points = registry.equilibrium(name) + rng.uniform(-1.0, 1.0, (20, stack.total_dim))
    p, q = [1.0] * n, [2.0] * n
    for pts in (points, []):
        cert = ps.contraction_check(stack, p, q, pts)
        assert cert == ps.contraction_check(_per_point(stack), p, q, pts)
    assert cert == ps.ContractionCertificate(True, cert.inverse_bound, [-np.inf] * n,
                                             [0.0] * n, True)


def test_affine_margins_match_per_point_solves(r2_stack):
    """The margins read from the once-built steady-state maps agree with
    per-point steady-state solves and reduced fields to 1e-12."""
    rng = np.random.default_rng(10)
    stacks = [r2_stack, registry.get_stack("linear3"), cs.cascade_stack(cs.CascadeParams(), 1.0)]
    for stack in stacks:
        per_point = _per_point(stack)
        points = [rng.uniform(-2.0, 2.0, stack.total_dim) for _ in range(20)]
        cert = ps.contraction_check(stack, [1.0] * len(stack), [1.0] * len(stack), points)
        fast = ps.distance_bound_margins(stack, cert, points)
        ref = ps.distance_bound_margins(per_point, cert, points)
        assert fast.shape == ref.shape == (20, len(stack))
        assert np.max(np.abs(fast - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def _nonlinear_two_dim_stack():
    """Three nonlinear levels of dimension 2: a random coupling with its
    diagonal shifted by -3, a sine of each level's own block and a tanh of
    the slowest state."""
    a = np.random.default_rng(3).uniform(-0.5, 0.5, (6, 6)) - 3.0 * np.eye(6)

    def level(i):
        rows = slice(2 * i, 2 * i + 2)
        return ps.Subsystem(2, lambda x: a[rows] @ x + 0.3 * np.sin(x[rows]) + 0.2 * np.tanh(x[0]))

    return ps.SystemStack([level(i) for i in range(3)])


MARGIN_STACKS = {"bilevel-example": lambda: registry.get_stack("bilevel-example"),
                 "nonlinear": _nonlinear_two_dim_stack}


@pytest.mark.parametrize("name", sorted(MARGIN_STACKS))
def test_margins_match_per_point_reference(name):
    """On non-affine stacks the margins equal those from one
    ``steady_state_solve`` and one ``reduced_field`` per point and level, to
    1e-15 relative."""
    stack = MARGIN_STACKS[name]()
    n, off = len(stack), stack.offsets
    rng = np.random.default_rng(12)
    points = [rng.uniform(-0.4, 0.4, stack.total_dim) for _ in range(30)]
    cert = ps.contraction_check(stack, [1.0] * n, [1.0] * n, points)
    ref = np.empty((len(points), n))
    for r, x in enumerate(points):
        for i in range(n):
            block = slice(off[i], off[i + 1])
            dist = np.linalg.norm(x[block] - ps.steady_state_solve(stack, i, x)[block])
            fr = np.linalg.norm(ps.reduced_field(stack, i, x))
            ref[r, i] = cert.inverse_bound[i] * fr - dist
    margins = ps.distance_bound_margins(stack, cert, points)
    assert margins.shape == ref.shape
    assert np.all(np.abs(margins - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("name", sorted(MARGIN_STACKS))
def test_margins_solve_each_level_once_per_point(name, monkeypatch):
    """One steady-state solve per point and level: the reduced field of a
    level reads the solve of the next level instead of solving it again."""
    stack = MARGIN_STACKS[name]()
    n = len(stack)
    points = [np.full(stack.total_dim, 0.1 * k) for k in range(4)]
    cert = ps.contraction_check(stack, [1.0] * n, [1.0] * n, points)
    levels = []
    original = sensitivity.steady_state_solve

    def counted(stack, level, point):
        levels.append(level)
        return original(stack, level, point)

    monkeypatch.setattr(sensitivity, "steady_state_solve", counted)
    assert ps.distance_bound_margins(stack, cert, []).shape == (0, n)
    assert levels == []
    ps.distance_bound_margins(stack, cert, points)
    assert sorted(levels) == sorted(list(range(n)) * len(points))


def test_distance_bounds_on_contractive_points(r2_stack):
    rng = np.random.default_rng(9)
    points = [rng.uniform(-5.0, 5.0, 2) for _ in range(100)]
    cert = ps.contraction_check(r2_stack, [1.0, 1.0], [2.0, 1.0], points)
    margins = ps.distance_bound_margins(r2_stack, cert, points)
    assert np.min(margins) >= -1e-9


def test_report_json_round_trip(r2_stack):
    report = ps.classify_local_stability(r2_stack, ps.PredictiveSensitivity(),
                                         [0.0, 0.0])
    data = report.to_json_dict()
    assert data["verdict"] == "ExponentiallyStable"
    assert data["eigenvalues"] == [[-1.0, 0.0], [-0.5, 0.0]]
    assert data["block_eigenvalues"] == [[[-1.0, 0.0]], [[-0.5, 0.0]]]
