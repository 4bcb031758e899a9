"""The fast-to-slow elimination recursion, steady-state solves, and the
restriction identities tying extended sensitivities to the solved maps."""

import numpy as np
import pytest

import predsens as ps
from predsens import casestudies as cs
from predsens import registry
from predsens.bilevel import as_system_stack
from predsens.sensitivity import (NEWTON_MAX_ITER, jacobian_grid, sensitivity_blocks,
                                  solve_checked, steady_state_map)


def test_r2_table_values(r2_stack):
    table = ps.total_derivative_table(r2_stack, [0.7, -1.9])
    assert np.allclose(table.sens[1][0], [[1.0]], rtol=0, atol=1e-14)
    assert np.allclose(table.total[0][0], [[-1.0]], rtol=0, atol=1e-14)


def test_decoupled_stack_sensitivity_is_zero():
    stack = ps.linear_stack([1, 1], [[[[-1.0]], [[1.0]]], [[[0.0]], [[-2.0]]]])
    table = ps.total_derivative_table(stack, [0.3, 0.5])
    assert np.all(table.sens[1][0] == 0.0)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(table.total[i][j], np.atleast_2d(table.partial[i][j]))


def test_linear3_hand_recursion(linear3_stack):
    table = ps.total_derivative_table(linear3_stack, [0.0, 0.0, 0.0])
    assert np.allclose(table.sens[2][1], [[1.0 / 3.0]], atol=1e-14)
    assert np.allclose(table.sens[2][0], [[1.0 / 3.0]], atol=1e-14)
    assert np.allclose(table.total[1][1], [[-5.0 / 3.0]], atol=1e-14)
    assert np.allclose(table.sens[1][0], [[4.0 / 5.0]], atol=1e-14)
    assert np.allclose(table.total[0][0], [[2.0 / 5.0]], atol=1e-14)


def test_defining_relation_holds_on_random_stacks(random_linear_suite):
    """D[i][i] S[i][j] = -D[i][j] for every j < i (residual <= 1e-10 rel)."""
    for stack in random_linear_suite[:30]:
        table = ps.total_derivative_table(stack, np.zeros(stack.total_dim))
        n = len(stack)
        for i in range(1, n):
            for j in range(i):
                lhs = table.total[i][i] @ table.sens[i][j]
                rhs = -table.total[i][j]
                scale = 1.0 + np.linalg.norm(rhs)
                assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale


def test_two_system_recursion_matches_direct_formula():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dims = [int(rng.integers(1, 4)), int(rng.integers(1, 4))]
        blocks = [[rng.normal(size=(dims[i], dims[j]))
                   - (3.0 * np.eye(dims[i]) if i == j else 0.0)
                   for j in range(2)] for i in range(2)]
        stack = ps.linear_stack(dims, blocks)
        x = rng.normal(size=stack.total_dim)
        table = ps.total_derivative_table(stack, x)
        grid = jacobian_grid(stack, x)
        s_direct = np.linalg.solve(grid[1][1], -grid[1][0])
        assert np.array_equal(table.sens[1][0], s_direct)
        assert np.array_equal(table.total[0][0], grid[0][0] + grid[0][1] @ s_direct)


def test_singular_diagonal_block_raises_with_level():
    stack = ps.linear_stack([1, 1], [[[[-1.0]], [[1.0]]], [[[1.0]], [[0.0]]]])
    for build in (ps.total_derivative_table, sensitivity_blocks):
        with pytest.raises(ps.SingularMatrixError) as err:
            build(stack, [0.0, 0.0])
        assert err.value.level == 1


def test_nan_diagonal_block_raises_singular_not_linalg_error():
    stack = ps.SystemStack([
        ps.Subsystem(1, lambda x: np.array([-x[0]]),
                     lambda x: [np.array([[-1.0]]), np.array([[0.0]])]),
        ps.Subsystem(1, lambda x: np.array([-x[1]]),
                     lambda x: [np.array([[1.0]]), np.array([[np.nan]])]),
    ])
    for build in (ps.total_derivative_table, sensitivity_blocks,
                  lambda s, x: ps.conditioned_field(s, ps.PredictiveSensitivity(), x)):
        with pytest.raises(ps.SingularMatrixError) as err:
            build(stack, [0.0, 0.0])
        assert err.value.level == 1
        assert np.isnan(err.value.cond)


@pytest.mark.parametrize("block, cond", [(0.0, np.inf), (np.inf, np.nan),
                                         (-np.inf, np.nan), (np.nan, np.nan)])
def test_solve_checked_rejects_zero_and_nonfinite_scalar_blocks(block, cond):
    for level in (None, 2):
        with pytest.raises(ps.SingularMatrixError) as err:
            solve_checked([[block]], np.array([1.0]), level=level)
        assert err.value.level == level
        assert np.array_equal(err.value.cond, cond, equal_nan=True)
        where = "" if level is None else f" at subsystem {level}"
        assert str(err.value) == (f"matrix{where} is numerically singular "
                                  f"(condition estimate {cond:.3e})")


def test_solve_checked_scalar_block_with_two_columns_matches_lapack():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = np.array([[rng.normal() * 10.0 ** rng.uniform(-8, 8)]])
        b = rng.normal(size=(1, 2)) * 10.0 ** rng.uniform(-8, 8)
        got = solve_checked(a, b)
        ref = np.linalg.solve(a, b)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("b", [np.ones(2), 1.0])
def test_solve_checked_scalar_block_rejects_mismatched_right_hand_side(b):
    with pytest.raises(ValueError):
        solve_checked([[2.0]], b)


def test_sensitivity_blocks_equal_the_table_on_bilevel_example():
    """bilevel-example's slow row is a finite-difference Jacobian, which the
    sensitivity-only path never builds; its S is the table's bit for bit at
    50 points in the basin of the origin (x2 near x1, 0.1 <= |x1| <= 0.45)."""
    stack = registry.get_stack("bilevel-example")
    rng = np.random.default_rng(41)
    for _ in range(50):
        x1 = rng.uniform(0.1, 0.45) * rng.choice([-1.0, 1.0])
        x = np.array([x1, x1 + rng.uniform(-0.05, 0.05)])
        blocks = sensitivity_blocks(stack, x)
        sens = ps.total_derivative_table(stack, x).sens
        for got in (blocks, sens):
            assert [[b is None for b in row] for row in got] == [[True, True], [False, True]]
        assert blocks[1][0].tobytes() == sens[1][0].tobytes()


def test_steady_state_r2(r2_stack):
    solved = ps.steady_state_solve(r2_stack, 1, [3.0, 0.0])
    assert abs(solved[1] - 3.0) <= 1e-12


def test_steady_state_trivial_decay():
    stack = ps.SystemStack([
        ps.Subsystem(1, lambda x: np.array([-x[0] + x[1]])),
        ps.Subsystem(1, lambda x: np.array([-x[1]])),
    ])
    solved = ps.steady_state_solve(stack, 1, [5.0, 1.0])
    assert abs(solved[1]) <= 1e-12


def test_steady_state_rlc_inner_loop():
    """With the voltage at its reference and zero integral error, the inner
    loop settles at the reference current with zero inner integral state."""
    params = cs.RlcParams()
    stack = cs.rlc_stack(params)
    vref = np.asarray(params.v_ref)
    fast = ps.steady_state_solve(stack, 1, np.concatenate([vref, np.zeros(6)]))[4:]
    i_ref = params.c * params.omega * (cs.ROT90 @ vref)
    assert np.allclose(fast[:2], i_ref, atol=1e-9)
    assert np.allclose(fast[2:], 0.0, atol=1e-9)


def test_steady_state_nonconvergence_reports_residual():
    stack = ps.SystemStack([
        ps.Subsystem(1, lambda x: np.array([-x[0]])),
        ps.Subsystem(1, lambda x: np.array([1.0 + x[1] ** 2])),  # no real root
    ])
    with pytest.raises(ps.ConvergenceError) as err:
        ps.steady_state_solve(stack, 1, [0.0, 0.5])
    assert err.value.residual is not None and err.value.residual > 0


def test_steady_state_out_of_iterations_reports_the_limit():
    """An analytic fast Jacobian 100x the true one makes every Newton step
    1/100 of the true one: the residual falls by 0.99 per step and is
    0.99**100 after the last."""
    stack = ps.SystemStack([
        ps.Subsystem(1, lambda x: np.array([-x[0]])),
        ps.Subsystem(1, lambda x: np.array([x[0] - x[1]]),
                     lambda x: [np.array([[100.0]]), np.array([[-100.0]])]),
    ])
    with pytest.raises(ps.ConvergenceError, match="no convergence within") as err:
        ps.steady_state_solve(stack, 1, [1.0, 0.0])
    assert err.value.iterations == NEWTON_MAX_ITER
    assert err.value.residual == pytest.approx(0.99 ** NEWTON_MAX_ITER, rel=1e-12)


def test_reduced_field_r2(r2_stack):
    assert np.allclose(ps.reduced_field(r2_stack, 0, [1.0, 0.0]), [-1.0],
                       atol=1e-12)


def test_reduced_field_without_coupling_equals_field(tracking_stack):
    # slow field does not read the fast block, so reduction changes nothing
    val = ps.reduced_field(tracking_stack, 0, [2.5, 0.0])
    assert np.allclose(val, [-2.5], rtol=0, atol=0)


def test_level_out_of_range_raises(r2_stack):
    for level in (-1, 2):
        with pytest.raises(IndexError):
            ps.steady_state_solve(r2_stack, level, [0.0, 0.0])
        with pytest.raises(IndexError):
            ps.reduced_field(r2_stack, level, [0.0, 0.0])


def test_steady_state_map_checks_its_level_and_takes_zero_rows(r2_stack):
    """On the affine and the per-point path alike, a level out of range
    raises when the map is built, and zero rows give zero rows of the width
    of the solved levels."""
    for stack in (r2_stack, as_system_stack(cs.bilevel_example_problem())):
        for level in (-1, 2):
            with pytest.raises(IndexError):
                steady_state_map(stack, level)
        for level in (0, 1):
            solved = steady_state_map(stack, level)(np.empty((0, 2)))
            assert solved.shape == (0, 2 - level)


def test_reduced_field_bilevel_stack_stationary_at_origin():
    stack = as_system_stack(cs.bilevel_example_problem())
    val = ps.reduced_field(stack, 0, [0.0, 0.0])
    assert np.allclose(val, [0.0], atol=1e-10)


def _fd_of_steady_map(stack, level, point, k, h):
    """Central difference of the steady state of block ``level`` with respect
    to the upstream coordinate ``k`` of ``point``, each solve started there."""
    block = slice(stack.offsets[level], stack.offsets[level + 1])
    step = h * np.eye(stack.total_dim)[k]
    sp = ps.steady_state_solve(stack, level, point + step)
    sm = ps.steady_state_solve(stack, level, point - step)
    return (sp[block] - sm[block]) / (2.0 * h)


def test_restriction_identity_linear3(linear3_stack):
    """On the steady-state manifold the table sensitivities match central
    differences of the re-solved steady-state maps (relative 1e-4)."""
    x1 = 0.8
    point = ps.steady_state_solve(linear3_stack, 1, [x1, 0.0, 0.0])
    table = ps.total_derivative_table(linear3_stack, point)
    for level in (1, 2):
        for j in range(level):
            fd = _fd_of_steady_map(linear3_stack, level, point, j, 1e-5)
            sens = table.sens[level][j][:, 0]
            assert np.linalg.norm(sens - fd) <= 1e-4 * (1 + np.linalg.norm(fd))


def test_restriction_identity_bilevel_stack():
    stack = as_system_stack(cs.bilevel_example_problem())
    rng = np.random.default_rng(11)
    for x1 in rng.uniform(-0.5, 0.5, 25):
        point = ps.steady_state_solve(stack, 1, [x1, x1])  # origin branch
        table = ps.total_derivative_table(stack, point)
        fd = _fd_of_steady_map(stack, 1, point, 0, 1e-5)
        rel = abs(table.sens[1][0][0, 0] - fd[0]) / max(1e-12, abs(fd[0]))
        assert rel <= 1e-4


def test_slow_total_matches_fd_of_reduced_field(linear3_stack):
    """D[0][0] equals the derivative of the reduced slow field (rel 1e-4)."""
    x1 = 0.4
    point = ps.steady_state_solve(linear3_stack, 1, [x1, 0.0, 0.0])
    table = ps.total_derivative_table(linear3_stack, point)
    h = 1e-5
    fp = ps.reduced_field(linear3_stack, 0, point + [h, 0.0, 0.0])
    fm = ps.reduced_field(linear3_stack, 0, point - [h, 0.0, 0.0])
    fd = (fp - fm) / (2.0 * h)
    assert abs(table.total[0][0][0, 0] - fd[0]) <= 1e-4 * (1 + abs(fd[0]))
