"""Stack construction, state plumbing, and finite-difference derivatives."""

import numpy as np
import pytest

import predsens as ps
from predsens import casestudies as cs
from predsens import registry
from predsens.model import write_csv
from predsens.sensitivity import jacobian_row


def test_flatten_split_bijection_bit_identical():
    rng = np.random.default_rng(0)
    for _ in range(50):
        dims = [int(d) for d in rng.integers(1, 5, size=rng.integers(1, 5))]
        stack = ps.SystemStack([ps.Subsystem(d, lambda x: x) for d in dims])
        x = rng.standard_normal(int(np.sum(dims))) * 10.0 ** rng.integers(-8, 8)
        off = stack.offsets
        blocks = [x[off[i]:off[i + 1]] for i in range(len(dims))]
        assert [b.size for b in blocks] == dims
        assert np.concatenate(blocks).tobytes() == x.tobytes()


def test_field_flags_wrong_field_length():
    stack = ps.SystemStack([
        ps.Subsystem(1, lambda x: np.array([x[0]])),
        ps.Subsystem(1, lambda x: np.array([x[1], x[1]])),  # length 2, dim 1
    ])
    with pytest.raises(ps.StackDefinitionError) as err:
        stack.field(np.zeros(2))
    assert err.value.index == 1


def _r2_with_jacobian(level: int, jacobian) -> ps.SystemStack:
    """r2 (f_0 = x_0 - 2 x_1, f_1 = (x_0 - x_1) / 2) with ``jacobian`` as
    the Jacobian provider of ``level`` and correct blocks elsewhere."""
    rows = [[[[1.0]], [[-2.0]]], [[[0.5]], [[-0.5]]]]
    fields = [lambda x: np.array([x[0] - 2.0 * x[1]]),
              lambda x: np.array([0.5 * x[0] - 0.5 * x[1]])]
    jacs = [lambda x, r=r: r for r in rows]
    jacs[level] = jacobian
    return ps.SystemStack([ps.Subsystem(1, f, j) for f, j in zip(fields, jacs)])


@pytest.mark.parametrize("level, jacobian", [
    (0, lambda x: [[[1.0]]]),                          # one block for two levels
    (1, lambda x: [[[0.5]], [[-0.5]], [[0.0]]]),       # three blocks
    (0, lambda x: [np.eye(2), [[-2.0]]]),               # (2, 2) block, 1-dim level
    (1, lambda x: [[[0.5]], [[-0.5], [0.0]]]),          # (2, 1) block
], ids=["one-block", "three-blocks", "2x2-block", "2x1-block"])
def test_mismatched_jacobian_provider_names_its_level(level, jacobian):
    stack = _r2_with_jacobian(level, jacobian)
    with pytest.raises(ps.StackDefinitionError) as err:
        ps.total_derivative_table(stack, [0.0, 0.0])
    assert err.value.index == level
    for scheme in (ps.Plain(), ps.PredictiveSensitivity()):
        with pytest.raises(ps.StackDefinitionError) as err:
            ps.classify_local_stability(stack, scheme, [0.0, 0.0])
        assert err.value.index == level


@pytest.mark.parametrize("dims, point", [
    ((1, 2), [[0.1], [0.2, 0.3]]),        # ragged block list
    ((1, 1), [[0.1], [0.2]]),             # equal-size block list
    ((1, 1), np.array([[0.1], [0.2]])),   # column array
    ((1, 1), [0.1, 0.2, 0.3]),            # wrong length
], ids=["ragged-list", "equal-size-list", "column-array", "wrong-length"])
def test_only_a_flat_point_is_accepted(dims, point):
    cuts = np.cumsum((0,) + dims)
    stack = ps.SystemStack([ps.Subsystem(d, lambda x, a=a, b=b: -x[a:b])
                            for d, a, b in zip(dims, cuts[:-1], cuts[1:])])
    settings = ps.IntegrationSettings("rk4", 0.1, 0.2)
    with pytest.raises(ps.StackDefinitionError):
        ps.integrate_ode(stack, ps.PredictiveSensitivity(), point, settings)
    with pytest.raises(ps.StackDefinitionError):
        ps.total_derivative_table(stack, point)
    with pytest.raises(ps.StackDefinitionError):
        ps.steady_state_solve(stack, 0, point)
    with pytest.raises(ps.StackDefinitionError):
        ps.reduced_field(stack, 0, point)


def test_fd_jacobian_square():
    jac = ps.finite_difference_jacobian(lambda x: x ** 2, [2.0], step=1e-6)
    assert abs(jac[0, 0] - 4.0) <= 1e-6


def test_fd_jacobian_constant_field_is_zero():
    jac = ps.finite_difference_jacobian(lambda x: np.array([3.0, -1.0]), [0.3, -0.7])
    assert np.all(jac == 0.0)


def test_fd_jacobian_linear_field_exact():
    # central differences have no truncation error on a linear field; what
    # remains is subtraction rounding, eps * |f| / h ~ 1e-10
    a = np.array([[1.0, -2.0], [0.5, -0.5]])
    jac = ps.finite_difference_jacobian(lambda x: a @ x, [0.7, -1.3])
    assert np.allclose(jac, a, rtol=0, atol=1e-9)


def test_fd_jacobian_rejects_nonfinite_and_bad_step():
    with pytest.raises(ps.EvaluationError):
        ps.finite_difference_jacobian(lambda x: np.array([np.nan]), [1.0])
    with pytest.raises(ValueError):
        ps.finite_difference_jacobian(lambda x: x, [1.0], step=0.0)


@pytest.mark.parametrize("name", ["r2", "tracking", "linear3", "cascade", "rlc",
                                  "bilevel-example"])
def test_analytic_jacobians_match_central_differences(name):
    """Every analytic block agrees with the finite-difference block to
    1e-5 * (1 + norm) on 100 random points in [-2, 2]^total_dim."""
    stack = registry.get_stack(name)
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, stack.total_dim)
        for i, sub in enumerate(stack.subsystems):
            if sub.jacobian is None:
                continue
            analytic = np.hstack(jacobian_row(stack, i, x))
            fd = ps.finite_difference_jacobian(lambda y: stack.field_block(i, y), x)
            bound = 1e-5 * (1.0 + np.linalg.norm(analytic))
            assert np.linalg.norm(analytic - fd) <= bound


def test_scaled_stack_multiplies_fields_and_jacobians():
    stack = registry.get_stack("r2")
    scaled = stack.scaled(0.1)
    x = np.array([1.3, -0.4])
    assert np.allclose(scaled.field(x), 0.1 * stack.field(x), rtol=0, atol=0)
    row = jacobian_row(scaled, 1, x)
    assert np.allclose(np.hstack(row), 0.1 * np.array([[0.5, -0.5]]))
    assert all(s.constant_jacobian for s in scaled.subsystems)


def test_linear_stack_validation_errors():
    with pytest.raises(ps.StackDefinitionError):
        ps.linear_stack([1, 1], [[[[1.0]], [[1.0]]]])  # missing a block row
    with pytest.raises(ps.StackDefinitionError) as err:
        ps.linear_stack([1, 2], [[[[1.0]], [[1.0, 2.0]]],
                                 [[[1.0], [1.0]], [[1.0, 2.0]]]])  # (1,2) wrong shape
    assert err.value.index == 1


#: Values whose ``%.17g`` text is easy to get wrong.
SPECIAL_VALUES = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300])


@pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 1023, 1024, 1025, 20001])
def test_write_csv_bytes_are_savetxts(tmp_path, rows):
    """The block writer gives ``np.savetxt``'s bytes on an integer index
    column and 1-D and 2-D float columns, special values included, at row
    counts around 64 and 1 024 (``CSV_BLOCK_ROWS``) rows."""
    rng = np.random.default_rng(rows)
    values = rng.normal(size=(rows, 5)) * 10.0 ** rng.integers(-20, 20, size=(rows, 5))
    flat = values.reshape(-1)
    k = min(flat.size, SPECIAL_VALUES.size)
    flat[:k] = SPECIAL_VALUES[:k]
    flat[flat.size - k:] = SPECIAL_VALUES[:k]
    columns = [np.arange(rows), values[:, :2], values[:, 2], values[:, 3:]]
    header = "iter,a_0,a_1,b,c_0,c_1"
    write_csv(tmp_path / "blocks.csv", header, columns)
    np.savetxt(tmp_path / "savetxt.csv", np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_write_csv_checks_lengths_before_opening(tmp_path):
    """Columns of unequal length raise before the file is created, and leave
    an existing file as it was."""
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        write_csv(path, "a,b", [np.zeros(3), np.zeros((4, 1))])
    assert not path.exists()
    path.write_text("kept\n")
    with pytest.raises(ValueError):
        write_csv(path, "a,b", [np.zeros(3), np.zeros(4)])
    assert path.read_text() == "kept\n"
