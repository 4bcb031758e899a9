"""Property tests over random affine stacks (derandomized, so reproducible)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import predsens as ps  # noqa: E402
from predsens.sensitivity import (sensitivity_blocks, solve_checked,  # noqa: E402
                                  steady_state_map)

entries = st.floats(-1.0, 1.0)


@st.composite
def affine_stack_point(draw, max_levels):
    """A stack shaped like ``random_linear_suite`` (2..max_levels levels, block
    dims 1..3, diagonal blocks shifted by -3 I) with offsets, its dense matrix
    and a point."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=max_levels))
    n, total = len(dims), sum(dims)
    a = np.array(draw(st.lists(entries, min_size=total * total, max_size=total * total)))
    a = a.reshape(total, total) - 3.0 * np.eye(total)
    off = np.cumsum([0] + dims)
    blocks = [[a[off[i]:off[i + 1], off[j]:off[j + 1]] for j in range(n)] for i in range(n)]
    c = np.array(draw(st.lists(entries, min_size=total, max_size=total)))
    offsets = [c[off[i]:off[i + 1]] for i in range(n)]
    x = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=total, max_size=total)))
    return ps.linear_stack(dims, blocks, offsets), a, x


@st.composite
def affine_stack_level_point(draw):
    """An ``affine_stack_point`` with N in {2, 3} and a level whose joint
    block from that level on is well conditioned."""
    stack, a, x = draw(affine_stack_point(3))
    level = draw(st.integers(0, len(stack) - 1))
    cut = stack.offsets[level]
    assume(np.linalg.cond(a[cut:, cut:]) < 1e3)
    return stack, level, x


@settings(derandomize=True, deadline=None)
@given(affine_stack_level_point())
def test_steady_state_solve_keeps_upstream_and_matches_the_map(case):
    stack, level, x = case
    cut = stack.offsets[level]
    solved = ps.steady_state_solve(stack, level, x)
    assert solved[:cut].tobytes() == x[:cut].tobytes()
    scale = 1.0 + float(np.max(np.abs(solved)))
    for j in range(level, len(stack)):
        assert np.linalg.norm(stack.field_block(j, solved)) <= 1e-9 * scale
    mapped = steady_state_map(stack, level)(x[None, :])[0]
    tail = solved[cut:]
    assert np.linalg.norm(tail - mapped) <= 1e-10 * (1.0 + np.linalg.norm(tail))


@settings(derandomize=True, deadline=None)
@given(affine_stack_point(4))
def test_sensitivity_blocks_are_the_tables_s(case):
    """The sensitivity-only recursion returns the table's S bit for bit, None
    in the same places, or raises for the same singular level."""
    stack, _, x = case
    try:
        sens = ps.total_derivative_table(stack, x).sens
    except ps.SingularMatrixError as exc:
        with pytest.raises(ps.SingularMatrixError) as err:
            sensitivity_blocks(stack, x)
        assert err.value.level == exc.level
        return
    blocks = sensitivity_blocks(stack, x)
    assert len(blocks) == len(sens)
    for row, ref_row in zip(blocks, sens):
        assert len(row) == len(ref_row)
        for blk, ref in zip(row, ref_row):
            assert (blk is None) == (ref is None)
            assert ref is None or (blk.shape == ref.shape and blk.tobytes() == ref.tobytes())


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None)
@given(finite.filter(lambda v: v != 0.0), finite, st.sampled_from([(1,), (1, 1)]))
@example(5e-324, 1.0, (1,))
@example(-1e-300, 1e300, (1, 1))
def test_scalar_block_solve_is_lapacks_bit_for_bit(a, b, shape):
    """A finite nonzero 1x1 block against one right-hand column gives
    ``np.linalg.solve``'s shape and bytes, overflow to inf included, with no
    warning."""
    a, b = np.array([[a]]), np.full(shape, b)
    got = solve_checked(a, b)
    ref = np.linalg.solve(a, b)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
