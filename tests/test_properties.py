"""Property tests over random affine stacks (derandomized, so reproducible)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import predsens as ps  # noqa: E402
from predsens.sensitivity import steady_state_map  # noqa: E402

entries = st.floats(-1.0, 1.0)


@st.composite
def affine_stack_level_point(draw):
    """A stack shaped like ``random_linear_suite`` (N in {2, 3}, block dims
    1..3, diagonal blocks shifted by -3 I) with offsets, a level and a point."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    n, total = len(dims), sum(dims)
    a = np.array(draw(st.lists(entries, min_size=total * total, max_size=total * total)))
    a = a.reshape(total, total) - 3.0 * np.eye(total)
    off = np.cumsum([0] + dims)
    blocks = [[a[off[i]:off[i + 1], off[j]:off[j + 1]] for j in range(n)] for i in range(n)]
    c = np.array(draw(st.lists(entries, min_size=total, max_size=total)))
    offsets = [c[off[i]:off[i + 1]] for i in range(n)]
    level = draw(st.integers(0, n - 1))
    x = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=total, max_size=total)))
    assume(np.linalg.cond(a[off[level]:, off[level]:]) < 1e3)
    return ps.linear_stack(dims, blocks, offsets), level, x


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
