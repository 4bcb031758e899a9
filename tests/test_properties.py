"""Property tests over random affine stacks (derandomized, so reproducible)."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import predsens as ps  # noqa: E402
from predsens import casestudies, integrate, registry  # noqa: E402
from predsens.casestudies import bilevel_example_problem  # noqa: E402
from predsens.cli import (CASCADE_FLAGS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,  # noqa: E402
                          parse_linear_stack, run, serialize_linear_stack)
from predsens.conditioning import (compile_scheme, conditioned_jacobian,  # noqa: E402
                                   make_conditioned_field)
from predsens.model import write_csv  # noqa: E402
from predsens.sensitivity import (sensitivity_blocks, solve_checked,  # noqa: E402
                                  steady_state_map)
from predsens.stability import _sorted_eigs  # noqa: E402

entries = st.floats(-1.0, 1.0)


@st.composite
def affine_stack_point(draw, max_levels, shifts=st.just(3.0), max_dim=3):
    """A stack shaped like ``random_linear_suite`` (2..max_levels levels, block
    dims 1..max_dim, diagonal blocks shifted by -3 I, or by minus a draw from
    ``shifts``) with offsets, its dense matrix and a point."""
    dims = draw(st.lists(st.integers(1, max_dim), min_size=2, max_size=max_levels))
    n, total = len(dims), sum(dims)
    a = np.array(draw(st.lists(entries, min_size=total * total, max_size=total * total)))
    a = a.reshape(total, total) - draw(shifts) * np.eye(total)
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
    per_point = ps.SystemStack([dataclasses.replace(s, constant_jacobian=False)
                                for s in stack.subsystems])
    assert steady_state_map(per_point, level)(x[None, :])[0].tobytes() == tail.tobytes()


@st.composite
def well_conditioned_affine_stack_point(draw):
    """An ``affine_stack_point`` with N in {2, 3} whose joint blocks from
    every level on are well conditioned, so every D[i][i] is invertible."""
    stack, a, x = draw(affine_stack_point(3))
    assume(all(np.linalg.cond(a[cut:, cut:]) < 1e3 for cut in stack.offsets[:-1]))
    return stack, x


@settings(derandomize=True, deadline=None, max_examples=50)
@given(well_conditioned_affine_stack_point())
def test_equilibria_are_fixed_points_of_euler_and_rk4(case):
    """One step of either method from an equilibrium stays there to 1e-9
    relative, under every scheme."""
    stack, x = case
    n = len(stack)
    x_eq = ps.steady_state_solve(stack, 0, x)
    schemes = [ps.Plain(), ps.SingularPerturbation([1.0] + [0.5] * (n - 1)),
               ps.PredictiveSensitivity(), ps.Preconditioned([float(k + 2) for k in range(n)]),
               ps.ApproximateSensitivity(ps.noisy_sensitivity_provider(0.1))]
    for method in ("euler", "rk4"):
        for scheme in schemes:
            traj = ps.integrate_ode(stack, scheme, x_eq, ps.IntegrationSettings(method, 0.01, 0.01))
            assert traj.states.shape == (2, stack.total_dim) and not traj.diverged
            assert np.linalg.norm(traj.final_state - x_eq) <= 1e-9 * (1.0 + np.linalg.norm(x_eq))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(well_conditioned_affine_stack_point(), st.data())
def test_one_table_verdict_matches_two_table_spectra(case, data):
    """At a steady state, under the exact schemes, the verdict's spectrum is
    that of ``jacobian_at`` and its block spectra are those of H_i D[i][i]
    from a table built on its own, bit for bit, and the two agree as a
    multiset (``classify_local_stability`` raises ``ConvergenceError`` if
    not)."""
    stack, x = case
    n = len(stack)
    x_eq = ps.steady_state_solve(stack, 0, x)
    gains = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    table = ps.total_derivative_table(stack, x_eq)
    for scheme in (ps.PredictiveSensitivity(), ps.Preconditioned(gains)):
        report = ps.classify_local_stability(stack, scheme, x_eq)
        jac = ps.jacobian_at(stack, scheme, x_eq)
        assert report.eigenvalues.tobytes() == _sorted_eigs(jac).tobytes()
        cond = compile_scheme(stack, scheme)
        assert len(report.block_eigenvalues) == n
        for i, lams in enumerate(report.block_eigenvalues):
            assert lams.tobytes() == _sorted_eigs(cond.gain(i, table.total[i][i])).tobytes()


def _assert_jacobian_is_the_fields(stack, x_eq):
    """``jacobian_at`` equals the finite-difference Jacobian of the
    conditioned field at the steady state ``x_eq``, to 1e-6 relative, under
    every scheme whose field is continuous in the state."""
    n = len(stack)
    frozen = ps.frozen_sensitivity_provider(stack, x_eq)
    schemes = [ps.Plain(), ps.SingularPerturbation([1.0] + [0.5] * (n - 1)),
               ps.PredictiveSensitivity(), ps.Preconditioned([float(k + 2) for k in range(n)]),
               ps.ApproximateSensitivity(frozen)]
    for scheme in schemes:
        jac = ps.jacobian_at(stack, scheme, x_eq)
        fd = ps.finite_difference_jacobian(lambda y: ps.conditioned_field(stack, scheme, y), x_eq)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * (1.0 + np.max(np.abs(jac))), scheme


@settings(derandomize=True, deadline=None, max_examples=50)
@given(well_conditioned_affine_stack_point())
def test_assembled_jacobian_is_the_conditioned_fields(case):
    stack, x = case
    _assert_jacobian_is_the_fields(stack, ps.steady_state_solve(stack, 0, x))


@pytest.mark.parametrize("name", sorted(registry.BUILTIN_STACKS))
def test_assembled_jacobian_is_the_conditioned_fields_on_builtins(name):
    _assert_jacobian_is_the_fields(registry.get_stack(name), registry.equilibrium(name))


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


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.lists(entries, min_size=25, max_size=25))
def test_sensitivity_blocks_of_strided_jacobian_views_are_the_tables_s(flat):
    """A Jacobian may hand out strided views, here every other column of a
    wider read-only array. numpy multiplies such a view outside BLAS, which
    can round differently from its copy: with dims (1, 2, 2) the middle
    level's D[1][2] (2x2) meets the 2x1 S[2][0] in a matrix-vector product.
    The S-only recursion still gives the table's S bit for bit."""
    dims, off = (1, 2, 2), (0, 1, 3, 5)
    a = np.reshape(flat, (5, 5)) - 3.0 * np.eye(5)
    wide = np.repeat(a, 2, axis=1)
    wide.flags.writeable = False

    def make(i):
        rows = slice(off[i], off[i + 1])
        return ps.Subsystem(dims[i], lambda x: a[rows] @ x,
                            lambda _x: [wide[rows, 2 * off[j]:2 * off[j + 1]:2] for j in range(3)])

    stack, x = ps.SystemStack([make(i) for i in range(3)]), np.zeros(5)
    try:
        sens = ps.total_derivative_table(stack, x).sens
    except ps.SingularMatrixError:
        assume(False)
    for row, ref_row in zip(sensitivity_blocks(stack, x), sens):
        for blk, ref in zip(row, ref_row):
            assert ref is None or blk.tobytes() == ref.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None)
@given(finite.filter(lambda v: v != 0.0), finite, st.sampled_from([(1,), (1, 1)]))
@example(5e-324, 1.0, (1,))
@example(-1e-300, 1e300, (1, 1))
@example(0.5, 1.7e308, (1,))
@example(1e-300, -1e-10, (1, 1))
def test_scalar_block_solve_is_lapacks_bit_for_bit(a, b, shape):
    """A finite nonzero 1x1 block against one right-hand column gives
    ``np.linalg.solve``'s shape and bytes, overflow to inf included, with no
    warning."""
    a, b = np.array([[a]]), np.full(shape, b)
    got = solve_checked(a, b)
    ref = np.linalg.solve(a, b)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@st.composite
def scheme_and_vector(draw, max_dim=3):
    """An ``affine_stack_point`` with one of the five schemes for its levels
    and a vector to condition. The approximate scheme's provider is noisy, or
    frozen at a drawn point."""
    stack, _, x = draw(affine_stack_point(4, max_dim=max_dim))
    n, dims = len(stack), stack.dims
    kind = draw(st.sampled_from(["plain", "singular", "predsens", "precond", "approx"]))
    if kind == "plain":
        scheme = ps.Plain()
    elif kind == "singular":
        tail = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1))
        scheme = ps.SingularPerturbation([1.0] + sorted(tail, reverse=True))
    elif kind == "predsens":
        scheme = ps.PredictiveSensitivity()
    elif kind == "precond":
        gains = []
        for d in dims:
            if draw(st.booleans()):
                gains.append(draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([-1.0, 1.0])))
            else:  # diagonally dominant, so invertible
                flat = draw(st.lists(st.floats(-0.4, 0.4), min_size=d * d, max_size=d * d))
                gains.append(2.0 * np.eye(d) + np.reshape(flat, (d, d)))
        scheme = ps.Preconditioned(gains)
    elif draw(st.booleans()):
        scheme = ps.ApproximateSensitivity(
            ps.noisy_sensitivity_provider(0.1, draw(st.integers(0, 2 ** 31))))
    else:
        at = draw(st.lists(st.floats(-10.0, 10.0), min_size=stack.total_dim,
                           max_size=stack.total_dim))
        try:
            scheme = ps.ApproximateSensitivity(ps.frozen_sensitivity_provider(stack, at))
        except ps.SingularMatrixError:
            assume(False)
    v = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=stack.total_dim,
                               max_size=stack.total_dim)))
    return stack, scheme, x, v


@settings(derandomize=True, deadline=None)
@given(scheme_and_vector())
def test_conditioning_matrix_inverts_its_apply_inverse(case):
    """``M @ apply_inverse(v) == v`` for every scheme, to 1e-12 relative to
    ``|M| @ |apply_inverse(v)|``, the scale of the products summed."""
    stack, scheme, x, v = case
    try:
        m, apply_inverse = ps.conditioning_matrix(stack, scheme, x)
    except ps.SingularMatrixError:
        assume(False)
    w = apply_inverse(v)
    assert np.linalg.norm(m @ w - v) <= 1e-12 * np.linalg.norm(np.abs(m) @ np.abs(w))


@settings(derandomize=True, deadline=None)
@given(scheme_and_vector(max_dim=6))
def test_conditioned_jacobian_is_apply_inverse_column_by_column(case):
    """The batched Jacobian equals, bit for bit, ``apply_inverse`` of
    ``conditioning_matrix`` applied to one column of grad f at a time, and is
    C-ordered, so a product with it rounds as one with that column stack."""
    stack, scheme, x, _ = case
    try:
        jac = conditioned_jacobian(stack, scheme, x)[0]
        apply_inverse = ps.conditioning_matrix(stack, scheme, x)[1]
    except ps.SingularMatrixError:
        assume(False)
    grad = np.block(ps.jacobian_grid(stack, x))
    ref = np.column_stack([apply_inverse(col) for col in grad.T])
    assert jac.flags.c_contiguous
    assert jac.shape == ref.shape
    assert np.array_equal(jac.view(np.uint64), ref.view(np.uint64))


def _match_reference(a, b):
    """``match_eigenvalues`` on numpy scalars: ``np.argmin`` over the
    ``abs`` of ``np.complex128`` differences."""
    a, b = list(np.asarray(a, dtype=complex)), list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        return np.inf
    worst = 0.0
    for lam in a:
        k = int(np.argmin([abs(lam - mu) for mu in b]))
        worst = max(worst, abs(lam - b.pop(k)))
    return worst


@st.composite
def spectrum(draw):
    """Real eigenvalues and conjugate pairs, some of them repeated."""
    reals = draw(st.lists(st.floats(-10.0, 10.0), max_size=4))
    pairs = draw(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(1e-3, 10.0)), max_size=3))
    lams = [complex(r) for r in reals] + [complex(re, s * im) for re, im in pairs for s in (1, -1)]
    return lams + (draw(st.lists(st.sampled_from(lams), max_size=3)) if lams else [])


@settings(derandomize=True, deadline=None)
@given(spectrum(), spectrum(), st.data())
def test_match_eigenvalues_is_the_numpy_scalar_reference(a, other, data):
    """On a permuted copy of ``a`` whose entries moved by 0 or by rounding-sized
    to unit-sized steps, and on an unrelated spectrum (often of another
    length), the distance is the numpy-scalar reference's, as a Python float."""
    steps = st.sampled_from([0.0, 1e-15, 1e-9, 1e-3, 1.0])
    moved = [mu + complex(data.draw(steps), data.draw(steps))
             for mu in data.draw(st.permutations(a))]
    for b in (moved, other):
        got = ps.match_eigenvalues(a, b)
        assert type(got) is float
        assert got == _match_reference(a, b)


EXAMPLE = bilevel_example_problem()

in_basin_start = st.builds(
    lambda size, sign, offset: np.array([sign * size, sign * size + offset]),
    st.floats(0.1, 0.45), st.sampled_from([-1.0, 1.0]), st.floats(-0.05, 0.05))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(in_basin_start, st.sampled_from([0.5, 0.25, 0.125]),
       st.sampled_from([None, 1.0, 0.5, 0.25, 0.125]))
def test_descent_is_iterated_discrete_step(x0, tau, eps):
    """``solve_discrete`` is ``discrete_step`` on the tau-scaled gradient-flow
    stack, bit for bit: under ``PredictiveSensitivity`` for ps (eps None) and
    ``SingularPerturbation((1, eps))`` for gda. Each residual is the hypot of
    the unscaled field blocks; a run-off iterate, where the field raises, has
    a NaN one."""
    log = ps.solve_discrete(EXAMPLE, "ps" if eps is None else "gda", tau, x0, eps=eps)
    stack = ps.as_system_stack(EXAMPLE)
    scaled = stack.scaled(tau)
    scheme = ps.PredictiveSensitivity() if eps is None else ps.SingularPerturbation((1.0, eps))
    x = x0
    for k, (it, res) in enumerate(zip(log.iterates, log.residuals)):
        assert it.tobytes() == x.tobytes()
        if np.isnan(res):
            assert k == log.iterations_used and log.diverged
            with pytest.raises(ps.SingularMatrixError):
                stack.field(it)
            break
        f = stack.field(it)
        assert res == np.hypot(np.linalg.norm(f[:1]), np.linalg.norm(f[1:]))
        if k < log.iterations_used:
            x = ps.discrete_step(scaled, scheme, x)


def _per_step_run(stack, scheme, x0, settings):
    """The affine loop with one ``p @ x + q`` and one max-norm test per step:
    a finite row past the limit is kept and ends the run, a non-finite one is
    dropped. Returns the rows and ``diverged_at``."""
    f = make_conditioned_field(stack, compile_scheme(stack, scheme))
    step = integrate._rk4_step if settings.method == "rk4" else integrate._euler_step
    dt = settings.dt
    p, q = integrate._step_map(f, step, dt, x0.size)
    limit = min(settings.divergence_threshold, integrate.OVERFLOW_LIMIT)
    rows, diverged_at = [x0], None
    with np.errstate(over="ignore", invalid="ignore"):  # the dropped-row runs overflow
        for k in range(int(round(settings.t_end / dt))):
            x = p @ rows[-1] + q
            size = np.abs(x).max()
            if not size < np.inf:
                diverged_at = (k + 1) * dt
                break
            rows.append(x)
            if size > limit:
                diverged_at = (k + 1) * dt
                break
    return np.array(rows), diverged_at


def growth_run(rate, threshold, steps, x0=1.0):
    """Euler with dt 1 on a slow level ``x' = rate x`` (a fast level decays):
    from ``(x0, 0)`` row k is ``((1 + rate)^k x0, 0)``."""
    stack = ps.linear_stack([1, 1], [[[[rate]], [[0.0]]], [[[0.0]], [[-1.0]]]])
    settings = ps.IntegrationSettings("euler", 1.0, float(steps), divergence_threshold=threshold)
    return stack, ps.Plain(), np.array([x0, 0.0]), settings


def ends_on_row(target, rows_after=5):
    """A ``growth_run`` whose first row past the threshold is ``target``,
    on a grid of ``rows_after`` more rows."""
    return growth_run(1 / 64, (1 + 1 / 64) ** (target - 0.5), target + rows_after)


def _assert_blocked_run_is_per_step(case):
    """``integrate_ode`` gives the rows, times and divergence of
    ``_per_step_run`` bit for bit, with ``diverged_at`` a float; returns the
    trajectory."""
    stack, scheme, x0, run_settings = case
    rows, diverged_at = _per_step_run(stack, scheme, x0, run_settings)
    traj = ps.integrate_ode(stack, scheme, x0, run_settings)
    assert traj.states.shape == rows.shape and traj.states.tobytes() == rows.tobytes()
    assert traj.times.tobytes() == (np.arange(len(rows)) * run_settings.dt).tobytes()
    assert traj.diverged == (diverged_at is not None)
    assert traj.diverged_at == diverged_at
    assert traj.diverged_at is None or type(traj.diverged_at) is float
    return traj


@st.composite
def affine_run(draw, max_dim=3):
    """A random affine stack (block dims 1..max_dim, diagonal blocks shifted
    by -3, 0, +1 or +3 I, so most runs grow), an exact scheme, a start and
    settings."""
    stack, _, x = draw(affine_stack_point(3, st.sampled_from([3.0, 0.0, -1.0, -3.0]), max_dim))
    n = len(stack)
    scheme = draw(st.sampled_from([ps.Plain(), ps.SingularPerturbation([1.0] + [0.5] * (n - 1)),
                                   ps.PredictiveSensitivity()]))
    dt = draw(st.sampled_from([0.01, 0.05, 0.1, 0.2]))
    settings = ps.IntegrationSettings(
        draw(st.sampled_from(["euler", "rk4"])), dt, draw(st.integers(200, 4200)) * dt,
        divergence_threshold=draw(st.sampled_from([10.0, 1e3, 1e6, np.inf])))
    return stack, scheme, x, settings


@settings(derandomize=True, deadline=None, max_examples=60)
@given(affine_run())
def test_blocked_affine_run_is_the_per_step_loop(case):
    """On random affine stacks the blocked loop is the per-step loop, runs
    that end at a threshold or past ``OVERFLOW_LIMIT`` included."""
    try:
        _assert_blocked_run_is_per_step(case)
    except ps.SingularMatrixError:
        assume(False)


def seeded_affine_run(dims, seed):
    """A fixed ``affine_run`` case: a seeded stack with diagonal
    blocks shifted by -1 I under predictive sensitivity, 2 000 RK4 steps."""
    rng = np.random.default_rng(seed)
    total, off = sum(dims), np.cumsum([0] + dims)
    a = rng.uniform(-1.0, 1.0, (total, total)) - np.eye(total)
    blocks = [[a[off[i]:off[i + 1], off[j]:off[j + 1]] for j in range(len(dims))]
              for i in range(len(dims))]
    stack = ps.linear_stack(dims, blocks, [rng.uniform(-1.0, 1.0, d) for d in dims])
    return (stack, ps.PredictiveSensitivity(), rng.uniform(-10.0, 10.0, total),
            ps.IntegrationSettings("rk4", 0.01, 20.0))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(affine_run(max_dim=6))
@example(seeded_affine_run([3, 3], 6))
@example(seeded_affine_run([1, 2, 3], 6))
def test_wide_blocked_affine_run_is_the_per_step_loop(case):
    """On random affine stacks of up to 18 states the blocked loop is the
    per-step ``p @ x + q`` loop bit for bit."""
    try:
        _assert_blocked_run_is_per_step(case)
    except ps.SingularMatrixError:
        assume(False)


def test_black_start_run_is_the_per_step_loop():
    """The converter black start (8 states, 20 000 RK4 steps at dt 1e-5,
    predictive sensitivity) is the per-step loop bit for bit."""
    stack = casestudies.rlc_stack(casestudies.RlcParams())
    run = (stack, ps.PredictiveSensitivity(), np.zeros(stack.total_dim),
           casestudies.default_black_start_settings())
    traj = _assert_blocked_run_is_per_step(run)
    assert traj.states.shape == (20001, 8) and not traj.diverged


#: Runs that end on a chosen row, as (case, index of the last row kept). The
#: affine blocks start at rows 1, 1025, 2049, 3073 and 4097; a block is cut
#: short where the grid ends, and the small-block runs end on the last row of
#: their grid, inside the first block.
FIXED_RUNS = {
    **{f"block-edge-{t}": (ends_on_row(t), t) for t in (1, 2, 1023, 1024, 1025, 4095, 4096, 4097)},
    **{f"small-block-edge-{t}": (ends_on_row(t, 0), t) for t in (2, 3, 11, 12, 47, 48)},
    # 1.5^852 is the first power past OVERFLOW_LIMIT
    "overflow-limit": (growth_run(0.5, np.inf, 2000), 852),
    "overflow-limit-small-blocks": (growth_run(0.5, np.inf, 852), 852),
    "inf-row-dropped": (growth_run(1e300, 1e6, 4, x0=1e10), 0),
    # 1e310 - 1e310 in one product: NaN, or -inf where the product is fused
    "cancelling-row-dropped": (
        (ps.linear_stack([1, 1], [[[[1e300]], [[-1e300]]], [[[0.0]], [[-1.0]]]]), ps.Plain(),
         np.array([1e10, 1e10]), ps.IntegrationSettings("euler", 1.0, 4.0)), 0),
}


@pytest.mark.parametrize("name", sorted(FIXED_RUNS))
def test_affine_run_ending_on_a_chosen_row_is_the_per_step_loop(name):
    """Runs that end on the first, last or next-to-last row of a block, past
    ``OVERFLOW_LIMIT`` or on a non-finite row (dropped) are the per-step loop
    too, and end where they are built to."""
    case, last = FIXED_RUNS[name]
    traj = _assert_blocked_run_is_per_step(case)
    assert traj.diverged and traj.diverged_at == float(last + 1 if "dropped" in name else last)
    assert traj.states.shape[0] == last + 1


@settings(derandomize=True, deadline=None)
@given(affine_stack_point(4))
def test_linear_stack_json_round_trip_is_exact(case):
    """``serialize_linear_stack`` -> JSON -> ``parse_linear_stack`` keeps the
    dims, every block and every offset bit for bit."""
    stack, a, _ = case
    config = serialize_linear_stack(stack)
    again = parse_linear_stack(json.loads(json.dumps(config)))
    assert again.dims == stack.dims
    assert serialize_linear_stack(again) == config
    off, zero = stack.offsets, np.zeros(stack.total_dim)
    for i, sub in enumerate(again.subsystems):
        for j, block in enumerate(sub.jacobian(zero)):
            assert block.tobytes() == a[off[i]:off[i + 1], off[j]:off[j + 1]].tobytes()
        assert again.field_block(i, zero).tobytes() == stack.field_block(i, zero).tobytes()


#: JSON scalars: numbers (finite, non-finite, and an integer too large for a
#: float), strings, bools and null; JSON values add lists and objects of them.
json_scalars = (st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-10.0, 10.0)
                | st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400])
                | st.text(max_size=2))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8)


@st.composite
def stack_config(draw):
    """``{dims, blocks, offsets}`` JSON data: a well-formed stack of 1-3
    levels of dims 1-2, with up to three of its nodes (all of ``dims``, a
    block row, a block, one entry, ...) replaced by a JSON value, a scalar
    at least half the time."""
    numbers = st.floats(-10.0, 10.0)
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    config = {"dims": dims, "blocks": [
        [[draw(st.lists(numbers, min_size=dj, max_size=dj)) for _ in range(di)] for dj in dims]
        for di in dims]}
    if draw(st.booleans()):
        config["offsets"] = [draw(st.lists(numbers, min_size=d, max_size=d)) for d in dims]
    for _ in range(draw(st.integers(0, 3))):
        node, key = config, draw(st.sampled_from(sorted(config)))
        while isinstance(node[key], list) and node[key] and draw(st.integers(0, 3)):
            node, key = node[key], draw(st.integers(0, len(node[key]) - 1))
        node[key] = draw(json_scalars | json_values)
    return json.loads(json.dumps(config))


NULL_BLOCK = {"dims": [1, 1], "blocks": [[None, [[0]]], [[[0]], [[-1]]]]}
TEXT_BOOL_BLOCKS = {"dims": [1, 1], "blocks": [["-1", [[True]]], [[[0]], [[-1]]]]}


def _text_or_bool_leaf(value) -> bool:
    """Whether JSON data, or numpy values in it, hold a string, bytes or a bool."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, dict)):
        return any(map(_text_or_bool_leaf, value.values() if isinstance(value, dict) else value))
    return isinstance(value, (str, bytes, bool))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(stack_config())
@example(NULL_BLOCK)
@example({**NULL_BLOCK, "blocks": [[[[10 ** 400]], [[0]]], NULL_BLOCK["blocks"][1]]})
@example(TEXT_BOOL_BLOCKS)
@example({**TEXT_BOOL_BLOCKS, "blocks": [[[[-1]], [[0]]], [[[0]], [[-1]]]],
          "offsets": [["1"], [False]]})
@example({**TEXT_BOOL_BLOCKS, "blocks": [[np.array([["-1"]]), [[b"0"]]], [[[0]], [[-1]]]],
          "offsets": [[np.bool_(True)], np.zeros(1)]})
def test_linear_stack_builds_or_refuses_json_data(config):
    """``linear_stack`` on JSON data builds a stack of finite numbers, which
    round-trips through ``serialize_linear_stack`` bit for bit, or raises
    ``StackDefinitionError`` (a ``ValueError``); nothing else escapes. A
    string or a bool in ``blocks`` or ``offsets`` always raises."""
    try:
        stack = ps.linear_stack(config["dims"], config["blocks"], config.get("offsets"))
    except ps.StackDefinitionError:
        return
    assert not _text_or_bool_leaf([config["blocks"], config.get("offsets")])
    again = serialize_linear_stack(stack)
    text = json.dumps(again, allow_nan=False)  # raises on a NaN or an infinity
    assert serialize_linear_stack(parse_linear_stack(json.loads(text))) == again


@settings(derandomize=True, deadline=None, max_examples=25)
@given(stack_config())
@example(NULL_BLOCK)
def test_stack_file_simulates_or_exits_2(config):
    """``predsens simulate --stack-file`` on JSON data exits 0, or exits 2
    and creates no output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "stack.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        code = run(["simulate", "--stack-file", str(path), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG)
        assert out.exists() == (code == EXIT_OK)


# A number as typed: any float's repr (NaN, the infinities, -0.0, huge and
# subnormal values among them), a small one, or text no float parses.
number_text = st.one_of(
    st.floats().map(repr), st.floats(-1.0, 1.0).map(repr),
    st.sampled_from(["", "-0", "1e400", "-1e-400", "0x1p-3"]),
    st.tuples(st.floats(-1.0, 1.0), st.sampled_from(["x", "e", ".5", " 1"])).map(
        lambda t: repr(t[0]) + t[1]))

MANGLED_BILEVEL_OPTION = {
    "method": st.sampled_from(["", "PS", "newton"]),
    "eps": number_text, "tau": number_text, "tol": number_text,
    "x0": st.one_of(st.lists(number_text, max_size=3).map(",".join),
                    st.sampled_from(["0.4,,0.4", "0.4,0.4,", ",0.4"])),
    "iters": st.one_of(st.integers(-2, 5).map(str), st.sampled_from(["", "2.5", "5x"])),
}


def _options(draw, opts: dict, mangled: dict, optional) -> list[str]:
    """``--flag=value`` for ``opts``, with up to two values replaced from
    ``mangled`` and up to two ``optional`` flags left out."""
    for flag in draw(st.sets(st.sampled_from(sorted(mangled)), max_size=2)):
        opts[flag] = draw(mangled[flag])
    for flag in draw(st.sets(st.sampled_from(sorted(optional)), max_size=2)):
        opts.pop(flag, None)
    return [f"--{flag}={value}" for flag, value in opts.items()]


@st.composite
def bilevel_argv(draw):
    """``predsens bilevel`` options: a run in the grammar, with up to two
    values replaced from ``MANGLED_BILEVEL_OPTION`` and up to two flags
    left out; ``--iters`` stays at most 5."""
    opts = {"method": draw(st.sampled_from(["ps", "gda"])),
            "tau": repr(draw(st.floats(0.01, 1.0))),
            "x0": ",".join(repr(draw(st.floats(-0.5, 0.5))) for _ in range(2)),
            "tol": repr(draw(st.floats(0.0, 1e-3))),
            "iters": str(draw(st.integers(0, 5)))}
    if opts["method"] == "gda":
        opts["eps"] = repr(draw(st.floats(0.1, 2.0)))
    optional = ("method", "tau", "x0", "tol", "eps")
    return _options(draw, opts, MANGLED_BILEVEL_OPTION, optional)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(bilevel_argv())
@example(["--tol=-1", "--iters=5"])
@example(["--method=ps", "--eps=0.5", "--iters=5"])
@example(["--x0=0.4,,0.4", "--iters=5"])
@example(["--tau=0.25x", "--iters=5"])
@example(["--tau=1e308", "--iters=5"])
@example(["--x0=1e200,0", "--method=gda", "--eps=5e-324", "--iters=5"])
@example(["--x0=0,1e200", "--iters=5"])
def test_bilevel_argv_runs_or_exits_with_one_line(argv):
    """``predsens bilevel`` exits 0 with its iterates, or exits 2 or 3 with
    one stderr line and no output directory; no warning is printed."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = Path(tmp) / "out", io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(["bilevel", *argv, f"--out={out}"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
        assert out.exists() == (code == EXIT_OK)
        if code == EXIT_OK:
            assert (out / "iterates.csv").is_file() and err.getvalue() == ""
        else:
            assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1


# Numbers past the grammar beside ``number_text``: signed zeros, the
# non-finite values, 1e±300 and subnormals.
mangled_number = number_text | st.sampled_from(
    ["0", "-0.0", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "1e-320", "-1e-320"])
# A step or a horizon past the grammar: beside an accepted other, each is
# refused or asks for a grid over ``MAX_STATE_BYTES``, so no run is long.
mangled_time = st.sampled_from(
    ["", "-0", "0", "-1", "nan", "inf", "1e300", "1e-300", "1e-320", "1e400", "0.01x", "0x1p-3"])
mangled_scheme = st.sampled_from(
    ["", "Plain", "predsens:1", "approx", "approx:noise:", "approx:noise:-0", "approx:frozen:x",
     "singular:", "singular:,0.5", "precond:", "precond:1,,2", "precond:1,2,"])
MISSPELT_KEYS = {"dims": ["dim", "Dims"], "blocks": ["block", "Blocks"],
                 "offsets": ["offset", "Offsets"]}
#: Stands for the path of the drawn stack file in a drawn argv.
STACK_FILE = "<stack file>"
BUILTIN_SIZES = {name: (stack.total_dim, len(stack)) for name in registry.BUILTIN_STACKS
                 for stack in [registry.get_stack(name)]}


def mangled_list(size: int):
    """Comma-separated numbers past the grammar, of about ``size`` entries."""
    return (st.lists(mangled_number, min_size=max(size - 1, 0), max_size=size + 1).map(",".join)
            | st.sampled_from(["", ",", "0,,0", "0,0,"]))


def numbers_text(size: int):
    return st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size).map(
        lambda xs: ",".join(map(repr, xs)))


@st.composite
def scheme_text(draw, levels: int):
    """A scheme in the grammar for ``levels`` levels, with at most one of its
    numbers replaced by a ``mangled_number``, or a token past the grammar."""
    kind = draw(st.sampled_from(["plain", "predsens", "approx:frozen", "singular", "precond",
                                 "approx:noise", "mangled"]))
    if kind == "mangled":
        return draw(mangled_scheme)
    if kind in ("plain", "predsens", "approx:frozen"):
        return kind
    if kind == "singular":
        numbers = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=levels - 1,
                                       max_size=levels - 1)), reverse=True)
    elif kind == "precond":
        numbers = draw(st.lists(st.floats(0.5, 3.0), min_size=levels, max_size=levels))
    else:
        numbers = [draw(st.floats(0.0, 0.1))]
    numbers = [repr(v) for v in numbers]
    if numbers and draw(st.booleans()):
        numbers[draw(st.integers(0, len(numbers) - 1))] = draw(mangled_number)
    return f"{kind}:{','.join(numbers)}"


@st.composite
def stack_args(draw):
    """``(argv, config, size, levels)``: ``--stack`` with a builtin name, or
    ``--stack-file`` with a ``stack_config``, one of whose keys may be misspelt."""
    if draw(st.integers(0, 3)):
        name = draw(st.sampled_from(sorted(registry.BUILTIN_STACKS)))
        return ["--stack", name], None, *BUILTIN_SIZES[name]
    config = draw(stack_config())
    dims = config.get("dims")
    size = sum(dims) if isinstance(dims, list) and all(type(d) is int for d in dims) else 2
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(config)))
        config[draw(st.sampled_from(MISSPELT_KEYS[key]))] = config.pop(key)
    return ["--stack-file", STACK_FILE], config, size, 2


@st.composite
def simulate_argv(draw):
    """``predsens simulate`` with at most 20 steps unless a time is mangled."""
    args, config, size, levels = draw(stack_args())
    dt = draw(st.sampled_from([0.01, 0.05, 0.1]))
    opts = {"scheme": draw(scheme_text(levels)), "x0": draw(numbers_text(size)),
            "method": draw(st.sampled_from(["euler", "rk4"])), "dt": repr(dt),
            "t-end": repr(draw(st.integers(1, 20)) * dt),
            "divergence-threshold": repr(draw(st.floats(1.0, 1e6)))}
    mangled = {"scheme": mangled_scheme, "x0": mangled_list(size),
               "method": st.sampled_from(["", "RK4", "heun"]), "dt": mangled_time,
               "t-end": mangled_time, "divergence-threshold": mangled_number}
    optional = ("scheme", "x0", "method", "divergence-threshold")
    return ["simulate", *args, *_options(draw, opts, mangled, optional)], config


@st.composite
def stability_argv(draw):
    args, config, size, levels = draw(stack_args())
    opts = {"scheme": draw(scheme_text(levels)), "point": draw(numbers_text(size)),
            "tol": repr(draw(st.floats(0.0, 1e-3)))}
    mangled = {"scheme": mangled_scheme, "point": mangled_list(size), "tol": mangled_number}
    return ["stability", *args, *_options(draw, opts, mangled, opts)], config


@st.composite
def cascade_argv(draw):
    opts = {name: repr(draw(st.floats(-3.0, 3.0))) for name in CASCADE_FLAGS}
    mangled = dict.fromkeys(CASCADE_FLAGS, mangled_number)
    return ["cascade", *_options(draw, opts, mangled, CASCADE_FLAGS)], None


@st.composite
def rlc_argv(draw):
    """``predsens rlc`` with at most 20 steps unless a time is mangled."""
    dt = draw(st.sampled_from([1e-5, 1e-4, 1e-3]))
    opts = {"kpi": repr(draw(st.floats(1.0, 100.0))), "kii": repr(draw(st.floats(1.0, 200.0))),
            "scheme": draw(scheme_text(2)), "dt": repr(dt),
            "t-end": repr(draw(st.integers(1, 20)) * dt)}
    mangled = {"kpi": mangled_number, "kii": mangled_number, "scheme": mangled_scheme,
               "dt": mangled_time, "t-end": mangled_time}
    return ["rlc", *_options(draw, opts, mangled, ("kpi", "kii", "scheme"))], None


R2_OFFSET_TYPO = {"dims": [1, 1], "blocks": [[[[1]], [[-2]]], [[[0.5]], [[-0.5]]]],
                  "offset": [[0.25], [-1.5]]}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(simulate_argv(), stability_argv(), cascade_argv(), rlc_argv()))
# numpy warnings and a multi-line message before the one stderr line
@example((["simulate", "--stack", "bilevel-example", "--x0", "1e200,0", "--t-end", "1"], None))
@example((["simulate", "--stack", "bilevel-example", "--scheme", "singular:1e-300",
           "--t-end", "0.01"], None))
@example((["rlc", "--dt", "1e-5", "--t-end", "0.00001", "--scheme", "approx:noise:1e300"], None))
@example((["stability", "--stack", "cascade", "--point", "1e200,0,0,0"], None))
@example((["stability", "--stack", "rlc", "--point", "1e200,0,0,0,0,0,0,0"], None))
@example((["stability", "--stack", "bilevel-example", "--point", "1e200,0"], None))
@example((["cascade", "--b1", "1e-320"], None))
@example((["cascade", "--kp2", "inf"], None))
@example((["cascade", "--ki2", "0"], None))  # a ZeroDivisionError traceback
# input once misread, each refused now
@example((["simulate", "--stack", "r2", "--dt", "1e-300", "--t-end", "1"], None))
@example((["stability", "--stack", "r2", "--scheme", "precond:1,,2"], None))
@example((["stability", "--stack", "r2", "--scheme", "precond:1,2,"], None))
@example((["stability", "--stack", "r2", "--scheme", "singular:,0.5"], None))
@example((["stability", "--stack", "r2", "--point", "0,,0"], None))
@example((["stability", "--stack", "r2", "--point", ""], None))
@example((["simulate", "--stack", "r2", "--x0", ""], None))
@example((["simulate", "--stack-file", STACK_FILE], R2_OFFSET_TYPO))
@example((["stability", "--stack", "r2", "--tol", "-1"], None))
@example((["simulate", "--stack", "bilevel-example", "--scheme", "approx:noise:-0"], None))
def test_argv_runs_or_exits_with_one_line(case):
    """``predsens simulate``, ``stability``, ``cascade`` and ``rlc`` exit 0
    with their files, or exit 2 or 3 with one stderr line and no output
    directory; no warning is printed."""
    argv, config = case
    with tempfile.TemporaryDirectory() as tmp:
        out, err, path = Path(tmp) / "out", io.StringIO(), Path(tmp) / "stack.json"
        if config is not None:
            path.write_text(json.dumps(config))
        argv = [str(path) if arg == STACK_FILE else arg for arg in argv]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run([*argv, f"--out={out}"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
        assert out.exists() == (code == EXIT_OK)
        text = err.getvalue()
        if code == EXIT_OK:
            assert text == ""
        else:
            assert text.endswith("\n") and text.count("\n") == 1 and "Warning" not in text


@settings(derandomize=True, deadline=None, max_examples=50)
@given(well_conditioned_affine_stack_point(), st.sampled_from([0.01, 0.1, 0.3]))
def test_step_map_is_one_step_of_the_per_call_field(case, dt):
    """``x -> P x + q`` from the compiled field agrees with one Euler and one
    RK4 step through the per-call field, to 1e-12 of the state scale, under
    every scheme with an affine field."""
    stack, x = case
    n = len(stack)
    per_call = ps.SystemStack([dataclasses.replace(s, constant_jacobian=False)
                               for s in stack.subsystems])
    for scheme in (ps.Plain(), ps.SingularPerturbation([1.0] + [0.5] * (n - 1)),
                   ps.PredictiveSensitivity(), ps.Preconditioned([float(k + 2) for k in range(n)])):
        compiled = make_conditioned_field(stack, compile_scheme(stack, scheme))
        field = make_conditioned_field(per_call, compile_scheme(per_call, scheme))
        for step in (integrate._euler_step, integrate._rk4_step):
            p, q = integrate._step_map(compiled, step, dt, x.size)
            ref = step(field, x, dt)
            scale = 1.0 + max(np.abs(x).max(), np.abs(ref).max())
            assert np.abs(p @ x + q - ref).max() <= 1e-12 * scale, (scheme, step)


@st.composite
def nonlinear_stack_point(draw):
    """A 3-level stack with 2-dim levels, ``f_i(x) = A_i x + tanh(B_i x) / 4``
    with the diagonal blocks of A shifted by -3 I, and a point. Each level
    has an analytic Jacobian or none (finite differences), as drawn; an
    analytic one returns read-only blocks, the last of which are kept in the
    returned dict under the level's index."""
    a = np.array(draw(st.lists(entries, min_size=36, max_size=36))).reshape(6, 6) - 3.0 * np.eye(6)
    b = np.array(draw(st.lists(entries, min_size=36, max_size=36))).reshape(6, 6)
    analytic = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    returned = {}

    def make(i):
        rows = slice(2 * i, 2 * i + 2)

        def field(x):
            return a[rows] @ x + 0.25 * np.tanh(b[rows] @ x)

        def jacobian(x):
            full = a[rows] + 0.25 * (1.0 - np.tanh(b[rows] @ x) ** 2)[:, None] * b[rows]
            full.flags.writeable = False
            returned[i] = [full[:, 2 * j:2 * j + 2] for j in range(3)]
            return returned[i]

        return ps.Subsystem(2, field, jacobian if analytic[i] else None)

    x = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6)))
    return ps.SystemStack([make(i) for i in range(3)]), returned, x


def _five_schemes(stack, seed):
    """The five schemes, the approximate one with a noisy and with a frozen
    provider; the preconditioned one has a scalar gain on level 0 and matrix
    gains on the others."""
    n, dims = len(stack), stack.dims
    x0 = np.zeros(stack.total_dim)
    return [ps.Plain(), ps.SingularPerturbation([1.0] + [0.5] * (n - 1)),
            ps.PredictiveSensitivity(),
            ps.Preconditioned([2.0] + [np.eye(d) + 0.25 * np.ones((d, d)) for d in dims[1:]]),
            ps.ApproximateSensitivity(ps.noisy_sensitivity_provider(0.1, seed)),
            ps.ApproximateSensitivity(ps.frozen_sensitivity_provider(stack, x0))]


def _reference_field(stack, scheme, x):
    """M^{-1} f at ``x`` from public pieces: the field blocks, the table's
    (or the provider's) S and the scheme's gains, forward-substituted here."""
    n, dims = len(stack), stack.dims
    f = [stack.field_block(i, x) for i in range(n)]
    sens, gains = None, [lambda v: v] * n
    if isinstance(scheme, ps.SingularPerturbation):
        gains = [lambda v, e=e: v / e for e in scheme.epsilons]
    if isinstance(scheme, (ps.PredictiveSensitivity, ps.Preconditioned)):
        sens = ps.total_derivative_table(stack, x).sens
    if isinstance(scheme, ps.Preconditioned):
        mats = [g * np.eye(d) if np.ndim(g) == 0 else g for g, d in zip(scheme.gains, dims)]
        gains = [lambda v, h=h: h @ v for h in mats]
    if isinstance(scheme, ps.ApproximateSensitivity):
        sens = [[None if blk is None else np.atleast_2d(np.asarray(blk, dtype=float))
                 for blk in row] for row in scheme.provider(stack, x)]
    xdot = []
    for i in range(n):
        v = gains[i](f[i])
        for j in range(i):
            if sens is not None and sens[i][j] is not None:
                v = v + sens[i][j] @ xdot[j]
        xdot.append(v)
    return np.concatenate(xdot)


def _assert_fields_are_the_reference(stack, x, seed):
    for scheme in _five_schemes(stack, seed):
        try:
            ref = _reference_field(stack, scheme, x)
        except ps.SingularMatrixError:
            with pytest.raises(ps.SingularMatrixError):
                ps.conditioned_field(stack, scheme, x)
            continue
        got = ps.conditioned_field(stack, scheme, x)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), scheme
        closure = make_conditioned_field(stack, scheme)
        assert closure(x).tobytes() == ref.tobytes(), scheme


@settings(derandomize=True, deadline=None, max_examples=50)
@given(in_basin_start, st.integers(0, 2 ** 31))
def test_bilevel_field_is_the_reference_bit_for_bit(x, seed):
    """On the bundled bilevel example, at in-basin points, the per-call
    conditioned field of every scheme is the field written out from public
    pieces, bit for bit."""
    _assert_fields_are_the_reference(registry.get_stack("bilevel-example"), x, seed)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(nonlinear_stack_point(), st.integers(0, 2 ** 31))
def test_nonlinear_field_is_the_reference_bit_for_bit(case, seed):
    """The same on nonlinear 3-level stacks with 2-dim levels; the table's D
    blocks are writable arrays that share no memory with the read-only
    blocks the Jacobian returned, and the S-only recursion, which reads those
    blocks without copying them, gives the table's S bit for bit."""
    stack, returned, x = case
    _assert_fields_are_the_reference(stack, x, seed)
    try:
        table = ps.total_derivative_table(stack, x)
    except ps.SingularMatrixError:
        return
    own = [blk for row in returned.values() for blk in row]
    for row in table.total:
        for d in row:
            assert d.flags.writeable and not any(np.shares_memory(d, blk) for blk in own)
    for row, ref_row in zip(sensitivity_blocks(stack, x), table.sens):
        for blk, ref in zip(row, ref_row):
            assert (blk is None) == (ref is None)
            assert ref is None or blk.tobytes() == ref.tobytes()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(affine_stack_point(3, st.floats(2.0, 3.0)),
       st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=3, max_size=3))
def test_exact_schemes_keep_the_steady_state_manifold(case, gains):
    """The feed-forward term lets the faster levels anticipate the slower
    ones: from a start with every level from 1 on at its steady state, RK4
    under ``PredictiveSensitivity`` and under scalar-gain ``Preconditioned``
    keeps ``manifold_error`` at rounding level (1e-12) of the state scale,
    while ``Plain`` from the same start leaves the manifold by more than
    1e-6 of it. Drawn stacks whose manifold barely moves at the start
    (``|S[1][0] f_0|`` below 1e-3 of the state scale) say nothing and are
    skipped."""
    stack, _, x = case
    cut = stack.offsets[1]
    try:
        start = np.concatenate([x[:cut], steady_state_map(stack, 1)(x[None, :])[0]])
        sens = ps.total_derivative_table(stack, start).sens
    except ps.SingularMatrixError:
        assume(False)
    speed = np.linalg.norm(sens[1][0] @ stack.field_block(0, start))
    assume(speed >= 1e-3 * (1.0 + np.abs(start).max()))
    run = ps.IntegrationSettings("rk4", 0.01, 1.0)
    for scheme in (ps.PredictiveSensitivity(), ps.Preconditioned(gains[:len(stack)]), ps.Plain()):
        traj = ps.integrate_ode(stack, scheme, start, run)
        scale = 1.0 + np.abs(traj.states).max()
        err = np.max(ps.manifold_error(stack, traj, 1)) / scale
        if isinstance(scheme, ps.Plain):
            assert err > 1e-6
        else:
            assert err <= 1e-12, scheme


@settings(derandomize=True, deadline=None)
@given(affine_stack_point(3, st.floats(1.0, 3.0)), st.data())
def test_verified_certificate_implies_nonnegative_margins(case, data):
    """The certificate's guarantee: where ``contraction_check`` verifies its
    inverse bounds (``P = Q = I``), ``norm(x_i - x_i^s) <= bound_i *
    norm(f_i^r)`` holds at the same points, so every
    ``distance_bound_margins`` entry is nonnegative up to rounding (1e-9 of
    the state scale). Diagonal shifts from 1 to 3 keep many certificates
    near their bound, where a bound too small would show."""
    stack, _, x = case
    n, total = len(stack), stack.total_dim
    more = data.draw(st.lists(st.lists(st.floats(-10.0, 10.0), min_size=total, max_size=total),
                              max_size=4))
    points = np.array([x, *more])
    try:
        cert = ps.contraction_check(stack, [1.0] * n, [1.0] * n, points)
    except ps.SingularMatrixError:
        assume(False)
    assume(cert.bounds_verified)
    margins = ps.distance_bound_margins(stack, cert, points)
    assert margins.min() >= -1e-9 * (1.0 + np.abs(points).max())


def _power_of_ten(k: int, step: int, sign: float) -> float:
    """``sign * 10**k`` rounded to the nearest double, or the double next to
    it on the side of ``step`` (-1 or 1)."""
    p = float(f"1e{k}")
    return sign * (float(np.nextafter(p, step * math.inf)) if step else p)


signs = st.sampled_from([1.0, -1.0])
csv_cells = st.one_of(
    # every bit pattern: subnormals, signed zeros, NaN payloads, infinities
    st.integers(0, 2 ** 64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(float))),
    # exact ties at the 17th digit, which %.17g rounds half to even
    st.builds(lambda n, q, sign: sign * (n + q), st.integers(10 ** 15, 2 ** 51 - 1),
              st.sampled_from([0.25, 0.75]), signs),
    # powers of ten and their neighbours, where the exponent changes
    st.builds(_power_of_ten, st.integers(-323, 308), st.sampled_from([-1, 0, 1]), signs),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.data())
def test_write_csv_is_savetxt_on_hard_values(tmp_path_factory, rows, cols, data):
    """``write_csv`` writes the bytes of ``np.savetxt(fmt="%.17g")`` beside an
    integer index column, on the values where an exactly rounded ``%.17g``
    is hardest: random bit patterns, specials, exact ties and powers of ten
    with their neighbours."""
    cells = data.draw(st.lists(csv_cells, min_size=rows * cols, max_size=rows * cols))
    columns = [np.arange(rows), np.array(cells).reshape(rows, cols)]
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "blocks.csv", "i", columns)
    np.savetxt(out / "savetxt.csv", np.column_stack(columns), fmt="%.17g", delimiter=",",
               header="i", comments="")
    assert (out / "blocks.csv").read_bytes() == (out / "savetxt.csv").read_bytes()
