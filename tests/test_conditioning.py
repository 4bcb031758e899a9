"""Conditioned fields, conditioning matrices, and the discrete-time step."""

import numpy as np
import pytest

import predsens as ps
from predsens import registry, sensitivity
from predsens.conditioning import compile_scheme, make_conditioned_field


def _schemes_for(stack):
    n = len(stack)
    return [
        ps.Plain(),
        ps.SingularPerturbation([1.0] + [0.5] * (n - 1)),
        ps.PredictiveSensitivity(),
        ps.Preconditioned([float(k + 2) for k in range(n)]),
        ps.ApproximateSensitivity(
            ps.frozen_sensitivity_provider(stack, np.zeros(stack.total_dim))),
    ]


def test_conditioned_field_r2_predictive(r2_stack):
    xdot = ps.conditioned_field(r2_stack, ps.PredictiveSensitivity(), [1.0, 0.0])
    assert np.allclose(xdot, [1.0, 1.5], atol=1e-14)


def test_conditioned_field_plain_is_raw_field(r2_stack):
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=2)
        assert np.array_equal(ps.conditioned_field(r2_stack, ps.Plain(), x),
                              r2_stack.field(x))


def test_conditioned_field_r2_singular_perturbation(r2_stack):
    xdot = ps.conditioned_field(r2_stack, ps.SingularPerturbation([1.0, 0.5]),
                                [1.0, 0.0])
    assert np.allclose(xdot, [1.0, 1.0], atol=1e-14)


def test_conditioned_field_tracking(tracking_stack):
    xdot = ps.conditioned_field(tracking_stack, ps.PredictiveSensitivity(),
                                [1.0, 1.0])
    assert np.allclose(xdot, [-1.0, -1.0], atol=1e-14)


def test_conditioning_matrix_r2_predictive(r2_stack):
    m, _ = ps.conditioning_matrix(r2_stack, ps.PredictiveSensitivity(), [0.0, 0.0])
    assert np.allclose(m, [[1.0, 0.0], [-1.0, 1.0]], atol=1e-14)


def test_conditioning_matrix_plain_identity(linear3_stack):
    m, _ = ps.conditioning_matrix(linear3_stack, ps.Plain(), [1.0, 2.0, 3.0])
    assert np.array_equal(m, np.eye(3))


def test_conditioning_matrix_preconditioned(r2_stack):
    m, _ = ps.conditioning_matrix(r2_stack, ps.Preconditioned([2.0, 3.0]),
                                  [0.0, 0.0])
    assert np.allclose(m, [[0.5, 0.0], [-1.0 / 3.0, 1.0 / 3.0]], atol=1e-14)


def test_discrete_step_fixed_point_at_equilibrium():
    stack = registry.get_stack("cascade").scaled(0.1)
    eq = registry.equilibrium("cascade")
    for scheme in _schemes_for(stack):
        assert np.allclose(ps.discrete_step(stack, scheme, eq), eq, atol=1e-12)


def test_discrete_step_r2_scaled(r2_stack):
    scaled = r2_stack.scaled(0.1)
    nxt = ps.discrete_step(scaled, ps.PredictiveSensitivity(), [1.0, 0.0])
    assert np.allclose(nxt, [1.1, 0.15], atol=1e-14)
    nxt = ps.discrete_step(scaled, ps.SingularPerturbation([1.0, 0.5]), [1.0, 0.0])
    assert np.allclose(nxt, [1.1, 0.1], atol=1e-14)


@pytest.mark.parametrize("name", ["r2", "tracking", "linear3", "cascade", "rlc",
                                  "bilevel-example"])
def test_matrix_times_field_consistency(name):
    """M xdot = f and apply_inverse(f) = xdot, to 1e-10 relative, for every
    scheme on 100 random points of each bundled stack."""
    stack = registry.get_stack(name)
    rng = np.random.default_rng(23)
    # the gradient-flow stack needs points clear of its Hessian zero set
    box = 0.5 if name == "bilevel-example" else 2.0
    schemes = _schemes_for(stack)
    schemes.append(ps.ApproximateSensitivity(ps.noisy_sensitivity_provider(0.05, seed=1)))
    for _ in range(100):
        x = rng.uniform(-box, box, stack.total_dim)
        f = stack.field(x)
        scale = 1.0 + np.max(np.abs(f))
        for scheme in schemes:
            if isinstance(scheme, ps.ApproximateSensitivity):
                # the provider must be sampled once so M and the field agree
                frozen = scheme.provider(stack, x)
                scheme = ps.ApproximateSensitivity(lambda _s, _x, _f=frozen: _f)
            m, inv = ps.conditioning_matrix(stack, scheme, x)
            xdot = ps.conditioned_field(stack, scheme, x)
            assert np.max(np.abs(m @ xdot - f)) <= 1e-10 * scale
            assert np.max(np.abs(inv(f) - xdot)) <= 1e-10 * scale


@pytest.mark.parametrize("name", ["r2", "tracking", "linear3", "cascade", "rlc"])
def test_steady_state_preservation(name):
    """f(x) = 0 iff the conditioned field vanishes (M is invertible)."""
    stack = registry.get_stack(name)
    eq = registry.equilibrium(name)
    off = eq + 0.1 * np.arange(1, stack.total_dim + 1)
    for scheme in _schemes_for(stack):
        assert np.linalg.norm(ps.conditioned_field(stack, scheme, eq)) <= 1e-8
        assert np.linalg.norm(ps.conditioned_field(stack, scheme, off)) > 1e-6


def test_singular_perturbation_validation():
    with pytest.raises(ValueError):
        ps.SingularPerturbation([0.5, 0.2])  # leading epsilon must be 1
    with pytest.raises(ValueError):
        ps.SingularPerturbation([1.0, 0.2, 0.5])  # must be nonincreasing
    with pytest.raises(ValueError):
        ps.SingularPerturbation([1.0, -0.1])
    with pytest.raises(ValueError):
        ps.SingularPerturbation([1.0, np.nan])
    with pytest.raises(ValueError):
        ps.conditioned_field(registry.get_stack("r2"),
                             ps.SingularPerturbation([1.0, 0.5, 0.5]), [0.0, 0.0])


def test_preconditioned_validation(r2_stack):
    with pytest.raises(ValueError):
        ps.conditioned_field(r2_stack, ps.Preconditioned([0.0, 1.0]), [0.0, 0.0])
    with pytest.raises(ValueError):
        ps.conditioned_field(r2_stack, ps.Preconditioned([1.0]), [0.0, 0.0])
    for gain in (np.nan, np.inf, np.array([[np.nan]])):
        with pytest.raises(ValueError, match="gain 1 must be finite"):
            ps.conditioned_field(r2_stack, ps.Preconditioned([1.0, gain]), [0.0, 0.0])
    with pytest.raises(ValueError, match=r"gain 0 has shape \(2, 2\), expected \(1,1\)"):
        ps.conditioned_field(r2_stack, ps.Preconditioned([np.eye(2), 1.0]), [0.0, 0.0])
    # block-matrix gains work too
    m, _ = ps.conditioning_matrix(r2_stack,
                                  ps.Preconditioned([np.array([[2.0]]),
                                                     np.array([[4.0]])]),
                                  [0.0, 0.0])
    assert np.allclose(m, [[0.5, 0.0], [-0.25, 0.25]], atol=1e-14)


def test_noisy_provider_is_deterministic(r2_stack):
    a = ps.noisy_sensitivity_provider(0.1, seed=42)(r2_stack, np.zeros(2))
    b = ps.noisy_sensitivity_provider(0.1, seed=42)(r2_stack, np.zeros(2))
    assert np.array_equal(a[1][0], b[1][0])
    assert not np.array_equal(
        a[1][0], ps.total_derivative_table(r2_stack, np.zeros(2)).sens[1][0])


@pytest.mark.parametrize("sigma", [-1.0, -5e-324, float("nan"), float("inf"), float("-inf"),
                                   -0.0])
def test_noisy_provider_rejects_a_bad_sigma_when_built(sigma):
    with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
        ps.noisy_sensitivity_provider(sigma)


def test_noisy_provider_with_zero_sigma_is_the_exact_sensitivity(r2_stack):
    x = np.array([0.3, 0.1])
    scheme = ps.ApproximateSensitivity(ps.noisy_sensitivity_provider(0.0))
    exact = ps.conditioned_field(r2_stack, ps.PredictiveSensitivity(), x)
    assert ps.conditioned_field(r2_stack, scheme, x).tobytes() == exact.tobytes()


def test_singular_matrix_gain_raises_everywhere(r2_stack):
    scheme = ps.Preconditioned([np.zeros((1, 1)), 1.0])
    with pytest.raises(ps.SingularMatrixError):
        ps.conditioned_field(r2_stack, scheme, [0.0, 0.0])
    with pytest.raises(ps.SingularMatrixError):
        ps.conditioning_matrix(r2_stack, scheme, [0.0, 0.0])
    with pytest.raises(ps.SingularMatrixError):
        ps.classify_local_stability(r2_stack, scheme, [0.0, 0.0])


def test_noisy_provider_is_a_function_of_the_state(r2_stack):
    scheme = ps.ApproximateSensitivity(ps.noisy_sensitivity_provider(0.1, seed=3))
    x = np.array([0.3, 0.1])
    first = ps.conditioned_field(r2_stack, scheme, x)
    assert np.array_equal(first, ps.conditioned_field(r2_stack, scheme, x.copy()))
    assert not np.array_equal(first, ps.conditioned_field(r2_stack, ps.PredictiveSensitivity(), x))
    # the same state under another seed draws other noise
    other = ps.ApproximateSensitivity(ps.noisy_sensitivity_provider(0.1, seed=4))
    assert not np.array_equal(first, ps.conditioned_field(r2_stack, other, x))


@pytest.mark.parametrize("name", ["r2", "tracking", "linear3", "cascade", "rlc"])
def test_compiled_affine_field_matches_per_call_field(name):
    """The once-compiled x -> A_c x + b_c equals conditioned_field to 1e-12
    relative for every exact scheme on random points of each affine stack."""
    stack = registry.get_stack(name)
    assert all(s.constant_jacobian for s in stack.subsystems)
    rng = np.random.default_rng(31)
    points = [rng.normal(scale=10.0, size=stack.total_dim) for _ in range(20)]
    exact = [s for s in _schemes_for(stack) if not isinstance(s, ps.ApproximateSensitivity)]
    for scheme in exact:
        field = make_conditioned_field(stack, scheme)
        for x in points:
            ref = ps.conditioned_field(stack, scheme, x)
            assert np.max(np.abs(field(x) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["r2", "linear3", "bilevel-example"])
def test_compiled_conditioner_gives_the_same_bits_as_its_scheme(name):
    stack = registry.get_stack(name)
    points = np.random.default_rng(33).normal(scale=0.5, size=(10, stack.total_dim))
    schemes = _schemes_for(stack) + [
        ps.Preconditioned([np.diag(np.arange(2.0, d + 2.0)) for d in stack.dims])]
    for scheme in schemes:
        cond = compile_scheme(stack, scheme)
        assert compile_scheme(stack, cond) is cond
        for x in points:
            assert (ps.conditioned_field(stack, cond, x).tobytes()
                    == ps.conditioned_field(stack, scheme, x).tobytes())


def test_approximate_provider_is_called_on_every_evaluation(r2_stack):
    frozen = ps.frozen_sensitivity_provider(r2_stack, [0.0, 0.0])
    seen = []

    def provider(stack, x):
        seen.append(np.array(x))
        return frozen(stack, x)

    field = make_conditioned_field(r2_stack, ps.ApproximateSensitivity(provider))
    points = np.random.default_rng(32).normal(size=(5, 2))
    for x in points:
        field(x)
    assert np.array_equal(np.asarray(seen), points)


@pytest.mark.parametrize("block", [np.array([0.5, 0.5]), [[0.5, 0.5]], np.ones((2, 3)),
                                   np.ones((1, 4))])
def test_provider_block_of_wrong_shape_names_its_level(block):
    """A provider block S[1][0] that is not (2, 2) raises instead of being
    broadcast, in the field and in the conditioning matrix."""
    stack = ps.linear_stack([2, 2], [[-np.eye(2), np.zeros((2, 2))],
                                     [np.eye(2), -2.0 * np.eye(2)]])
    scheme = ps.ApproximateSensitivity(lambda _stack, _x: [[None, None], [block, None]])
    for evaluate in (ps.conditioned_field, ps.conditioning_matrix):
        with pytest.raises(ps.StackDefinitionError, match=r"S\[1\]\[0\] of shape") as err:
            evaluate(stack, scheme, np.ones(4))
        assert err.value.index == 1


@pytest.mark.parametrize("rows, message", [
    ([[None]], r"0 blocks S\[1\]\[j\]"), ([[], []], r"0 blocks S\[1\]\[j\]"),
    ([[], None], "None as row 1"), ([[], 0.5], "0.5 as row 1"), (None, "None as its result"),
], ids=["missing-row", "short-row", "none-row", "scalar-row", "none-result"])
def test_provider_with_too_few_blocks_names_its_level(r2_stack, rows, message):
    """A provider that gives level 1 no block S[1][0], or no sequence where
    its row or its whole result belongs, raises for level 1 instead of an
    IndexError or TypeError, in the field and in the conditioning matrix."""
    scheme = ps.ApproximateSensitivity(lambda _stack, _x: rows)
    for evaluate in (ps.conditioned_field, ps.conditioning_matrix):
        with pytest.raises(ps.StackDefinitionError, match=message) as err:
            evaluate(r2_stack, scheme, np.ones(2))
        assert err.value.index == 1


def test_provider_scalar_stands_for_a_1x1_block(r2_stack):
    x = np.array([1.0, 0.5])
    ref = ps.conditioned_field(
        r2_stack, ps.ApproximateSensitivity(lambda _s, _x: [[], [np.array([[0.5]])]]), x)
    for block in (0.5, [0.5], np.float64(0.5)):
        scheme = ps.ApproximateSensitivity(lambda _s, _x, _b=block: [[], [_b]])
        assert ps.conditioned_field(r2_stack, scheme, x).tobytes() == ref.tobytes()


def test_field_calls_build_no_finite_difference_jacobian(count_calls):
    """bilevel-example's slow row has no analytic Jacobian and feeds no S, so
    neither a conditioned field call nor an RK4 run differentiates it."""
    stack = registry.get_stack("bilevel-example")
    x = np.array([0.3, 0.25])
    calls = count_calls(sensitivity, "finite_difference_jacobian")
    for scheme in (ps.PredictiveSensitivity(), ps.Preconditioned([1.0, 2.0]),
                   ps.ApproximateSensitivity(ps.noisy_sensitivity_provider(0.05, 1))):
        ps.conditioned_field(stack, scheme, x)
        assert calls == [], scheme
    traj = ps.integrate_ode(stack, ps.PredictiveSensitivity(), x,
                            ps.IntegrationSettings("rk4", 0.01, 0.1))
    assert len(traj.times) == 11
    assert calls == []


def test_exact_affine_compile_builds_its_grid_once(count_calls, linear3_stack):
    """Compiling an affine field reads each Jacobian row once, whether the
    scheme's S is exact or absent."""
    calls = count_calls(sensitivity, "jacobian_row")
    for scheme in (ps.PredictiveSensitivity(), ps.Plain()):
        calls.clear()
        make_conditioned_field(linear3_stack, scheme)
        assert len(calls) == len(linear3_stack), scheme


def test_plain_compile_accepts_a_singular_diagonal_block():
    """Only a scheme that reads S needs D[1][1] invertible."""
    stack = ps.linear_stack([1, 1], [[[[-1.0]], [[1.0]]], [[[1.0]], [[0.0]]]])
    x = np.array([0.5, -0.25])
    assert np.allclose(make_conditioned_field(stack, ps.Plain())(x), stack.field(x),
                       rtol=0.0, atol=1e-15)
    with pytest.raises(ps.SingularMatrixError) as err:
        make_conditioned_field(stack, ps.PredictiveSensitivity())
    assert err.value.level == 1
