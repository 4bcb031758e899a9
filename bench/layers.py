"""Per-layer metrics computed from one traced pass's span summary.

Each metric reads the span summary of one pass (span name -> calls,
inclusive and self nanoseconds, raised count) and the work counts the
jobs' checks returned. ``*_us`` and ``*_ms`` metrics of a function are its
mean inclusive time per call; ``integrate.loop_us_per_step`` is the self
time of ``integrate_ode`` (outside field calls and compilation) per RK4
step. A layer a workload never calls reads 0. Counts must repeat in every
pass; times and rates are the median over the run's passes.
"""

from __future__ import annotations

import statistics


def _calls(layers, name):
    return layers.get(name, {}).get("calls", 0)


def _ns(layers, name, key="incl_ns"):
    return layers.get(name, {}).get(key, 0.0)


def _per_call(layers, name, scale):
    calls = _calls(layers, name)
    return _ns(layers, name) / calls / scale if calls else 0.0


def _rate(count, ns):
    return count / (ns / 1e9) if ns else 0.0


def _us(name):
    return lambda ly, u: _per_call(ly, name, 1e3)


def _ms(name):
    return lambda ly, u: _per_call(ly, name, 1e6)


def _count(name):
    return lambda ly, u: _calls(ly, name)


#: name -> (unit, better, function of (span summary, work counts))
PER_LAYER = {
    "integrate.loop_us_per_step": ("us", "lower", lambda ly, u: (
        _ns(ly, "integrate.integrate_ode", "self_ns") / u["rk4_steps"] / 1e3
        if u.get("rk4_steps") else 0.0)),
    "integrate.states_mb": ("MB", "lower", lambda ly, u: u.get("states_bytes", 0) / 1e6),
    "integrate.manifold_samples_per_s": ("1/s", "higher", lambda ly, u: _rate(
        u.get("manifold_samples", 0), _ns(ly, "integrate.manifold_error"))),
    "integrate.manifold_nan": ("count", "lower", lambda ly, u: u.get("manifold_nan", 0)),
    "conditioning.closure_calls": ("count", "lower", _count("conditioning.closure")),
    "conditioning.closure_us": ("us", "lower", _us("conditioning.closure")),
    "conditioning.field_calls": ("count", "lower", _count("conditioning.conditioned_field")),
    "conditioning.field_us": ("us", "lower", _us("conditioning.conditioned_field")),
    "conditioning.compile_ms": ("ms", "lower", _ms("conditioning.make_conditioned_field")),
    "conditioning.matrix_us": ("us", "lower", _us("conditioning.conditioning_matrix")),
    "sensitivity.tables": ("count", "lower", _count("sensitivity.total_derivative_table")),
    "sensitivity.table_us": ("us", "lower", _us("sensitivity.total_derivative_table")),
    "sensitivity.grid_us": ("us", "lower", _us("sensitivity.jacobian_grid")),
    "sensitivity.solves": ("count", "lower", _count("sensitivity.solve_checked")),
    "sensitivity.solve_us": ("us", "lower", _us("sensitivity.solve_checked")),
    "sensitivity.steady_solve_us": ("us", "lower", _us("sensitivity.steady_state_solve")),
    "sensitivity.newton_solves_per_steady_solve": ("ratio", "lower", lambda ly, u: (
        ly.get("sensitivity.solve_checked", {}).get("under_steady", 0)
        / _calls(ly, "sensitivity.steady_state_solve")
        if _calls(ly, "sensitivity.steady_state_solve") else 0.0)),
    "sensitivity.singular_raised": ("count", "lower", lambda ly, u: ly.get(
        "sensitivity.solve_checked", {}).get("raised", 0)),
    "model.field_block_calls": ("count", "lower", _count("model.SystemStack.field_block")),
    "model.fd_jacobians": ("count", "lower", _count("model.finite_difference_jacobian")),
    "model.fd_jacobian_us": ("us", "lower", _us("model.finite_difference_jacobian")),
    "stability.classify_ms": ("ms", "lower", _ms("stability.classify_local_stability")),
    "stability.btf_ms": ("ms", "lower", _ms("stability.block_triangular_form")),
    "stability.contraction_point_us": ("us", "lower", lambda ly, u: (
        _ns(ly, "stability.contraction_check") / u["r2_points"] / 1e3
        if u.get("r2_points") else 0.0)),
    "stability.margin_point_us": ("us", "lower", lambda ly, u: (
        _ns(ly, "stability.distance_bound_margins") / u["r2_points"] / 1e3
        if u.get("r2_points") else 0.0)),
    "stability.eig_calls": ("count", "lower", _count("stability.eigenvalues")),
    "bilevel.descent_iters_per_s": ("1/s", "higher", lambda ly, u: _rate(
        u.get("descent_iters", 0), _ns(ly, "bilevel.solve_discrete"))),
    "bilevel.total_gradients": ("count", "lower", _count("bilevel.total_gradient")),
    "bilevel.total_gradient_us": ("us", "lower", _us("bilevel.total_gradient")),
    "casestudies.csv_rows_per_s": ("1/s", "higher", lambda ly, u: _rate(
        u.get("bs_csv_rows", 0), _ns(ly, "casestudies.write_black_start_csv"))),
    "casestudies.metrics_ms": ("ms", "lower", _ms("casestudies.black_start_metrics")),
    "cli.csv_rows_per_s": ("1/s", "higher", lambda ly, u: _rate(
        u.get("cli_csv_rows", 0), _ns(ly, "cli.write_trajectory_csv"))),
}

def per_layer_metrics(passes: list[dict]) -> dict[str, float]:
    out = {}
    for name, (unit, _, fn) in PER_LAYER.items():
        values = [fn(p["layers"], p["units"]) for p in passes]
        if unit == "count":
            if len(set(values)) != 1:
                raise RuntimeError(f"{name} differs between passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out
