"""Command-line front end.

Subcommands: simulate, stability, cascade, rlc, bilevel. Exit codes: 0 on
success, 2 on configuration errors, 3 on numerical failures. Divergence of
a simulated trajectory is a reported outcome, not an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import casestudies, registry
from .bilevel import solve_discrete
from .conditioning import (ApproximateSensitivity, Plain, Preconditioned,
                           PredictiveSensitivity, Scheme, SingularPerturbation,
                           frozen_sensitivity_provider, noisy_sensitivity_provider)
from .errors import (ConvergenceError, EvaluationError, NotSteadyStateError,
                     SingularMatrixError, StackDefinitionError)
from .integrate import IntegrationSettings, Trajectory, integrate_ode
from .model import SystemStack, linear_stack, write_csv
from .stability import classify_local_stability, eigenvalues

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CONFIG_ERRORS = (StackDefinitionError, ValueError, KeyError, json.JSONDecodeError, OSError)
NUMERICAL_ERRORS = (SingularMatrixError, ConvergenceError, EvaluationError,
                    NotSteadyStateError)


class ConfigError(ValueError):
    pass


def _floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"could not parse {what} from {text!r}") from None


def parse_scheme(text: str, n_levels: int, stack: SystemStack, x0) -> Scheme:
    """Parse the scheme grammar:
    plain | singular:<eps...> | predsens | precond:<h...> | approx:<frozen|noise:sigma>

    ``singular`` accepts either all N epsilons (the leading one must then be
    1) or the trailing N-1 with the leading 1 implied.
    """
    head, _, rest = text.partition(":")
    if head == "plain":
        return Plain()
    if head == "predsens":
        return PredictiveSensitivity()
    if head == "singular":
        eps = _floats(rest, "epsilons")
        if len(eps) == n_levels - 1:
            eps = [1.0] + eps
        if len(eps) != n_levels:
            raise ConfigError(f"scheme {text!r} gives {len(eps)} epsilons for "
                              f"{n_levels} subsystems")
        return SingularPerturbation(eps)
    if head == "precond":
        gains = _floats(rest, "gains")
        if len(gains) != n_levels:
            raise ConfigError(f"scheme {text!r} gives {len(gains)} gains for "
                              f"{n_levels} subsystems")
        return Preconditioned(gains)
    if head == "approx":
        kind, _, sigma = rest.partition(":")
        if kind == "frozen":
            return ApproximateSensitivity(frozen_sensitivity_provider(stack, x0))
        if kind == "noise":
            return ApproximateSensitivity(noisy_sensitivity_provider(float(sigma or 0.0)))
        raise ConfigError(f"unknown approx variant {rest!r}")
    raise ConfigError(f"unknown scheme {text!r}")


def parse_linear_stack(config: dict) -> SystemStack:
    """Build an affine stack from {dims, blocks, offsets} JSON data."""
    if not isinstance(config, dict) or "dims" not in config or "blocks" not in config:
        raise ConfigError("linear stack JSON needs 'dims' and 'blocks'")
    try:
        return linear_stack(config["dims"], config["blocks"], config.get("offsets"))
    except StackDefinitionError as exc:
        raise ConfigError(f"bad linear stack config: {exc}") from exc


def serialize_linear_stack(stack: SystemStack) -> dict:
    """Canonical {dims, blocks, offsets} data for an affine stack."""
    zero = np.zeros(stack.total_dim)
    blocks = []
    for i, sub in enumerate(stack.subsystems):
        if sub.jacobian is None:
            raise ConfigError(f"subsystem {i} has no analytic blocks to serialize")
        blocks.append([np.atleast_2d(np.asarray(b, dtype=float)).tolist()
                       for b in sub.jacobian(zero)])
    offsets = [stack.field_block(i, zero).tolist() for i in range(len(stack))]
    return {"dims": list(stack.dims), "blocks": blocks, "offsets": offsets}


def _load_stack(args) -> tuple[SystemStack, np.ndarray, np.ndarray | None]:
    """Returns (stack, default x0, equilibrium or None)."""
    has_file = getattr(args, "stack_file", None) is not None
    if has_file and args.stack is not None:
        raise ConfigError("give exactly one of --stack and --stack-file")
    if has_file:
        config = json.loads(Path(args.stack_file).read_text(encoding="utf-8"))
        stack = parse_linear_stack(config)
        return stack, np.ones(stack.total_dim), None
    name = args.stack
    if name not in registry.BUILTIN_STACKS:
        raise ConfigError(f"unknown stack {name!r}; choose from "
                          f"{sorted(registry.BUILTIN_STACKS)} or use --stack-file")
    return registry.get_stack(name), registry.default_x0(name), registry.equilibrium(name)


def _state_columns(stack: SystemStack) -> list[str]:
    cols = []
    for i, d in enumerate(stack.dims):
        cols += [f"x{i + 1}" if d == 1 else f"x{i + 1}_{k}" for k in range(d)]
    return cols


def write_trajectory_csv(path, stack: SystemStack, trajectory: Trajectory) -> None:
    write_csv(path, ",".join(["t"] + _state_columns(stack)),
              [trajectory.times, trajectory.states])


def _write_json(path, data: dict) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _eig_pairs(mat) -> list[list[float]]:
    lams = eigenvalues(mat)
    order = np.lexsort((lams.imag, lams.real))
    return [[float(z.real), float(z.imag)] for z in lams[order]]


def _cmd_simulate(args) -> int:
    stack, x0_default, _ = _load_stack(args)
    x0 = np.asarray(_floats(args.x0, "--x0"), dtype=float) if args.x0 else x0_default
    scheme = parse_scheme(args.scheme, len(stack), stack, x0)
    settings = IntegrationSettings(method=args.method, dt=args.dt, t_end=args.t_end,
                                   divergence_threshold=args.divergence_threshold)
    trajectory = integrate_ode(stack, scheme, x0, settings)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", stack, trajectory)
    _write_json(out / "metrics.json", {
        "diverged": trajectory.diverged,
        "diverged_at": trajectory.diverged_at,
        "samples": int(trajectory.times.size),
        "t_final": float(trajectory.times[-1]),
        "final_state": [float(v) for v in trajectory.final_state],
    })
    print(f"simulate: {trajectory.times.size} samples, diverged={trajectory.diverged}")
    return EXIT_OK


def _cmd_stability(args) -> int:
    stack, _, equilibrium = _load_stack(args)
    if args.point:
        point = np.asarray(_floats(args.point, "--point"), dtype=float)
    elif equilibrium is not None:
        point = equilibrium
    else:
        raise ConfigError("custom stacks need an explicit --point")
    scheme = parse_scheme(args.scheme, len(stack), stack, point)
    report = classify_local_stability(stack, scheme, point, tol=args.tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "stability.json", report.to_json_dict())
    print(f"stability: {report.verdict.value} "
          f"(spectral abscissa {report.spectral_abscissa:.6g})")
    return EXIT_OK


def _cmd_cascade(args) -> int:
    params = casestudies.CascadeParams(a1=args.a1, b1=args.b1, a2=args.a2, b2=args.b2,
                                       kp1=args.kp1, ki1=args.ki1,
                                       kp2=args.kp2, ki2=args.ki2)
    mats = casestudies.cascade_matrices(params)
    data = {
        "A": mats.A.tolist(),
        "T": mats.T.tolist(),
        "B": mats.B.tolist(),
        "A_tilde": mats.A_tilde.tolist(),
        "s_row": mats.s_row.tolist(),
        "eig_plain": _eig_pairs(mats.A),
        "eig_conditioned": _eig_pairs(mats.T @ mats.A),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "cascade.json", data)
    abscissa = max(p[0] for p in data["eig_plain"])
    abscissa_c = max(p[0] for p in data["eig_conditioned"])
    print(f"cascade: plain abscissa {abscissa:.6g}, conditioned abscissa {abscissa_c:.6g}")
    return EXIT_OK


def _cmd_rlc(args) -> int:
    params = casestudies.RlcParams(k_pi=args.kpi, k_ii=args.kii)
    stack = casestudies.rlc_stack(params)
    scheme = parse_scheme(args.scheme, len(stack), stack, np.zeros(stack.total_dim))
    settings = IntegrationSettings(method="rk4", dt=args.dt, t_end=args.t_end)
    trajectory, metrics = casestudies.run_black_start(params, scheme, settings)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    casestudies.write_black_start_csv(out / "blackstart.csv", trajectory, metrics)
    _write_json(out / "metrics.json", metrics.to_json_dict())
    print(f"rlc: stable={metrics.stable}, overshoot={metrics.overshoot_pu:.4g} p.u.")
    return EXIT_OK


def _cmd_bilevel(args) -> int:
    problem = casestudies.bilevel_example_problem()
    x0 = np.asarray(_floats(args.x0, "--x0"), dtype=float)
    if args.method == "gda" and args.eps is None:
        raise ConfigError("--method gda needs --eps")
    log = solve_discrete(problem, args.method, args.tau, x0,
                         max_iter=args.iters, tol=args.tol, eps=args.eps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log.to_csv(out / "iterates.csv")
    print(f"bilevel: converged={str(log.converged).lower()} "
          f"after {log.iterations_used} iterations "
          f"(residual {log.residuals[-1]:.3e})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predsens",
        description="Simulate and analyze slow-to-fast interconnected systems "
                    "under plain, singular-perturbation, predictive-sensitivity, "
                    "and preconditioned conditionings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stack_args(p):
        p.add_argument("--stack", default=None,
                       help=f"builtin stack: {', '.join(sorted(registry.BUILTIN_STACKS))}")
        p.add_argument("--stack-file", default=None,
                       help="JSON file with dims/blocks/offsets of an affine stack")
        p.add_argument("--scheme", default="plain",
                       help="plain | singular:<eps,...> | predsens | "
                            "precond:<h,...> | approx:<frozen|noise:sigma>")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("simulate", help="integrate a conditioned stack")
    add_stack_args(p)
    p.add_argument("--x0", default=None, help="comma-separated initial state")
    p.add_argument("--method", default="rk4", choices=("euler", "rk4"))
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--divergence-threshold", type=float, default=1e6)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("stability", help="classify an equilibrium")
    add_stack_args(p)
    p.add_argument("--point", default=None, help="comma-separated steady state")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("cascade", help="cascade PI closed-loop matrices")
    for flag, default in (("--a1", 0.0), ("--b1", 1.0), ("--a2", 0.0), ("--b2", 1.0),
                          ("--kp1", 1.0), ("--ki1", 1.0), ("--kp2", 1.0), ("--ki2", 1.0)):
        p.add_argument(flag, type=float, default=default)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("rlc", help="converter black start")
    p.add_argument("--kpi", type=float, default=50.0, help="inner proportional gain")
    p.add_argument("--kii", type=float, default=100.0, help="inner integral gain")
    p.add_argument("--scheme", default="predsens")
    p.add_argument("--dt", type=float, default=1e-5)
    p.add_argument("--t-end", type=float, default=0.2)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_rlc)

    p = sub.add_parser("bilevel", help="discrete bilevel descent of the bundled example")
    p.add_argument("--method", default="ps", choices=("ps", "gda"))
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--tau", type=float, default=0.25)
    p.add_argument("--x0", default="2,2")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_bilevel)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:  # console-script entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
