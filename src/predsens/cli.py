"""Command-line front end.

Subcommands: simulate, stability, cascade, rlc, bilevel. Exit codes: 0 on
success, 2 on configuration errors, 3 on numerical failures. Divergence of
a simulated trajectory is a reported outcome, not an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import casestudies, registry
from .bilevel import DESCENT_MAX_ITER, DESCENT_TOL, solve_discrete
from .conditioning import (ApproximateSensitivity, Plain, Preconditioned,
                           PredictiveSensitivity, Scheme, SingularPerturbation,
                           frozen_sensitivity_provider, noisy_sensitivity_provider)
from .errors import ConvergenceError, EvaluationError, NotSteadyStateError, SingularMatrixError
from .integrate import IntegrationSettings, Trajectory, integrate_ode
from .model import SystemStack, linear_stack, state_columns, write_csv
from .sensitivity import STEADY_STATE_TOL
from .stability import _pairs, _sorted_eigs, classify_local_stability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CONFIG_ERRORS = (ValueError, KeyError, OSError)
NUMERICAL_ERRORS = (SingularMatrixError, ConvergenceError, EvaluationError,
                    NotSteadyStateError)

#: The ``cascade`` flags, one per float field of ``CascadeParams``.
CASCADE_FLAGS = ("a1", "b1", "a2", "b2", "kp1", "ki1", "kp2", "ki2")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line, as every other refusal prints
        self.exit(EXIT_CONFIG, f"error: {message}\n")


def _floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"could not parse {what} from {text!r}") from None


def parse_scheme(text: str, stack: SystemStack, x0) -> Scheme:
    """Parse the scheme grammar:
    plain | singular:<eps...> | predsens | precond:<h...> | approx:<frozen|noise:sigma>

    ``plain``, ``predsens`` and ``approx:frozen`` are exact tokens, and
    ``approx:noise:`` needs a sigma. ``singular`` accepts either all N
    epsilons (the leading one must then be 1) or the trailing N-1 with the
    leading 1 implied. The number of epsilons or gains is checked where the
    scheme is compiled.
    """
    head, _, rest = text.partition(":")
    if text == "plain":
        return Plain()
    if text == "predsens":
        return PredictiveSensitivity()
    if head == "singular":
        eps = _floats(rest, "epsilons")
        if len(eps) == len(stack) - 1:
            eps = [1.0] + eps
        return SingularPerturbation(eps)
    if head == "precond":
        return Preconditioned(_floats(rest, "gains"))
    if head == "approx":
        kind, _, sigma = rest.partition(":")
        if rest == "frozen":
            return ApproximateSensitivity(frozen_sensitivity_provider(stack, x0))
        if kind == "noise":
            if not sigma:
                raise ValueError("approx:noise needs a sigma, as in approx:noise:0.05")
            return ApproximateSensitivity(noisy_sensitivity_provider(float(sigma)))
        raise ValueError(f"unknown approx variant {rest!r}")
    raise ValueError(f"unknown scheme {text!r}")


def parse_linear_stack(config: dict) -> SystemStack:
    """Build an affine stack from {dims, blocks, offsets} JSON data."""
    if not isinstance(config, dict) or "dims" not in config or "blocks" not in config:
        raise ValueError("linear stack JSON needs 'dims' and 'blocks'")
    unknown = sorted(set(config) - {"dims", "blocks", "offsets"}, key=str)
    if unknown:
        raise ValueError(f"linear stack JSON has unknown keys {unknown}; "
                         f"expected dims, blocks and offsets")
    return linear_stack(config["dims"], config["blocks"], config.get("offsets"))


def serialize_linear_stack(stack: SystemStack) -> dict:
    """Canonical {dims, blocks, offsets} data for an affine stack."""
    zero = np.zeros(stack.total_dim)
    blocks = []
    for i, sub in enumerate(stack.subsystems):
        if sub.jacobian is None:
            raise ValueError(f"subsystem {i} has no analytic blocks to serialize")
        blocks.append([np.atleast_2d(np.asarray(b, dtype=float)).tolist()
                       for b in sub.jacobian(zero)])
    offsets = [stack.field_block(i, zero).tolist() for i in range(len(stack))]
    return {"dims": list(stack.dims), "blocks": blocks, "offsets": offsets}


def _load_stack(args) -> tuple[SystemStack, np.ndarray, np.ndarray | None]:
    """Returns (stack, default x0, equilibrium or None)."""
    has_file = getattr(args, "stack_file", None) is not None
    if has_file and args.stack is not None:
        raise ValueError("give exactly one of --stack and --stack-file")
    if has_file:
        config = json.loads(Path(args.stack_file).read_text(encoding="utf-8"))
        stack = parse_linear_stack(config)
        return stack, np.ones(stack.total_dim), None
    name = args.stack
    if name not in registry.BUILTIN_STACKS:
        raise ValueError(f"unknown stack {name!r}; choose from "
                         f"{sorted(registry.BUILTIN_STACKS)} or use --stack-file")
    return registry.get_stack(name), registry.default_x0(name), registry.equilibrium(name)


def write_trajectory_csv(path, stack: SystemStack, trajectory: Trajectory) -> None:
    write_csv(path, ",".join(["t"] + state_columns(stack.dims)),
              [trajectory.times, trajectory.states])


def _json(data: dict):
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    return lambda path: path.write_text(text, encoding="utf-8")


def _cmd_simulate(args) -> tuple[dict, str]:
    stack, x0_default, _ = _load_stack(args)
    x0 = x0_default if args.x0 is None else np.asarray(_floats(args.x0, "--x0"), dtype=float)
    scheme = parse_scheme(args.scheme, stack, x0)
    settings = IntegrationSettings(method=args.method, dt=args.dt, t_end=args.t_end,
                                   divergence_threshold=args.divergence_threshold)
    trajectory = integrate_ode(stack, scheme, x0, settings)
    return {
        "trajectory.csv": lambda p: write_trajectory_csv(p, stack, trajectory),
        "metrics.json": _json({
            "diverged": trajectory.diverged,
            "diverged_at": trajectory.diverged_at,
            "samples": int(trajectory.times.size),
            "t_final": float(trajectory.times[-1]),
            "final_state": [float(v) for v in trajectory.final_state],
        }),
    }, f"simulate: {trajectory.times.size} samples, diverged={trajectory.diverged}"


def _cmd_stability(args) -> tuple[dict, str]:
    stack, _, equilibrium = _load_stack(args)
    if args.point is not None:
        point = np.asarray(_floats(args.point, "--point"), dtype=float)
    elif equilibrium is not None:
        point = equilibrium
    else:
        raise ValueError("custom stacks need an explicit --point")
    scheme = parse_scheme(args.scheme, stack, point)
    report = classify_local_stability(stack, scheme, point, tol=args.tol)
    return {"stability.json": _json(report.to_json_dict())}, (
        f"stability: {report.verdict.value} "
        f"(spectral abscissa {report.spectral_abscissa:.6g})")


def _cmd_cascade(args) -> tuple[dict, str]:
    params = casestudies.CascadeParams(**{name: getattr(args, name) for name in CASCADE_FLAGS})
    mats = casestudies.cascade_matrices(params)
    data = {
        "A": mats.A.tolist(),
        "T": mats.T.tolist(),
        "B": mats.B.tolist(),
        "A_tilde": mats.A_tilde.tolist(),
        "s_row": mats.s_row.tolist(),
        "eig_plain": _pairs(_sorted_eigs(mats.A)),
        "eig_conditioned": _pairs(_sorted_eigs(mats.T @ mats.A)),
    }
    abscissa = max(p[0] for p in data["eig_plain"])
    abscissa_c = max(p[0] for p in data["eig_conditioned"])
    return {"cascade.json": _json(data)}, (
        f"cascade: plain abscissa {abscissa:.6g}, conditioned abscissa {abscissa_c:.6g}")


def _cmd_rlc(args) -> tuple[dict, str]:
    params = casestudies.RlcParams(k_pi=args.kpi, k_ii=args.kii)
    stack = casestudies.rlc_stack(params)
    scheme = parse_scheme(args.scheme, stack, np.zeros(stack.total_dim))
    settings = dataclasses.replace(casestudies.default_black_start_settings(),
                                   dt=args.dt, t_end=args.t_end)
    trajectory, metrics = casestudies.run_black_start(params, scheme, settings)
    return {
        "blackstart.csv": lambda p: casestudies.write_black_start_csv(p, trajectory, metrics),
        "metrics.json": _json(metrics.to_json_dict()),
    }, f"rlc: stable={metrics.stable}, overshoot={metrics.overshoot_pu:.4g} p.u."


def _cmd_bilevel(args) -> tuple[dict, str]:
    problem = casestudies.bilevel_example_problem()
    x0 = (registry.default_x0("bilevel-example") if args.x0 is None
          else np.asarray(_floats(args.x0, "--x0"), dtype=float))
    log = solve_discrete(problem, args.method, args.tau, x0,
                         max_iter=args.iters, tol=args.tol, eps=args.eps)
    return {"iterates.csv": log.to_csv}, (
        f"bilevel: converged={str(log.converged).lower()} "
        f"after {log.iterations_used} iterations "
        f"(residual {log.residuals[-1]:.3e})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    settings = IntegrationSettings()
    p.add_argument("--method", default=settings.method, choices=("euler", "rk4"))
    p.add_argument("--dt", type=float, default=settings.dt)
    p.add_argument("--t-end", type=float, default=settings.t_end)
    p.add_argument("--divergence-threshold", type=float,
                   default=settings.divergence_threshold)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("stability", help="classify an equilibrium")
    add_stack_args(p)
    p.add_argument("--point", default=None, help="comma-separated steady state")
    p.add_argument("--tol", type=float, default=STEADY_STATE_TOL)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("cascade", help="cascade PI closed-loop matrices")
    cascade = casestudies.CascadeParams()
    for name in CASCADE_FLAGS:
        p.add_argument(f"--{name}", type=float, default=getattr(cascade, name))
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("rlc", help="converter black start")
    rlc, black_start = casestudies.RlcParams(), casestudies.default_black_start_settings()
    p.add_argument("--kpi", type=float, default=rlc.k_pi, help="inner proportional gain")
    p.add_argument("--kii", type=float, default=rlc.k_ii, help="inner integral gain")
    p.add_argument("--scheme", default="predsens")
    p.add_argument("--dt", type=float, default=black_start.dt)
    p.add_argument("--t-end", type=float, default=black_start.t_end)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_rlc)

    p = sub.add_parser("bilevel", help="discrete bilevel descent of the bundled example")
    p.add_argument("--method", default="ps", choices=("ps", "gda"))
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--tau", type=float, default=0.25)
    p.add_argument("--x0", default=None, help="comma-separated start (x1,x2)")
    p.add_argument("--iters", type=int, default=DESCENT_MAX_ITER)
    p.add_argument("--tol", type=float, default=DESCENT_TOL)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_bilevel)

    return parser


def run(argv=None) -> int:
    """Run one subcommand with numpy silenced, so a failure prints one line.
    Each returns ``({file name: writer}, summary)``; ``--out`` is made and
    written only once the subcommand has succeeded."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            files, summary = args.func(args)
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for name, write in files.items():
                write(out / name)
    except NUMERICAL_ERRORS as exc:
        at = f" at t={exc.time:g}" if hasattr(exc, "time") else ""  # set by integrate_ode
        print(f"numerical error{at}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(summary)
    return EXIT_OK


def main() -> None:  # console-script entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
