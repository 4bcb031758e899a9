"""Inputs, jobs and output checks of the three benchmark workloads.

A job is one operation: a black start, a simulated trajectory, a descent or
a certified stack, together with the files it writes. ``Job.run`` is the
timed part; ``Job.check`` runs outside the timed region and compares the
outputs with references computed here with numpy alone (or with properties
the method must have). It raises :class:`CheckError` on a wrong output and
returns the job's work counts. A workload's ``check_pass`` then applies the
clauses that compare several jobs of one pass.

The program is called only through public functions of its modules, looked
up at call time (``ps.integrate_ode`` and so on), so that wrappers installed
by :mod:`tracer` see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import predsens as ps
from predsens import casestudies as cs
from predsens import cli, registry

WORKLOADS = ("blackstart", "bilevel", "certify")


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]


@dataclass
class Workload:
    jobs: list[Job]
    #: summaries of one pass (job name -> dict) -> [(job names, message)]
    check_pass: Callable[[dict], list] = lambda summaries: []


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The job list of one workload; inputs depend only on ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    make = {"blackstart": _blackstart, "bilevel": _bilevel, "certify": _certify}[name]
    return make(rng, workdir)


def warmup_jobs(name: str, workdir: Path) -> list[Callable[[], object]]:
    """Short versions of each job kind, run once during set-up so that lazy
    imports and first-call costs land in ``setup_s``, not in the first pass."""
    if name == "blackstart":
        def bs():
            for scheme in (ps.PredictiveSensitivity(), ps.Plain()):
                traj, met = cs.run_black_start(cs.RlcParams(), scheme,
                                               ps.IntegrationSettings("rk4", 1e-5, 0.005))
                cs.write_black_start_csv(workdir / "warmup.csv", traj, met)
        return [bs]
    if name == "bilevel":
        stack = registry.get_stack("bilevel-example")
        problem = cs.bilevel_example_problem()

        def bl():
            x0 = np.array([0.3, 0.3])
            for scheme in (ps.PredictiveSensitivity(), ps.Preconditioned([1.0, 2.0]),
                           ps.ApproximateSensitivity(ps.frozen_sensitivity_provider(stack, x0)),
                           ps.ApproximateSensitivity(ps.noisy_sensitivity_provider(0.05, 0))):
                traj = ps.integrate_ode(stack, scheme, x0, ps.IntegrationSettings("rk4", 0.04, 0.2))
            ps.manifold_error(stack, traj, 1)
            cli.write_trajectory_csv(workdir / "warmup.csv", stack, traj)
            log = ps.solve_discrete(problem, "ps", 0.25, x0)
            ps.classify_point(problem, log.iterates[-1][:1], log.iterates[-1][1:])
            log.to_csv(workdir / "warmup.csv")
        return [bl]

    def ce():
        r2 = registry.get_stack("r2")
        ps.classify_local_stability(r2, ps.PredictiveSensitivity(), [0.0, 0.0])
        ps.classify_local_stability(r2, ps.Preconditioned([1.0, 2.0]), [0.0, 0.0])
        ps.block_triangular_form(r2, [0.0, 0.0])
        cert = ps.contraction_check(r2, [1.0, 1.0], [2.0, 1.0], [[1.0, 0.5]])
        ps.distance_bound_margins(r2, cert, [[1.0, 0.5]])
        tracking = registry.get_stack("tracking")
        traj = ps.integrate_ode(tracking, ps.PredictiveSensitivity(), [1.0, 1.0],
                                ps.IntegrationSettings("rk4", 1e-3, 0.05))
        ps.manifold_error(tracking, traj, 1)
    return [ce]


# --------------------------------------------------------------------------
# shared checks

CSV_CHUNK = 1000


def check_csv(path: Path, header: str, columns: list[np.ndarray]) -> int:
    """The file has the header and one row per sample, and parses back to
    ``np.column_stack(columns)`` exactly. Reads the file one row at a time
    and stacks the columns ``CSV_CHUNK`` rows at a time, so that the check
    holds less memory than the program that wrote the file. Returns the row
    count."""
    n = columns[0].shape[0]
    rows = 0
    expected: list[list[float]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        require(first == header + "\n", f"{path}: header {first!r}, expected {header!r}")
        for line in fh:
            require(line.endswith("\n"), f"{path}: last row is not terminated")
            require(rows < n, f"{path}: more than {n} rows")
            if rows % CSV_CHUNK == 0:
                expected = np.column_stack([c[rows:rows + CSV_CHUNK] for c in columns]).tolist()
            try:
                values = [float(tok) for tok in line[:-1].split(",")]
            except ValueError as exc:
                raise CheckError(f"{path}: unparsable row {rows + 1} ({exc})") from None
            require(values == expected[rows % CSV_CHUNK],
                    f"{path}: row {rows + 1} differs from the run's output")
            rows += 1
    require(rows == n, f"{path}: {rows} rows, expected {n}")
    return rows


def rk4_affine_propagator(a: np.ndarray, b: np.ndarray, dt: float):
    """One RK4 step of x' = a x + b is exactly x -> P x + q, with P the
    degree-4 Taylor polynomial of exp(dt a)."""
    n = a.shape[0]
    ha = dt * a
    q_poly = np.eye(n) + ha / 2.0 + ha @ ha / 6.0 + ha @ ha @ ha / 24.0
    return np.eye(n) + dt * q_poly @ a, dt * q_poly @ b


def propagate(p: np.ndarray, q: np.ndarray, x0: np.ndarray, steps: int) -> np.ndarray:
    out = np.empty((steps + 1, x0.size))
    x = x0.copy()
    out[0] = x
    for k in range(steps):
        x = p @ x + q
        out[k + 1] = x
    return out


def dense_blocks(stack) -> tuple[np.ndarray, np.ndarray]:
    """Dense Jacobian and offset of an affine stack, read from the
    subsystems' own Jacobian and field callables at the origin."""
    zero = np.zeros(stack.total_dim)
    rows = [np.hstack([np.atleast_2d(np.asarray(blk, dtype=float))
                       for blk in sub.jacobian(zero)]) for sub in stack.subsystems]
    offset = np.concatenate([np.asarray(sub.field(zero), dtype=float).reshape(-1)
                             for sub in stack.subsystems])
    return np.vstack(rows), offset


def conditioning_inverse(a: np.ndarray, dims, gains=None) -> np.ndarray:
    """Dense M^{-1} for predictive sensitivity (optionally with per-level
    gains), from Schur complements: the sensitivity row block of level i is
    the level-i part of -A[i:, i:]^{-1} A[i:, :i]."""
    off = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    n_tot = off[-1]
    m = np.eye(n_tot)
    for i in range(1, len(dims)):
        lo = off[i]
        sol = -np.linalg.solve(a[lo:, lo:], a[lo:, :lo])
        m[lo:off[i + 1], :lo] = -sol[:dims[i]]
    if gains is not None:
        for i in range(len(dims)):
            m[off[i]:off[i + 1], :] /= gains[i]
    return np.linalg.inv(m)


def eig_distance(a, b) -> float:
    """Greedy nearest matching distance between two eigenvalue multisets."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for lam in a:
        k = int(np.argmin([abs(lam - mu) for mu in b]))
        worst = max(worst, abs(lam - b.pop(k)))
    return worst


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _job_dir(workdir: Path, name: str) -> Path:
    out = workdir / name.replace("/", "-")
    out.mkdir(parents=True, exist_ok=True)
    return out


# --------------------------------------------------------------------------
# blackstart: the converter study as `predsens rlc` runs it

TIERS = ((50.0, 100.0), (100.0, 200.0), (250.0, 500.0))
SETTLE_BAND = 0.01


def _blackstart(rng, workdir) -> Workload:
    # The loop is rotation-equivariant, so a seeded phase of the voltage
    # reference changes every sample but none of the magnitudes checked.
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    v_ref = (120.0 * math.cos(phase), 120.0 * math.sin(phase))
    specs = [(f"predsens-{int(kpi)}/{int(kii)}", kpi, kii, ps.PredictiveSensitivity(),
              cs.default_black_start_settings()) for kpi, kii in TIERS]
    specs.append(("plain-50/100", 50.0, 100.0, ps.Plain(),
                  ps.IntegrationSettings("rk4", 1e-4, 3.5)))
    jobs = [_blackstart_job(name, cs.RlcParams(k_pi=kpi, k_ii=kii, v_ref=v_ref),
                            scheme, settings, _job_dir(workdir, name))
            for name, kpi, kii, scheme, settings in specs]

    def check_pass(summaries):
        over = [summaries[spec[0]]["overshoot"] for spec in specs[:3]]
        if not over[0] >= over[1] >= over[2]:
            return [(tuple(s[0] for s in specs[:3]),
                     f"overshoot increases with the gains: {over}")]
        return []

    return Workload(jobs, check_pass)


def _settling_time(times, mag):
    """First time after which |v| stays within the band, None if it never does."""
    outside = np.flatnonzero(np.abs(mag - 1.0) > SETTLE_BAND)
    if outside.size == 0:
        return float(times[0])
    return float(times[outside[-1] + 1]) if outside[-1] + 1 < times.size else None


def _blackstart_job(name, params, scheme, settings, out: Path) -> Job:
    conditioned = isinstance(scheme, ps.PredictiveSensitivity)

    def run():
        traj, met = cs.run_black_start(params, scheme, settings)
        cs.write_black_start_csv(out / "blackstart.csv", traj, met)
        _write_json(out / "metrics.json", met.to_json_dict())
        return traj, met

    def check(result):
        traj, met = result
        steps = int(round(settings.t_end / settings.dt))
        require(not traj.diverged and traj.times.size == steps + 1,
                f"{name}: {traj.times.size} samples, expected {steps + 1}")
        require(np.allclose(traj.times, settings.dt * np.arange(steps + 1), rtol=0, atol=1e-12),
                f"{name}: time grid is not k * dt")
        a, b = dense_blocks(cs.rlc_stack(params))
        if conditioned:
            s = -np.linalg.solve(a[4:, 4:], a[4:, :4])
            a = np.vstack([a[:4], a[4:] + s @ a[:4]])
            b = np.concatenate([b[:4], b[4:] + s @ b[:4]])
        p, q = rk4_affine_propagator(a, b, settings.dt)
        ref = propagate(p, q, np.zeros(8), steps)
        scale = max(1.0, float(ref.max()), -float(ref.min()))
        diff = np.subtract(traj.states, ref, out=ref)
        dev = max(float(diff.max()), -float(diff.min())) / scale
        del ref, diff
        require(dev <= 1e-9, f"{name}: trajectory departs from x <- P x + q by {dev:.2e} "
                             f"relative to the state scale {scale:.3g}")

        mag = np.hypot(traj.states[:, 0], traj.states[:, 1]) / cs.V_BASE
        require(np.allclose(met.voltage_magnitude_pu, mag, rtol=1e-12, atol=1e-12),
                f"{name}: reported |v| differs from the trajectory")
        require(abs(met.overshoot_pu - (float(mag.max()) - 1.0)) <= 1e-12,
                f"{name}: overshoot {met.overshoot_pu} is not max|v| - 1")
        exceeded = bool(np.any(mag > cs.DIVERGENCE_PU))
        require(met.stable == (not exceeded), f"{name}: stable flag {met.stable} disagrees "
                                              f"with |v| exceeding {cs.DIVERGENCE_PU} p.u.")
        if conditioned:
            require(met.stable, f"{name}: conditioned tier is not stable")
            # reported frequency: omega / 2 pi plus the central-difference rate
            # of the unwrapped voltage angle, the last sample repeating its
            # neighbour's value
            angle = np.unwrap(np.arctan2(traj.states[-3:, 1], traj.states[-3:, 0]))
            freq = (params.omega + (angle[2] - angle[0]) / (2.0 * settings.dt)) / (2.0 * math.pi)
            require(abs(freq - 50.0) <= 0.5, f"{name}: final frequency {freq:.4f} Hz")
            require(abs(met.frequency_hz[-1] - freq) <= 1e-9,
                    f"{name}: reported final frequency {met.frequency_hz[-1]:.6f} Hz, "
                    f"the trajectory gives {freq:.6f} Hz")
            settle = _settling_time(traj.times, mag)
            require(met.settling_time_s == settle,
                    f"{name}: settling time {met.settling_time_s}, expected {settle}")
            if params.k_pi == 250.0:
                require(settle is not None and settle <= 0.2 and abs(mag[-1] - 1.0) <= SETTLE_BAND,
                        f"{name}: |v| not within 1 % by 0.2 s (settles at {settle})")
        else:
            require(exceeded, f"{name}: plain run stays below {cs.DIVERGENCE_PU} p.u. "
                              f"(max {mag.max():.3f})")
        saved = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        require(saved == json.loads(json.dumps(met.to_json_dict())),
                f"{name}: metrics.json differs from the run's metrics")
        require(abs(saved["final_voltage_magnitude_pu"] - mag[-1]) <= 1e-12,
                f"{name}: metrics.json final |v| differs from the trajectory")
        rows = check_csv(out / "blackstart.csv", cs.BLACK_START_CSV_HEADER,
                         [traj.times, traj.states, met.voltage_magnitude_pu, met.frequency_hz])
        return {"states_bytes": traj.states.nbytes, "bs_csv_rows": rows,
                "overshoot": met.overshoot_pu}

    return Job(name, run, check)


# --------------------------------------------------------------------------
# bilevel: gradient flow of the bundled example and discrete descent

FLOW_SETTINGS = dict(method="rk4", dt=0.04, t_end=10.0)
FLOW_SCHEMES = ("predsens", "precond:1,2", "approx:frozen", "approx:noise:0.05")
TAU = 0.25
FIXED_START = (0.4, 0.4)


def _in_basin_starts(rng, count: int) -> list[np.ndarray]:
    """Points near the lower-level branch x2 ~ x1 with 0.1 <= |x1| <= 0.45,
    inside the basin of the strict local solution at the origin."""
    out = []
    for _ in range(count):
        x1 = float(rng.uniform(0.1, 0.45)) * float(rng.choice([-1.0, 1.0]))
        out.append(np.array([x1, x1 + float(rng.uniform(-0.05, 0.05))]))
    return out


# Closed forms of the bundled example, derived from its objectives
# F1 = -x1^2/2 + x2^2 and F2 = (x2^2/4 - x1 x2/2) exp(-x2^2/2).
def _g2(a, b):
    return math.exp(-0.5 * b * b) * (0.5 * (b - a) - 0.25 * b ** 3 + 0.5 * a * b * b)


def _h22(a, b):
    h = 0.5 * (b - a) - 0.25 * b ** 3 + 0.5 * a * b * b
    return math.exp(-0.5 * b * b) * (0.5 - 0.75 * b * b + a * b - b * h)


def _h21(a, b):
    return math.exp(-0.5 * b * b) * 0.5 * (b * b - 1.0)


def _sens(a, b):
    return -_h21(a, b) / _h22(a, b)


def _total(a, b):
    return -a + _sens(a, b) * 2.0 * b


def _flow_field(scheme: str, x0):
    s_frozen = _sens(*x0)

    def f(x):
        a, b = x
        x1dot = -_total(a, b)
        if scheme == "predsens":
            return np.array([x1dot, -_g2(a, b) + _sens(a, b) * x1dot])
        if scheme == "precond:1,2":
            return np.array([x1dot, -2.0 * _g2(a, b) + _sens(a, b) * x1dot])
        return np.array([x1dot, -_g2(a, b) + s_frozen * x1dot])

    return f


def _rk4_reference(f, x0, dt, steps):
    out = np.empty((steps + 1, 2))
    x = np.array(x0, dtype=float)
    out[0] = x
    for k in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = x
    return out


def _lower_solution(a, guess):
    y = guess
    for _ in range(50):
        step = _g2(a, y) / _h22(a, y)
        y -= step
        if abs(step) <= 1e-15 * (1.0 + abs(y)):
            break
    return y


def _bilevel(rng, workdir) -> Workload:
    stack = registry.get_stack("bilevel-example")
    problem = cs.bilevel_example_problem()
    jobs = []
    for k, x0 in enumerate(_in_basin_starts(rng, 3)):
        for scheme in FLOW_SCHEMES:
            name = f"flow-{k}-{scheme.replace(':', '-').replace(',', '-')}"
            noise_seed = int(rng.integers(0, 2 ** 31))
            jobs.append(_flow_job(name, stack, scheme, x0, noise_seed, _job_dir(workdir, name)))
    descents = [(FIXED_START, "ps", None), (FIXED_START, "gda", 0.25), (FIXED_START, "gda", 0.5)]
    for x0 in _in_basin_starts(rng, 3):
        descents += [(tuple(x0), "ps", None), (tuple(x0), "gda", 0.25)]
    names = []
    for k, (x0, method, eps) in enumerate(descents):
        name = f"descent-{k}-{method}" + ("" if eps is None else f"-{eps}")
        names.append(name)
        jobs.append(_descent_job(name, problem, method, eps, np.array(x0),
                                 _job_dir(workdir, name)))

    def check_pass(summaries):
        k_ps = summaries[names[0]]["first_below_1e-3"]
        k_g4 = summaries[names[1]]["first_below_1e-3"]
        fails = []
        if k_ps is None or k_g4 is None or not k_ps < k_g4:
            fails.append(((names[0], names[1]), f"from {FIXED_START}: ps reaches 1e-3 at "
                                                f"{k_ps}, gda eps 1/4 at {k_g4}"))
        if summaries[names[2]]["first_below_1e-1"] is not None:
            fails.append(((names[2],), f"from {FIXED_START}: gda eps 1/2 gets below 1e-1"))
        return fails

    return Workload(jobs, check_pass)


def _flow_job(name, stack, scheme, x0, noise_seed, out: Path) -> Job:
    settings = ps.IntegrationSettings(**FLOW_SETTINGS)
    steps = int(round(settings.t_end / settings.dt))

    def make_scheme():
        if scheme == "predsens":
            return ps.PredictiveSensitivity()
        if scheme == "precond:1,2":
            return ps.Preconditioned([1.0, 2.0])
        if scheme == "approx:frozen":
            return ps.ApproximateSensitivity(ps.frozen_sensitivity_provider(stack, x0))
        return ps.ApproximateSensitivity(ps.noisy_sensitivity_provider(0.05, noise_seed))

    def run():
        traj = ps.integrate_ode(stack, make_scheme(), x0, settings)
        err = ps.manifold_error(stack, traj, 1) if scheme == "predsens" else None
        cli.write_trajectory_csv(out / "trajectory.csv", stack, traj)
        return traj, err

    def check(result):
        traj, err = result
        require(not traj.diverged and traj.times.size == steps + 1,
                f"{name}: {traj.times.size} samples, expected {steps + 1}")
        require(np.all(np.isfinite(traj.states)), f"{name}: non-finite state")
        start, end = float(np.linalg.norm(x0)), float(np.linalg.norm(traj.final_state))
        require(end * 10.0 <= start, f"{name}: ends at distance {end:.3g} from the origin, "
                                     f"started at {start:.3g}")
        if scheme != "approx:noise:0.05":
            ref = _rk4_reference(_flow_field(scheme, x0), x0, settings.dt, steps)
            dev = float(np.max(np.abs(traj.states - ref)))
            require(dev <= 1e-9, f"{name}: trajectory departs from the closed-form RK4 "
                                 f"flow by {dev:.2e}")
        units = {"states_bytes": traj.states.nbytes}
        if err is not None:
            require(err.shape == (steps + 1, 1), f"{name}: manifold error shape {err.shape}")
            for k in range(0, steps + 1, 10):
                a, b = traj.states[k]
                dist = abs(b - _lower_solution(a, b))
                require(abs(err[k, 0] - dist) <= 1e-8,
                        f"{name}: manifold error {err[k, 0]:.3e} at sample {k}, "
                        f"expected {dist:.3e}")
            units.update(manifold_samples=err.shape[0],
                         manifold_nan=int(np.isnan(err).sum()))
        units["cli_csv_rows"] = check_csv(out / "trajectory.csv", "t,x1,x2",
                                          [traj.times, traj.states])
        return units

    return Job(name, run, check)


def _first_below(log, level):
    hits = np.flatnonzero(np.linalg.norm(log.iterates, axis=1) <= level)
    return int(hits[0]) if hits.size else None


def _descent_job(name, problem, method, eps, x0, out: Path) -> Job:
    def run():
        log = ps.solve_discrete(problem, method, TAU, x0, eps=eps)
        verdict = None
        if log.converged:
            end = log.iterates[-1]
            verdict = ps.classify_point(problem, end[:1], end[1:])
        log.to_csv(out / "iterates.csv")
        return log, verdict

    def check(result):
        log, verdict = result
        it = log.iterates
        require(it.shape == (log.iterations_used + 1, 2) and np.allclose(it[0], x0, 0, 0),
                f"{name}: iterate log has shape {it.shape}")
        for k in range(it.shape[0]):
            a, b = it[k]
            d, g2 = _total(a, b), _g2(a, b)
            res = math.hypot(d, g2)
            require(abs(log.residuals[k] - res) <= 1e-9 * (1.0 + res),
                    f"{name}: residual {log.residuals[k]:.6e} at {k}, expected {res:.6e}")
            if k + 1 < it.shape[0]:
                step1 = -TAU * d
                step2 = (-TAU * g2 + _sens(a, b) * step1 if method == "ps"
                         else -(TAU / eps) * g2)
                nxt = np.array([a + step1, b + step2])
                require(np.all(np.abs(it[k + 1] - nxt) <= 1e-9 * (1.0 + np.abs(nxt))),
                        f"{name}: iterate {k + 1} is {it[k + 1]}, update rule gives {nxt}")
        if method == "ps":
            require(log.converged, f"{name}: ps did not converge from {x0}")
        if log.converged:
            require(float(np.linalg.norm(it[-1])) <= 1e-6,
                    f"{name}: converged end {it[-1]} is not the origin")
            require(verdict is not None and
                    verdict.verdict is ps.SolutionVerdict.STRICT_LOCAL_SOLUTION_CANDIDATE,
                    f"{name}: end rated {verdict and verdict.verdict}")
            red = float(verdict.reduced_hessian[0, 0])
            require(abs(red - 1.0) <= 1e-3, f"{name}: reduced Hessian {red}, expected 1")
        else:
            require(verdict is None, f"{name}: classified an end that did not converge")
        if method == "gda" and eps == 0.25:
            require(not log.diverged, f"{name}: gda eps 1/4 diverged from {x0}")
        check_csv(out / "iterates.csv", "iter,x1,x2,residual",
                  [np.arange(it.shape[0]), it, log.residuals])
        return {"descent_iters": log.iterations_used,
                "first_below_1e-3": _first_below(log, 1e-3),
                "first_below_1e-1": _first_below(log, 1e-1)}

    return Job(name, run, check)


# --------------------------------------------------------------------------
# certify: single-point analysis on affine stacks

RANDOM_STACKS = 400
R2_POINTS = 300
TRACKING_DTS = (1e-3, 5e-4, 2.5e-4)


def _random_stack(rng):
    """Shaped like the suite's random_linear_suite: N in {2, 3}, block dims
    1-3, diagonal blocks shifted by -3 I."""
    n = int(rng.integers(2, 4))
    dims = [int(rng.integers(1, 4)) for _ in range(n)]
    blocks = [[rng.normal(size=(dims[i], dims[j])) - (3.0 * np.eye(dims[i]) if i == j else 0.0)
               for j in range(n)] for i in range(n)]
    gains = [float(g) for g in rng.uniform(0.5, 2.0, size=n)]
    return ps.linear_stack(dims, blocks), gains


def _certify(rng, workdir) -> Workload:
    jobs = []
    for k in range(RANDOM_STACKS):
        stack, gains = _random_stack(rng)
        jobs.append(_stack_job(f"stack-{k}", stack, gains))
    points = [rng.uniform(-5.0, 5.0, 2) for _ in range(R2_POINTS)]
    jobs.append(_r2_job(registry.get_stack("r2"), points))
    tracking = registry.get_stack("tracking")
    jobs += [_tracking_job(f"tracking-dt{dt:g}", tracking, dt) for dt in TRACKING_DTS]
    return Workload(jobs)


def _sign_verdict(lams):
    abscissa = float(np.max(np.real(lams)))
    if abscissa < -ps.stability.STABILITY_TOL:
        return ps.Verdict.EXPONENTIALLY_STABLE
    if abscissa > ps.stability.STABILITY_TOL:
        return ps.Verdict.UNSTABLE
    return ps.Verdict.MARGINAL


def _stack_job(name, stack, gains) -> Job:
    origin = np.zeros(stack.total_dim)

    def run():
        return (ps.classify_local_stability(stack, ps.PredictiveSensitivity(), origin),
                ps.classify_local_stability(stack, ps.Preconditioned(gains), origin),
                ps.block_triangular_form(stack, origin))

    def check(result):
        rep_ps, rep_pc, btf = result
        a, _ = dense_blocks(stack)
        off = stack.offsets
        for label, rep, g in (("predsens", rep_ps, None), ("precond", rep_pc, gains)):
            ref = np.linalg.eigvals(conditioning_inverse(a, stack.dims, g) @ a)
            tol = 1e-6 * (1.0 + float(np.max(np.abs(ref))))
            gap = eig_distance(rep.eigenvalues, ref)
            require(gap <= tol, f"{name} {label}: eigenvalues off by {gap:.2e}")
            union = np.concatenate(rep.block_eigenvalues)
            gap = eig_distance(union, ref)
            require(gap <= tol, f"{name} {label}: block eigenvalues off by {gap:.2e}")
            require(rep.verdict == _sign_verdict(ref),
                    f"{name} {label}: verdict {rep.verdict.value}, sign test gives "
                    f"{_sign_verdict(ref).value}")
        ref = np.linalg.eigvals(conditioning_inverse(a, stack.dims) @ a)
        tol = 1e-6 * (1.0 + float(np.max(np.abs(ref))))
        scale = 1.0 + float(np.max(np.abs(btf.matrix)))
        for i in range(len(stack)):
            below = btf.matrix[off[i + 1]:, off[i]:off[i + 1]]
            require(below.size == 0 or float(np.max(np.abs(below))) <= 1e-9 * scale,
                    f"{name}: block-triangular form has a nonzero block below level {i}")
        diag = np.concatenate([np.linalg.eigvals(b) for b in btf.diagonal_blocks])
        gap = eig_distance(diag, ref)
        require(gap <= tol, f"{name}: block-triangular diagonal spectrum off by {gap:.2e}")
        return {}

    return Job(name, run, check)


def _r2_job(stack, points) -> Job:
    p, q = [1.0, 1.0], [2.0, 1.0]

    def run():
        cert = ps.contraction_check(stack, p, q, points)
        return cert, ps.distance_bound_margins(stack, cert, points)

    def check(result):
        cert, margins = result
        # r2 has D[0][0] = -1 and D[1][1] = -1/2 everywhere, so the inverse
        # bounds 2 |P_i| / min eig Q_i = (1, 2) are attained and every
        # distance bound holds with equality: the margins are zero.
        require(cert.holds and cert.bounds_verified, "r2: certificate does not hold")
        require(cert.inverse_bound == [1.0, 2.0], f"r2: inverse bounds {cert.inverse_bound}")
        require(np.allclose(cert.max_inverse_norm, [1.0, 2.0], rtol=0, atol=1e-12),
                f"r2: max inverse norms {cert.max_inverse_norm}")
        require(max(cert.max_residual_eig) <= 1e-10,
                f"r2: residual eigenvalues {cert.max_residual_eig}")
        require(margins.shape == (len(points), 2), f"r2: margins shape {margins.shape}")
        require(float(np.min(margins)) >= -1e-9, f"r2: margin {np.min(margins):.3e} < -1e-9")
        scale = 1e-9 * (1.0 + np.max(np.abs(np.array(points)), axis=1))
        require(np.all(np.abs(margins) <= scale[:, None]),
                f"r2: margins depart from their closed form 0 by {np.max(np.abs(margins)):.2e}")
        return {"r2_points": len(points)}

    return Job("r2-certificate", run, check)


def _tracking_job(name, stack, dt) -> Job:
    settings = ps.IntegrationSettings("rk4", dt, 2.0)
    steps = int(round(settings.t_end / dt))

    def run():
        traj = ps.integrate_ode(stack, ps.PredictiveSensitivity(), [1.0, 1.0], settings)
        return traj, ps.manifold_error(stack, traj, 1)

    def check(result):
        traj, err = result
        # conditioned system: x1' = -x1, x2' = -x2 from (1, 1)
        require(traj.times.size == steps + 1, f"{name}: {traj.times.size} samples")
        exact = np.exp(-traj.times)
        dev = float(np.max(np.abs(traj.states - exact[:, None])))
        require(dev <= 1e-10, f"{name}: departs from e^-t by {dev:.2e}")
        require(err.shape == (steps + 1, 1) and not np.isnan(err).any(),
                f"{name}: manifold error has NaN or shape {err.shape}")
        require(float(np.max(err)) <= 1e-9, f"{name}: manifold error {np.max(err):.2e}")
        closed = np.abs(traj.states[:, 1] - traj.states[:, 0])
        require(np.allclose(err[:, 0], closed, rtol=0, atol=1e-12),
                f"{name}: manifold error differs from |x2 - x1|")
        return {"states_bytes": traj.states.nbytes,
                "manifold_samples": err.shape[0], "manifold_nan": int(np.isnan(err).sum())}

    return Job(name, run, check)
