"""Self-test of the benchmark.

    python3 bench/selftest.py

1. Runs every workload once per mode with ``--seconds 1`` (a single pass,
   the smallest run the benchmark makes) and checks that the result line
   reports every metric named in ``BENCHMARK.json`` with its unit, that all
   operations succeed and that the outputs are correct. In the traced run,
   every per-layer metric of a layer the workload calls (``CALLED``) must
   read above 0, so that a wrapper that misses its calls shows.
2. Shows that the output checks are not vacuous: each check accepts a
   genuine output and rejects a corrupted copy of it (a perturbed trajectory
   sample, a moved eigenvalue, a truncated CSV, a wrong margin, ...), and
   each cross-job clause rejects swapped outcomes. A pass whose integrating
   jobs all fail their checks, one of them by raising something other than
   ``CheckError``, still counts their RK4 steps and marks them failed, so
   that such a run reports ``correct: false`` rather than failing to report.
3. Runs ``run.py`` in a directory holding only ``BENCHMARK.json`` and the
   benchmark's files, where it must fail without printing a result.

Exits non-zero if anything fails.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = BENCH / "results" / "selftest"

failures: list[str] = []

#: Per-layer metrics that count failures, and so read 0 on a correct run.
FAILURE_COUNTS = {"integrate.manifold_nan", "sensitivity.singular_raised"}
_CLOSURE = ("integrate.loop_us_per_step", "integrate.states_mb",
            "conditioning.closure_calls", "conditioning.closure_us",
            "conditioning.compile_ms", "sensitivity.tables", "sensitivity.table_us",
            "sensitivity.grid_us", "sensitivity.solves", "sensitivity.solve_us",
            "model.field_block_calls")
_STEADY = ("integrate.manifold_samples_per_s", "sensitivity.steady_solve_us",
           "sensitivity.newton_solves_per_steady_solve")
#: Workload -> per-layer metrics whose layer it calls in every pass; each must
#: read above 0 in its traced run. The others read 0 (not called).
CALLED = {
    "blackstart": _CLOSURE + ("conditioning.matrix_us", "casestudies.csv_rows_per_s",
                              "casestudies.metrics_ms"),
    "bilevel": _CLOSURE + _STEADY + (
        "conditioning.field_calls", "conditioning.field_us", "model.fd_jacobians",
        "model.fd_jacobian_us", "bilevel.descent_iters_per_s", "bilevel.total_gradients",
        "bilevel.total_gradient_us", "cli.csv_rows_per_s"),
    "certify": _CLOSURE + _STEADY + (
        "conditioning.matrix_us", "stability.classify_ms", "stability.btf_ms",
        "stability.contraction_point_us", "stability.margin_point_us",
        "stability.eig_calls"),
}


def report(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}", flush=True)
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=200)


def check_reporting(spec: dict) -> None:
    for w in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(ROOT, w, trace)
            what = f"{w} --trace {trace}"
            if proc.returncode != 0:
                report(False, f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys {sorted(result)}")
            report(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{what}: correct={result['correct']}, failed {result['failed']} "
                   f"of {result['attempted']}")
            metrics = result["metrics"]
            report(set(metrics) == {m["name"] for m in wanted},
                   f"{what}: reports exactly the {len(wanted)} metrics of BENCHMARK.json")
            for m in wanted:
                got = metrics.get(m["name"], {})
                value = got.get("value")
                positive = not trace or m["name"] in CALLED[w]
                ok = (got.get("unit") == m["unit"] and isinstance(value, (int, float))
                      and math.isfinite(value) and value >= 0 and (value > 0 or not positive))
                if not ok:
                    report(False, f"{what}: {m['name']} = {got}"
                           + (" (its layer is called, so it must be above 0)" if positive else ""))
            if trace:
                report(all(m["name"] in FAILURE_COUNTS or m["name"] in CALLED[w]
                           or metrics.get(m["name"], {}).get("value") == 0 for m in wanted),
                       f"{what}: the metrics of the layers it calls are above 0, "
                       f"the others read 0")


def rejects(check, output, corrupt, what: str) -> None:
    bad = copy.deepcopy(output)
    corrupt(bad)
    try:
        check(bad)
    except workloads.CheckError as exc:
        report(True, f"{what} is rejected ({str(exc)[:90]})")
        return
    report(False, f"{what} is accepted")


def rejects_file(check, output, path: Path, edit, what: str) -> None:
    original = path.read_text(encoding="utf-8")
    path.write_text(edit(original), encoding="utf-8")
    try:
        rejects(check, output, lambda out: None, what)
    finally:
        path.write_text(original, encoding="utf-8")


def genuine(job):
    output = job.run()
    try:
        summary = job.check(output)
    except workloads.CheckError as exc:
        report(False, f"{job.name}: genuine output rejected: {exc}")
        return output, None
    report(True, f"{job.name}: genuine output accepted")
    return output, summary


def drop_last_row(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def cut_last_row(text: str) -> str:
    return text[:-12] + "\n"


def check_rejections() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)

    bs = workloads.build("blackstart", 1, SCRATCH / "blackstart")
    job = next(j for j in bs.jobs if j.name == "predsens-250/500")
    out, _ = genuine(job)

    def perturb_sample(o):
        o[0].states[10000, 4] *= 1.0 + 1e-6
    rejects(job.check, out, perturb_sample, "blackstart: perturbed trajectory sample")

    def move_settling(o):
        o[1].settling_time_s += 1e-5
    rejects(job.check, out, move_settling, "blackstart: moved settling time")

    def shift_frequency(o):
        o[1].frequency_hz[-1] += 1e-6
    rejects(job.check, out, shift_frequency, "blackstart: shifted final frequency")
    csv = SCRATCH / "blackstart" / "predsens-250-500" / "blackstart.csv"
    rejects_file(job.check, out, csv, drop_last_row, "blackstart: CSV missing its last row")
    rejects_file(job.check, out, csv, cut_last_row, "blackstart: CSV cut inside its last row")
    summaries = {j.name: {"overshoot": 0.01 * k} for k, j in enumerate(bs.jobs)}
    report(bool(bs.check_pass(summaries)),
           "blackstart: overshoot growing with the gains is rejected")

    bl = workloads.build("bilevel", 1, SCRATCH / "bilevel")
    flow = next(j for j in bl.jobs if j.name == "flow-0-predsens")
    out, _ = genuine(flow)

    def perturb_flow(o):
        o[0].states[100, 1] += 1e-7
    rejects(flow.check, out, perturb_flow, "bilevel: perturbed flow sample")

    def move_manifold(o):
        o[1][50, 0] += 1e-6
    rejects(flow.check, out, move_manifold, "bilevel: moved manifold error")
    rejects_file(flow.check, out, SCRATCH / "bilevel" / "flow-0-predsens" / "trajectory.csv",
                 cut_last_row, "bilevel: truncated trajectory CSV")
    descent = next(j for j in bl.jobs if j.name == "descent-0-ps")
    out, _ = genuine(descent)

    def perturb_iterate(o):
        o[0].iterates[5, 0] += 1e-6
    rejects(descent.check, out, perturb_iterate, "bilevel: perturbed descent iterate")

    def bend_hessian(o):
        o[1].reduced_hessian[0, 0] = 1.01
    rejects(descent.check, out, bend_hessian, "bilevel: wrong reduced Hessian")
    summaries = {j.name: {"first_below_1e-3": 50, "first_below_1e-1": None} for j in bl.jobs}
    report(bool(bl.check_pass(summaries)),
           "bilevel: gda eps 1/4 reaching 1e-3 as early as ps is rejected")

    ce = workloads.build("certify", 1, SCRATCH / "certify")
    stack_job = ce.jobs[0]
    out, _ = genuine(stack_job)

    def move_eigenvalue(o):
        o[0].eigenvalues[0] += 1e-4
    rejects(stack_job.check, out, move_eigenvalue, "certify: moved eigenvalue")

    def move_block_eigenvalue(o):
        o[1].block_eigenvalues[-1][0] += 1e-4
    rejects(stack_job.check, out, move_block_eigenvalue, "certify: moved block eigenvalue")

    def flip_verdict(o):
        o[0].verdict = (ps.Verdict.UNSTABLE if o[0].verdict is ps.Verdict.EXPONENTIALLY_STABLE
                        else ps.Verdict.EXPONENTIALLY_STABLE)
    rejects(stack_job.check, out, flip_verdict, "certify: flipped verdict")
    r2_job = next(j for j in ce.jobs if j.name == "r2-certificate")
    out, _ = genuine(r2_job)

    def move_margin(o):
        o[1][3, 1] -= 1e-6
    rejects(r2_job.check, out, move_margin, "certify: moved distance margin")
    tracking = next(j for j in ce.jobs if j.name.startswith("tracking"))
    out, _ = genuine(tracking)

    def perturb_tracking(o):
        o[0].states[500, 1] += 1e-9
    rejects(tracking.check, out, perturb_tracking, "certify: perturbed tracking sample")

    def wrong(output):
        raise workloads.CheckError("rejected on purpose")

    def malformed(output):
        raise IndexError("an output too short to compare")
    failing = workloads.Workload([workloads.Job(j.name, j.run, malformed if k == 0 else wrong)
                                  for k, j in enumerate(j for j in ce.jobs
                                                        if j.name.startswith("tracking"))])
    watch = tracer.Stopwatch()
    watch.install()
    result = worker._run_pass(failing, workloads, None, watch)
    report(result["wrong"] and len(result["failed"]) == len(failing.jobs)
           and result["units"]["rk4_steps"] == sum(TRACKING_STEPS) and result["integrate_s"] > 0,
           f"a pass whose tracking jobs all fail their checks (one by an IndexError) is "
           f"wrong and counts {result['units'].get('rk4_steps')} RK4 steps of "
           f"{sum(TRACKING_STEPS)}")
    shutil.rmtree(SCRATCH, ignore_errors=True)


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "bench")
    proc = run_bench(bare, "certify", 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    report(proc.returncode != 0 and not last[0].startswith("{"),
           f"without the program, run.py exits {proc.returncode} and prints no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_rejections()
    check_bare_directory()
    check_reporting(spec)
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    import worker
    worker.import_program()
    import predsens as ps
    import tracer
    import workloads
    TRACKING_STEPS = [round(2.0 / dt) for dt in workloads.TRACKING_DTS]
    sys.exit(main())
