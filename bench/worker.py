"""One workload in its own process: set up, time whole passes, check outputs.

Started by ``run.py``; prints one JSON object as its last line. Set-up is
measured from ``--spawn-time`` (the parent's monotonic clock just before
it started this process) to the start of the first timed pass, and covers
interpreter start, imports, input generation and a warm-up. With
``--setup-only`` the process stops there.

Every pass runs the workload's whole job list. A job's ``run`` is timed on
its own and the pass time is the sum; checks run between jobs, untimed. A
job that raises or fails its check counts as failed. Passes repeat while
the next one is expected to end within ``--seconds``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Work counts that jobs' checks return and a pass sums. RK4 steps are
#: counted by the stopwatch instead, so they include jobs that fail a check.
UNIT_KEYS = ("states_bytes", "bs_csv_rows", "cli_csv_rows", "manifold_samples",
             "manifold_nan", "descent_iters", "r2_points")


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import predsens
    if Path(predsens.__file__).resolve().parent != src / "predsens":
        raise ImportError(f"predsens was imported from {predsens.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(BENCH))
    import layers
    import tracer
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        watch = tracer.Stopwatch()
        watch.install()
        spans = tracer.Tracer() if args.trace else None
        if spans is not None:
            spans.install()
        for warm in workloads.warmup_jobs(args.workload, workdir):
            warm()
        if spans is not None:
            spans.truncate(0)
        gc.collect()
        setup_s = time.monotonic() - args.spawn_time
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        passes = []
        begin = time.perf_counter()
        while True:
            lap = time.perf_counter()
            passes.append(_run_pass(workload, workloads, spans, watch))
            passes[-1]["lap_s"] = time.perf_counter() - lap
            gc.collect()
            typical = statistics.median(p["lap_s"] for p in passes)
            if time.perf_counter() - begin + typical > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    messages = [m for p in passes for m in p["messages"]]
    out = {"attempted": len(workload.jobs) * len(passes),
           "failed": sum(len(p["failed"]) for p in passes),
           "correct": not any(p["wrong"] for p in passes),
           "passes": len(passes),
           "wall_s": statistics.median(p["wall_s"] for p in passes),
           "lap_s": statistics.median(p["lap_s"] for p in passes),
           "pass_walls_s": [round(p["wall_s"], 4) for p in passes],
           "messages": messages[:10]}
    if spans is None:
        out["metrics"] = {
            "wall_s": out["wall_s"],
            "rk4_steps_per_s": statistics.median(
                p["units"]["rk4_steps"] / p["integrate_s"] if p["integrate_s"] else 0.0
                for p in passes),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        out["metrics"] = layers.per_layer_metrics(passes)
        spans.save(BENCH / "results" / f"spans-{args.workload}.npz")
    print(json.dumps(out))
    return 0


def _run_pass(workload, workloads, spans, watch) -> dict:
    """Run every job once. With a tracer, each job is a root span and the
    spans its check records are dropped, so the pass's spans are exactly
    those of the timed calls."""
    wall = 0.0
    units: dict[str, float] = {}
    summaries: dict[str, dict] = {}
    failed: set[str] = set()
    messages: list[str] = []
    wrong = False
    watch.seconds, watch.steps = 0.0, 0
    first = len(spans) if spans is not None else 0
    for job in workload.jobs:
        t0 = time.perf_counter()
        try:
            output = (job.run if spans is None else spans.wrap("job", job.run))()
        except Exception as exc:
            failed.add(job.name)
            messages.append(f"{job.name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            wall += time.perf_counter() - t0
        mark = len(spans) if spans is not None else 0
        try:
            summary = job.check(output)
        except Exception as exc:
            # an output too malformed to compare (wrong shape or type) is
            # wrong too, not a reason to stop without a result
            failed.add(job.name)
            messages.append(str(exc) if isinstance(exc, workloads.CheckError)
                            else f"{job.name}: {type(exc).__name__} in check: {exc}")
            wrong = True
            continue
        finally:
            if spans is not None:
                spans.truncate(mark)
            del output
        summaries[job.name] = summary
        for key, value in summary.items():
            if key in UNIT_KEYS:
                units[key] = units.get(key, 0) + value
    if not failed:
        for names, message in workload.check_pass(summaries):
            failed.update(names)
            messages.append(message)
            wrong = True
    units["rk4_steps"] = watch.steps
    result = {"wall_s": wall, "units": units, "failed": sorted(failed),
              "messages": messages, "wrong": wrong, "integrate_s": watch.seconds}
    if spans is not None:
        result["layers"] = spans.summarize(first, len(spans))
    return result


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
