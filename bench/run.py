"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 bench/run.py --workload blackstart --seed 1 --seconds 30 --trace 0

Runs the workload in a fresh single-threaded Python process (``worker.py``)
against the program in ``src/`` of this checkout. ``--trace 0`` reports the
end-to-end metrics; set-up is measured in that process and in
``SETUP_PROBES`` further processes that stop after set-up, and ``setup_s`` is
the median. ``--trace 1`` reports the per-layer metrics from a traced
process and writes its spans to ``bench/results/spans-<workload>.npz``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``; a line
``info: {...}`` before it gives the pass count, the median pass time and
the first failure messages. The exit code is non-zero, with no result
line, when the workload could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 4
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, extra: list[str], deadline: float) -> dict:
    workdir = RESULTS / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [sys.executable, "-B", str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)] + extra
    cmd += ["--spawn-time", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    RESULTS.mkdir(parents=True, exist_ok=True)

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(args, ["--setup-only"], deadline)["setup_s"])
    out = run_worker(args, [], deadline)
    metrics = out["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not reported: {missing}")
    info = {key: out[key] for key in ("passes", "wall_s", "lap_s", "pass_walls_s", "messages")}
    if setups:
        info["setup_samples_s"] = setups
    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)
