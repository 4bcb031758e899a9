"""Steadiness of the benchmark: repeat runs in fresh processes and compare sets.

    python3 bench/steady.py run --runs 10 --first-seed 1 --out bench/results/set-a.json
    python3 bench/steady.py run --runs 10 --first-seed 11 --out bench/results/set-b.json
    python3 bench/steady.py compare bench/results/set-a.json bench/results/set-b.json

``run`` calls ``run.py`` once per (run, workload) for every workload of
``BENCHMARK.json`` and its ``run_seconds``, interleaving the workloads, with
seed ``first-seed + run``. It stores every result and prints, per workload
and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as a
share of the median, next to a third of the metric's bound. ``compare``
checks two sets the way a regression gate would: each median of the second
set is no worse than the first's by more than the bound, the failed share is
the same, and, for two traced sets, every per-layer count is identical in
the runs of the same seed (counts depend on the seeded inputs). It
also prints the median pass time of each set, which gives the tracing
overhead when one set is traced and the other is not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    record["info"] = next(json.loads(line[6:]) for line in lines if line.startswith("info: "))
    record["seed"] = seed
    return record


def cmd_run(args) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    data = {"trace": args.trace, "seconds": seconds, "runs": {w: [] for w in workloads}}
    for i in range(args.runs):
        for w in workloads:
            rec = one_run(w, args.first_seed + i, seconds, args.trace)
            data["runs"][w].append(rec)
            print(f"{w} seed {rec['seed']}: correct={rec['correct']} "
                  f"failed={rec['failed']}/{rec['attempted']} passes={rec['info']['passes']}",
                  flush=True)
            Path(args.out).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    show(data, spec)
    return 0


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def _metric_specs(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def show(data: dict, spec: dict) -> None:
    print(f"trace={data['trace']} seconds={data['seconds']}")
    for w, runs in data["runs"].items():
        if not runs:
            continue
        print(f"\n{w}: {len(runs)} runs, seeds {runs[0]['seed']}..{runs[-1]['seed']}, "
              f"failed {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}, "
              f"correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} "
              f"{'bound/3':>8s}")
        for m in _metric_specs(spec, data["trace"]):
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, spread = summary(values)
            third = f"{m['bound'] / 3:.3f}" if "bound" in m else ""
            flag = " !" if "bound" in m and m["name"] != "setup_s" and spread >= m["bound"] / 3 else ""
            print(f"  {m['name']:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{third:>8s}{flag}")
        passes = [r["info"]["wall_s"] for r in runs]
        print(f"  {'(pass time, s)':44s} {statistics.median(passes):12.6g}")


def cmd_compare(args) -> int:
    spec = load_spec()
    a = json.loads(Path(args.first).read_text(encoding="utf-8"))
    b = json.loads(Path(args.second).read_text(encoding="utf-8"))
    ok = True
    for w in a["runs"]:
        ra, rb = a["runs"][w], b["runs"].get(w, [])
        if not ra or not rb:
            continue
        print(f"\n{w}")
        share_a = sum(r["failed"] for r in ra) / sum(r["attempted"] for r in ra)
        share_b = sum(r["failed"] for r in rb) / sum(r["attempted"] for r in rb)
        print(f"  failed share {share_a:.6g} vs {share_b:.6g}"
              + ("" if share_a == share_b else "  DIFFERENT"))
        ok &= share_a == share_b
        if a["trace"] == b["trace"] == 0:
            for m in spec["end_to_end"]:
                ma = statistics.median(r["metrics"][m["name"]]["value"] for r in ra)
                mb = statistics.median(r["metrics"][m["name"]]["value"] for r in rb)
                worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
                verdict = "ok" if worse <= m["bound"] else "WORSE"
                ok &= verdict == "ok"
                print(f"  {m['name']:20s} {ma:12.6g} -> {mb:12.6g}  worse by {worse:+.3f} "
                      f"(bound {m['bound']})  {verdict}")
        if a["trace"] == b["trace"] == 1:
            by_seed = {r["seed"]: r for r in rb}
            pairs = [(r, by_seed[r["seed"]]) for r in ra if r["seed"] in by_seed]
            print(f"  per-layer counts of {len(pairs)} seed(s) run in both sets:")
            for m in spec["per_layer"]:
                if m["unit"] != "count":
                    continue
                values = [(x["metrics"][m["name"]]["value"], y["metrics"][m["name"]]["value"])
                          for x, y in pairs]
                same = bool(pairs) and all(x == y for x, y in values)
                ok &= same
                print(f"  {m['name']:44s} {'identical' if same else 'DIFFERENT'} "
                      f"{[x for x, _ in values]}")
        pa = statistics.median(r["info"]["wall_s"] for r in ra)
        pb = statistics.median(r["info"]["wall_s"] for r in rb)
        print(f"  median pass time {pa:.4g} s (trace={a['trace']}) vs {pb:.4g} s "
              f"(trace={b['trace']}): difference {pb - pa:+.4g} s ({(pb - pa) / pa:+.1%})")
    print("\nverdict:", "ok" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
