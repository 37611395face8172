#!/usr/bin/env python3
"""Measures how steady the benchmark is and records it in steadiness.json.

    python3 perfbench/steadiness.py --runs 10 [--seed0 1000] [workload ...]

Runs every workload (default: all of BENCHMARK.json) --runs times with
--trace 0, each run with another seed, and stores per end-to-end metric the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound, plus nproc. An existing
record keeps the workloads not run again. Run from the repository root; it
takes about runs x workloads x (run_seconds + 3) s.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "steadiness.json"))
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    seeds = [args.seed0 + i for i in range(args.runs)]
    record.update(nproc=os.cpu_count(), run_seconds=bench["run_seconds"])
    for w in workloads:
        started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        values = {}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed} failed its checks: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {"started": started, "seeds": seeds}
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": bounds[name], "values": vs}
            print(f"{w:<20} {name:<18} median {med:14.6f} q1 {q1:14.6f} q3 {q3:14.6f} "
                  f"spread {(q3 - q1) / med:6.3f} (bound {bounds[name]})", flush=True)
        record["workloads"][w] = rows
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
