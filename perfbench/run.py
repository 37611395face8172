#!/usr/bin/env python3
"""Builds and runs one workload of the ComDML benchmark.

    python3 perfbench/run.py --workload fleet_1m_cohort --seed 42 --seconds 20 --trace 0

Run from the repository root. The harness is the Rust package next to this
file; it is built with cargo into $CARGO_TARGET_DIR (default .bench_build).

--trace 0 runs the workload once with observability off and reports the
end-to-end metrics. --trace 1 splits the time between a run with
observability off and a run with COMDML_TRACE on, validates the trace with
the workspace's trace_check, and reports the per-layer metrics plus the
tracing overhead (the throughput the traced run lost). Per-layer metrics a
workload does not exercise read 0.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD_TIMEOUT_S = 170
# glibc keeps the memory the program frees instead of handing it back to the
# kernel. On a VM whose balloon device reports free pages to the host, every
# page handed back is discarded by the host and faults in again on next use:
# the 1k fleet spent a quarter of its time in those faults, at a cost that
# moved with the host's memory pressure.
MALLOC_TUNABLES = "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=17179869184"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise RuntimeError("build failed")


def run_child(workload, seed, seconds, trace_path=None):
    """Runs the harness once and returns its result object."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("COMDML_TRACE", "COMDML_METRICS")}
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (env.get("GLIBC_TUNABLES"), MALLOC_TUNABLES) if t)
    if trace_path:
        env["COMDML_TRACE"] = trace_path
    cmd = [os.path.join(target_dir(), "release", "perfbench"),
           "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with {done.returncode}")
    for line in lines[:-1]:
        print(line, flush=True)
    return json.loads(lines[-1])


def trace_check(path):
    checker = os.path.join(target_dir(), "release", "trace_check")
    done = subprocess.run([checker, path], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    print((done.stdout + done.stderr).strip(), flush=True)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise RuntimeError(f"unknown workload {args.workload!r}; expected one of {names}")
    build()

    if args.trace == 0:
        result = run_child(args.workload, args.seed, args.seconds)
        listed = bench["end_to_end"]
        measured = result["metrics"]
        correct, attempted, failed = result["correct"], result["attempted"], result["failed"]
    else:
        half = args.seconds / 2
        plain = run_child(args.workload, args.seed, half)
        trace_path = os.path.join(target_dir(), f"perfbench-{args.workload}-{args.seed}.jsonl")
        try:
            traced = run_child(args.workload, args.seed, half, trace_path)
            trace_ok = trace_check(trace_path)
        finally:
            if os.path.exists(trace_path):
                os.remove(trace_path)
        listed = bench["per_layer"]
        measured = dict(traced["metrics"])
        measured["trace.overhead_share"] = 1.0 - (
            traced["metrics"]["throughput_per_s"] / plain["metrics"]["throughput_per_s"])
        correct = plain["correct"] and traced["correct"] and trace_ok
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]

    metrics = {}
    for m in listed:
        if m["name"] not in measured and args.trace == 0:
            raise RuntimeError(f"harness did not report {m['name']}")
        value = measured.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload} {m['name']:<36} {value:>16.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        sys.exit(1)
