#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ask --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Workload parameters (rates, deadlines, client
counts) come from perfbench/workloads.json. The last line of stdout is
the benchmark's JSON result; the exit code is non-zero when the build
fails, an output check fails or the result does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    # Keep the compiler's temporary files inside the build tree.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    wl = config["workloads"].get(args.workload)
    if wl is None:
        log(f"unknown workload {args.workload!r}; "
            f"known: {', '.join(config['workloads'])}")
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--clients", str(wl["clients"]),
           "--workers", str(wl["workers"]),
           "--rate", str(wl["rate_rps"]),
           "--deadline-ms", str(wl["deadline_ms"]),
           "--work-dir", os.path.join(os.path.abspath(build_root),
                                      "perfbench-work")]
    if "writer_rate_rps" in wl:
        cmd += ["--writer-rate", str(wl["writer_rate_rps"])]
    if "cache_bytes" in wl:
        cmd += ["--cache-bytes", str(wl["cache_bytes"])]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run has killed and reaped the child.
        if isinstance(e.stdout, str):
            sys.stderr.write(e.stdout)
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    out = proc.stdout
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is None:
        # The run died before its result line: keep its output on
        # stderr so stdout carries no result.
        sys.stderr.write(out)
        log(f"benchmark exited with {proc.returncode} and no result")
        return proc.returncode or 1
    differ = expected_metrics(args.trace) ^ set(result["metrics"])
    if differ:
        sys.stderr.write(out)
        log(f"metrics differ from BENCHMARK.json: {sorted(differ)}")
        return 1
    sys.stdout.write(out)
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode} (failed output checks)")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
