#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload hot-query --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run builds the perfbench binary
from source with the local Go toolchain; every file it writes (binary,
Go build cache, temporary stores, span dumps) stays under $CARGO_TARGET_DIR,
default .bench_build. The last stdout line is the JSON result.

    python3 perfbench/run.py --workload collect --steady 5 --seconds 25

is the steadiness report: it runs the workload once per seed 1..5, each
in a fresh process, and prints every metric's median, quartiles, min and
max, and the interquartile range as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def go_env(out):
    """The environment for the go tool, confined to the build directory."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "CGO_ENABLED": "0",
    })
    return env


def build(out):
    binary = os.path.join(out, "perfbench")
    os.makedirs(out, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR,
                          env=go_env(out), stdout=sys.stderr, timeout=850)
    if proc.returncode != 0:
        raise SystemExit("perfbench: build failed")
    return binary


def run_once(binary, out, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", out]
    # Memory the Go runtime releases stays mapped (MADV_FREE), so reusing
    # it does not fault pages back in; on a VM those faults cost kernel
    # time and drew hypervisor steal (see README.md).
    env = dict(os.environ, GODEBUG="madvdontneed=0")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=175)
    return proc.returncode, proc.stdout


def steady(binary, out, workload, runs, seconds, trace):
    values = {}
    units = {}
    for seed in range(1, runs + 1):
        code, stdout = run_once(binary, out, workload, seed, seconds, trace)
        lines = stdout.strip().splitlines()
        if code != 0 or not lines:
            raise SystemExit(f"perfbench: {workload} seed {seed} failed (exit {code})")
        res = json.loads(lines[-1])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
            units[k] = v["unit"]
    print(f"\n{workload}: {runs} runs, seeds 1..{runs}, {seconds}s each, trace={trace}")
    print(f"{'metric':28} {'unit':7} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'min':>11} {'max':>11} {'iqr/med':>8}")
    for k in sorted(values):
        xs = values[k]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{k:28} {units[k]:7} {med:11.4f} {q1:11.4f} {q3:11.4f} "
              f"{min(xs):11.4f} {max(xs):11.4f} {spread:8.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="run seeds 1..N and print each metric's spread")
    args = ap.parse_args()
    out = build_dir()
    binary = build(out)
    if args.steady:
        steady(binary, out, args.workload, args.steady, args.seconds, args.trace)
        return 0
    code, stdout = run_once(binary, out, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
