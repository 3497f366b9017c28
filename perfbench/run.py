#!/usr/bin/env python3
"""Build and run the surfd benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload warm_light --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --determinism --workload cold_train --seed 1 --seconds 10

The first form builds the benchmark (library sources included) into
.bench_build/ when needed, runs one workload and forwards its report; the
last line of standard output is the JSON result. Build output goes to
standard error.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "surf_perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
# One run of the benchmark must end within this many seconds.
RUN_TIMEOUT_S = 175
# Seed kept out of tuning; performance claims are checked on it too.
HELD_OUT_SEED = 9001


def build():
    """Configures and builds the benchmark; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "surf_perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, "spans-%s-%s.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1, []
    if echo:
        sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout.splitlines()


def counts_line(lines):
    for line in lines:
        if line.startswith("counts: "):
            return line[len("counts: "):]
    return None


def determinism(workload, seed, seconds):
    """Two traced runs on `seed` must agree on every count; a run on the
    held-out seed must not."""
    results = []
    for s in (seed, seed, HELD_OUT_SEED):
        code, lines = run_once(workload, s, seconds, 1, echo=False)
        results.append(counts_line(lines) if code == 0 else None)
        print("seed %d: %s" % (s, results[-1]))
    if None in results:
        print("determinism: a run failed")
        return 1
    if results[0] != results[1]:
        print("determinism: FAILED, counts differ between identical runs")
        return 1
    if results[0] == results[2]:
        print("determinism: FAILED, held-out seed %d changed nothing"
              % HELD_OUT_SEED)
        return 1
    print("determinism: ok (held-out seed %d differs)" % HELD_OUT_SEED)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([SELFTEST], cwd=ROOT).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    seconds = "%g" % args.seconds
    if args.determinism:
        return determinism(args.workload, args.seed, seconds)
    code, _ = run_once(args.workload, args.seed, seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
