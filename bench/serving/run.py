#!/usr/bin/env python3
"""Entry point of the serving benchmark.

    python3 bench/serving/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench_serving from source into .bench_build/serving at the
repository root: the root project, configured with add_to_root.cmake so
that it also holds this directory's targets (the first run configures and
compiles; later runs only check that the build is current). Then runs one
workload against the committed checkpoint. bench_serving writes the report
and, as its last line, the JSON result to standard output; its exit status
is returned. A failed build exits non-zero without printing a result.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "serving"
BINARY = BUILD / "bench_serving"
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds bench_serving; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    # Compiler temporaries stay inside the build tree too.
    (BUILD / "tmp").mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DCMAKE_PROJECT_ansible_wisdom_INCLUDE="
                          + str(HERE / "add_to_root.cmake")])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "bench_serving"])
        for step in steps:
            # Build output goes to stderr: stdout carries only the result.
            if subprocess.run(step, stdout=sys.stderr, cwd=ROOT,
                              env=env).returncode:
                return False
    return True


def bench_args(workload, seed, seconds, trace, binary=BINARY):
    """The bench_serving command line for one run."""
    return [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--checkpoint", str(HERE / "model.ckpt"),
            "--trace-dir", str(BUILD), "--git-sha", git_sha()]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        print("bench_serving build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    try:
        return subprocess.run(
            bench_args(args.workload, args.seed, args.seconds, args.trace),
            cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("bench_serving timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
