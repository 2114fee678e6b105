#!/usr/bin/env python3
"""Smoke test of the serving benchmark (ctest: bench_serving_quick).

    python3 bench/serving/quick.py --binary PATH/TO/bench_serving

Runs every workload for about a second against the committed checkpoint,
untraced and traced, and asserts: no failed request, at least one verified
replay, and every metric BENCHMARK.json names for the mode emitted. Then
replays against a different checkpoint and asserts the run exits non-zero
with correct=false.
"""
import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def run_bench(cmd):
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    args = parser.parse_args()
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in benchmark["end_to_end"]},
                1: {m["name"] for m in benchmark["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            cmd = run.bench_args(workload, 1, 1.0, trace, args.binary)
            proc, result = run_bench(cmd)
            label = f"{workload} trace={trace}"
            verified = re.search(r"phase verify\s+attempted\s+(\d+)",
                                 proc.stdout)
            if proc.returncode != 0 or result is None:
                errors.append(f"{label}: exit {proc.returncode}\n"
                              f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
                continue
            if result["failed"] or not result["correct"]:
                errors.append(f"{label}: failed {result['failed']}")
            if not verified or int(verified.group(1)) < 1:
                errors.append(f"{label}: no verified replay")
            missing = expected[trace] - set(result["metrics"])
            extra = set(result["metrics"]) - expected[trace]
            if missing or extra:
                errors.append(f"{label}: missing {sorted(missing)}, "
                              f"unexpected {sorted(extra)}")
            print(f"ok {label}: attempted {result['attempted']}, "
                  f"verified {verified.group(1) if verified else 0}")

    other = run.ROOT / "tests" / "golden" / "model.ckpt"
    cmd = run.bench_args("interactive", 1, 1.0, 0, args.binary)
    proc, result = run_bench(cmd + ["--reference-checkpoint", str(other)])
    if proc.returncode == 0 or result is None or result["correct"]:
        errors.append("replaying against a different checkpoint was not "
                      f"caught (exit {proc.returncode})")
    else:
        print(f"ok injected mismatch: exit {proc.returncode}, "
              f"failed {result['failed']}")

    for error in errors:
        print("FAIL", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
