#!/usr/bin/env python3
"""Runs the serving benchmark over many seeds and checks it is steady.

    python3 bench/serving/sweep.py [--workloads interactive,stream]
        [--seeds 1-10] [--second-seeds 11-20] [--out FILE]

Runs BENCHMARK.json's command once per workload and seed (trace 0, its
run_seconds) and, per workload and end-to-end metric, prints the median and
the quartile spread: (q3 - q1) / median, with the quartiles of
statistics.quantiles(values, n=4). With --second-seeds it runs a second set
and prints how far the second median moved against the first, in the
metric's worse direction.

Exits 1 when a run fails, when a spread other than setup_s's reaches a third
of the metric's bound, or when a median moved by its bound or more.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def spread(values):
    """(q3 - q1) / median of the values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(benchmark, workload, seed):
    cmd = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_set(benchmark, workloads, seeds):
    values = {w: {} for w in workloads}
    for seed in seeds:
        for workload in workloads:
            for name, value in run_once(benchmark, workload, seed).items():
                values[workload].setdefault(name, []).append(value)
            print(f"  seed {seed} {workload} done", file=sys.stderr)
    return values


def check(benchmark, sets):
    """Prints the table; returns the list of problems found."""
    problems = []
    metrics = benchmark["end_to_end"]
    for workload in sets[0]:
        print(f"\n{workload}")
        for metric in metrics:
            name = metric["name"]
            row = f"  {name:16s}"
            for i, values in enumerate(s[workload][name] for s in sets):
                med, sp = statistics.median(values), spread(values)
                row += f"  median {med:12.4f}  spread {sp:6.3f}"
                if name != "setup_s" and sp >= metric["bound"] / 3:
                    problems.append(f"{workload} {name} set {i + 1}: spread "
                                    f"{sp:.3f} >= bound/3")
            if len(sets) == 2:
                first = statistics.median(sets[0][workload][name])
                second = statistics.median(sets[1][workload][name])
                drift = worse_by(first, second, metric["better"])
                row += f"  worse by {drift:+.3f} (bound {metric['bound']})"
                if drift >= metric["bound"]:
                    problems.append(f"{workload} {name}: second median worse "
                                    f"by {drift:.3f}")
            print(row)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--second-seeds", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in benchmark["workloads"]])
    seed_sets = [parse_seeds(args.seeds)]
    if args.second_seeds:
        seed_sets.append(parse_seeds(args.second_seeds))
    sets = [run_set(benchmark, workloads, seeds) for seeds in seed_sets]
    problems = check(benchmark, sets)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"run_seconds": benchmark["run_seconds"],
             "sets": [{"seeds": seeds, "values": s}
                      for seeds, s in zip(seed_sets, sets)],
             "problems": problems}, indent=1) + "\n")
    for problem in problems:
        print("PROBLEM:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
