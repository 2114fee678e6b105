#!/usr/bin/env python3
"""Paired A/B runs of the serving benchmark: a base revision against the
working tree.

    python3 bench/ab.py --base REV --pr N [--workloads interactive,stream]
        [--seeds 1-10] [--out FILE]

Checks REV out in a git worktree under .bench_build/ab/ and builds each side
with that side's own bench/serving/run.py: the working tree into
.bench_build/serving, the base into its worktree's .bench_build/serving. A
one-second run of each side builds it before anything is timed. Then, seed
by seed and workload by workload, it runs both sides at BENCHMARK.json's
run_seconds with trace 0, the base first on odd seeds and the change first
on even ones. Workloads in MIN_PAIRS run on the next seeds too until they
have that many pairs.

Writes BENCH_PR<N>.json at the repository root (or --out), stamped with
nproc and each side's build type, after every pair. Per workload and
end-to-end metric it holds every run's value, both medians, the
change/base ratio, the change's wins, the base's quartile spread and a
verdict (see verdict()). Per workload it also holds each run's attempted
and failed counts and, for `stream`, each run's 0.25 x C generator lag p99
and each side's count of disturbed runs (see disturbed()). Exits 1 when a
run fails or answers incorrectly.

The worktree stays for the next comparison with the same base; remove it
with `git worktree remove --force .bench_build/ab/<sha>`.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench" / "serving"))
from sweep import parse_seeds, spread, worse_by  # noqa: E402

# Tail verdicts on `stream` need more pairs than the others: its runs are
# bimodal, and a disturbed run reads a p90 several times the usual one.
MIN_PAIRS = {"stream": 16}

# A gain is claimed on at least this many pairs.
MIN_GAIN_PAIRS = 10

# A `stream` run is disturbed when the client itself ran late: the
# generator lag p99 of its 0.25 x C phase, which no server slowness at that
# rate explains, reaches this many milliseconds. Quiet runs read 0.2-2 ms
# (TTFT p90 0.8-1.7 ms); disturbed ones 3-47 ms (TTFT p90 2.3 ms and up).
DISTURBED_LAG_MS = 3.0
_LAG = re.compile(r"rate 0\.25xC .* generator lag p99 ([0-9.]+) ms")


def beats(a, b, better):
    """True when value a is strictly better than value b."""
    return a < b if better == "lower" else a > b


def verdict(base, change, better, bound):
    """The verdict on one metric from paired runs base[i] / change[i]:

    - unresolved: the base's quartile spread is wider than the bound, and
      not every change run beats every base run;
    - worse: the change median is worse than the base median by more than
      the bound;
    - better: over at least MIN_GAIN_PAIRS pairs, the change wins at
      least 9 of 10 (ties count for neither) and its median is better by
      more than the base's spread;
    - same: otherwise.
    """
    base_spread = spread(base)
    dominates = all(beats(c, b, better) for c in change for b in base)
    if base_spread > bound and not dominates:
        return "unresolved"
    change_worse_by = worse_by(statistics.median(base),
                               statistics.median(change), better)
    if change_worse_by > bound:
        return "worse"
    wins = sum(beats(c, b, better) for b, c in zip(base, change))
    if (len(base) >= MIN_GAIN_PAIRS and 10 * wins >= 9 * len(base)
            and -change_worse_by > base_spread):
        return "better"
    return "same"


def summarize(base, change, better, bound):
    """Every number the file holds for one metric of one workload."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    return {
        "base": base, "change": change,
        "base_median": base_median, "change_median": change_median,
        "ratio": change_median / base_median if base_median else None,
        "wins": sum(beats(c, b, better) for b, c in zip(base, change)),
        "pairs": len(base), "base_spread": spread(base),
        "better": better, "bound": bound,
        "verdict": verdict(base, change, better, bound),
    }


def quarter_rate_lag_ms(report):
    """The generator lag p99 of a `stream` report's 0.25 x C phase, or
    None when the report has no such phase."""
    match = _LAG.search(report)
    return float(match.group(1)) if match else None


def disturbed(lag_ms):
    """True when a `stream` run's client ran late (quarter_rate_lag_ms)."""
    return lag_ms is not None and lag_ms >= DISTURBED_LAG_MS


def seeds_per_workload(workloads, seeds):
    """The seeds each workload runs on: `seeds`, extended with the next
    ones up to the workload's MIN_PAIRS."""
    plan = {}
    for workload in workloads:
        extra = max(0, MIN_PAIRS.get(workload, 0) - len(seeds))
        plan[workload] = seeds + list(range(seeds[-1] + 1,
                                            seeds[-1] + 1 + extra))
    return plan


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def base_tree(rev):
    """A worktree of `rev` under .bench_build/ab/, created on first use."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = ROOT / ".bench_build" / "ab" / sha[:12]
    if not (tree / ".git").exists():
        tree.parent.mkdir(parents=True, exist_ok=True)
        git("worktree", "add", "--detach", str(tree), sha)
    return tree, sha


def build_type(tree):
    cache = tree / ".bench_build" / "serving" / "CMakeCache.txt"
    match = re.search(r"^CMAKE_BUILD_TYPE:STRING=(.*)$",
                      cache.read_text(), re.M) if cache.exists() else None
    return match.group(1) if match else "unknown"


def run_side(tree, workload, seed, seconds):
    """One run of `tree`'s benchmark; returns (result JSON, report text)."""
    cmd = [sys.executable, str(tree / "bench" / "serving" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if (proc.returncode != 0 or not result.get("correct")
            or result.get("failed")):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed "
                           f"(exit {proc.returncode})")
    return result, proc.stdout


def report(benchmark, stamp, runs):
    """The file's contents from the runs done so far."""
    doc = dict(stamp, workloads={})
    for workload, sides in runs.items():
        if not sides["seeds"]:
            continue
        entry = {"seeds": sides["seeds"], "metrics": {}}
        for side in ("base", "change"):
            entry[side] = {
                "attempted": [r["attempted"] for r in sides[side]],
                "failed": [r["failed"] for r in sides[side]],
            }
            if workload == "stream":
                lags = [r["lag_ms"] for r in sides[side]]
                entry[side]["lag_ms"] = lags
                entry[side]["disturbed"] = sum(map(disturbed, lags))
        if len(sides["seeds"]) >= 2:
            for metric in benchmark["end_to_end"]:
                name = metric["name"]
                entry["metrics"][name] = summarize(
                    [r["metrics"][name] for r in sides["base"]],
                    [r["metrics"][name] for r in sides["change"]],
                    metric["better"], metric["bound"])
        doc["workloads"][workload] = entry
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--pr", type=int)
    parser.add_argument("--out", default="")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    if not args.out and args.pr is None:
        parser.error("one of --pr and --out is required")
    out = Path(args.out) if args.out else ROOT / f"BENCH_PR{args.pr}.json"

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in benchmark["workloads"]])
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("--seeds needs at least two seeds")
    plan = seeds_per_workload(workloads, seeds)
    seconds = benchmark["run_seconds"]

    base, base_sha = base_tree(args.base)
    trees = {"base": base, "change": ROOT}
    for side, tree in trees.items():
        print(f"building {side} ({tree})", file=sys.stderr)
        run_side(tree, "offline_batch", 1, 1)
    stamp = {
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "base": {"rev": args.base, "sha": base_sha,
                 "build_type": build_type(base)},
        "change": {"sha": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain")),
                   "build_type": build_type(ROOT)},
    }

    runs = {w: {"seeds": [], "base": [], "change": []} for w in workloads}
    for seed in sorted({s for ss in plan.values() for s in ss}):
        order = ("base", "change") if seed % 2 else ("change", "base")
        for workload in workloads:
            if seed not in plan[workload]:
                continue
            for side in order:
                result, text = run_side(trees[side], workload, seed, seconds)
                runs[workload][side].append({
                    "metrics": {n: m["value"]
                                for n, m in result["metrics"].items()},
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "lag_ms": quarter_rate_lag_ms(text),
                })
            runs[workload]["seeds"].append(seed)
            out.write_text(json.dumps(report(benchmark, stamp, runs),
                                      indent=1) + "\n")
            print(f"  seed {seed} {workload} done", file=sys.stderr)

    for workload, entry in report(benchmark, stamp, runs)["workloads"].items():
        print(f"\n{workload}")
        for name, m in entry["metrics"].items():
            print(f"  {name:16s} base {m['base_median']:12.4f}  change "
                  f"{m['change_median']:12.4f}  wins {m['wins']:2d}/"
                  f"{m['pairs']}  spread {m['base_spread']:6.3f}  "
                  f"{m['verdict']}")
        if workload == "stream":
            print(f"  disturbed runs: base {entry['base']['disturbed']}, "
                  f"change {entry['change']['disturbed']}")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
