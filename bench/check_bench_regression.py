#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a committed baseline.

Usage:
    check_bench_regression.py CURRENT.json BASELINE.json [--threshold 0.10]
                              [--seed-if-missing]

For every benchmark in the baseline that reports a "tokens/s" counter, the
current run must stay within THRESHOLD (default 10%) of the baseline's
tokens/s. Benchmarks that also report service-quality counters (shed_rate,
degraded_rate — the overload sweep's fields) are additionally gated on
those: the current rate must not exceed the baseline's by more than
QUALITY_TOLERANCE (default 0.05, absolute), so an overload-handling change
that silently sheds or degrades more traffic fails the gate even when raw
throughput holds. Benchmarks present only in the current run are reported
but never fail the check (new benchmarks seed on the next baseline
refresh).

With --seed-if-missing, a missing baseline file is created from the current
run and the check passes — this is how CI bootstraps the very first
baseline without a manual commit.

The two runs must come from hosts with the same CPU count
(context.num_cpus): throughput on 1 CPU says nothing about 4, so a
mismatch is refused rather than compared. Likewise for the build type
bench_throughput stamps into its context (context.wisdom_build_type): a
Debug run against a Release baseline is refused. A run or baseline
recorded before the stamp existed is still compared, with a note saying
so.

Exit codes: 0 = within threshold (or baseline seeded), 1 = regression,
2 = usage / malformed input / CPU-count or build-type mismatch.
"""

import argparse
import json
import shutil
import sys


def load_rates(path):
    """Map benchmark name -> best tokens/s across repetitions.

    Raw (non-aggregate) entries that report a tokens/s counter are grouped
    by name. Best-of-N is the comparator because scheduler noise on shared
    CI runners is one-sided — contention only ever slows a rep down — so
    the fastest rep is the most reproducible estimate of true throughput.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    samples = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        rate = bench.get("tokens/s")
        if isinstance(rate, (int, float)) and rate > 0:
            samples.setdefault(bench["name"], []).append(float(rate))
    return {name: max(rates) for name, rates in samples.items()}


# The context key bench_throughput stamps with its CMake build type.
BUILD_TYPE_KEY = "wisdom_build_type"

# Service-quality counters gated in addition to tokens/s. Higher is worse,
# and they are fractions of offered/served traffic, so the comparison is an
# absolute-increase bound rather than a relative drop.
QUALITY_FIELDS = ("shed_rate", "degraded_rate")


def load_context(path, key):
    """The run's context[key], or None when the file does not say."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return doc.get("context", {}).get(key)


def load_quality(path):
    """Map benchmark name -> {field: worst value across repetitions}.

    Worst-of-N (max) is the comparator: shedding is load-dependent, and the
    gate exists to catch the run where overload handling got worse, not the
    luckiest rep.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    worst = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        for field in QUALITY_FIELDS:
            value = bench.get(field)
            if isinstance(value, (int, float)):
                fields = worst.setdefault(bench["name"], {})
                fields[field] = max(fields.get(field, 0.0), float(value))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max fractional tokens/s drop (default 0.10)")
    parser.add_argument("--quality-tolerance", type=float, default=0.05,
                        help="max absolute shed_rate/degraded_rate increase "
                             "over baseline (default 0.05)")
    parser.add_argument("--seed-if-missing", action="store_true",
                        help="copy CURRENT to BASELINE if BASELINE is absent")
    args = parser.parse_args()

    try:
        current = load_rates(args.current)
    except (OSError, ValueError, KeyError) as err:
        print(f"error: cannot read current run {args.current}: {err}")
        return 2
    if not current:
        print(f"error: no tokens/s counters found in {args.current}")
        return 2

    try:
        baseline = load_rates(args.baseline)
    except FileNotFoundError:
        if args.seed_if_missing:
            shutil.copyfile(args.current, args.baseline)
            print(f"baseline seeded: {args.baseline} <- {args.current}")
            for name, rate in sorted(current.items()):
                print(f"  {name}: {rate:.1f} tokens/s")
            return 0
        print(f"error: baseline {args.baseline} not found "
              "(pass --seed-if-missing to bootstrap)")
        return 2
    except (OSError, ValueError, KeyError) as err:
        print(f"error: cannot read baseline {args.baseline}: {err}")
        return 2

    current_cpus = load_context(args.current, "num_cpus")
    baseline_cpus = load_context(args.baseline, "num_cpus")
    if current_cpus != baseline_cpus:
        print(f"error: refusing to compare runs from different hosts: "
              f"{args.current} has num_cpus={current_cpus}, "
              f"{args.baseline} has num_cpus={baseline_cpus}; re-seed the "
              "baseline on this host")
        return 2

    current_build = load_context(args.current, BUILD_TYPE_KEY)
    baseline_build = load_context(args.baseline, BUILD_TYPE_KEY)
    if current_build is None or baseline_build is None:
        unstamped = [path for path, build in ((args.current, current_build),
                                              (args.baseline, baseline_build))
                     if build is None]
        print(f"note: {' and '.join(unstamped)} carries no "
              f"{BUILD_TYPE_KEY}; comparing without the build-type check")
    elif current_build != baseline_build:
        print(f"error: refusing to compare different build types: "
              f"{args.current} has {BUILD_TYPE_KEY}={current_build}, "
              f"{args.baseline} has {BUILD_TYPE_KEY}={baseline_build}; "
              "re-run in the baseline's build type or re-seed the baseline")
        return 2

    failures = []
    for name, base_rate in sorted(baseline.items()):
        cur_rate = current.get(name)
        if cur_rate is None:
            failures.append(f"{name}: present in baseline but missing from "
                            "current run")
            continue
        drop = (base_rate - cur_rate) / base_rate
        verdict = "FAIL" if drop > args.threshold else "ok"
        print(f"[{verdict}] {name}: {cur_rate:.1f} tokens/s "
              f"(baseline {base_rate:.1f}, {drop:+.1%} drop, "
              f"limit {args.threshold:.0%})")
        if drop > args.threshold:
            failures.append(f"{name}: {drop:.1%} drop exceeds "
                            f"{args.threshold:.0%}")
    for name in sorted(set(current) - set(baseline)):
        print(f"[new] {name}: {current[name]:.1f} tokens/s "
              "(not in baseline; will gate after next baseline refresh)")

    # Quality gate: shed/degraded rates must not climb past the baseline
    # by more than the absolute tolerance. Entries (or fields) only in the
    # current run seed on the next refresh, like new benchmarks above.
    current_quality = load_quality(args.current)
    baseline_quality = load_quality(args.baseline)
    for name, base_fields in sorted(baseline_quality.items()):
        cur_fields = current_quality.get(name)
        if cur_fields is None:
            if name in current:
                failures.append(f"{name}: quality counters present in "
                                "baseline but missing from current run")
            continue
        for field, base_value in sorted(base_fields.items()):
            cur_value = cur_fields.get(field)
            if cur_value is None:
                failures.append(f"{name}: {field} present in baseline but "
                                "missing from current run")
                continue
            rise = cur_value - base_value
            verdict = "FAIL" if rise > args.quality_tolerance else "ok"
            print(f"[{verdict}] {name}: {field}={cur_value:.3f} "
                  f"(baseline {base_value:.3f}, {rise:+.3f}, "
                  f"limit +{args.quality_tolerance:.2f})")
            if rise > args.quality_tolerance:
                failures.append(f"{name}: {field} rose {rise:.3f} over "
                                f"baseline (limit "
                                f"{args.quality_tolerance:.2f})")

    if failures:
        print("\nbenchmark regression detected:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nall benchmarks within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
