#!/usr/bin/env python3
"""Unit tests for ab.py's verdict rule, its disturbed-run test and its
per-workload seeds."""
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab  # noqa: E402

# Ten base runs with quartiles 9.775 and 10.225 around a median of 10: a
# quartile spread of 0.045.
BASE = [9.5, 9.7, 9.8, 9.9, 10.0, 10.0, 10.1, 10.2, 10.3, 10.5]


def scaled(values, factor):
    return [v * factor for v in values]


class VerdictTest(unittest.TestCase):
    def test_base_spread(self):
        self.assertAlmostEqual(ab.spread(BASE), 0.045)

    def test_better_needs_nine_wins_and_a_gap_wider_than_the_spread(self):
        change = scaled(BASE, 0.9)
        self.assertEqual(ab.verdict(BASE, change, "lower", 0.25), "better")
        # Two pairs lost: 8 of 10 is not enough.
        lost_two = change[:8] + [BASE[8] + 1, BASE[9] + 1]
        self.assertEqual(ab.verdict(BASE, lost_two, "lower", 0.25), "same")
        # One pair lost: 9 of 10 is.
        lost_one = change[:9] + [BASE[9] + 1]
        self.assertEqual(ab.verdict(BASE, lost_one, "lower", 0.25), "better")

    def test_fewer_than_ten_pairs_claim_no_gain(self):
        change = scaled(BASE, 0.9)
        self.assertEqual(ab.verdict(BASE[:9], change[:9], "lower", 0.25),
                         "same")
        self.assertEqual(ab.verdict(BASE[:9], scaled(BASE[:9], 1.3), "lower",
                                    0.25), "worse")

    def test_ties_count_for_neither_side(self):
        change = scaled(BASE, 0.9)
        change[0] = BASE[0]
        change[1] = BASE[1]
        self.assertEqual(ab.verdict(BASE, change, "lower", 0.25), "same")

    def test_every_pair_won_by_less_than_the_spread_is_same(self):
        change = scaled(BASE, 0.97)
        self.assertEqual(ab.verdict(BASE, change, "lower", 0.25), "same")

    def test_worse_by_more_than_the_bound(self):
        self.assertEqual(ab.verdict(BASE, scaled(BASE, 1.3), "lower", 0.25),
                         "worse")
        self.assertEqual(ab.verdict(BASE, scaled(BASE, 1.2), "lower", 0.25),
                         "same")

    def test_higher_is_better(self):
        self.assertEqual(ab.verdict(BASE, scaled(BASE, 1.1), "higher", 0.25),
                         "better")
        self.assertEqual(ab.verdict(BASE, scaled(BASE, 0.7), "higher", 0.25),
                         "worse")

    def test_base_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [5, 6, 7, 9, 10, 10, 11, 13, 14, 15]
        self.assertGreater(ab.spread(noisy), 0.25)
        self.assertEqual(ab.verdict(noisy, noisy, "lower", 0.25),
                         "unresolved")
        self.assertEqual(ab.verdict(noisy, scaled(noisy, 2), "lower", 0.25),
                         "unresolved")

    def test_change_beating_every_base_run_resolves_a_noisy_base(self):
        noisy = [5, 6, 7, 9, 10, 10, 11, 13, 14, 15]  # spread 0.65
        # Resolved, but a gain still needs a gap wider than the spread.
        change = [4.0 + 0.01 * i for i in range(10)]
        self.assertEqual(ab.verdict(noisy, change, "lower", 0.25), "same")
        change = [3.0 + 0.01 * i for i in range(10)]
        self.assertEqual(ab.verdict(noisy, change, "lower", 0.25), "better")

    def test_summary_holds_medians_ratio_and_wins(self):
        summary = ab.summarize(BASE, scaled(BASE, 0.9), "lower", 0.25)
        self.assertEqual(summary["wins"], 10)
        self.assertEqual(summary["pairs"], 10)
        self.assertAlmostEqual(summary["ratio"], 0.9)
        self.assertAlmostEqual(summary["base_median"], 10.0)
        self.assertEqual(summary["verdict"], "better")


class PlanTest(unittest.TestCase):
    def test_stream_runs_on_further_seeds(self):
        plan = ab.seeds_per_workload(["interactive", "stream"],
                                     list(range(31, 41)))
        self.assertEqual(plan["interactive"], list(range(31, 41)))
        self.assertEqual(plan["stream"], list(range(31, 47)))
        plan = ab.seeds_per_workload(["stream"], list(range(1, 21)))
        self.assertEqual(plan["stream"], list(range(1, 21)))


class DisturbedTest(unittest.TestCase):
    LINE = ("  rate 0.25xC =   362.5 req/s: arrivals   906  ttft p50   1.102  "
            "p90    1.900  p99    3.100 ms  backlog 0 -> 0  generator lag "
            "p99 {lag} ms  completed 362.1 req/s\n"
            "  rate 0.50xC =   725.0 req/s: arrivals  1812  ttft p50   1.2  "
            "p90    2.0  p99    4.0 ms  backlog 0 -> 0  generator lag "
            "p99 9.000 ms  completed 724.0 req/s\n")

    def test_reads_the_quarter_rate_phase_lag(self):
        lag = ab.quarter_rate_lag_ms(self.LINE.format(lag="0.080"))
        self.assertEqual(lag, 0.080)
        self.assertFalse(ab.disturbed(lag))
        self.assertTrue(ab.disturbed(
            ab.quarter_rate_lag_ms(self.LINE.format(lag="5.210"))))
        self.assertIsNone(ab.quarter_rate_lag_ms("no stream phases here"))
        self.assertFalse(ab.disturbed(None))


if __name__ == "__main__":
    unittest.main()
