#!/usr/bin/env python3
"""Unit tests for sweep.py's statistics: quartile spread and drift."""
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import sweep  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_are_the_exclusive_method(self):
        # statistics.quantiles(1..10, n=4) = [2.75, 5.5, 8.25]; median 5.5.
        self.assertAlmostEqual(sweep.spread(list(range(1, 11))), 1.0)

    def test_order_does_not_matter(self):
        values = [10.2, 9.8, 10.0, 10.1, 9.9, 10.3, 9.7, 10.0, 10.05, 9.95]
        self.assertAlmostEqual(sweep.spread(values),
                               sweep.spread(sorted(values)))

    def test_constant_sample_has_no_spread(self):
        self.assertEqual(sweep.spread([3.0] * 10), 0.0)

    def test_outliers_beyond_the_quartiles_do_not_count(self):
        steady = [100.0] * 4 + [101.0] * 4
        self.assertAlmostEqual(sweep.spread(steady + [0.0, 1000.0]),
                               sweep.spread(steady + [99.0, 102.0]))


class DriftTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(sweep.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(sweep.worse_by(10.0, 9.0, "lower"), -0.1)

    def test_higher_is_better(self):
        self.assertAlmostEqual(sweep.worse_by(200.0, 180.0, "higher"), 0.1)
        self.assertAlmostEqual(sweep.worse_by(200.0, 220.0, "higher"), -0.1)

    def test_seed_ranges(self):
        self.assertEqual(sweep.parse_seeds("1-3"), [1, 2, 3])
        self.assertEqual(sweep.parse_seeds("7"), [7])


if __name__ == "__main__":
    unittest.main()
