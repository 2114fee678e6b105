#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py's CPU-count refusal."""
import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_bench_regression  # noqa: E402


def run_json(num_cpus, tokens_per_s):
    return {
        "context": {"num_cpus": num_cpus},
        "benchmarks": [{"name": "BM_BatchedSuggest/4/4/real_time",
                        "run_type": "iteration",
                        "tokens/s": tokens_per_s}],
    }


class NumCpusTest(unittest.TestCase):
    def check(self, current, baseline):
        """Runs the checker on two in-memory runs; returns (code, output)."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("current.json", current),
                              ("baseline.json", baseline)):
                path = Path(tmp) / name
                path.write_text(json.dumps(doc), encoding="utf-8")
                paths.append(str(path))
            out = io.StringIO()
            argv = ["check_bench_regression.py", *paths]
            with mock.patch.object(sys, "argv", argv), \
                    contextlib.redirect_stdout(out):
                code = check_bench_regression.main()
        return code, out.getvalue()

    def test_mismatched_cpu_counts_are_refused(self):
        code, out = self.check(run_json(4, 100.0), run_json(1, 100.0))
        self.assertEqual(code, 2)
        self.assertIn("num_cpus=4", out)
        self.assertIn("num_cpus=1", out)

    def test_refusal_precedes_the_comparison(self):
        # A 50% drop would be a regression (exit 1) on a matching host.
        code, _ = self.check(run_json(1, 50.0), run_json(4, 100.0))
        self.assertEqual(code, 2)

    def test_matching_cpu_counts_are_compared(self):
        self.assertEqual(self.check(run_json(4, 100.0), run_json(4, 100.0))[0],
                         0)
        self.assertEqual(self.check(run_json(4, 50.0), run_json(4, 100.0))[0],
                         1)


if __name__ == "__main__":
    unittest.main()
