#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py's CPU-count and build-type
refusals, and for run_benches.sh --regression's core-count guard."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_bench_regression  # noqa: E402


REPO = Path(__file__).resolve().parent.parent


def run_json(num_cpus, tokens_per_s, build_type=None):
    context = {"num_cpus": num_cpus}
    if build_type is not None:
        context["wisdom_build_type"] = build_type
    return {
        "context": context,
        "benchmarks": [{"name": "BM_BatchedSuggest/4/4/real_time",
                        "run_type": "iteration",
                        "tokens/s": tokens_per_s}],
    }


class CheckerTest(unittest.TestCase):
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

    def test_mismatched_build_types_are_refused(self):
        code, out = self.check(run_json(4, 100.0, "Debug"),
                               run_json(4, 100.0, "Release"))
        self.assertEqual(code, 2)
        self.assertIn("wisdom_build_type=Debug", out)
        self.assertIn("wisdom_build_type=Release", out)
        # Refused before the comparison: this drop would otherwise exit 1.
        code, _ = self.check(run_json(4, 50.0, "Release"),
                             run_json(4, 100.0, "Debug"))
        self.assertEqual(code, 2)

    def test_matching_build_types_are_compared(self):
        code, out = self.check(run_json(4, 100.0, "Release"),
                               run_json(4, 100.0, "Release"))
        self.assertEqual(code, 0)
        self.assertNotIn("note:", out)
        self.assertEqual(self.check(run_json(4, 50.0, "Release"),
                                    run_json(4, 100.0, "Release"))[0], 1)

    def test_unstamped_baseline_is_compared_with_a_note(self):
        code, out = self.check(run_json(4, 100.0, "Release"),
                               run_json(4, 100.0))
        self.assertEqual(code, 0)
        self.assertIn("note:", out)
        self.assertIn("baseline.json", out)
        self.assertNotIn("current.json", out.split("note:")[1].split("\n")[0])
        self.assertEqual(self.check(run_json(4, 50.0, "Release"),
                                    run_json(4, 100.0))[0], 1)

    def test_unstamped_current_run_is_compared_with_a_note(self):
        code, out = self.check(run_json(4, 100.0),
                               run_json(4, 100.0, "Release"))
        self.assertEqual(code, 0)
        self.assertIn("current.json", out.split("note:")[1].split("\n")[0])


class RegressionScriptTest(unittest.TestCase):
    def test_refuses_more_threads_than_cores(self):
        # A stub nproc reporting 2 cores: --regression pins 4 threads, so it
        # must stop before running any benchmark, naming both numbers.
        with tempfile.TemporaryDirectory() as tmp:
            stub = Path(tmp) / "nproc"
            stub.write_text("#!/bin/sh\necho 2\n", encoding="utf-8")
            stub.chmod(0o755)
            env = dict(os.environ,
                       PATH=f"{tmp}{os.pathsep}{os.environ['PATH']}",
                       BENCH_OUT=str(Path(tmp) / "out.json"))
            result = subprocess.run(
                ["sh", str(REPO / "run_benches.sh"), "--regression"],
                env=env, capture_output=True, text=True, check=False)
            self.assertFalse((Path(tmp) / "out.json").exists())
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        message = result.stdout + result.stderr
        self.assertIn("WISDOM_THREADS=4", message)
        self.assertIn("nproc=2", message)


if __name__ == "__main__":
    unittest.main()
