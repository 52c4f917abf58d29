#!/usr/bin/env python3
"""The benchmark's own tests: a smoke run of every workload and a
negative control for the oracle verification.

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py exactly as a user would (it builds on
first use), with short measuring windows.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPANS_DIR = ROOT / ".bench_build" / "spans"
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SEED = 7


def run_bench(*args):
    """Runs run.py; returns (exit code, stdout, stderr, last-line JSON)."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, check=False,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()

    def no_duplicates(pairs):
        keys = [key for key, _ in pairs]
        assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
        return dict(pairs)

    result = (json.loads(lines[-1], object_pairs_hook=no_duplicates)
              if lines else None)
    return proc.returncode, proc.stdout, proc.stderr, result


class SmokeTest(unittest.TestCase):
    """Every workload, briefly, untraced and traced."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def expect_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for metric in declared:
            self.assertRegex(metric["name"], NAME)
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))

    def expect_nested_spans(self, path):
        spans = {}
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if "id" in record:
                spans[record["id"]] = record
            else:
                self.assertIn("host", record)
        names = {span["name"] for span in spans.values()}
        for name in ("engine.run", "setup", "step", "model", "replay"):
            self.assertIn(name, names)
        for span in spans.values():
            self.assertRegex(span["name"], NAME)
            self.assertLessEqual(span["start_ns"], span["end_ns"])
            if span["parent"] == 0:
                continue
            parent = spans[span["parent"]]
            if span["name"] == "model":
                self.assertEqual(parent["name"], "step")
            self.assertGreaterEqual(span["start_ns"], parent["start_ns"],
                                    span)
            self.assertLessEqual(span["end_ns"], parent["end_ns"], span)

    def test_every_workload(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, stdout, _, result = run_bench(
                        "--workload", workload, "--seed", str(SEED),
                        "--seconds", "1", "--trace", str(trace))
                    self.assertEqual(code, 0, stdout)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertRegex(stdout, r"(?m)^host \{.*\"nproc\"")
                    declared = self.spec["per_layer" if trace
                                         else "end_to_end"]
                    self.expect_metrics(result, declared)
                    if trace:
                        self.expect_nested_spans(
                            SPANS_DIR / f"{workload}-seed{SEED}.jsonl")


class NegativeControlTest(unittest.TestCase):
    """A perturbed result must be reported as a failed run."""

    def expect_failure(self, workload, tamper):
        code, _, stderr, result = run_bench(
            "--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", "0", "--tamper", tamper)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn(f"FAIL workload={workload} seed={SEED}", stderr)

    def test_perturbed_table_fails(self):
        self.expect_failure("emb_zipf", "table")

    def test_tampered_loss_fails(self):
        self.expect_failure("kg_uniform_neg", "loss")


if __name__ == "__main__":
    unittest.main()
