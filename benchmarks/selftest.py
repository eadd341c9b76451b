"""Fast self-test of the benchmark: toy sizes, a few seconds in all.

    python3 benchmarks/selftest.py

Checks that every workload runs and passes its pinned toy digests,
traced and untraced; that each run reports exactly the metrics named in
BENCHMARK.json, with their units; that a corrupted pinned digest is
reported as a failure by name; and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
DIGESTS = json.loads(run.DIGESTS.read_text(encoding="ascii"))


def toy_run(name: str, trace: bool, digests=DIGESTS) -> dict:
    return run.run_workload(name, seed=3, seconds=0, trace=trace, digests=digests, size="toy")


class SpecMatchesBenchmark(unittest.TestCase):
    def test_workloads_and_reasons(self):
        self.assertEqual(
            {w["name"]: w["why"] for w in SPEC["workloads"]},
            {w.name: w.why for w in workloads.WORKLOADS.values()},
        )

    def test_metric_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER)

    def test_inputs_depend_only_on_seed(self):
        base = run.OUT_DIR / "selftest-inputs"
        shutil.rmtree(base, ignore_errors=True)
        try:
            for name in workloads.WORKLOADS:
                first = workloads.generate(name, 8, "toy", base / "first")
                second = workloads.generate(name, 8, "toy", base / "second")
                self.assertEqual(
                    [case.path.read_bytes() for case in first],
                    [case.path.read_bytes() for case in second],
                )
        finally:
            shutil.rmtree(base, ignore_errors=True)


class ToyRuns(unittest.TestCase):
    def check(self, record: dict, units: dict):
        self.assertEqual(record["failures"], [])
        self.assertEqual(record["failed"], 0)
        self.assertGreater(record["attempted"], 0)
        self.assertEqual(
            {name: metric["unit"] for name, metric in record["metrics"].items()}, units
        )
        line = json.loads(run.result_line(record))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])

    def test_every_workload_untraced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                record = toy_run(name, trace=False)
                self.check(record, run.END_TO_END)
                values = {**record["metrics"], **record["reported"]}
                self.assertEqual(set(values), {*run.END_TO_END, "run_s", "baseline_run_s", "members_per_s"})
                for metric in values.values():
                    self.assertGreater(metric["value"], 0)

    def test_every_workload_traced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                record = toy_run(name, trace=True)
                self.check(record, run.PER_LAYER)
                busiest = (
                    "evolution.fitness.calls"
                    if workloads.WORKLOADS[name].kind == "run"
                    else "harness.read_population.bytes"
                )
                self.assertGreater(record["metrics"][busiest]["value"], 0)

    def test_corrupted_digest_is_reported_by_name(self):
        digests = copy.deepcopy(DIGESTS)
        case = digests["toy"]["paper-default"]["42"]
        case["snap_10.ppm"] = "0" * 64
        record = toy_run("paper-default", trace=False, digests=digests)
        self.assertGreaterEqual(record["failed"], 1)
        self.assertIn("case 42: snap_10.ppm digest mismatch", record["failures"])
        self.assertFalse(json.loads(run.result_line(record))["correct"])


class RefusesWithoutProgram(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = run.OUT_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(
                run.BENCH_DIR, bare / run.BENCH_DIR.name,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            result = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "paper-default",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()
