"""Tests of the benchmark's workload generator and its metric tables.

Run from the root of a checkout (builds the release `mbaa` binary first):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import subprocess
import tempfile
import unittest
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent


class GeneratorTest(unittest.TestCase):
    def test_the_seed_only_moves_the_seed_range(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.document(name, 3), workloads.document(name, 3)
            self.assertEqual(a, b)
            c = workloads.document(name, 2**40)
            self.assertEqual(c["seeds"], {"start": 2**40, "count": a["seeds"]["count"]})
            del a["seeds"], c["seeds"]
            self.assertEqual(a, c)

    def test_sweep_has_a_thousand_distinct_flip_rates_below_0_6(self):
        rates = workloads.document("sweep-1000", 0)["sweep"]["churn"]["flip_rates"]
        self.assertEqual(len(set(rates)), 1000)
        self.assertTrue(all(0 <= r < 0.6 for r in rates))

    def test_benchmark_json_lists_what_the_runner_prints(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]], run.PER_LAYER)


class ScenarioFileTest(unittest.TestCase):
    """Drives the release `mbaa` binary on every generated file."""

    @classmethod
    def setUpClass(cls):
        cls.mbaa, _ = run.build()
        run.WORK.mkdir(parents=True, exist_ok=True)
        cls.dir = tempfile.TemporaryDirectory(dir=run.WORK)
        cls.seed = 5

    @classmethod
    def tearDownClass(cls):
        cls.dir.cleanup()

    def scenario(self, name):
        path = Path(self.dir.name) / f"{name}.json"
        workloads.write(name, self.seed, path)
        return path

    def mbaa_run(self, *args):
        return subprocess.run(
            [str(self.mbaa), *map(str, args)], capture_output=True, text=True, check=False
        )

    def test_mbaa_validate_counts_points_and_seeds(self):
        for name, spec in workloads.WORKLOADS.items():
            path = self.scenario(name)
            done = self.mbaa_run("validate", path)
            self.assertEqual(done.returncode, 0, done.stderr)
            self.assertIn(
                f"ok ({name}, {spec['points']} point(s), {spec['seeds']} seed(s))", done.stdout
            )

    def test_every_run_agrees_in_the_expected_rounds(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                report = Path(self.dir.name) / f"{name}.report.json"
                done = self.mbaa_run(
                    "run", self.scenario(name), "--out", report, "--workers", run.WORKERS
                )
                self.assertEqual(done.returncode, 0, done.stderr)
                failed, problems = workloads.check_report(
                    name, self.seed, json.loads(report.read_text()), rounds=True
                )
                self.assertEqual((failed, problems), (0, []))


if __name__ == "__main__":
    unittest.main()
