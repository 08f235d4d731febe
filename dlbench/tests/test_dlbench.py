"""Self-test of the DLearn benchmark harness.

Run from the repository root (builds the harness on first use; each case runs
the workload in a fresh JVM, so the whole file takes a few minutes):

    python3 -m unittest discover -s dlbench/tests -v
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "dlbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# The fastest workload keeps the end-to-end cases short.
FAST = "papers-repaired"


def run(workload: str, seed: int, trace: int, seconds: int = 1):
    """Run the one command; return (report, result) from its last two lines."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class MetricNames(unittest.TestCase):
    def test_names_unique_and_well_formed(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for n in names:
            self.assertRegex(n, NAME)


class OneCommand(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.first = run(FAST, 11, 0)
        cls.again = run(FAST, 11, 0)
        cls.other = run(FAST, 12, 0)

    def test_same_seed_same_definition_and_f1(self):
        a, b = self.first[0]["passes"][0], self.again[0]["passes"][0]
        self.assertEqual(a["def_hash"], b["def_hash"])
        self.assertEqual(a["f1"], b["f1"])
        self.assertEqual(a["examples_hash"], b["examples_hash"])

    def test_different_seed_different_examples(self):
        self.assertNotEqual(self.first[0]["passes"][0]["examples_hash"],
                            self.other[0]["passes"][0]["examples_hash"])

    def test_untraced_prints_every_end_to_end_metric_with_unit(self):
        report, result = self.first
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        self.assertEqual(report["spans"], 0, "untraced runs record no spans")

    def test_traced_prints_every_per_layer_metric_with_unit(self):
        report, result = run(FAST, 11, 1)
        self.assertTrue(result["correct"])
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        missing = set(want) - set(got)
        self.assertTrue(missing <= set(report["absent"]), f"unexplained missing metrics {missing}")
        self.assertEqual({k: got[k] for k in got}, {k: want[k] for k in got})
        self.assertTrue(Path(report["span_file"]).is_file())


if __name__ == "__main__":
    unittest.main()
