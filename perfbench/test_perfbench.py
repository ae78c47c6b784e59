"""Tests of the benchmark harness itself, in quick mode.

    python3 -m pytest perfbench        (or: python3 perfbench/test_perfbench.py)

Quick mode runs every workload at tiny size, 15 ops, both untraced and
traced, and checks the result line against BENCHMARK.json.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--quick"], cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


class QuickMode(unittest.TestCase):
    def test_every_workload_emits_the_declared_metrics(self):
        for spec in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=spec["name"], trace=trace):
                    proc = run(spec["name"], 3, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = last_json(proc)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_same_seed_gives_the_same_answers(self):
        first = run("noncut_ladder", 5, 0)
        digest = record("noncut_ladder", 5, 0)["answers_digest"]["untraced"]
        again = run("noncut_ladder", 5, 0)
        self.assertEqual(
            record("noncut_ladder", 5, 0)["answers_digest"]["untraced"], digest)
        other = run("noncut_ladder", 6, 0)
        self.assertNotEqual(
            record("noncut_ladder", 6, 0)["answers_digest"]["untraced"], digest)
        for proc in (first, again, other):
            self.assertTrue(last_json(proc)["correct"], proc.stdout)

    def test_refuses_to_run_without_the_package(self):
        (ROOT / ".perfbench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as bare:
            bare = Path(bare)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("circle_index", 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
