#!/usr/bin/env python3
"""Self-test of the repository benchmark, on 300-node (--tiny) deployments.

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, in both modes; that the output checks trip on a corrupted trial
summary; that the seed argument changes the output digest while repeating a
seed does not; and that the benchmark fails cleanly in a directory holding
only BENCHMARK.json and perfbench/.

Run from the root of a checkout:  python3 -m unittest -v perfbench.test_run
(about a minute, plus the first build).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import run  # noqa: E402

# Every workload run.py accepts, scale_16k included.
WORKLOADS = sorted(run.QUALITY_TRIALS)


def bench(*args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout


def tiny(workload, seed=1, trace=0):
    code, out = bench("--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--trace", str(trace), "--tiny")
    if code != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {code}")
    return out, json.loads(out.splitlines()[-1])


def digest(out):
    return re.search(r"digest ([0-9a-f]{16})", out).group(1)


class EveryMetricPrinted(unittest.TestCase):
    def check(self, trace, names):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out, result = tiny(workload, trace=trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed",
                                               "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                want = {m["name"]: m["unit"] for m in names}
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, unit in want.items():
                    self.assertRegex(out, rf"(?m)^\s+{re.escape(name)}\s+\S+ "
                                          rf"{re.escape(unit)}\b")

    def test_end_to_end(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer(self):
        self.check(1, SPEC["per_layer"])


class OutputChecks(unittest.TestCase):
    def test_corrupted_summary_trips_the_checks(self):
        proc = subprocess.run([str(run.build()), "--selftest"],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("NO", proc.stdout)


class Digest(unittest.TestCase):
    def test_seed_changes_digest_and_repeats_do_not(self):
        first = digest(tiny("paper_1k", seed=1)[0])
        self.assertEqual(first, digest(tiny("paper_1k", seed=1)[0]))
        self.assertNotEqual(first, digest(tiny("paper_1k", seed=2)[0]))


class Isolated(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        alone = ROOT / ".bench_build" / "selftest_isolated"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        shutil.copytree(HERE, alone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        try:
            code, out = bench("--workload", "paper_1k", "--seed", "1",
                              "--seconds", "1", cwd=alone, env=env)
        finally:
            shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', out)


if __name__ == "__main__":
    unittest.main()
