#!/usr/bin/env python3
"""The benchmark's own tests: every workload at toy size, plus bad flags.

    python3 perfbench/test_perfbench.py

Builds the benchmark binary on first use (like run.py).
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class BadFlags(unittest.TestCase):
    def assert_usage_error(self, args):
        p = run(args)
        self.assertEqual(p.returncode, 2, p.stderr)
        self.assertIn("usage:", p.stderr)
        self.assertEqual(p.stdout, "")
        self.assertNotIn("Traceback", p.stderr)

    def test_unknown_flag(self):
        self.assert_usage_error(["--workload", "lpi_ranks", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", "--bogus"])

    def test_help(self):
        self.assert_usage_error(["--help"])

    def test_unknown_workload(self):
        self.assert_usage_error(["--workload", "nope", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"])

    def test_missing_flag(self):
        self.assert_usage_error(["--workload", "lpi_ranks", "--seed", "1"])

    def test_binary_unknown_flag(self):
        sys.path.insert(0, HERE)
        import run as bench
        binary = bench.build(bench.build_dir())
        for flag in ("--bogus=1", "--help"):
            p = subprocess.run([binary, flag], capture_output=True, text=True,
                               timeout=60)
            self.assertEqual(p.returncode, 2, flag)
            self.assertIn("usage:", p.stderr)
            self.assertEqual(p.stdout, "")

    def test_without_sources(self):
        """Only BENCHMARK.json and the benchmark: fail fast, print nothing."""
        work = os.path.join(ROOT, ".bench_build")
        os.makedirs(work, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = run(["--workload", "lpi_ranks", "--seed", "1", "--seconds",
                     "1", "--trace", "0"], cwd=tmp,
                    script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, "")


class ToyWorkloads(unittest.TestCase):
    def check(self, workload, trace):
        p = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--toy"])
        self.assertEqual(p.returncode, 0, p.stderr)
        lines = p.stdout.strip().splitlines()
        fingerprint = json.loads(lines[-2])["fingerprint"]
        for key in ("allowed_cpus", "cpu_model", "push_kernel", "build_type",
                    "nproc", "source_digest"):
            self.assertIn(key, fingerprint)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return result["metrics"]

    def test_lpi_pipelines(self):
        self.check("lpi_pipelines", 0)
        layers = self.check("lpi_pipelines", 1)
        self.assertGreater(layers["sim.push.ms_per_step"]["value"], 0)
        self.assertGreater(layers["util.dispatch_us"]["value"], 0)
        self.assertEqual(layers["vmpi.msgs_per_step"]["value"], 0)

    def test_lpi_ranks(self):
        self.check("lpi_ranks", 0)
        layers = self.check("lpi_ranks", 1)
        if len(os.sched_getaffinity(0)) > 1:
            self.assertGreater(layers["vmpi.msgs_per_step"]["value"], 0)
            self.assertGreater(layers["vmpi.p2p_us"]["value"], 0)

    def test_service_mix(self):
        self.check("service_mix", 0)
        layers = self.check("service_mix", 1)
        self.assertGreater(layers["service.hit_ratio"]["value"], 0)
        self.assertGreater(layers["campaign.job_s_p50"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
