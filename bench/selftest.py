"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Small runs of every workload must emit every metric that BENCHMARK.json
names, corrupted outputs must count as failures, the tracer's self times
must exclude child spans, the percentile estimate and the calibrated job
times must follow their definitions, and the benchmark must refuse to run
without the program's sources.  Takes about 20 seconds.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import types
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import henneberg.cli  # noqa: E402
import henneberg.geometry  # noqa: E402
from run import REFERENCE_MS, WORK, WORKLOAD_NAMES, harrell_davis, slot_times  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import BjorlingCusps, MeshExport, run_job  # noqa: E402


def _run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class SmallRuns(unittest.TestCase):
    """Every workload, untraced and traced, at reduced size."""

    def test_every_metric_is_emitted(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            for name in WORKLOAD_NAMES:
                with self.subTest(workload=name, trace=trace):
                    proc = _run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                                      "--trace", str(trace), "--small")
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in result["metrics"].values():
                        self.assertTrue(math.isfinite(m["value"]))
                    if trace == 0:
                        ok_rate = result["metrics"]["ok_rate"]["value"]
                        self.assertAlmostEqual(ok_rate, 1 - result["failed"] / result["attempted"])
                        for line in proc.stdout.splitlines():
                            if line.startswith("  FAILED"):
                                self.assertIn(": ", line)


class CorruptedOutputs(unittest.TestCase):
    """A wrong output from the program is a failed job, never a pass."""

    def setUp(self):
        WORK.mkdir(exist_ok=True)
        self.work = tempfile.mkdtemp(dir=WORK)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_truncated_obj_fails_its_check(self):
        workload = MeshExport(random.Random(0), self.work, small=True)
        job = next(j for j in workload.jobs if j.kind == "generate-obj")
        self.assertIsNone(run_job(job).wrong)
        original = henneberg.cli.write_obj

        def truncating(mesh, path):
            original(mesh, path)
            with open(path, "r+") as fh:
                fh.truncate(os.path.getsize(path) // 2)

        henneberg.cli.write_obj = truncating
        try:
            outcome = run_job(job)
        finally:
            henneberg.cli.write_obj = original
        self.assertTrue(outcome.failed)
        self.assertIn("differ from the reference", outcome.wrong)

    def test_wrong_cusp_count_fails_its_check(self):
        workload = BjorlingCusps(random.Random(0), self.work, small=True)
        job = next(j for j in workload.jobs if j.kind == "cusp-count")
        original = henneberg.geometry.cusp_count
        henneberg.geometry.cusp_count = lambda curve: original(curve) + 1
        try:
            outcome = run_job(job)
        finally:
            henneberg.geometry.cusp_count = original
        self.assertTrue(outcome.failed)
        self.assertIn("expected", outcome.wrong)

    def test_raising_job_is_an_error(self):
        workload = BjorlingCusps(random.Random(0), self.work, small=True)
        job = next(j for j in workload.jobs if j.kind == "bjorling")
        original = henneberg.cli.bjorling_solve

        def broken(*args, **kwargs):
            raise RuntimeError("injected")

        henneberg.cli.bjorling_solve = broken
        try:
            outcome = run_job(job)
        finally:
            henneberg.cli.bjorling_solve = original
        self.assertEqual(outcome.error, "RuntimeError: injected")


class TracerSelfTime(unittest.TestCase):
    def test_self_time_excludes_children(self):
        ns = types.SimpleNamespace()
        ns.inner = lambda: time.sleep(0.02)

        def outer(depth=0):
            time.sleep(0.01)
            ns.inner()
            if depth == 0:
                ns.outer(1)  # recursion stays inside the outer span

        ns.outer = outer
        tracer = Tracer()
        tracer.wrap(ns, "inner", "inner")
        tracer.wrap(ns, "outer", "outer")
        ns.outer()
        tracer.restore()
        self.assertIs(ns.outer, outer)
        totals = tracer.layer_totals()
        self.assertEqual(totals["outer"]["calls"], 1)
        self.assertEqual(totals["inner"]["calls"], 2)
        self.assertGreaterEqual(totals["inner"]["self_ms"], 40)
        self.assertGreaterEqual(totals["outer"]["self_ms"], 20)
        self.assertLess(totals["outer"]["self_ms"], 35)
        self.assertEqual(tracer.spans[1].parent, 0)


class Percentiles(unittest.TestCase):
    def test_harrell_davis(self):
        self.assertAlmostEqual(harrell_davis(np.full(27, 3.5), 0.9), 3.5)
        # symmetric weights: the estimate of the median of 1..n is its median
        self.assertAlmostEqual(harrell_davis(np.arange(1.0, 28.0), 0.5), 14.0)
        values = np.random.default_rng(0).lognormal(size=27)
        p50, p90 = harrell_davis(values, 0.5), harrell_davis(values, 0.9)
        self.assertLess(values.min(), p50)
        self.assertLess(p50, p90)
        self.assertLess(p90, values.max())


class Calibration(unittest.TestCase):
    def test_calibrated_time_follows_the_machine(self):
        def job(ms):
            return types.SimpleNamespace(ms=ms)

        # slot 0 ran once at reference speed and once on a 3x slower machine
        played = [(0, job(100.0), REFERENCE_MS), (0, job(300.0), 3 * REFERENCE_MS),
                  (1, job(50.0), 2 * REFERENCE_MS)]
        np.testing.assert_allclose(slot_times(played), [100.0, 25.0])
        np.testing.assert_allclose(slot_times(played, calibrated=False), [200.0, 50.0])


class MissingProgram(unittest.TestCase):
    def test_refuses_without_sources(self):
        WORK.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=WORK))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run_bench("--workload", "mesh_bjorling", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
