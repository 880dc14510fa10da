"""Tests of the benchmark itself, on the seconds-long smoke-p2-3 workload.

    python3 -m pytest perfbench -q
"""

import functools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

import run
import worker


def run_bench(*args, root=run.ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def smoke(trace):
    proc = run_bench("--workload", "smoke-p2-3", "--seed", "3",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def config():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class ReferenceChecks(unittest.TestCase):
    def failed_frac(self, rows):
        workload = functools.partial(worker.smoke_p2_3, rows=rows)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(worker.WORKLOADS, {"smoke-p2-3": workload}):
            record = worker.run("smoke-p2-3", 0, tmp)
        return run.failed_frac(run.rep_checks(record, 0))

    def test_published_rows_pass(self):
        self.assertEqual(self.failed_frac(worker.SMOKE_ROWS), 0)

    def test_perturbed_reference_raises_failed_frac(self):
        rows = dict(worker.SMOKE_ROWS)
        h, betas, c0 = rows[2]
        rows[2] = (h, betas, c0 + 1)
        self.assertGreater(self.failed_frac(rows), 0)

    def test_placements_are_disjoint_adjacent_and_seeded(self):
        for s in (1, 2, 3):
            got = worker.placements(11, s, random.Random(7), 3)
            self.assertEqual(got, worker.placements(11, s, random.Random(7), 3))
            self.assertEqual(len(set(got)), 3)
            for pairs in got:
                points = [p for pair in pairs for p in pair]
                self.assertEqual(len(set(points)), 2 * s)
                self.assertTrue(all(b == a + 1 and 0 <= a and b < 11
                                    for a, b in pairs))


class SpeedProbeTests(unittest.TestCase):
    def test_samples_during_interval_and_restores_signal(self):
        probe = worker.SpeedProbe()
        with probe:
            end = worker.time.perf_counter() + 0.2
            while worker.time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(probe.cpu), 3)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertEqual(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertAlmostEqual(probe.cpu_s, sum(probe.cpu))

    def test_factor_is_reference_over_measured_speed(self):
        probe = worker.SpeedProbe()
        probe.cpu = [worker.CAL_REF_S, 2 * worker.CAL_REF_S]
        self.assertAlmostEqual(probe.factor(), 0.75)

    def test_factor_drops_stalled_clock_and_trims_outliers(self):
        probe = worker.SpeedProbe()
        ref = worker.CAL_REF_S
        probe.cpu = [0.0] + [ref] * 9 + [2 * ref] * 9 + [1e-9, 1.0]
        self.assertAlmostEqual(probe.factor(), 0.75)


class Contract(unittest.TestCase):
    def test_workload_names_agree(self):
        self.assertEqual(set(run.WORKLOADS), set(worker.WORKLOADS))
        self.assertLessEqual({w["name"] for w in config()["workloads"]},
                             set(run.WORKLOADS))

    def test_end_to_end_result_line(self):
        result = smoke(0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        specs = config()["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"])
            self.assertGreater(metric["value"], 0)

    def test_traced_run_adds_up_and_repeats(self):
        first, second = smoke(1), smoke(1)
        self.assertTrue(first["correct"] and second["correct"])
        names = {m["name"] for m in config()["per_layer"]}
        self.assertEqual(set(first["metrics"]), names)
        values = {k: v["value"] for k, v in first["metrics"].items()}
        self_s = sum(v for k, v in values.items()
                     if k.endswith(".self_s"))
        self.assertAlmostEqual(self_s + values["trace.uncovered_s"],
                               values["trace.wall_s"], places=9)
        for name in names:
            if not name.endswith("_s"):
                self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "smoke-p2-3", "--seed", "1",
                             "--seconds", "1", root=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Tracing(unittest.TestCase):
    def test_missing_layer_is_reported_absent(self):
        # A fresh interpreter, because install() rewires the package.
        code = (
            "import sys; sys.path[:0] = [%r, %r]\n"
            "import gwfloor.cli, gwfloor.diagrams, layers\n"
            "del gwfloor.diagrams.canonical_key\n"
            "t = layers.Tracer(gwfloor); t.install()\n"
            "gwfloor.count(gwfloor.parse_degree('p2:3'), 2)\n"
            "print(sorted(t.absent), sorted(t.summary(1.0)))\n"
        ) % (os.path.join(run.ROOT, "src"), run.HERE)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("'diagrams.canonical_key'", proc.stdout.split("]")[0])
        self.assertNotIn("diagrams.canonical_key.calls", proc.stdout)
        self.assertIn("diagrams.merge.calls", proc.stdout)


if __name__ == "__main__":
    unittest.main()
