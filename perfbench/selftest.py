"""Tests of the benchmark itself.

Usage (from the repository root):  python3 perfbench/selftest.py [-v]

The traced counts of every workload must equal their closed forms (see
expected_counts); a change that alters how much work a run does (ROADMAP
item 2 takes `transport.solves_per_recorded_step` from 2 to 1) updates the
closed form here, with the reason.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import BURN_IN_FACTOR, WORKLOADS  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "selftest"
FLOOR_PAIRS = 3  # scenarios.monte_carlo_floor: median over 3 pairs of burn-ins
SORTED_PATH = {"chain_contraction"}  # W2 on R^1 takes the sorted matching, no assignment solve


def expected_counts(workload) -> dict:
    """Closed forms of the traced counts at this commit.

    Every recorded step costs one W2 solve for the series and one more
    inside Psi; the floor adds one per pair.  Chain work is the main run
    plus 1 + 2 * FLOOR_PAIRS burn-ins of BURN_IN_FACTOR * K steps each.
    """
    n, k, every = workload.ensemble_size, workload.iterations, workload.record_every
    recorded = 1 + k // every + (1 if k % every else 0)
    solves = 2 * recorded + FLOOR_PAIRS
    assignment = workload.name not in SORTED_PATH
    return {
        "transport.w2_calls": solves,
        "transport.assignment_solves": solves if assignment else 0,
        "transport.sorted_solves": 0 if assignment else solves,
        "transport.solves_per_recorded_step": 2.0 if assignment else 0.0,
        "transport.psi_calls": recorded,
        "scenarios.floor_solves": FLOOR_PAIRS,
        "rfi.chain_calls": 2 + 2 * FLOOR_PAIRS,
        "rfi.particle_steps": n * (k + (1 + 2 * FLOOR_PAIRS) * BURN_IN_FACTOR * k),
        "transport.cost_matrix_bytes": (solves if assignment else 0) * n * n * 8,
    }


def bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=200)


class TracedCounts(unittest.TestCase):
    def test_counts_repeat_and_match_closed_forms(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                proc = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual(result["failed"], 0)
                got = {k: v["value"] for k, v in result["metrics"].items()}
                for metric, want in expected_counts(workload).items():
                    self.assertEqual(got[metric], want, metric)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_union_of_overlapping_children(self):
        parent = {"start": 0.0, "end": 10.0}
        children = [{"start": 1.0, "end": 4.0}, {"start": 2.0, "end": 5.0}, {"start": 8.0, "end": 12.0}]
        self.assertAlmostEqual(spans.self_time(parent, children), 10.0 - 4.0 - 2.0)

    def test_worker_thread_spans_take_the_submitting_span_as_parent(self):
        tracer = spans.Tracer()
        leaf = tracer.wrap("leaf", lambda: threading.get_ident())

        def outer():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return [f.result() for f in [pool.submit(leaf) for _ in range(4)]]

        tracer.wrap("outer", outer)()
        (root,) = [s for s in tracer.spans if s["name"] == "outer"]
        leaves = [s for s in tracer.spans if s["name"] == "leaf"]
        self.assertEqual(len(leaves), 4)
        self.assertTrue(all(s["parent"] == root["id"] for s in leaves))
        self.assertTrue(all(s["thread"] != root["thread"] for s in leaves))

    def test_installed_restores_every_attribute(self):
        from rfilab import cli, geometry, operators, scenarios, transport

        owners = [cli, scenarios, transport, transport.Ensemble, geometry.EuclideanSpace,
                  geometry.SpiderSpace, operators.OperatorFamily, *spans._subclasses(operators.Operator)]
        before = [dict(vars(o)) for o in owners]
        with spans.installed(spans.Tracer()):
            self.assertNotEqual(vars(transport)["linear_sum_assignment"], before[2]["linear_sum_assignment"])
        self.assertEqual([dict(vars(o)) for o in owners], before)


class Commands(unittest.TestCase):
    def test_peak_rss_is_the_commands_own_not_the_benchmarks(self):
        import run

        SCRATCH.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, "-c", "block = b'x' * (40 << 20)"]
        ballast = np.ones(160 << 17)  # 160 MiB in this process, every page touched
        got = run.child(command, SCRATCH / "peak", time.monotonic() + 60)
        # the same command started straight from this process reports this process's RSS
        direct = subprocess.Popen(command)
        _, status, usage = os.wait4(direct.pid, 0)
        direct.returncode = os.waitstatus_to_exitcode(status)
        del ballast
        self.assertGreater(usage.ru_maxrss / 1024, 160)
        self.assertEqual(got.rc, 0)
        self.assertTrue(40 < got.peak_mb < 100, got.peak_mb)
        checks.own_peak(got.peak_mb, got.launcher_mb)

    def test_command_is_killed_at_the_deadline(self):
        import run

        SCRATCH.mkdir(parents=True, exist_ok=True)
        start = time.monotonic()
        got = run.child([sys.executable, "-c", "import time; time.sleep(60)"], SCRATCH / "slow", start + 1)
        self.assertNotEqual(got.rc, 0)
        self.assertLess(time.monotonic() - start, 10)


class OutputChecks(unittest.TestCase):
    def test_w2_matches_exhaustive_search(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 4):
            a, b = rng.normal(size=(6, dim)), rng.normal(size=(6, dim))
            best = min(np.mean(np.sum((a - b[list(p)]) ** 2, axis=1)) for p in itertools.permutations(range(6)))
            self.assertAlmostEqual(checks.w2(a, b), float(np.sqrt(best)), places=12)

    def test_check_run_accepts_true_values_and_rejects_a_wrong_one(self):
        from rfilab.cli import validate_report

        out = SCRATCH / "results"
        shutil.rmtree(out, ignore_errors=True)
        (out / "ensembles").mkdir(parents=True)
        rng = np.random.default_rng(1)
        header = "x0_re,x0_im,x1_re,x1_im"
        ref, first, last = (rng.normal(size=(8, 4)) for _ in range(3))
        np.savetxt(out / "reference.csv", ref, delimiter=",", header=header, comments="")
        np.savetxt(out / "ensembles" / "step_000000.csv", first, delimiter=",", header=header, comments="")
        np.savetxt(out / "ensembles" / "step_000003.csv", last, delimiter=",", header=header, comments="")
        report = {k: None for k in ("scenario", "alpha", "regularity", "bound", "rates", "subregularity",
                                    "predicted_rate", "floor")}
        (out / "report.json").write_text(json.dumps({**report, "schema": "rfilab.report.v1"}))
        # complex coordinates: |z - w|^2 is the squared norm of the (re, im) difference
        za, zb = last[:, 0::2] + 1j * last[:, 1::2], ref[:, 0::2] + 1j * ref[:, 1::2]
        best = min(np.mean(np.sum(np.abs(za - zb[list(p)]) ** 2, axis=1)) for p in itertools.permutations(range(8)))
        w2 = float(np.sqrt(best))
        for value, accepted in ((w2, True), (w2 * (1 + 1e-6), False)):
            (out / "series.csv").write_text(f"k,W2_to_reference,psi_hat\n0,1.0,0.5\n3,{value!r},0.25\n")
            if accepted:
                checks.check_run(out, validate_report)
            else:
                self.assertRaises(checks.CheckFailed, checks.check_run, out, validate_report)
        (out / "report.json").write_text(json.dumps(report))
        self.assertRaises(checks.CheckFailed, checks.check_run, out, validate_report)
        shutil.rmtree(out)


class Contract(unittest.TestCase):
    def test_configs_are_valid_and_fixed_by_the_seed(self):
        from rfilab.cli import validate_config

        for workload in WORKLOADS.values():
            self.assertEqual(workload.config(5), workload.config(5))
            self.assertNotEqual(workload.config(5), workload.config(6))
            validate_config(workload.config(5))

    def test_benchmark_json_names_every_workload_and_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        names = {m["name"] for m in spec["per_layer"]}
        self.assertEqual(names, set(spans.layer_metrics([], 1)) | {"trace.overhead_s"})
        self.assertLessEqual(spans.COUNTS, names)

    def test_fails_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ot_kaczmarz", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
