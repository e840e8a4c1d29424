#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs.

    python3 perfbench/test_run.py

For every workload: each named metric is printed with its unit, the traced
run reproduces the untraced results (vhbench checks this and fails the run
otherwise), and a deliberately corrupted result trips a check. Also: the
benchmark refuses to run, without printing a result, where the sources are
missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

COMMON_END_TO_END = ["setup_s", "run_s", "failed_pct", "peak_rss_mb"]
END_TO_END = {
    "sim-scale-512": ["sim_s_per_wall_s", "sim_makespan_s"],
    "sim-tenant-day": ["sim_s_per_wall_s", "p50_latency_s", "p99_latency_s", "slo_miss_pct"],
    "local-wordcount": ["records_per_s"],
    "ml-paper-clustering": ["records_per_s", "call_p50_ms", "call_p99_ms"],
}
SIM_LAYERS = [
    "engine.events", "engine.cancelled", "engine.ns_per_event",
    "fluid.step_ms", "fluid.share", "fluid.recomputes", "fluid.solved_activities",
    "fluid.component_p95", "fluid.ns_per_solved_activity", "fluid.same_instant_share",
    "sched.step_ms", "sched.share", "sched.heartbeats", "sched.us_per_heartbeat",
    "other.step_ms", "other.share", "mr.map_attempts", "mr.locality_node_share",
    "virt.boot_ms", "hdfs.blocks_read", "hdfs.blocks_written", "net.flows_started",
]
LAYERS = {
    "sim-scale-512": SIM_LAYERS + ["hdfs.upload_ms"],
    "sim-tenant-day": SIM_LAYERS + ["trace.accepted", "trace.rejected",
                                    "trace.max_submit_skew_s"],
    "local-wordcount": [
        "runner.map_ms", "runner.map_user_ms", "runner.shuffle_ms", "runner.combine_ms",
        "runner.reduce_ms", "runner.reduce_user_ms", "runner.output_ms",
        "runner.shuffle_ns_per_record", "runner.map_emit_records", "runner.shuffle_records",
        "runner.sort_comparisons", "runner.merge_comparisons", "runner.arena_chunks",
    ],
    "ml-paper-clustering": [f"ml.{a}_p50_ms" for a in (
        "canopy", "kmeans", "fuzzy_kmeans", "meanshift", "dirichlet", "minhash")] + [
        "ml.jobs", "ml.iterations", "ml.map_input_records", "ml.shuffle_records"],
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


class WorkloadTest(unittest.TestCase):
    def assert_named_with_units(self, section, names):
        for name in names:
            self.assertIn(name, section)
            self.assertIsInstance(section[name]["value"], (int, float), name)
            self.assertTrue(section[name]["unit"], name)

    def check_result_line(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_metrics_named_and_traced_run_identical(self):
        for workload in END_TO_END:
            with self.subTest(workload=workload):
                proc = run(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                report, result = parse(proc)
                self.assertEqual(report["seed"], 3)
                self.assertEqual(set(report["machine"]),
                                 {"nproc", "cpu", "compiler", "build_type"})
                self.assert_named_with_units(report["metrics"],
                                             COMMON_END_TO_END + END_TO_END[workload])
                self.check_result_line(result, BENCHMARK["end_to_end"])

                # The traced run fails unless it reproduces the untraced results.
                proc = run(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                report, result = parse(proc)
                self.assertEqual(report["failures"], [])
                self.assert_named_with_units(report["layers"], LAYERS[workload])
                self.check_result_line(result, BENCHMARK["per_layer"])

    def test_corrupted_result_trips_a_check(self):
        for workload in END_TO_END:
            with self.subTest(workload=workload):
                proc = run(workload, 1, "--corrupt")
                self.assertNotEqual(proc.returncode, 0)
                report, result = parse(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertTrue(report["failures"])

    def test_refuses_to_run_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("sim-scale-512", 0, cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
