"""Self-test of the benchmark itself, standard library only.

    python3 perfbench/selftest.py

Runs a tiny version of each workload, shows that a corrupted metric, plan
or CSV fails the output checks, and checks that every metric named in
BENCHMARK.json prints with its unit.  Takes about ten seconds.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import unittest

import run
from workloads import WORKLOADS

TINY_OPS = 2
TINY_BLOCK = 3  # sweep cells per block in the tiny runs


@contextlib.contextmanager
def tiny(work):
    """Shrink a workload to a couple of operations (and small sweep blocks)."""
    saved = work.ref_ops, work.latency_ops, work.block
    work.ref_ops = work.latency_ops = TINY_OPS if work.block == 1 else TINY_BLOCK
    work.block = min(work.block, TINY_BLOCK)
    try:
        yield work
    finally:
        work.ref_ops, work.latency_ops, work.block = saved


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.fs = run.load_program()
        cls.items = {name: w.build(cls.fs, 0) for name, w in WORKLOADS.items()}

    def measure(self, name):
        with tiny(WORKLOADS[name]) as work:
            return run.measure(work, self.fs, self.items[name], work.ref_ops)

    def test_every_workload_runs_clean(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                m = self.measure(name)
                self.assertEqual((m.problems, m.failures, m.failed_ops), ([], [], 0))
                self.assertTrue(m.ref and all(o.digest for o in m.ref))

    def test_run_does_a_fixed_number_of_operations(self):
        for name, work in WORKLOADS.items():
            with self.subTest(workload=name):
                ops = run.run_ops(work, 20)
                self.assertEqual(ops % work.block, 0)
                self.assertGreaterEqual(ops, max(work.ref_ops, work.latency_ops))
        with tiny(WORKLOADS["plan-large"]) as work:
            m = run.measure(work, self.fs, self.items["plan-large"], 3)
        self.assertEqual(len(m.raw), 3)

    def test_digest_repeats(self):
        self.assertEqual(self.measure("corpus-traced").digest.hexdigest(),
                         self.measure("corpus-traced").digest.hexdigest())

    def test_corrupted_fold_metric_fails(self):
        fold = self.fs.sim.fold_jsonl

        def corrupt(lines):
            out = fold(lines)
            out["mission_time"] += 1e-9
            return out

        with patched(self.fs.sim, "fold_jsonl", corrupt):
            m = self.measure("corpus-traced")
        self.assertEqual(m.failed_ops, TINY_OPS)
        self.assertIn("fold_jsonl differs", m.problems[0])

    def test_corrupted_plan_fails_validation(self):
        plan_mission = self.fs.offline.plan_mission

        def corrupt(scenario):
            plan = plan_mission(scenario)
            first = plan.segments[0]
            dropped = dataclasses.replace(first, target_arcs=first.target_arcs[1:])
            return dataclasses.replace(plan, segments=(dropped,) + plan.segments[1:])

        with patched(self.fs.offline, "plan_mission", corrupt):
            m = self.measure("plan-large")
        self.assertEqual(m.failed_ops, TINY_OPS)
        self.assertIn("missing-target", m.problems[0])

    def test_plan_round_trip_change_fails(self):
        parse_plan = self.fs.scenario_io.parse_plan

        def corrupt(text):
            plan = parse_plan(text)
            return dataclasses.replace(plan, segments=plan.segments[:-1])

        with patched(self.fs.scenario_io, "parse_plan", corrupt):
            m = self.measure("plan-large")
        self.assertIn("plan changed in its JSON round trip", m.problems[0])

    def test_malformed_csv_fails(self):
        to_csv = self.fs.batch.results_to_csv
        with patched(self.fs.batch, "results_to_csv", lambda rs: to_csv(rs)[:-1] + ",x\n"):
            m = self.measure("sweep")
        self.assertEqual(len(m.problems), 1)
        self.assertIn("CSV row", m.problems[0])

    def test_raising_operation_counts_as_failed(self):
        def boom(*args, **kwargs):
            raise self.fs.sim.InvariantViolation("corrupted state")

        with patched(self.fs.sim, "run", boom):
            m = self.measure("corpus-checked")
        self.assertEqual((m.failed_ops, m.problems), (TINY_OPS, []))
        self.assertIn("InvariantViolation", m.failures[0])


@contextlib.contextmanager
def patched(module, attr, value):
    saved = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, saved)


class MetricsPrintWithUnits(unittest.TestCase):
    def test_declared_metrics_print_with_units(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
        for name, work in WORKLOADS.items():
            for trace, metrics in declared.items():
                with self.subTest(workload=name, trace=trace), tiny(work):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = run.main(["--workload", name, "--seconds", "0",
                                         "--trace", str(trace)])
                    lines = buf.getvalue().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(code, 0)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
                    for m in metrics:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIn(f"{m['name']} = {got['value']!r} {m['unit']}", lines)


if __name__ == "__main__":
    unittest.main()
