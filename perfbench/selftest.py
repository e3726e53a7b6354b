"""Self-tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 perfbench/selftest.py

They check that the trace wrappers restore every attribute they swap,
that span analysis, failure accounting and percentiles are right on
synthetic samples, that tracing leaves metered op counts unchanged, that
``BENCHMARK.json`` names exactly the metrics the code reports, and run a
tiny smoke pass of every workload.  About a minute on one core.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import sessions  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from sessions import END_TO_END, SegmentResult, SessionRecord, end_to_end  # noqa: E402
from layers import PER_LAYER, LayerProbe  # noqa: E402
from spans import Span, Tracer, children_of, covered, self_time  # noqa: E402
from workloads import WORKLOADS, session_inputs  # noqa: E402

INF = float("inf")


def _owners():
    owners = {owner for owner, _, _ in layers.PLAIN_SPANS}
    owners |= {layers.HsmDevice, layers.HsmWorkerPool, layers.DistributedLog, layers.EpochTicket}
    return owners


class WrapperRestoreTest(unittest.TestCase):
    def test_uninstall_restores_every_attribute(self):
        before = {owner: dict(vars(owner)) for owner in _owners()}
        probe = LayerProbe().install()
        try:
            changed = [
                (owner, attr)
                for owner, attrs in before.items()
                for attr, value in attrs.items()
                if vars(owner).get(attr) is not value
            ]
            self.assertGreaterEqual(len(changed), len(layers.PLAIN_SPANS) + 5)
            # Static methods stay static methods while wrapped.
            self.assertIsInstance(vars(layers.BloomFilterEncryption)["decrypt"], staticmethod)
            self.assertIsInstance(vars(layers.SecureDeletionTree)["setup"], staticmethod)
        finally:
            probe.uninstall()
        for owner, attrs in before.items():
            after = vars(owner)
            self.assertEqual(set(after), set(attrs), owner)
            for attr, value in attrs.items():
                self.assertIs(after[attr], value, f"{owner!r}.{attr}")
        self.assertFalse(probe.tracer.installed)

    def test_inherited_attribute_is_removed_again(self):
        class Base:
            def ping(self):
                return "pong"

            @staticmethod
            def static():
                return "still static"

        class Child(Base):
            pass

        tracer = Tracer()
        tracer.wrap(Child, "ping", "ping")
        tracer.wrap(Child, "static", "static")
        self.assertEqual(Child().ping(), "pong")
        self.assertEqual(Child().static(), "still static")
        tracer.uninstall()
        self.assertNotIn("ping", vars(Child))
        self.assertNotIn("static", vars(Child))
        self.assertEqual([s.name for s in tracer.spans], ["ping", "static"])


class SpanAnalysisTest(unittest.TestCase):
    @staticmethod
    def _span(id, start, end, parent=None, thread=1):
        return Span(id, f"s{id}", start, end, thread, None, parent, None, False)

    def test_covered_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(covered([(0, 2), (1, 3), (5, 6), (9, 12)], 0, 10), 5.0)
        self.assertEqual(covered([], 0, 10), 0.0)

    def test_self_time_subtracts_union_of_children(self):
        spans = [
            self._span(1, 0.0, 10.0),
            self._span(2, 1.0, 4.0, parent=1),
            self._span(3, 3.0, 5.0, parent=1),
            self._span(4, 6.0, 7.0, parent=1, thread=2),
            self._span(5, 1.5, 2.0, parent=2),  # a grandchild: not subtracted twice
        ]
        kids = children_of(spans)
        self.assertAlmostEqual(self_time(spans[0], kids), 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(self_time(spans[0], kids, same_thread=True), 10.0 - 4.0)
        self.assertAlmostEqual(self_time(spans[1], kids), 2.5)

    def test_context_crosses_threads_with_parent_and_session(self):
        tracer = Tracer()
        tracer.set_session("alice")
        outer = tracer.timed("outer", lambda: tracer.capture())
        captured = outer()
        seen = {}

        def worker():
            with tracer.adopt(captured, epoch=7):
                tracer.timed("inner", lambda: None)()
            seen["after"] = tracer.capture()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        self.assertFalse(thread.is_alive())
        inner = next(s for s in tracer.spans if s.name == "inner")
        outer_span = next(s for s in tracer.spans if s.name == "outer")
        self.assertEqual(inner.parent, outer_span.id)
        self.assertEqual((inner.session, inner.epoch), ("alice", 7))
        self.assertNotEqual(inner.thread, outer_span.thread)
        self.assertEqual(seen["after"], (None, None, None))

    def test_take_keeps_appending_to_the_same_list(self):
        tracer = Tracer()
        fn = tracer.timed("f", lambda: None)
        fn()
        self.assertEqual(len(tracer.take()), 1)
        fn()
        self.assertEqual([s.name for s in tracer.take()], ["f"])


class AccountingTest(unittest.TestCase):
    @staticmethod
    def _segment(records, elapsed=10.0, setup=1.0):
        return SegmentResult(setup, elapsed, records, False, {}, {}, None, None)

    def test_percentiles_use_ceil_rank(self):
        records = [SessionRecord(i, (i + 1) / 1000.0, None, True) for i in range(10)]
        e2e = end_to_end([self._segment(records)], 1.0)
        self.assertAlmostEqual(e2e["session_p50_ms"], 5.0)
        self.assertAlmostEqual(e2e["session_p90_ms"], 9.0)
        self.assertAlmostEqual(e2e["sessions_per_s"], 1.0)
        ops = sessions.operation_percentiles([self._segment(records)])
        self.assertEqual(ops, {"backup_p50_ms": e2e["session_p50_ms"],
                               "backup_p90_ms": e2e["session_p90_ms"]})

    def test_failures_count_against_success_and_as_infinite_latency(self):
        records = [
            SessionRecord(0, 0.010, 0.100, True),
            SessionRecord(1, 0.010, INF, False),  # recovery failed
            SessionRecord(2, INF, None, False),  # backup failed: no recovery attempted
            SessionRecord(3, 0.010, 0.200, True),
        ]
        self.assertEqual([r.attempted for r in records], [2, 2, 1, 2])
        self.assertEqual([r.failed for r in records], [0, 1, 1, 0])
        e2e = end_to_end([self._segment(records[:2], 4.0), self._segment(records[2:], 6.0, 3.0)], 9.0)
        self.assertAlmostEqual(e2e["success_rate"], 1.0 - 2 / 7)
        self.assertAlmostEqual(e2e["sessions_per_s"], 2 / 10.0)
        self.assertEqual(e2e["session_p90_ms"], sessions.INF_MS)
        self.assertAlmostEqual(e2e["session_p50_ms"], 210.0)
        self.assertEqual(e2e["setup_s"], 1.0)  # ceil-rank median of (1, 3)
        self.assertEqual(set(e2e), set(END_TO_END))

    def test_inputs_depend_only_on_seed(self):
        workload = WORKLOADS["backup_burst"]
        first = [next(session_inputs(workload, 3, "timed")) for _ in range(2)]
        self.assertEqual(first[0], first[1])
        stream = session_inputs(workload, 3, "timed")
        sample = [next(stream) for _ in range(30)]
        self.assertEqual(len({s.username for s in sample}), 30)
        self.assertTrue({len(s.payload) for s in sample} <= {32, 1024, 4096})
        self.assertNotEqual(next(session_inputs(workload, 4, "timed")), sample[0])


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_units_and_directions_match_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {name: w.why for name, w in WORKLOADS.items()})
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class OpCountIdentityTest(unittest.TestCase):
    def test_tracing_leaves_metered_op_counts_identical(self):
        workload = WORKLOADS["recover_sharded_pair"]
        plain = sessions.op_counts_probe(workload, 11)
        probe = LayerProbe().install()
        try:
            traced = sessions.op_counts_probe(workload, 11, probe)
        finally:
            probe.uninstall()
        self.assertEqual(plain, traced)
        self.assertGreater(plain.get("ecdsa_verify", 0), 0)


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_traced_and_reports_every_metric(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                lines, result = run.run_workload(name, seed=5, seconds=1.5, trace=True)
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(result["failed"], 0, "\n".join(lines))
                self.assertGreaterEqual(result["attempted"], 3)
                self.assertEqual(set(result["metrics"]), set(PER_LAYER))
                if workload.recover:
                    self.assertGreater(result["metrics"]["hsm.decrypt_share_ms"]["value"], 0)
                    self.assertGreaterEqual(result["metrics"]["trace.coverage"]["value"], 0.9)

    def test_command_prints_end_to_end_metrics_last(self):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "backup_burst",
             "--seed", "2", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(END_TO_END))
        for name, (unit, _) in END_TO_END.items():
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertGreater(result["metrics"][name]["value"], 0)

    def test_fails_without_the_program_source(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "recover_serial",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
