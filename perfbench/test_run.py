"""Self-tests for the benchmark harness's own logic.

    python3 perfbench/test_run.py
"""

import json
import os
import sys
import unittest

import run

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileRule(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(run.supported_percentile(1000), 99)
        self.assertEqual(run.supported_percentile(999), 95)
        self.assertEqual(run.supported_percentile(10_000), 99.9)

    def test_small_samples_support_little_or_nothing(self):
        self.assertIsNone(run.supported_percentile(10))
        self.assertEqual(run.supported_percentile(20), 50)
        self.assertEqual(run.supported_percentile(100), 90)

    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(run.percentile(values, 50), 500)
        self.assertEqual(run.percentile(values, 99), 990)
        self.assertEqual(run.percentile([7.0], 99), 7.0)


class OracleComparator(unittest.TestCase):
    ORACLE = (
        b"p/a.doc: module ThisDocument           OBFUSCATED (score +1.250)\n"
        b"p/a.doc: module Module1                     clean (score -3.000)\n"
        b"p/b.doc: no VBA macros\n"
        b"p/c.bin: FAILED [unknown-container] not an OOXML or OLE compound document\n"
    )
    PATHS = ["p/a.doc", "p/b.doc", "p/c.bin"]

    def test_identical_output_passes(self):
        self.assertEqual(run.batch_failures(self.ORACLE, self.ORACLE, self.PATHS), 0)

    def test_doctored_record_is_rejected(self):
        doctored = self.ORACLE.replace(b"score -3.000", b"score -2.999")
        self.assertEqual(run.batch_failures(doctored, self.ORACLE, self.PATHS), 1)

    def test_missing_record_is_rejected(self):
        truncated = b"".join(self.ORACLE.splitlines(keepends=True)[:3])
        self.assertEqual(run.batch_failures(truncated, self.ORACLE, self.PATHS), 1)

    def test_expected_failed_records_are_correct_answers(self):
        grouped = run.records_by_path(self.ORACLE, self.PATHS)
        self.assertEqual(len(grouped["p/c.bin"]), 1)
        self.assertEqual(run.batch_failures(self.ORACLE, self.ORACLE, self.PATHS), 0)

    def test_serve_reply_must_match_the_oracle_outcome(self):
        outcome = {"kind": "macros", "verdicts": [
            {"module": "ThisDocument", "obfuscated": True, "score": 1.2503}]}
        reply = {"ok": True, "op": "scan", "generation": 1, "outcome": outcome}
        self.assertFalse(run.reply_failed(reply, outcome))
        doctored = json.loads(json.dumps(reply))
        doctored["outcome"]["verdicts"][0]["obfuscated"] = False
        self.assertTrue(run.reply_failed(doctored, outcome))

    def test_error_shed_and_timeout_replies_fail(self):
        outcome = {"kind": "clean"}
        self.assertTrue(run.reply_failed({"ok": False, "error": "overloaded"}, outcome))
        self.assertTrue(run.reply_failed(None, outcome))


class PhaseAccounting(unittest.TestCase):
    def test_each_serve_phase_counts_its_own_failures(self):
        ok, bad = (0, 0.01, 0.0, False, True), (1, 0.01, 0.0, True, None)
        obs = {"drained": False, "warm": [False, True],
               "open": [ok, bad, ok], "closed": [bad, bad]}
        self.assertEqual(run.serve_phases(obs), {
            "spawn": [1, 1], "warm": [2, 1], "open": [3, 1], "closed": [2, 2]})

    def test_a_session_without_closed_loop_reports_no_closed_phase(self):
        obs = {"drained": True, "warm": [False], "open": [], "closed": []}
        self.assertEqual(run.serve_phases(obs, "serve_"), {
            "serve_spawn": [1, 0], "serve_warm": [1, 0], "serve_open": [0, 0]})


class Traffic(unittest.TestCase):
    def test_repeats_are_a_third_and_seeded(self):
        docs = [{"path": f"s/{i}.doc"} for i in range(2000)]
        seq = run.traffic(docs, 7, 3000)
        self.assertEqual(seq, run.traffic(docs, 7, 3000))
        self.assertNotEqual(seq, run.traffic(docs, 8, 3000))
        repeats = 1 - len(set(seq)) / len(seq)
        self.assertAlmostEqual(repeats, 1 / 3, delta=0.03)


class LaunchTiming(unittest.TestCase):
    BUSY = "import time\nend = time.process_time() + 0.2\nwhile time.process_time() < end: pass"

    def test_cpu_time_counts_reaped_children(self):
        # The batch metrics time a launch by the CPU time of the process and
        # the workers it reaped, so a grandchild's work must be counted.
        out, rc, wall, cpu, _ = run.launch(
            [sys.executable, "-c", f"import subprocess, sys; subprocess.run([sys.executable, "
             f"'-c', {self.BUSY!r}]); print('ok')"], ".")
        self.assertEqual((out, rc), (b"ok\n", 0))
        self.assertGreaterEqual(cpu, 0.2)
        self.assertGreaterEqual(wall, 0.2)

    def test_waiting_is_not_cpu_time(self):
        _, rc, wall, cpu, _ = run.launch([sys.executable, "-c", "import time; time.sleep(0.3)"], ".")
        self.assertEqual(rc, 0)
        self.assertGreaterEqual(wall, 0.3)
        self.assertLess(cpu, 0.2)


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in bench[key]}
            self.assertEqual(listed, {n: run.UNITS[n] for n in names}, key)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
