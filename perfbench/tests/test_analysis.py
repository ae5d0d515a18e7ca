"""Unit tests for the benchmark's own logic (perfbench/analysis.py).

    python3 -m unittest discover -s perfbench/tests

The node-output, /proc and history fixtures under perfbench/testdata are
recorded from a real 4-replica probft_node --smr run.
"""

import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import analysis  # noqa: E402

DATA = os.path.join(os.path.dirname(HERE), "testdata")


def fixture(name):
    with open(os.path.join(DATA, name)) as f:
        return f.read()


def op(kind="W", key=1, due=0, sent=0, done=0, status=0, slot=0, value="v",
       phase="M", client=1, seq=1, resends=0):
    return analysis.Op([phase, kind, str(key), str(client), str(seq),
                        str(due), str(sent), str(done), str(status),
                        str(resends), str(slot), value])


class PercentileRule(unittest.TestCase):
    def test_p99_kept_with_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1000 samples: 10 beyond p99
        value, used, n = analysis.tail_percentile(values)
        self.assertEqual((value, used, n), (990, 0.99, 1000))

    def test_lowered_when_too_few_samples_beyond(self):
        values = list(range(1, 501))  # p99 would have 5 beyond
        value, used, n = analysis.tail_percentile(values)
        self.assertAlmostEqual(used, 0.98)
        self.assertEqual(n, 500)
        self.assertEqual(value, 490)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_small_samples_fall_back_to_median(self):
        value, used, n = analysis.tail_percentile([5, 1, 3])
        self.assertEqual((value, used, n), (3, 0.5, 3))
        self.assertEqual(analysis.tail_percentile([]), (None, None, 0))

    def test_nearest_rank(self):
        self.assertEqual(analysis.percentile([4, 1, 3, 2], 0.5), 2)
        self.assertEqual(analysis.percentile([4, 1, 3, 2], 1.0), 4)


class FailedOpsSortLast(unittest.TestCase):
    def test_unanswered_op_is_failed(self):
        self.assertTrue(math.isinf(op(done=0).latency_ms()))
        self.assertTrue(math.isinf(op(done=5000, status=1).latency_ms()))

    def test_failures_push_the_tail_beyond_every_limit(self):
        lat = [1.0] * 980 + [analysis.FAILED] * 20
        summary = analysis.latency_summary([lat])
        self.assertEqual(summary["p50"], 1.0)
        self.assertTrue(math.isinf(summary["p99"]))
        self.assertEqual(analysis.finite_ms(summary["p99"]),
                         analysis.FAILED_MS)

    def test_max_rate_rejects_a_step_with_a_failed_write(self):
        step = 1_000_000
        ok = [op(due=i, sent=i, done=i + 1000) for i in range(0, step, 500)]
        bad = [op(due=step + i, sent=step + i, done=step + i + 1000)
               for i in range(0, step, 100)]
        bad[7] = op(due=bad[7].due, sent=bad[7].sent, done=0)
        windows = analysis.step_windows(0, [(2000, 1.0), (10000, 1.0)])
        steps = analysis.step_latencies(ok + bad, windows)
        self.assertEqual([len(s) for s in steps], [2000, 10000])
        self.assertEqual(analysis.max_rate([2000, 10000], [steps]), 2000)
        self.assertEqual(analysis.max_rate([2000, 10000], [steps, steps]),
                         2000)

    def test_max_rate_rejects_a_growing_backlog(self):
        ops = [op(due=i * 1000, sent=i * 1000, done=i * 1000 + i * 20)
               for i in range(1000)]  # latency climbs 0 → 20 ms
        windows = analysis.step_windows(0, [(1000, 1.0)])
        steps = analysis.step_latencies(ops, windows)
        self.assertTrue(analysis.backlog_grows(steps[0]))
        self.assertEqual(analysis.max_rate([1000], [steps]), 0)
        flat = [[[1.0] * 1000]]
        self.assertEqual(analysis.max_rate([1000], flat), 1000)
        # One cluster's growing backlog fails the step for the pool.
        self.assertEqual(analysis.max_rate([1000], flat + [steps]), 0)


class ClusterSummary(unittest.TestCase):
    def test_pooled_median_and_median_of_cluster_tails(self):
        calm = [float(x) for x in range(1, 1001)]
        stalled = calm[:-20] + [5000.0] * 20  # one cluster had a stall
        summary = analysis.latency_summary([calm, stalled, calm])
        self.assertEqual(summary["n"], 3000)
        self.assertEqual(summary["p50"], 500.0)
        self.assertEqual(summary["p99"], 990.0)  # the stall is outvoted
        self.assertEqual(summary["p99_used"], 0.99)

    def test_small_cluster_lowers_the_reported_percentile(self):
        summary = analysis.latency_summary([[1.0] * 1000, [2.0] * 500])
        self.assertAlmostEqual(summary["p99_used"], 0.98)
        self.assertEqual(summary["p99"], 1.5)

    def test_empty(self):
        summary = analysis.latency_summary([[], []])
        self.assertEqual((summary["p50"], summary["p99"], summary["n"]),
                         (None, None, 0))


class DueTimeAccounting(unittest.TestCase):
    def test_latency_runs_from_due_not_from_send(self):
        o = op(due=1_000, sent=3_000, done=11_000)
        self.assertEqual(o.latency_ms(), 10.0)
        self.assertEqual(o.late_ms(), 2.0)

    def test_unsent_op_is_not_late(self):
        self.assertEqual(op(due=5, sent=0).late_ms(), 0.0)

    def test_history_roundtrip_from_recorded_run(self):
        meta, ops = analysis.parse_history(fixture("history-head.csv"))
        self.assertEqual(meta["seed"], 1)
        self.assertEqual(meta["servers"], 4)
        self.assertEqual(ops[0].phase, "S")
        first = ops[1]
        self.assertEqual((first.kind, first.key, first.value),
                         ("W", 990, "w1s1"))
        self.assertEqual(first.due, meta["t0_us"])
        self.assertAlmostEqual(first.latency_ms(),
                               (first.done - first.due) / 1000.0)
        self.assertGreaterEqual(first.late_ms(), 0.0)


class Parsers(unittest.TestCase):
    def test_smrlog_and_stats_from_recorded_node(self):
        out = analysis.parse_node_output(fixture("node-1.out"))
        self.assertEqual(out["smrlog"]["id"], 1)
        self.assertEqual(out["smrlog"]["slots"], 133)
        self.assertEqual(out["smrlog"]["cmds"], 1501)
        self.assertEqual(len(out["smrlog"]["digest"]), 64)
        self.assertEqual(out["tags"][0x20], (1463, 724646))
        self.assertEqual(out["tags"][0x31], (1501, 61747))
        self.assertEqual(out["total"]["sends"], 3149)
        self.assertEqual(sum(b for _, b in out["tags"].values()),
                         out["total"]["bytes"])

    def test_agreeing_logs_pass_the_gate(self):
        nodes = [analysis.parse_node_output(fixture(f"node-{i}.out"))
                 for i in (1, 2)]
        self.assertEqual(analysis.check_logs(nodes), [])

    def test_missing_smrlog(self):
        out = analysis.parse_node_output("STATS tag=0x20 sends=1 bytes=2\n")
        self.assertIsNone(out["smrlog"])
        self.assertEqual(analysis.check_logs([out]),
                         ["no replica printed an SMRLOG line"])

    def test_proc_stat_and_status(self):
        cpu = analysis.parse_proc_stat(fixture("proc-stat.txt"), 100)
        self.assertEqual(cpu, (226 + 6) * 10.0)
        self.assertAlmostEqual(
            analysis.parse_proc_status_hwm_mb(fixture("proc-status.txt")),
            4668 / 1024)

    def test_proc_stat_name_with_spaces(self):
        text = "7 (a b) S " + " ".join(["0"] * 10) + " 30 20 0 0"
        self.assertEqual(analysis.parse_proc_stat(text, 100), 500.0)


class Gate(unittest.TestCase):
    def node(self, id_, slots, cmds, digest):
        return {"smrlog": {"id": id_, "slots": slots, "base": 0,
                           "cmds": cmds, "digest": digest},
                "tags": {}, "total": None}

    def test_digest_disagreement(self):
        nodes = [self.node(1, 5, 3, "aa"), self.node(2, 5, 3, "bb")]
        self.assertEqual(len(analysis.check_logs(nodes)), 1)

    def test_crashed_replica_is_caught(self):
        ok = self.node(1, 5, 3, "aa")
        silent = {"smrlog": None, "tags": {}, "total": None}
        # Replica 2 printed nothing and replica 3 died with a signal; the
        # other logs still agree, so only check_replicas can notice.
        nodes = [ok, silent, dict(ok, exit=-11), dict(ok, exit=0)]
        self.assertEqual(analysis.check_logs(nodes), [])
        self.assertEqual(analysis.check_replicas(nodes), [
            "replica 2 printed no SMRLOG line",
            "replica 3 exited with code -11"])

    def test_only_the_killed_replica_may_be_missing(self):
        killed = {"smrlog": None, "tags": {}, "total": None, "exit": -9}
        rest = [dict(self.node(i, 5, 3, "aa"), exit=0) for i in (2, 3, 4)]
        self.assertEqual(analysis.check_replicas([killed] + rest, {1}), [])
        self.assertEqual(len(analysis.check_replicas([killed] + rest)), 2)
        self.assertEqual(
            analysis.check_replicas(rest[:1] + [killed] + rest[1:], {1}),
            ["replica 2 printed no SMRLOG line",
             "replica 2 exited with code -9"])

    def test_double_execution_is_caught(self):
        writes = [op(done=10, seq=i) for i in range(3)]
        self.assertEqual(analysis.check_exactly_once(
            [self.node(1, 1, 3, "aa")], writes), [])
        self.assertEqual(len(analysis.check_exactly_once(
            [self.node(1, 1, 4, "aa")], writes)), 1)

    def test_unanswered_write_may_or_may_not_have_executed(self):
        writes = [op(done=10), op(done=0)]
        for cmds, problems in ((1, 0), (2, 0), (3, 1), (0, 1)):
            self.assertEqual(len(analysis.check_exactly_once(
                [self.node(1, 1, cmds, "aa")], writes)), problems)

    def test_reads(self):
        w1 = op(key=1, sent=100, done=200, slot=1, value="a", seq=1)
        w2 = op(key=1, sent=300, done=400, slot=2, value="b", seq=2)
        fresh = op(kind="R", key=1, sent=500, done=600, slot=2, value="b")
        stale = op(kind="R", key=1, sent=500, done=600, slot=1, value="a")
        racing = op(kind="R", key=1, sent=250, done=350, slot=1, value="a")
        concurrent = op(kind="R", key=1, sent=250, done=350, slot=2,
                        value="b")
        future = op(kind="R", key=1, sent=250, done=290, slot=2, value="b")
        unwritten = op(kind="R", key=1, sent=500, done=600, value="")
        wrong_slot = op(kind="R", key=1, sent=500, done=600, slot=1,
                        value="b")
        bad = analysis.stale_reads([w1, w2, fresh, stale, racing, concurrent,
                                    future, unwritten, wrong_slot])
        self.assertEqual(bad, [stale, future, unwritten, wrong_slot])


if __name__ == "__main__":
    unittest.main()
