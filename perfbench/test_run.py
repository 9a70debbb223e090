"""Tests of the benchmark's own analysis: the rate ladder rule, the robust
statistics, and the Chrome trace reader (self times, stage sums).

Run through `python3 perfbench/run.py --selftest`, which first runs the
C++ self test of pm2bench (counter differencing) and writes the trace file the
trace tests read back; or alone with `python3 -m unittest` from perfbench/
(the trace round-trip test then skips if the file is missing).
"""
import json
import os
import tempfile
import unittest

import run


def rung(rate, p99, failed=0, first=1.0, last=1.0):
    return {"rate": rate, "p99_us": p99, "failed": failed,
            "inflight_first": first, "inflight_last": last}


class LadderTest(unittest.TestCase):
    def test_highest_holding_rung(self):
        ladder = [rung(1000, 100), rung(2000, 200), rung(4000, 300)]
        self.assertEqual(run.sustained_rate(ladder, limit_us=1000), 4000)

    def test_latency_limit(self):
        ladder = [rung(1000, 100), rung(2000, 5000), rung(4000, 9000)]
        self.assertEqual(run.sustained_rate(ladder, limit_us=1000), 1000)

    def test_failure_misses_the_limit(self):
        ladder = [rung(1000, 100), rung(2000, 100, failed=1)]
        self.assertEqual(run.sustained_rate(ladder, limit_us=1000), 1000)

    def test_growing_backlog(self):
        ladder = [rung(1000, 100), rung(2000, 100, first=4, last=40)]
        self.assertEqual(run.sustained_rate(ladder, limit_us=1000), 1000)

    def test_noisy_middle_rung_does_not_cap(self):
        ladder = [rung(1000, 100), rung(2000, 50000), rung(4000, 100)]
        self.assertEqual(run.sustained_rate(ladder, limit_us=1000), 4000)

    def test_nothing_holds(self):
        self.assertEqual(run.sustained_rate([rung(1000, 5000)], limit_us=1000), 0)


class StatsTest(unittest.TestCase):
    def test_iqm_drops_outer_quarters(self):
        self.assertEqual(run.iqm([100, 1, 2, 3, 4, -50]), 2.5)
        self.assertEqual(run.iqm([7]), 7)

    def test_quantile_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(run.quantile(v, 0.5), 50)
        self.assertEqual(run.quantile(v, 0.99), 99)
        self.assertEqual(run.quantile(v, 1.0), 100)

    def test_win_median_falls_back_to_whole_phase(self):
        self.assertEqual(run.win_median({"w": [3, 1, 2], "p": 9}, "w", "p"), 2)
        self.assertEqual(run.win_median({"w": [], "p": 9}, "w", "p"), 9)

    def test_spread(self):
        med, q1, q3, sp = run.spread([10, 10, 10, 10])
        self.assertEqual((med, sp), (10, 0))
        med, q1, q3, sp = run.spread([8, 9, 10, 11, 12])
        self.assertAlmostEqual(sp, (q3 - q1) / 10)


def write_trace(path, spans, counters, other):
    ev = [{"name": n, "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": 0,
           "args": {"id": i, "parent": p, "op": 1}}
          for (i, n, ts, dur, p) in spans]
    ev.append({"name": "phase", "ph": "C", "ts": 0, "pid": 1, "args": counters})
    with open(path, "w") as f:
        json.dump({"traceEvents": ev, "otherData": other}, f)


class TraceTest(unittest.TestCase):
    def test_self_time_uses_union_of_children(self):
        spans = [{"id": 1, "parent": 0, "ts": 0, "dur": 100},
                 {"id": 2, "parent": 1, "ts": 10, "dur": 20},
                 {"id": 3, "parent": 1, "ts": 20, "dur": 40},
                 {"id": 4, "parent": 1, "ts": 95, "dur": 20}]  # clipped at 100
        st = run.self_times(spans)
        self.assertAlmostEqual(st[1], 100 - 50 - 5)
        self.assertAlmostEqual(st[2], 20)

    def test_pm2bench_trace_round_trip(self):
        path = os.path.join(run.RUN_DIR, "selftest_trace.json")
        if not os.path.exists(path):
            self.skipTest("run `run.py --selftest` to write " + path)
        spans, counters, other = run.load_trace(path)
        self.assertEqual([s["name"] for s in spans], ["root", "child.a", "child.b"])
        self.assertEqual(counters, {"n0.fabric.msgs": 7})
        self.assertEqual(other["workload"], "selftest")
        st = run.self_times(spans)
        self.assertAlmostEqual(st[1], 50.0)
        self.assertEqual(run.stage_sums(spans, "root", [{"child.a"}, {"child.b"}]), ([60.0], 0))

    def test_stage_sums_flag_broken_ops(self):
        def op(i, stages):
            out = [{"id": i, "parent": 0, "name": "root", "ts": 0, "dur": 30}]
            for k, (name, dur) in enumerate(stages):
                out.append({"id": i * 10 + k, "parent": i, "name": name, "ts": 0, "dur": dur})
            return out
        stages = [{"a"}, {"b", "c"}]
        spans = (op(1, [("a", 10), ("b", 20)]) + op(2, [("a", 10), ("c", 5)])
                 + op(3, [("a", 10)])                           # stage missing
                 + op(4, [("a", -3), ("b", 20)])                # stale stamp
                 + op(5, [("a", 10), ("b", 20), ("c", 1)]))     # stage doubled
        self.assertEqual(run.stage_sums(spans, "root", stages), ([30, 15], 3))
        # No stages: the op's own span is its one stage.
        self.assertEqual(run.stage_sums(op(1, []), "root", []), ([30], 0))

    def test_per_layer_from_trace(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.json")
            write_trace(path, [
                (1, "rpc.op", 0, 100, 0), (2, "gen.late", 0, 5, 1),
                (3, "pm2.rpc.issue", 5, 10, 1), (4, "pm2.rpc.request_leg", 15, 30, 1),
                (5, "echo", 45, 5, 1), (6, "pm2.rpc.reply_leg", 50, 50, 1),
                (7, "madeleine.pack", 200, 0.25, 0),
            ], {"n0.fabric.msgs": 1, "n1.fabric.msgs": 1, "n0.fabric.bytes": 300,
                "n1.pool.hits": 3, "n1.pool.misses": 1, "n1.cpu_ns": 8000,
                "n0.cpu_ns": 99999, "g.chunk_pool.hits": 0, "g.chunk_pool.misses": 2},
                {"workload": "rpc_open", "ops": 1, "server_node": 1,
                 "untraced_p50_us": 50})
            m, _ = run.per_layer(path)
        self.assertEqual(m["fabric.msgs_per_op"], 2)
        self.assertEqual(m["fabric.wire_bytes_per_op"], 300)
        self.assertEqual(m["pm2.pool_hit_ratio"], 0.75)
        self.assertEqual(m["node.cpu_us_per_op"], 8)
        self.assertEqual(m["madeleine.chunk_pool_hit_ratio"], 0)
        self.assertEqual(m["madeleine.pack_ns"], 250)
        self.assertEqual(m["pm2.rpc.request_leg_us"], 30)
        self.assertEqual(m["trace.overhead_ratio"], 2)
        self.assertEqual(m["trace.stage_sum_ratio"], 2)
        self.assertEqual(m["trace.stage_bad_ops"], 0)


if __name__ == "__main__":
    unittest.main()
