#!/usr/bin/env python3
"""Tests for the benchmark's own arithmetic and for BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import benchlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7], 99), 7)
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)

    def test_failures_sort_last(self):
        values = [1.0] * 98 + [math.inf] * 2
        self.assertEqual(benchlib.percentile(values, 98), 1.0)
        self.assertTrue(math.isinf(benchlib.percentile(values, 99)))

    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 2, 3]), 2.5)

    def test_tail_needs_ten_beyond(self):
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(999), 95.0)
        self.assertEqual(benchlib.tail_percentile(10010), 99.9)
        self.assertEqual(benchlib.tail_percentile(40), 75.0)
        self.assertIsNone(benchlib.tail_percentile(39))
        for n in (40, 200, 999, 1000, 5000, 10010):
            p = benchlib.tail_percentile(n)
            rank = math.ceil(p / 100.0 * n)
            self.assertGreaterEqual(n - rank, 10)

    def test_paired_ratio(self):
        walls = [4.8, 4.9, 4.7, 4.8]
        # One pair hit by a burst on the composed side does not move it.
        phases = [4.7, 3.5, 4.7, 4.75]
        self.assertAlmostEqual(benchlib.paired_ratio_pct(phases, walls),
                               100.0 * 0.5 * (4.7 / 4.8 + 4.75 / 4.8))
        # Work left out of every composition shows.
        short = [0.9 * w for w in walls]
        self.assertAlmostEqual(benchlib.paired_ratio_pct(short, walls), 90.0)
        with self.assertRaises(ValueError):
            benchlib.paired_ratio_pct([1.0], [1.0, 2.0])

    def test_summarize(self):
        s = benchlib.summarize(list(range(1000)))
        self.assertEqual((s["n"], s["tail_p"], s["tail"]), (1000, 99.0, 989))
        self.assertNotIn("tail", benchlib.summarize([1, 2, 3]))


def stalled_fifo(due, service, stall_start, stall_end):
    """A synthetic single-server responder: FIFO, fixed service time, and
    no progress at all during [stall_start, stall_end)."""
    done, prev = [], 0.0
    for t in due:
        start = max(t, prev)
        if stall_start <= start < stall_end:
            start = stall_end
        prev = start + service
        done.append(prev)
    return done


class CoordinatedOmissionTest(unittest.TestCase):
    RATE = 500.0        # requests/s -> 2 ms apart
    SERVICE = 0.0005    # 0.5 ms
    STALL = (0.5, 0.6)  # 100 ms without progress

    def test_open_loop_charges_the_stall_to_every_request_behind_it(self):
        due = [i / self.RATE for i in range(1000)]
        done = stalled_fifo(due, self.SERVICE, *self.STALL)
        lat = benchlib.open_loop_latencies(
            [(d, d, r, "ok") for d, r in zip(due, done)])
        stalled = [x for x in lat if x > 10.0]
        # Every request due during the stall waits for it: ~100 ms / 2 ms.
        self.assertGreaterEqual(len(stalled), 45)
        self.assertGreater(benchlib.percentile(lat, 99), 80.0)

    def test_closed_loop_timing_hides_the_stall(self):
        # A closed-loop client sends the next request only after the reply,
        # and times from its own send: only one sample sees the stall.
        sent, lat, t = [], [], 0.0
        for _ in range(1000):
            reply = stalled_fifo([t], self.SERVICE, *self.STALL)[0]
            sent.append(t)
            lat.append((reply - t) * 1e3)
            t = max(reply, t + 1 / self.RATE)
        self.assertEqual(len([x for x in lat if x > 10.0]), 1)
        self.assertLess(benchlib.percentile(lat, 99), 1.0)

    def test_failed_requests_miss_the_limit(self):
        rows = [(i * 0.001, i * 0.001, i * 0.001 + 0.0002, "ok")
                for i in range(1000)]
        rows[10:25] = [(r[0], r[1], -1.0, "shed") for r in rows[10:25]]
        lat = benchlib.open_loop_latencies(rows)
        self.assertTrue(math.isinf(benchlib.percentile(lat, 99)))
        self.assertFalse(benchlib.meets_limit(lat, 5.0))


class MaxRateTest(unittest.TestCase):
    @staticmethod
    def curve(rate, capacity=1000.0, n=2000):
        """Latencies whose P99 follows 1 / (1 - rate / capacity) ms."""
        p99 = 1.0 / (1.0 - rate / capacity)
        return [0.2] * (n - n // 50) + [p99] * (n // 50)

    def test_finds_the_knee(self):
        results = {r: self.curve(r) for r in (100, 200, 400, 750, 900)}
        # P99 <= 5 ms  <=>  rate <= 0.8 * capacity.
        self.assertEqual(benchlib.max_rate(results, 5.0), 750)

    def test_stops_at_first_miss(self):
        results = {100: [0.2] * 1000, 200: [9.0] * 1000, 400: [0.2] * 1000}
        self.assertEqual(benchlib.max_rate(results, 5.0), 100)
        self.assertIsNone(benchlib.max_rate({100: [9.0] * 100}, 5.0))

    def test_growing_backlog(self):
        steady = [0.5] * 1000
        self.assertFalse(benchlib.backlog_growing(steady, 5.0))
        queue = [0.5] * 900 + [6.0] * 100
        self.assertTrue(benchlib.backlog_growing(queue, 5.0))
        self.assertFalse(benchlib.meets_limit(queue, 5.0))


class MixTest(unittest.TestCase):
    def test_equal_cpu_shares(self):
        cost = {"lookup": 5.0, "subgraph": 150.0, "repeat": 2.5}
        shares = benchlib.equal_cpu_shares(cost)
        self.assertAlmostEqual(sum(shares.values()), 1.0)
        cpu = [shares[c] * cost[c] for c in cost]
        for x in cpu:
            self.assertAlmostEqual(x, cpu[0])
        self.assertAlmostEqual(shares["repeat"], 2 * shares["lookup"])

    def test_rejects_missing_costs(self):
        for bad in ({}, {"lookup": 0.0}, {"lookup": 5.0, "ris": -1.0}):
            with self.assertRaises(ValueError):
                benchlib.equal_cpu_shares(bad)


class SketchStatsTest(unittest.TestCase):
    @staticmethod
    def stderr(line):
        return ("served 900 requests in 880 batches (max batch 3, cache "
                "10/900 hits, shed 0)\n" + line + "\n")

    def test_parse(self):
        self.assertEqual(benchlib.sketch_stats(self.stderr(
            "sketch: 12 served, 0 fallbacks (index attached)")),
            (12, 0, "attached"))
        self.assertIsNone(benchlib.sketch_stats("no stats at all\n"))
        two = self.stderr("sketch: 1 served, 5 fallbacks (index none)") + \
            "sketch: 7 served, 0 fallbacks (index attached)\n"
        self.assertEqual(benchlib.sketch_stats(two), (7, 0, "attached"))

    def test_served_from_the_index(self):
        ok = benchlib.sketch_stats(self.stderr(
            "sketch: 12 served, 0 fallbacks (index attached)"))
        self.assertTrue(benchlib.sketch_index_served(ok, 12))
        idle = benchlib.sketch_stats(self.stderr(
            "sketch: 0 served, 0 fallbacks (index attached)"))
        self.assertTrue(benchlib.sketch_index_served(idle, 0))
        self.assertFalse(benchlib.sketch_index_served(idle, 5))
        for line in ("sketch: 12 served, 10 fallbacks (index attached)",
                     "sketch: 0 served, 120 fallbacks (index attached)",
                     "sketch: 0 served, 30 fallbacks (index none)",
                     "sketch: 4 served, 0 fallbacks (index none)"):
            stats = benchlib.sketch_stats(self.stderr(line))
            self.assertFalse(benchlib.sketch_index_served(stats, 30), line)
        self.assertFalse(benchlib.sketch_index_served(None, 0))


class NameTest(unittest.TestCase):
    def test_metric_names(self):
        for good in ("p50_ms", "serve.net_us.http", "9x", "a-b", "x" * 64):
            self.assertTrue(benchlib.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "é", None):
            self.assertFalse(benchlib.valid_metric_name(bad), bad)

    def test_units(self):
        for good in ("ms", "s", "1/s", "%", "MiB", "count"):
            self.assertTrue(benchlib.valid_unit(good), good)
        for bad in ("", "m s", "x" * 17):
            self.assertFalse(benchlib.valid_unit(bad), bad)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)
        with open(os.path.join(ROOT, "perfbench", "workloads.json")) as f:
            self.cfg = json.load(f)

    def test_schema(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds",
                                           "workloads", "end_to_end",
                                           "per_layer"})
        names = [m["name"] for m in self.bench["end_to_end"] +
                 self.bench["per_layer"]] + \
            [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(benchlib.valid_metric_name(name), name)
        for m in self.bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertTrue(benchlib.valid_unit(m["unit"]))
        for m in self.bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertTrue(benchlib.valid_unit(m["unit"]))
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(max(m["bound"] for m in self.bench["end_to_end"]),
                         setup[0]["bound"])
        for w in self.bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_config_matches(self):
        for w in self.bench["workloads"]:
            self.assertIn(w["name"], self.cfg["workloads"])
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.bench["per_layer"]},
                         {k: v["unit"]
                          for k, v in self.cfg["per_layer"].items()})
        classes = {"lookup", "subgraph", "topk_model", "sketch", "celf",
                   "ris", "spread", "repeat"}  # inputs.cpp kClasses
        for mix in self.cfg["mixes"].values():
            self.assertLess(mix["lo_qps"], mix["hi_qps"])
            self.assertLessEqual(set(mix["cost_us"]), classes)
            benchlib.equal_cpu_shares(mix["cost_us"])


if __name__ == "__main__":
    unittest.main()
