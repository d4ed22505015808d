"""Tests of the benchmark's own logic, on synthetic inputs.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import benchlib  # noqa: E402


class Statistics(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        xs = [2.0, 9.0, 4.0, 7.0, 1.0, 8.0, 3.0, 6.0, 5.0, 10.0]
        q1, q2, q3 = benchlib.quartiles(xs)
        self.assertEqual([q1, q2, q3], statistics.quantiles(xs, n=4))
        self.assertEqual(q2, statistics.median(xs))
        self.assertAlmostEqual(benchlib.iqr(xs), q3 - q1)
        self.assertEqual(benchlib.iqr([7.0]), 0.0)

    def test_tail_keeps_ten_samples_beyond(self):
        xs = list(range(1, 31))  # 30 samples
        pct, value, beyond = benchlib.tail(xs)
        self.assertAlmostEqual(pct, 100 * 20 / 30)
        self.assertEqual(value, 20)
        self.assertEqual(sum(1 for x in xs if x > value), beyond)
        self.assertEqual(beyond, 10)

    def test_tail_with_few_samples_is_the_median(self):
        self.assertEqual(benchlib.tail([3.0, 1.0, 2.0]), (50.0, 2.0, 1))
        # 20 samples would put the ten-beyond percentile at the median.
        self.assertEqual(benchlib.tail(list(range(20))), (50.0, 9.5, 10))

    def test_tail_does_not_jump_when_the_count_crosses_twenty(self):
        xs = [float(x) for x in range(21)]
        self.assertEqual(benchlib.tail(xs[:20])[1], 9.5)
        self.assertEqual(benchlib.tail(xs)[1], 10.0)


def span(name, start, end, parent=-1):
    return {"name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "request": 0}


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([span("a", 5, 25)]), {"a": 20})

    def test_overlapping_children_are_merged(self):
        spans = [span("root", 0, 100),
                 span("w1", 10, 40, 0), span("w2", 30, 60, 0),
                 span("late", 90, 120, 0)]  # runs past its parent
        own = benchlib.self_times(spans)
        # Children cover [10, 60) and [90, 100): 60 of the root's 100.
        self.assertEqual(own["root"], 40)
        self.assertEqual(own["w1"], 30)
        self.assertEqual(own["w2"], 30)
        self.assertEqual(own["late"], 30)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [span("root", 0, 100), span("mid", 0, 50, 0),
                 span("leaf", 10, 30, 1), span("leaf", 35, 45, 1)]
        own = benchlib.self_times(spans)
        self.assertEqual(own, {"root": 50, "mid": 20, "leaf": 30})

    def test_same_name_spans_sum(self):
        spans = [span("x", 0, 10), span("x", 20, 25)]
        self.assertEqual(benchlib.self_times(spans), {"x": 15})


class Scenarios(unittest.TestCase):
    def test_same_seed_same_text(self):
        for w in benchlib.WORKLOADS:
            self.assertEqual(benchlib.scenario_text(w, 7),
                             benchlib.scenario_text(w, 7))

    def test_seed_changes_only_the_library_seed(self):
        a = benchlib.scenario_text("addr-cold", 1).splitlines()
        b = benchlib.scenario_text("addr-cold", 2).splitlines()
        diff = [(x, y) for x, y in zip(a, b) if x != y]
        self.assertEqual(len(a), len(b))
        self.assertEqual(len(diff), 1)
        self.assertTrue(diff[0][0].startswith("seed = "))

    def test_workloads_and_jobs_get_distinct_seeds(self):
        seeds = {benchlib.derive_seed(w, 1, k)
                 for w in benchlib.WORKLOADS for k in range(8)}
        self.assertEqual(len(seeds), len(benchlib.WORKLOADS) * 8)
        self.assertTrue(all(0 < s <= 2_000_000_000 for s in seeds))

    def test_text_is_key_value_lines(self):
        for w in benchlib.WORKLOADS:
            for line in benchlib.scenario_text(w, 3).splitlines():
                key, sep, value = line.partition(" = ")
                self.assertEqual(sep, " = ", line)
                self.assertTrue(key and value, line)

    def test_benchmark_json_names_the_same_workloads(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(benchlib.WORKLOADS))


class Gate(unittest.TestCase):
    KEY = {"detected": 5, "timeout": 1, "undetected": 2, "sim_errors": 0,
           "verdict_digest": "00ff"}

    def test_pinned_seed_must_match_the_pin(self):
        other = dict(self.KEY, detected=6)
        self.assertEqual(benchlib.gate([self.KEY, self.KEY], self.KEY), [])
        self.assertEqual(len(benchlib.gate([self.KEY, other], self.KEY)), 1)

    def test_unpinned_seed_runs_must_agree(self):
        other = dict(self.KEY, verdict_digest="0100")
        self.assertEqual(benchlib.gate([self.KEY, self.KEY], None), [])
        self.assertEqual(len(benchlib.gate([self.KEY, other], None)), 1)
        self.assertEqual(len(benchlib.gate([self.KEY], None)), 1)

    def test_verdict_key_drops_timings(self):
        summary = dict(self.KEY, campaign_s=1.5, coverage=0.75)
        self.assertEqual(benchlib.verdict_key(summary),
                         dict(self.KEY, coverage=0.75))
        served = {"setup_s": 0.1, "jobs": [dict(summary, latency_s=0.6)]}
        self.assertEqual(benchlib.verdict_key(served),
                         {"jobs": [dict(self.KEY, coverage=0.75)]})


class CompareRule(unittest.TestCase):
    PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def test_clear_win_is_improved(self):
        change = [x * 0.8 for x in self.PARENT]
        status, info = benchlib.compare(self.PARENT, change, "lower", 0.1)
        self.assertEqual(status, "improved")
        self.assertEqual(info["wins"], 10)
        self.assertAlmostEqual(info["ratio"], 0.8)

    def test_eight_of_ten_wins_is_not_improved(self):
        change = [x * 0.8 for x in self.PARENT]
        change[0] = change[1] = 20.0
        status, _ = benchlib.compare(self.PARENT, change, "lower", 0.1)
        self.assertEqual(status, "unchanged")

    def test_ties_count_for_neither_side(self):
        change = list(self.PARENT)
        change[0] = 0.0
        status, info = benchlib.compare(self.PARENT, change, "lower", 0.1)
        self.assertEqual((info["wins"], info["losses"]), (1, 0))
        self.assertEqual(status, "unchanged")

    def test_gap_within_parent_iqr_is_not_improved(self):
        parent = [8.0, 12.0] * 5
        change = [x - 0.1 for x in parent]
        status, _ = benchlib.compare(parent, change, "lower")
        self.assertEqual(status, "unchanged")

    def test_higher_is_better_metrics(self):
        change = [x * 1.3 for x in self.PARENT]
        status, _ = benchlib.compare(self.PARENT, change, "higher", 0.1)
        self.assertEqual(status, "improved")
        status, _ = benchlib.compare(change, self.PARENT, "higher", 0.1)
        self.assertEqual(status, "regressed")

    def test_median_worse_than_bound_is_regressed(self):
        change = [x * 1.2 if i % 2 else x * 0.95
                  for i, x in enumerate(self.PARENT)]
        status, _ = benchlib.compare(self.PARENT, change, "lower", 0.05)
        self.assertEqual(status, "regressed")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [5.0, 15.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0, 10.0]
        change = [x + (0.5 if i % 2 else -0.5) for i, x in enumerate(parent)]
        status, _ = benchlib.compare(parent, change, "lower", 0.1)
        self.assertEqual(status, "unresolved")

    def test_unequal_pairs_are_rejected(self):
        with self.assertRaises(ValueError):
            benchlib.compare([1.0, 2.0], [1.0], "lower")


if __name__ == "__main__":
    unittest.main()
