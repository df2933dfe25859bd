"""Unit tests of the benchmark's own helpers.

    python3 perfbench/test_perfstats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfstats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        samples = list(range(1, 1201))
        value, percentile, n = perfstats.tail(reversed(samples))
        self.assertEqual(value, 1190)
        self.assertEqual(n, 1200)
        self.assertAlmostEqual(percentile, 99.1666, places=3)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_smallest_sample_set(self):
        value, percentile, n = perfstats.tail([5.0] + [9.0] * 10)
        self.assertEqual((value, n), (5.0, 11))
        self.assertAlmostEqual(percentile, 100.0 / 11)

    def test_rejects_too_few_samples(self):
        with self.assertRaises(ValueError):
            perfstats.tail(range(10))


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_children_once_and_clips(self):
        spans = [
            {"start": 0.0, "end": 10.0, "parent": -1},
            {"start": 1.0, "end": 3.0, "parent": 0},
            {"start": 2.0, "end": 5.0, "parent": 0},  # overlaps the first
            {"start": 8.0, "end": 12.0, "parent": 0},  # runs past its parent
            {"start": 2.5, "end": 3.5, "parent": 2},  # grandchild
        ]
        own = perfstats.self_times(spans)
        # Children cover [1, 5] and [8, 10] of the parent: 6 of 10.
        self.assertAlmostEqual(own[0], 4.0)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[3], 4.0)
        self.assertAlmostEqual(own[4], 1.0)

    def test_layer_totals_from_trace_events(self):
        def event(cat, ts, dur, parent):
            return {"cat": cat, "ts": ts, "dur": dur,
                    "args": {"parent": parent}}
        events = [event("bench", 0, 10000, -1), event("core", 1000, 4000, 0),
                  event("core", 6000, 2000, 0)]
        totals = perfstats.layer_self_ms(events)
        self.assertAlmostEqual(totals["bench"], 4.0)
        self.assertAlmostEqual(totals["core"], 6.0)


class DeterminismTest(unittest.TestCase):
    REP = {"hash": "00ff", "energy_j": 1.5, "participations": 10, "missed": 1}

    def test_identical_repetitions_pass(self):
        self.assertEqual(perfstats.mismatches([self.REP, dict(self.REP)]), [])

    def test_hash_mismatch_is_rejected(self):
        other = dict(self.REP, hash="00fe")
        self.assertEqual(perfstats.mismatches([self.REP, other]), ["hash"])

    def test_record_of_an_earlier_run(self):
        self.assertEqual(perfstats.record_mismatches({}, self.REP), [])
        self.assertEqual(
            perfstats.record_mismatches(self.REP, dict(self.REP)), [])
        self.assertEqual(
            perfstats.record_mismatches(self.REP, dict(self.REP, hash="1")),
            ["hash"])


class EndToEndTest(unittest.TestCase):
    def test_medians_over_untraced_repetitions(self):
        def rep(cpu, traced=False):
            return {"traced": traced, "setup_s": [0.2, 0.4], "cpu_s": cpu,
                    "wall_s": cpu / 2, "participations": 100, "missed": 5,
                    "energy_j": 250.0,
                    "round_cpu_ms": [[float(i) for i in range(1, 21)],
                                     [float(i) for i in range(1, 12)]]}
        raw = {"setup_only_s": [0.1, 0.3, 0.5], "peak_rss_mb": 12.0,
               "reps": [rep(3.0), rep(1.0), rep(2.0), rep(50.0, True)]}
        values, info = perfstats.end_to_end(raw)
        self.assertEqual(values["cpu_s"], 2.0)
        self.assertEqual(values["setup_s"], 0.3)
        # Per instance: p50 10.5 and 6, tails 10 (p50) and 1 (p9.1).
        self.assertEqual(values["round_cpu_ms_p50"], 8.25)
        self.assertEqual(values["round_cpu_ms_tail"], 5.5)
        self.assertEqual(info["round_samples"], [11, 20])
        self.assertEqual(values["energy_j_per_participation"], 2.5)
        self.assertEqual(values["on_time_rate"], 0.95)
        self.assertEqual(info["repetitions"], 3)
        self.assertEqual(info["setup_samples"], 9)


if __name__ == "__main__":
    unittest.main()
