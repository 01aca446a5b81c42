"""Tests of the benchmark's own maths: the tail percentile, self time by
subtracting child spans, failed_frac and the blocking-path check.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
import summarize  # noqa: E402


class TailTest(unittest.TestCase):
    def test_exactly_ten_results_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct = stats.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 12.0]
        value, pct = stats.tail(values)
        self.assertEqual(value, 2.0)
        self.assertAlmostEqual(pct, 100.0 * 2 / 12)

    def test_percentile_rises_with_the_sample_count(self):
        _, small = stats.tail(list(range(50)))
        _, large = stats.tail(list(range(1000)))
        self.assertAlmostEqual(small, 80.0)
        self.assertAlmostEqual(large, 99.0)

    def test_needs_more_than_ten_results(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(10)))
        value, _ = stats.tail(list(range(11)))
        self.assertEqual(value, 0)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times({1: (-1, 10, 30)}), {1: 20})

    def test_children_are_subtracted(self):
        spans = {0: (-1, 0, 100), 1: (0, 10, 30), 2: (0, 50, 60)}
        self.assertEqual(stats.self_times(spans), {0: 70, 1: 20, 2: 10})

    def test_overlapping_children_count_once(self):
        # Two pool workers run side by side under one parallel_for span.
        spans = {0: (-1, 0, 100), 1: (0, 10, 60), 2: (0, 40, 90)}
        self.assertEqual(stats.self_times(spans)[0], 20)

    def test_children_are_clipped_to_the_parent(self):
        spans = {0: (-1, 10, 20), 1: (0, 0, 15), 2: (0, 18, 40)}
        self.assertEqual(stats.self_times(spans)[0], 3)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = {0: (-1, 0, 100), 1: (0, 0, 50), 2: (1, 0, 40)}
        self.assertEqual(stats.self_times(spans), {0: 50, 1: 10, 2: 40})

    def test_per_result_sums_and_blocking_path(self):
        # Result root on thread 0 with a driver child, and a worker span
        # (thread 1) under that child.
        spans = {
            0: dict(parent=-1, result=0, thread=0, name="result", start=0, end=100),
            1: dict(parent=0, result=0, thread=0, name="exec.parallel_for", start=10, end=90),
            2: dict(parent=1, result=0, thread=1, name="exec.task", start=20, end=80),
            3: dict(parent=0, result=0, thread=0, name="trace.bin_counts", start=0, end=10),
            # An unclosed root (the result in flight at the deadline).
            4: dict(parent=-1, result=1, thread=0, name="result", start=0, end=0),
        }
        roots, by_name, blocking, _ = summarize.per_result(spans)
        self.assertEqual(roots, {0: 0})
        self.assertEqual(by_name[0]["exec.parallel_for"], 20)
        self.assertEqual(by_name[0]["exec.task"], 60)
        self.assertEqual(blocking[0], 90)


class FailedFracTest(unittest.TestCase):
    def test_fraction_of_attempted(self):
        self.assertEqual(stats.failed_frac(200, 0), 0.0)
        self.assertEqual(stats.failed_frac(200, 5), 0.025)
        self.assertEqual(stats.failed_frac(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (10, 11), (10, -1)):
            with self.assertRaises(ValueError):
                stats.failed_frac(attempted, failed)


class AddsUpTest(unittest.TestCase):
    def test_within_overhead_plus_glue(self):
        # 5 ms overhead + 5% of 100 ms: a gap of up to 10 ms passes.
        self.assertTrue(stats.adds_up(110.0, 100.0, 5.0))
        self.assertTrue(stats.adds_up(90.0, 100.0, -5.0))

    def test_spans_missing_part_of_a_result_fail(self):
        self.assertFalse(stats.adds_up(50.0, 100.0, 5.0))
        self.assertFalse(stats.adds_up(111.0, 100.0, 5.0))


class SpreadTest(unittest.TestCase):
    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        q1, q2, q3, spread = stats.quartile_spread(values)
        self.assertLess(q1, q2)
        self.assertLess(q2, q3)
        self.assertAlmostEqual(spread, (q3 - q1) / q2)


if __name__ == "__main__":
    unittest.main()
