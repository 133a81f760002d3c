"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import statistics
import unittest

import benchlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Statistics(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(benchlib.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(benchlib.quartiles(values)[1], 4.0)

    def test_quartiles_of_one_and_none(self):
        self.assertEqual(benchlib.quartiles([2.5]), (2.5, 2.5, 2.5))
        with self.assertRaises(ValueError):
            benchlib.quartiles([])

    def test_median_and_even_count_quartiles(self):
        self.assertEqual(benchlib.median([3, 1, 2, 10]), 2.5)
        self.assertEqual(benchlib.quartiles([4, 1, 3, 2]), (1.25, 2.5, 3.75))

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(benchlib.percentile([4.0], 99), 4.0)


class Goldens(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.goldens = benchlib.load_goldens(os.path.join(ROOT, "tests", "golden"))

    def summary(self, sched, n):
        """A summary that matches its golden pins exactly."""
        golden = self.goldens[(sched, n)]
        if sched == "fsync":
            return dict(golden, undecided=0, adversary=None, digest=None, mean_rounds=9.1234)
        counts = {k: golden[k] for k in ("proof", "refuted", "undecided")}
        return {"total": golden["total"], "undecided": 0, "adversary": counts, "digest": golden["digest"]}

    def test_pins_are_the_expected_ones(self):
        self.assertEqual(self.goldens[("crash-f1", 7)]["digest"], "6696e3381f7fbd4f")
        self.assertEqual(self.goldens[("lcm-async", 7)]["digest"], "bbf7a6b89fc5c8f0")
        self.assertEqual(self.goldens[("adversary", 7)]["digest"], "d622cfe7b20dd7bb")
        self.assertEqual(self.goldens[("crash-f1", 8)]["digest"], "b53d9682ec227d68")
        self.assertEqual(self.goldens[("lcm-async", 8)]["digest"], "70c5901259f6d660")
        fsync = self.goldens[("fsync", 7)]
        self.assertEqual((fsync["gathered"], fsync["max_rounds"], fsync["mean_rounds"]), (3652, 24, 9.12))

    def test_matching_summaries_pass(self):
        for key in [("fsync", 7), ("crash-f1", 7), ("lcm-async", 7), ("adversary", 7),
                    ("crash-f1", 8), ("lcm-async", 8)]:
            self.assertEqual(benchlib.check_summary(self.summary(*key), self.goldens[key]), [], key)

    def test_flipped_digest_is_rejected(self):
        summary = self.summary("crash-f1", 8)
        summary["digest"] = "b53d9682ec227d69"
        problems = benchlib.check_summary(summary, self.goldens[("crash-f1", 8)])
        self.assertEqual(len(problems), 1)
        self.assertIn("digest", problems[0])

    def test_wrong_tally_is_rejected(self):
        summary = self.summary("lcm-async", 7)
        summary["adversary"] = dict(summary["adversary"], proof=542, refuted=3110)
        problems = benchlib.check_summary(summary, self.goldens[("lcm-async", 7)])
        self.assertEqual(len(problems), 2)

    def test_fsync_mean_and_max_rounds_are_checked(self):
        summary = self.summary("fsync", 7)
        summary["mean_rounds"] = 9.13
        summary["max_rounds"] = 25
        self.assertEqual(len(benchlib.check_summary(summary, self.goldens[("fsync", 7)])), 2)

    def test_undecided_classes_fail_the_cell(self):
        summary = self.summary("fsync", 7)
        summary["undecided"] = 3
        self.assertEqual(benchlib.check_summary(summary, self.goldens[("fsync", 7)]),
                         ["3 classes undecided"])


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


class Spans(unittest.TestCase):
    # root 0..10 ─┬─ a.x 1..6 ─┬─ b.y 2..3
    #             │            └─ b.z 2.5..4   (overlaps b.y)
    #             └─ a.w 5..9                  (overlaps a.x)
    SPANS = [
        span("cell.root", 0.0, 10.0, None),
        span("a.x", 1.0, 6.0, 0),
        span("b.y", 2.0, 3.0, 1),
        span("b.z", 2.5, 4.0, 1),
        span("a.w", 5.0, 9.0, 0),
    ]

    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(benchlib.covered([(2, 3), (2.5, 4), (8, 12)], 0, 10), 4.0)
        self.assertEqual(benchlib.covered([], 0, 10), 0.0)
        self.assertEqual(benchlib.covered([(11, 12)], 0, 10), 0.0)

    def test_self_time_subtracts_covered_children(self):
        selfs = benchlib.self_times(self.SPANS)
        # root: 10 - |[1, 9]| = 2; a.x: 5 - |[2, 4]| = 3; leaves keep their length.
        self.assertEqual(selfs, [2.0, 3.0, 1.0, 1.5, 4.0])

    def test_layer_self_times_and_coverage(self):
        layers = benchlib.layer_self_times(self.SPANS)
        self.assertEqual(layers, {"cell": 2.0, "a": 7.0, "b": 2.5})
        self.assertAlmostEqual(benchlib.coverage(self.SPANS), 0.8)

    def test_coverage_of_named_roots_only(self):
        # A second, empty root halves the coverage of all roots together.
        spans = self.SPANS + [span("cell.other", 20.0, 30.0, None)]
        self.assertAlmostEqual(benchlib.coverage(spans), 0.4)
        self.assertAlmostEqual(benchlib.coverage(spans, "cell.root"), 0.8)
        self.assertEqual(benchlib.coverage(spans, "cell.missing"), 0.0)

    def test_total_of_filters_by_parent_name(self):
        spans = self.SPANS + [span("b.y", 6.0, 7.0, 4)]
        self.assertEqual(benchlib.total_of(spans, "b.y"), 2.0)
        self.assertEqual(benchlib.total_of(spans, "b.y", "a.w"), 1.0)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_agrees_with_the_catalogue(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(ROOT, "perfbench", "metrics.json")) as f:
            catalogue = json.load(f)
        for section in ("end_to_end", "per_layer"):
            want = [(m["name"], m["unit"], m["better"]) for m in catalogue[section]]
            got = [(m["name"], m["unit"], m["better"]) for m in bench[section]]
            self.assertEqual(got, want, section)
        self.assertLessEqual({w["name"] for w in bench["workloads"]}, set(catalogue["workloads"]))


if __name__ == "__main__":
    unittest.main()
