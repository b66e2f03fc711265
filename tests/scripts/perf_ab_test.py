#!/usr/bin/env python3
"""Pins scripts/perf_ab.py's verdict rule on synthetic run lists; starts
no benchmark run."""
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "scripts"))
import perf_ab  # noqa: E402

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
METRIC = {"name": "samples_per_s", "unit": "1/s", "better": "higher",
          "bound": 0.25}


def run(value, steal=0, rc=0, correct=True, failed=0):
    return {"seed": 0, "rc": rc, "correct": correct, "attempted": 100,
            "failed": failed, "metrics": {"samples_per_s": value},
            "steal": steal, "idle": 0, "jiffies": 1000,
            "user_s": 0.0, "sys_s": 0.0}


def pairs(parent, change, **change_run):
    return [{"seed": i + 1, "parent": run(p), "change": run(c, **change_run)}
            for i, (p, c) in enumerate(zip(parent, change))]


class VerdictTest(unittest.TestCase):
    def test_nine_of_ten_wins_past_the_parent_iqr_is_a_gain(self):
        change = [v + 5 for v in PARENT[:9]] + [PARENT[9] - 1]
        self.assertEqual(perf_ab.verdict(PARENT, change, "higher", 0.25),
                         "gain")

    def test_eight_of_ten_wins_is_not_a_gain(self):
        change = [v + 5 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]]
        self.assertEqual(perf_ab.verdict(PARENT, change, "higher", 0.25),
                         "no change")

    def test_a_gap_inside_the_parent_iqr_is_not_a_gain(self):
        change = [v + 0.01 for v in PARENT]
        self.assertEqual(perf_ab.verdict(PARENT, change, "higher", 0.25),
                         "no change")

    def test_ties_count_for_neither_side(self):
        nine_and_a_tie = [v + 5 for v in PARENT[:9]] + [PARENT[9]]
        self.assertEqual(perf_ab.verdict(PARENT, nine_and_a_tie, "higher",
                                         0.25), "gain")
        eight_and_two_ties = [v + 5 for v in PARENT[:8]] + PARENT[8:]
        self.assertEqual(perf_ab.verdict(PARENT, eight_and_two_ties,
                                         "higher", 0.25), "no change")
        row = perf_ab.summarize(pairs(PARENT, eight_and_two_ties),
                                [METRIC])["rows"][0]
        self.assertEqual((row["won"], row["pairs"]), (8, 10))

    def test_worse_than_the_bound_reads_worse(self):
        self.assertEqual(perf_ab.verdict(PARENT, [v * 0.7 for v in PARENT],
                                         "higher", 0.25), "worse")
        self.assertEqual(perf_ab.verdict(PARENT, [v * 0.8 for v in PARENT],
                                         "higher", 0.25), "no change")
        self.assertEqual(perf_ab.verdict(PARENT, [v * 1.3 for v in PARENT],
                                         "lower", 0.25), "worse")

    def test_an_iqr_wider_than_the_bound_is_unresolved(self):
        wide = [50.0, 150.0] * 5
        self.assertEqual(perf_ab.verdict(PARENT, wide, "higher", 0.25),
                         "unresolved")
        self.assertEqual(perf_ab.verdict(wide, PARENT, "higher", 0.25),
                         "unresolved")

    def test_every_change_run_beating_every_parent_run_resolves(self):
        parent = [50.0, 150.0] * 5
        change = [151.0 + i for i in range(10)]
        # 10/10 wins, but the gap is inside the parent's IQR: no gain. The
        # spread is four times the bound, yet every change run beats every
        # parent run, so it is no change rather than unresolved.
        self.assertEqual(perf_ab.verdict(parent, change, "higher", 0.25),
                         "no change")

    def test_fewer_than_ten_clean_pairs_is_unresolved(self):
        self.assertEqual(perf_ab.verdict(PARENT[:9], PARENT[:9], "higher",
                                         0.25), "unresolved")
        self.assertEqual(perf_ab.verdict([], [], "higher", 0.25),
                         "unresolved")


class SummarizeTest(unittest.TestCase):
    def verdict_of(self, ps):
        return perf_ab.summarize(ps, [METRIC])["rows"][0]["verdict"]

    def test_a_failed_or_incorrect_run_fails_the_workload(self):
        self.assertEqual(self.verdict_of(pairs(PARENT, PARENT)), "no change")
        self.assertEqual(self.verdict_of(pairs(PARENT, PARENT, rc=1)),
                         "failed")
        self.assertEqual(self.verdict_of(pairs(PARENT, PARENT,
                                               correct=False)), "failed")

    def test_a_higher_failed_share_fails_the_workload(self):
        ps = pairs(PARENT, PARENT)
        ps[3]["change"]["failed"] = 1
        self.assertEqual(self.verdict_of(ps), "failed")
        ps[4]["parent"]["failed"] = 1
        self.assertEqual(self.verdict_of(ps), "no change")

    def test_high_steal_pairs_stay_out_of_the_medians(self):
        ps = pairs(PARENT, PARENT)
        noisy = {"seed": 11, "parent": run(100.0), "change": run(1.0)}
        noisy["change"]["steal"] = 100  # 10% of the window's jiffies
        ps.insert(4, noisy)
        report = perf_ab.summarize(ps, [METRIC])
        self.assertEqual(report["noisy_seeds"], [11])
        self.assertEqual(len(report["clean_seeds"]), 10)
        row = report["rows"][0]
        self.assertEqual(row["change"]["median"], row["parent"]["median"])
        self.assertEqual(row["verdict"], "no change")


if __name__ == "__main__":
    unittest.main()
