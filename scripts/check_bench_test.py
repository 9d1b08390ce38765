#!/usr/bin/env python3
"""Unit tests for check_bench.py — run by CI's lint job."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench


def report(experiment, comparisons, rows=None):
    return {"experiment": experiment, "comparisons": comparisons, "rows": rows or []}


def comparison(workload="w", virtual_match=True, **kw):
    c = {"workload": workload, "baseline": "b", "mode": "m", "speedup": 1.0,
         "virtual_match": virtual_match}
    c.update(kw)
    return c


class Pipeline(unittest.TestCase):
    def test_clean_report_passes(self):
        rep = report("pipeline", [comparison()])
        self.assertEqual(check_bench.check_report("r", rep), [])

    def test_diverged_makespan_flagged(self):
        rep = report("pipeline", [comparison(virtual_match=False)])
        bad = check_bench.check_report("r", rep)
        self.assertEqual(len(bad), 1)
        self.assertIn("makespan diverged", bad[0][2])


class Chaos(unittest.TestCase):
    @staticmethod
    def rows(recoveries=5, replayed=40):
        return [
            {"workload": "p2p", "mode": "no-failure"},
            {"workload": "p2p", "mode": "chaos", "recoveries": recoveries,
             "replayed_commands": replayed},
        ]

    def test_clean(self):
        rep = report("chaos", [comparison("p2p", speedup=0.8)], self.rows())
        self.assertEqual(check_bench.check_report("r", rep), [])

    def test_diverged_results_flagged(self):
        rep = report("chaos", [comparison("p2p", virtual_match=False)], self.rows())
        problems = [b[2] for b in check_bench.check_report("r", rep)]
        self.assertIn("chaos results diverged from no-failure leg", problems)

    def test_unbounded_overhead_flagged(self):
        rep = report("chaos", [comparison("p2p", speedup=0.1)], self.rows())
        problems = [b[2] for b in check_bench.check_report("r", rep)]
        self.assertTrue(any("recovery overhead unbounded" in p for p in problems))

    def test_no_recoveries_flagged(self):
        rep = report("chaos", [comparison("p2p")], self.rows(recoveries=0))
        problems = [b[2] for b in check_bench.check_report("r", rep)]
        self.assertIn("chaos leg recorded no recoveries", problems)

    def test_recovery_without_replay_flagged(self):
        rep = report("chaos", [comparison("p2p")], self.rows(replayed=0))
        problems = [b[2] for b in check_bench.check_report("r", rep)]
        self.assertIn("chaos leg recovered without replaying any commands", problems)

    def test_missing_chaos_rows_flagged(self):
        rep = report("chaos", [comparison("p2p")], [{"workload": "p2p", "mode": "no-failure"}])
        problems = [b[2] for b in check_bench.check_report("r", rep)]
        self.assertIn("no chaos rows in report", problems)


class Serve(unittest.TestCase):
    @staticmethod
    def comparisons(fair=2.0, fifo=50.0, rerun_match=True):
        return [
            comparison("light-0", baseline="solo", mode="fair", speedup=fair),
            comparison("light-0", baseline="solo", mode="fifo", speedup=fifo),
            comparison("Serve", baseline="fair", mode="fair-rerun",
                       virtual_match=rerun_match),
        ]

    def test_clean(self):
        rep = report("serve", self.comparisons())
        self.assertEqual(check_bench.check_report("r", rep), [])

    def test_unbounded_fair_p99_flagged(self):
        rep = report("serve", self.comparisons(fair=3.5))
        problems = [b[2] for b in check_bench.check_report("r", rep)]
        self.assertTrue(any("exceeds" in p for p in problems))

    def test_uncontended_fifo_flagged(self):
        rep = report("serve", self.comparisons(fifo=1.2))
        problems = [b[2] for b in check_bench.check_report("r", rep)]
        self.assertTrue(any("no contention" in p for p in problems))

    def test_nondeterministic_rerun_flagged(self):
        rep = report("serve", self.comparisons(rerun_match=False))
        problems = [b[2] for b in check_bench.check_report("r", rep)]
        self.assertIn("fair rerun latencies diverged", problems)

    def test_missing_comparisons_flagged(self):
        rep = report("serve", [comparison("light-0", baseline="solo", mode="fair")])
        problems = [b[2] for b in check_bench.check_report("r", rep)]
        self.assertIn("missing fair/fifo-vs-solo comparisons", problems)
        self.assertIn("missing fair-rerun determinism comparison", problems)


class ServeTrace(unittest.TestCase):
    def test_only_rerun_gated(self):
        # The trace-sized run is too small for the p99 bounds; a wild fair
        # ratio must pass as long as the rerun reproduced.
        rep = report("serve-trace", [
            comparison("light-0", baseline="solo", mode="fair", speedup=9.0),
            comparison("Serve", baseline="fair", mode="fair-rerun"),
        ])
        self.assertEqual(check_bench.check_report("r", rep), [])

    def test_nondeterministic_rerun_flagged(self):
        rep = report("serve-trace", [
            comparison("Serve", baseline="fair", mode="fair-rerun",
                       virtual_match=False),
        ])
        problems = [b[2] for b in check_bench.check_report("r", rep)]
        self.assertIn("fair rerun latencies diverged", problems)

    def test_missing_rerun_flagged(self):
        rep = report("serve-trace", [comparison("light-0", mode="fair")])
        problems = [b[2] for b in check_bench.check_report("r", rep)]
        self.assertIn("missing fair-rerun determinism comparison", problems)


class FieldTypes(unittest.TestCase):
    def test_unknown_fields_tolerated(self):
        rep = report("pipeline", [comparison(novel_metric="anything")],
                     [{"workload": "w", "future_column": {"nested": True}}])
        self.assertEqual(check_bench.check_report("r", rep), [])

    def test_int_accepted_for_float(self):
        rep = report("pipeline", [comparison(speedup=2)])
        self.assertEqual(check_bench.check_report("r", rep), [])

    def test_wrong_types_flagged(self):
        rep = report("pipeline", [comparison(virtual_match="yes")],
                     [{"workload": "w", "replayed_commands": 1.5,
                       "recoveries": True}])
        problems = [b[2] for b in check_bench.check_report("r", rep)]
        self.assertTrue(any("'virtual_match' is str, want bool" in p for p in problems))
        self.assertTrue(any("'replayed_commands' is float, want int" in p for p in problems))
        self.assertTrue(any("'recoveries' is bool, want int" in p for p in problems))


class Shapes(unittest.TestCase):
    def test_unknown_experiment_flagged(self):
        bad = check_bench.check_report("r", report("mystery", [comparison()]))
        self.assertTrue(any("unknown experiment" in b[2] for b in bad))

    def test_empty_comparisons_flagged(self):
        bad = check_bench.check_report("r", report("pipeline", []))
        self.assertTrue(any("no comparisons" in b[2] for b in bad))


class Main(unittest.TestCase):
    def test_unreadable_file_fails(self):
        self.assertEqual(check_bench.main(["/nonexistent/bench.json"]), 1)

    def test_end_to_end_pass_and_fail(self):
        with tempfile.TemporaryDirectory() as d:
            good = os.path.join(d, "good.json")
            with open(good, "w") as f:
                json.dump(report("pipeline", [comparison()]), f)
            self.assertEqual(check_bench.main([good]), 0)

            bad = os.path.join(d, "bad.json")
            with open(bad, "w") as f:
                json.dump(report("pipeline", [comparison(virtual_match=False)]), f)
            self.assertEqual(check_bench.main([good, bad]), 1)

    def test_committed_baselines_pass(self):
        # The BENCH_*.json files at the repository root are generated by
        # the same tool CI runs; the checker must accept them as-is. The
        # batch, lanes, coherence and p2p files are recorded history of
        # retired experiments and are no longer checked.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = [os.path.join(root, n) for n in (
            "BENCH_pipeline.json", "BENCH_chaos.json", "BENCH_serve.json")]
        for p in paths:
            self.assertTrue(os.path.exists(p), p)
        self.assertEqual(check_bench.main(paths), 0)


if __name__ == "__main__":
    unittest.main()
