"""Self-tests of the benchmark's reporting rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import run
from stats import OpLedger, check_metric_specs, tail_percentile

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond_the_median(self):
        self.assertIsNone(tail_percentile(range(19)))
        self.assertEqual(tail_percentile(range(1, 21)), (50.0, 10, 20))

    def test_climbs_the_ladder_with_the_sample_count(self):
        self.assertEqual(tail_percentile(range(1, 41)), (75.0, 30, 40))
        self.assertEqual(tail_percentile(range(1, 101)), (90.0, 90, 100))
        self.assertEqual(tail_percentile(range(1, 201)), (95.0, 190, 200))
        self.assertEqual(tail_percentile(range(1, 1001)), (99.0, 990, 1000))
        self.assertEqual(tail_percentile(range(1, 10001))[0], 99.9)

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(tail_percentile(list(range(100, 0, -1))),
                         (90.0, 90, 100))


class MetricNames(unittest.TestCase):
    def test_benchmark_json_is_valid(self):
        with open(BENCHMARK) as f:
            spec = json.load(f)
        for section in ("end_to_end", "per_layer"):
            self.assertEqual(check_metric_specs(spec[section]), [])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_rejects_bad_names_units_and_duplicates(self):
        problems = check_metric_specs([
            {"name": "_leading", "unit": "s"},
            {"name": "x" * 65, "unit": "s"},
            {"name": "ok.name", "unit": "per second"},
            {"name": "ok.name", "unit": "s"},
        ])
        self.assertEqual(len(problems), 4, problems)


class FailedOps(unittest.TestCase):
    def test_counts_failed_over_attempted(self):
        ops = OpLedger()
        self.assertTrue(ops.record([]))
        self.assertFalse(ops.record(["artifact differs", "exit 3"]))
        self.assertTrue(ops.record([]))
        self.assertEqual((ops.attempted, ops.failed), (3, 1))
        self.assertAlmostEqual(ops.ratio(), 1 / 3)
        self.assertEqual(ops.reasons, ["artifact differs", "exit 3"])

    def test_nothing_attempted_is_not_a_success(self):
        self.assertEqual(OpLedger().ratio(), 1.0)


def artifact(lookups=0, cells=0, walks=8):
    phases = {"cell": {"count": cells}, "fused.walk": {"count": walks},
              "sim.time.lookup": {"count": lookups}}
    return {"telemetry": {"phases": phases},
            "timing": {"lookup": {"calls": lookups}}}


class FastPathGuard(unittest.TestCase):
    def test_clean_fast_path_passes(self):
        self.assertEqual(run.fast_path_problems(
            artifact(), {"cell": 0, "fused.walk": 8}), [])

    def test_per_call_timing_and_wrong_span_counts_fail(self):
        problems = run.fast_path_problems(artifact(lookups=5, cells=3),
                                          {"cell": 0, "fused.walk": 8})
        self.assertEqual(len(problems), 3, problems)

    def test_served_session_spans_are_held_to_fig8(self):
        expected = run.WORKLOADS["served"]["spans"]
        session = {"cell": 0, "fused.demote": 0, "fused.walk": 8,
                   "sim.time.update": 0}
        self.assertEqual(run.span_problems(session, expected), [])
        percell = dict(session, cell=24, **{"fused.walk": 0})
        self.assertEqual(len(run.span_problems(percell, expected)), 2)
        timed = dict(session, **{"sim.time.update": 4})
        self.assertEqual(len(run.span_problems(timed, expected)), 1)


class SampleError(unittest.TestCase):
    def test_max_over_cells_ignores_the_mean(self):
        exact = "label,storage_bits,a,b,amean\nx,1,1.0,2.0,1.5\n"
        sampled = "label,storage_bits,a,b,amean\nx,1,1.5,1.0,9.0\n"
        self.assertAlmostEqual(run.sample_error(sampled, exact), 1.0)


if __name__ == "__main__":
    unittest.main()
