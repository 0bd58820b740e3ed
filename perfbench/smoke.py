"""Smoke test of the benchmark itself, at the tiny size.

Run from the root of a checkout::

    python3 perfbench/smoke.py

It runs every workload untraced and traced with the cut-down query set,
checks every answer, checks that the per-layer counts repeat exactly
across two traced runs, and checks that BENCHMARK.json names the metrics
``run.py`` reports.  It takes well under a minute.
"""

from __future__ import annotations

import json
import time
import unittest

import run

# Counts that must repeat exactly; times never do.
EXACT = [
    name for name, unit in run.PER_LAYER if unit == "count"
]


def _run(workload: str, trace: bool) -> dict:
    return run.run_workload(workload, seed=7, seconds=0, trace=trace, size="tiny",
                            deadline=time.monotonic() + run.RUN_LIMIT_S)


class Smoke(unittest.TestCase):
    def test_answers_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = _run(workload, trace=False)
                rows = result["worker"]["rows"]
                self.assertEqual(result["failed"], 0, [r for r in rows if r["failed"]])
                undecided = sorted(r["id"] for r in rows if r["undecided"])
                probes = sorted(r["id"] for r in rows if r["probe"])
                self.assertEqual(undecided, probes)
                self.assertEqual(len(probes), 2 if workload == "nonvalid" else 0)
                metrics = result["metrics"]
                self.assertEqual(list(metrics), [name for name, _ in run.END_TO_END])
                self.assertTrue(all(value > 0 for value in metrics.values()), metrics)

    def test_traced_counts_repeat(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = _run(workload, trace=True), _run(workload, trace=True)
                self.assertEqual(first["failed"], 0)
                self.assertEqual(list(first["metrics"]), [name for name, _ in run.PER_LAYER])
                counts = [{k: r["metrics"][k] for k in EXACT} for r in (first, second)]
                self.assertEqual(counts[0], counts[1])
                self.assertEqual(counts[0]["search.recheck_rejected"], 0)
                self.assertGreater(counts[0]["syntax.hash_calls"], 0)

    def test_benchmark_json_lists_the_reported_metrics(self):
        spec_file = run.ROOT / "BENCHMARK.json"
        if not spec_file.exists():
            self.skipTest("no BENCHMARK.json next to this checkout")
        spec = json.loads(spec_file.read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER)
        )


if __name__ == "__main__":
    unittest.main()
