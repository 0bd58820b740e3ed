"""One measured child process of the benchmark; started by ``run.py``.

``worker.py setup WORKLOAD`` times ``import rbb`` plus the lazy tables the
workload touches and prints ``{"setup_s": ...}``.

``worker.py measure WORKLOAD SEED SIZE TRACE`` builds the inputs, runs one
pass over the workload's queries, traced when TRACE is 1, checks the
outputs, and prints one JSON document: the pass time, per-query rows, peak
resident memory and, when traced, the per-layer counters.  Every pass runs
in a fresh process, as every ``rbb`` command does, so nothing the program
caches in memory carries over from one pass to the next.
"""

from __future__ import annotations

import sys
import time


def _require_checkout_rbb() -> None:
    from pathlib import Path

    import rbb

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(rbb.__file__).resolve().parents:
        raise SystemExit(f"imported rbb from {rbb.__file__}, not from {src}")


def setup(workload: str) -> None:
    """Time the import of rbb and the tables, not the benchmark's modules."""
    start = time.perf_counter()
    import rbb  # noqa: F401
    import rbb.cli  # noqa: F401

    imported = time.perf_counter() - start
    import json

    import workloads

    start = time.perf_counter()
    workloads.setup(workload)
    took = imported + time.perf_counter() - start
    _require_checkout_rbb()
    print(json.dumps({"setup_s": took}))


def _run_pass(queries, tracer) -> tuple[list, list[float], list[dict]]:
    """One timed pass; a crash is a failed query, not a failed run."""
    import traceback

    import tracing

    outputs, times, counts = [], [], []
    for q in queries:
        before = tracer.snapshot()
        start = time.perf_counter()
        try:
            out = q.run()
        except Exception:
            out = RuntimeError(traceback.format_exc().strip().splitlines()[-1])
        times.append(time.perf_counter() - start)
        outputs.append(out)
        counts.append(tracing.diff(tracer.snapshot(), before))
    return outputs, times, counts


def _judge(q, out) -> tuple[str, str | None, bool]:
    """(verdict, error or None, undecided) for one output, untimed."""
    import traceback

    if isinstance(out, RuntimeError):
        return "raised", str(out), False
    try:
        return q.check(out)
    except Exception:
        return "check raised", traceback.format_exc(), False


def measure(workload: str, seed: int, size: str, trace: bool) -> None:
    import gc
    import json
    import resource

    import tracing
    import workloads

    _require_checkout_rbb()

    setup_counts: dict[str, float] = {}
    if trace:
        with tracing.Tracer() as setup_tracer:
            workloads.setup(workload)
        setup_counts = setup_tracer.snapshot()
    else:
        workloads.setup(workload)
    queries = workloads.queries(workload, seed, size)
    # The inputs are the benchmark's, not the program's: keep the collector
    # from walking them in every full collection during the pass.
    gc.freeze()

    tracer = tracing.Tracer()
    start = time.perf_counter()
    if trace:
        with tracer:
            outputs, times, counts = _run_pass(queries, tracer)
    else:
        outputs, times, counts = _run_pass(queries, tracer)
    wall = time.perf_counter() - start

    # Judged after the pass, outside the timed region and the tracer.
    rows = []
    for q, out, took, count in zip(queries, outputs, times, counts):
        verdict, error, undecided = _judge(q, out)
        row = {"id": q.qid, "probe": q.probe, "verdict": verdict, "time_s": took,
               "failed": error is not None, "undecided": undecided, "error": error}
        if trace:
            row["counts"] = count
        rows.append(row)
    doc = {
        "wall_s": wall,
        "rows": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        doc["setup_counts"] = setup_counts
    print(json.dumps(doc))


def main(argv: list[str]) -> None:
    import os

    os.environ.pop("RBB_BUDGET_SECS", None)
    if argv[0] == "setup":
        setup(argv[1])
    else:
        workload, seed, size, trace = argv[1:5]
        measure(workload, int(seed), size, trace == "1")


if __name__ == "__main__":
    main(sys.argv[1:])
