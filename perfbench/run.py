"""Benchmark of the rbb toolkit: end-to-end metrics and a traced run per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --report --seed 1 --seconds 30 --record out.json

With ``--trace 0`` the run measures the end-to-end metrics: it starts fresh
processes that time ``import rbb`` plus the workload's lazy tables
(``setup_s``, the median of several), and then, for about ``--seconds``
seconds, one fresh process after another that each run one pass over the
workload's queries (``wall_s`` is the median pass).  With
``--trace 1`` it runs one untraced pass and one traced pass and reports the
per-layer metrics.  Either way the outputs are checked against the answer
table, per-query rows are printed, and the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--report`` runs every workload both ways and prints all metrics by name
and unit, with the per-query rows next to the hand-taken baseline numbers;
``--record FILE`` also writes everything, stamped, as JSON.

The program is imported from ``src/`` of the checkout; without it the run
stops with exit code 2.  See DESIGN.md for the choice of workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scenarios", "nonvalid", "checking")
SETUP_RUNS = 8
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("slowest_query_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("decided_frac", "ratio"),
)

PER_LAYER = (
    ("syntax.hash_calls", "count"),
    *(
        (f"{layer}.{func}_{kind}", "count" if kind == "calls" else "s")
        for layer, func in tracing.SPANS
        if layer not in ("library", "cli")
        for kind in ("calls", "s")
    ),
    ("search.enumerate_s", "s"),
    ("search.candidates", "count"),
    ("search.recheck_s", "s"),
    ("search.recheck_rejected", "count"),
    ("search.witnesses", "count"),
    ("search.useful_ratio", "ratio"),
    ("library.derived_library_s", "s"),
    *((f"{layer}.self_s", "s") for layer in tracing.LAYERS),
    ("trace_overhead", "ratio"),
)

# Hand-taken numbers from the ROADMAP "Baseline" section (Python 3.11.7,
# 2 cores, single runs) for the queries this benchmark also runs.
BASELINE = {
    ("scenarios", "TDTD+NoR"): "14.5 s; re-taken 15.0-17.6 s",
    ("nonvalid", "RBBs w3 B r & r:p -> sigma:p"): "Exhausted 11.7 s; re-taken 12.1-13.1 s",
    ("nonvalid", "QRBB w4 (A t. t:p) -> r:p"): "Exhausted 2.1 s",
    ("nonvalid", "RBB w4 r:p & B r -> B p"): "Exhausted 0.03 s",
    ("nonvalid", "RBBs w4 B r & r:p -> sigma:p"):
        "BudgetExceeded at 60 s after 1,550,848 candidates",
}


class BenchError(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RBB_BUDGET_SECS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing keeps set and dict layouts, and so timings and
    # counts, alike from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list[str], deadline: float) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the run's time limit") from None
    if done.returncode != 0:
        raise BenchError(f"worker {args} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def stamp(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            ).stdout.strip() or None
        except OSError:
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def _totals(rows: list[dict]) -> tuple[int, int, int]:
    return (
        sum(r["attempted"] for r in rows),
        sum(r["failed"] for r in rows),
        sum(r["undecided"] for r in rows),
    )


def merge(passes: list[dict]) -> dict:
    """One record for a run from its passes: per query, the median time."""
    rows = []
    for i, first in enumerate(passes[0]["rows"]):
        mine = [p["rows"][i] for p in passes]
        times = [r["time_s"] for r in mine]
        row = {
            **first,
            "time_s": statistics.median(times),
            "times_s": times,
            "attempted": len(mine),
            "failed": sum(r["failed"] for r in mine),
            "undecided": sum(r["undecided"] for r in mine),
            "error": next((r["error"] for r in mine if r["error"]), None),
        }
        rows.append(row)
    doc = {
        "passes_s": [p["wall_s"] for p in passes],
        "rows": rows,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    if "setup_counts" in passes[0]:
        doc["setup_counts"] = passes[0]["setup_counts"]
    return doc


def end_to_end(doc: dict, setup_times: list[float]) -> dict[str, float]:
    attempted, failed, undecided = _totals(doc["rows"])
    return {
        "wall_s": statistics.median(doc["passes_s"]),
        "slowest_query_s": max(r["time_s"] for r in doc["rows"]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": doc["peak_rss_mb"],
        "ok_frac": 1 - failed / attempted,
        "decided_frac": 1 - undecided / attempted,
    }


def per_layer(traced: dict, plain: dict) -> dict[str, float]:
    """Sum the traced counts over the decided queries.

    The probes stop on a time budget, so how much work they do depends on
    the machine; their counts are in their rows but not in these sums.
    """
    total: dict[str, float] = {}
    for row in traced["rows"]:
        if not row["probe"]:
            for key, value in row["counts"].items():
                total[key] = total.get(key, 0) + value
    out = {name: total.get(name, 0) for name, _ in PER_LAYER}
    out["search.recheck_rejected"] = out["search.candidates"] - out["search.witnesses"]
    out["search.useful_ratio"] = (
        out["search.witnesses"] / out["search.candidates"] if out["search.candidates"] else 0
    )
    out["library.derived_library_s"] += traced["setup_counts"].get(
        "library.derived_library_s", 0
    )
    times = {
        name: sum(r["time_s"] for r in doc["rows"] if not r["probe"])
        for name, doc in (("traced", traced), ("plain", plain))
    }
    out["trace_overhead"] = times["traced"] / times["plain"]
    return out


def reject_unchecked(rows: list[dict]) -> None:
    """Fail each decided query whose search yielded a candidate that rbb's
    own re-check then rejected (``search.recheck_rejected`` must stay 0)."""
    for row in rows:
        counts = row["counts"]
        rejected = counts.get("search.candidates", 0) - counts.get("search.witnesses", 0)
        if rejected and not row["probe"] and not row["failed"]:
            row["failed"] = 1
            row["error"] = f"{rejected:g} search candidates failed the re-check"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str, deadline: float) -> dict:
    """One benchmark run; returns metrics, rows and the raw worker output."""
    def measure(traced: bool) -> dict:
        args = ["measure", workload, str(seed), size, str(int(traced))]
        return _spawn(args, deadline)

    if trace:
        plain, traced = merge([measure(False)]), merge([measure(True)])
        reject_unchecked(traced["rows"])
        metrics = per_layer(traced, plain)
        doc = {**traced, "untraced_rows": plain["rows"]}
        rows = traced["rows"] + plain["rows"]
    else:
        def setups(n: int) -> list[float]:
            return [_spawn(["setup", workload], deadline)["setup_s"] for _ in range(n)]

        setups(1)  # fills the bytecode caches
        # Half before and half after the measurement, so that the median
        # does not hang on the machine's load at one moment.
        setup_times = setups(SETUP_RUNS // 2)
        start, passes = time.monotonic(), []
        while True:
            begun = time.monotonic()
            passes.append(measure(False))
            now = time.monotonic()
            if now - start + (now - begun) > seconds:
                break
        setup_times += setups(SETUP_RUNS - SETUP_RUNS // 2)
        doc = merge(passes)
        metrics = end_to_end(doc, setup_times)
        doc["setup_s"] = setup_times
        rows = doc["rows"]
    attempted, failed, _ = _totals(rows)
    return {
        "workload": workload,
        "trace": int(trace),
        "size": size,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "worker": doc,
    }


def print_rows(result: dict) -> None:
    doc = result["worker"]
    print(f"# {result['workload']} trace={result['trace']} "
          f"passes={len(doc['passes_s'])} size={result['size']}")
    for row in sorted(doc["rows"], key=lambda r: r["id"]):
        status = "ok" if not row["failed"] else f"FAILED: {row['error']}"
        line = f"  {row['time_s']:9.4f} s  {row['id']:<40} {row['verdict']}  [{status}]"
        if "counts" in row:
            counts = row["counts"]
            line += (f"  candidates={counts.get('search.candidates', 0):g}"
                     f" hash_calls={counts.get('syntax.hash_calls', 0):g}")
        base = BASELINE.get((result["workload"], row["id"]))
        if base:
            line += f"  (baseline: {base})"
        print(line)


def print_metrics(result: dict) -> None:
    units = dict(END_TO_END if not result["trace"] else PER_LAYER)
    for name, value in result["metrics"].items():
        print(f"  {result['workload']:<10} {name:<34} {value:>14.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--record", metavar="FILE", help="write all results as JSON")
    args = parser.parse_args(argv)
    if not args.report and args.workload is None:
        parser.error("--workload is required unless --report is given")
    if not (ROOT / "src" / "rbb" / "__init__.py").is_file():
        print(f"no rbb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    info = stamp(args.seed)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    jobs = (
        [(w, t) for w in WORKLOADS for t in (False, True)]
        if args.report else [(args.workload, bool(args.trace))]
    )
    results = []
    try:
        for workload, trace in jobs:
            deadline = time.monotonic() + RUN_LIMIT_S
            result = run_workload(workload, args.seed, args.seconds, trace,
                                  "full", deadline)
            print_rows(result)
            results.append(result)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    print("# metrics")
    for result in results:
        print_metrics(result)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump({"stamp": info, "size": "full", "seconds": args.seconds,
                       "runs": results}, handle, indent=1, sort_keys=True)

    failed = sum(r["failed"] for r in results)
    if args.report:
        return 0 if failed == 0 else 1
    (result,) = results
    units = dict(END_TO_END if not result["trace"] else PER_LAYER)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
