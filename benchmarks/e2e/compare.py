#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: baseline A, candidate B.

    python3 benchmarks/e2e/compare.py A.json B.json [--exact-counts]

One row per (workload, end-to-end metric), each judged by the metric's
own direction and bound from ``metrics.py``:

``ok``
    B is not worse than A by more than the bound.
``regression``
    B is worse than A by more than the bound, and both files' own
    repetition-to-repetition spread is within the bound.
``unresolved``
    the spread inside A or inside B is wider than the bound, so a
    difference of that size cannot be told from noise — unless every
    repetition of B reads better than every repetition of A (then ``ok``).

``--exact-counts`` additionally demands that the metrics that are exact
per seed (``msgs_per_op``, ``found_rate``, ``fail_share``) are equal —
the run-to-run agreement criterion for two runs of one commit at one
seed.  Exit code 1 on any regression (or count mismatch), else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402


def spread(row: dict) -> float:
    """Quartile distance of a metric's repetitions as a share of their
    median.  With fewer than four values (the three set-ups, the first of
    which is always the cold one) quartiles do not exist: twice the median
    absolute deviation stands in, which one outlier cannot move."""
    values = row.get("repetitions")
    if not values or len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    if len(values) < 4:
        return 2 * statistics.median(abs(v - middle) for v in values) / abs(middle)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def worsening(metric: metrics.EndToEnd, a: float, b: float) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    if a == 0:
        if b == 0:
            return 0.0
        return float("inf") if (b > 0) == (metric.better == "lower") else float("-inf")
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def all_better(metric: metrics.EndToEnd, a: dict, b: dict) -> bool:
    ours, theirs = b.get("repetitions"), a.get("repetitions")
    if not ours or not theirs:
        return False
    if metric.better == "lower":
        return max(ours) < min(theirs)
    return min(ours) > max(theirs)


def judge(metric: metrics.EndToEnd, a: dict, b: dict, exact_counts: bool) -> tuple[str, float]:
    worse = worsening(metric, a["value"], b["value"])
    if exact_counts and metric.exact:
        return ("ok" if a["value"] == b["value"] else "count-mismatch"), worse
    if max(spread(a), spread(b)) > metric.bound and not metric.exact:
        return ("ok" if all_better(metric, a, b) else "unresolved"), worse
    return ("regression" if worse > metric.bound else "ok"), worse


def compare(a_doc: dict, b_doc: dict, *, exact_counts: bool = False) -> list[dict]:
    """One row per (workload, metric) present in both documents."""
    a_runs = {run["workload"]: run for run in a_doc["workloads"] if "end_to_end" in run}
    b_runs = {run["workload"]: run for run in b_doc["workloads"] if "end_to_end" in run}
    rows = []
    for workload, a_run in a_runs.items():
        b_run = b_runs.get(workload)
        if b_run is None:
            continue
        for metric in metrics.END_TO_END:
            a, b = a_run["end_to_end"].get(metric.name), b_run["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            status, worse = judge(metric, a, b, exact_counts)
            rows.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "a": a["value"], "b": b["value"], "worse_by": worse, "bound": metric.bound,
                "spread_a": spread(a), "spread_b": spread(b), "status": status,
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument("--exact-counts", action="store_true")
    args = parser.parse_args(argv)
    documents = [json.loads(path.read_text(encoding="utf-8"))
                 for path in (args.baseline, args.candidate)]
    rows = compare(*documents, exact_counts=args.exact_counts)
    print(f"{'workload':<15} {'metric':<17} {'A':>14} {'B':>14} {'worse by':>9} "
          f"{'bound':>6} {'spread A':>9} {'spread B':>9}  status")
    for row in rows:
        print(f"{row['workload']:<15} {row['metric']:<17} {row['a']:>14.4f} {row['b']:>14.4f} "
              f"{row['worse_by']:>+9.2%} {row['bound']:>6.0%} {row['spread_a']:>9.2%} "
              f"{row['spread_b']:>9.2%}  {row['status']}")
    bad = [row for row in rows if row["status"] in ("regression", "count-mismatch")]
    unresolved = sum(row["status"] == "unresolved" for row in rows)
    print(f"{len(rows)} rows: {len(bad)} regressions or mismatches, {unresolved} unresolved")
    return 1 if bad or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
