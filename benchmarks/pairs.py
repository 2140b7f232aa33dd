#!/usr/bin/env python3
"""Alternating parent/change pairs of one end-to-end workload.

    python3 benchmarks/pairs.py --parent DIR --change DIR --workload W --seed S --pairs N
                                [--expect improved|unchanged]

The measurement protocol of a PR that claims a gain (ROADMAP aim 1,
``/opt/skills/guides/choosing-metrics`` section 8).  *DIR* are two
checkouts (``git archive <commit> | tar -x -C DIR``); each run is the
benchmark's own command from ``BENCHMARK.json``, unchanged, in its own
process with the checkout as working directory::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --out FILE

Pair *i* runs the parent first when *i* is even and the change first when
odd, so drift on a shared box lands on both sides.  Printed: every run,
q1 / median / q3 per side and end-to-end metric, and for ``--metric`` the
pairs won, the ratio of the medians and whether their gap exceeds the
parent's own quartile distance.  The exact-per-seed counts
(``msgs_per_op``, ``found_rate``, ``failed``) must agree across all runs
of both sides.  Result files and ``<W>-seed<S>-summary.json`` go to
``--out-dir``.  Exit code 0 when the expected verdict holds, else 1:
``--expect improved`` (the default) is the claim rule — ≥ 9/10 of the
pairs won, gap > parent IQR, counts equal; ``--expect unchanged`` is for
the workloads a perf PR must *not* move — counts equal and the change's
median ahead of the parent's, or behind it by less than the parent's IQR.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("msgs_per_op", "found_rate")


def run_once(checkout: Path, command: list[str], args, out: Path) -> dict:
    """One benchmark process in *checkout*; returns its workload record."""
    subprocess.run(
        [*command, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--out", str(out)],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL,
    )
    (record,) = json.loads(out.read_text())["workloads"]
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--metric", default="ops_s", choices=sorted(better))
    parser.add_argument("--expect", default="improved", choices=("improved", "unchanged"))
    parser.add_argument("--out-dir", type=Path, default=ROOT / "benchmarks/results/pairs")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            out = args.out_dir / f"{stem}-{pair:02d}-{side}.json"
            runs[side].append(run_once(sides[side], benchmark["command"], args, out))
        parent, change = (runs[side][-1]["end_to_end"][args.metric]["value"] for side in sides)
        print(f"pair {pair:2d}  {args.metric}  parent {parent:.6g}  change {change:.6g}"
              f"  ({'parent' if pair % 2 == 0 else 'change'} first)", flush=True)

    summary: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                     "pairs": args.pairs, "metric": args.metric, "expect": args.expect,
                     "end_to_end": {}}
    print(f"\n{'metric':<16}{'parent q1 / med / q3':>38}{'change q1 / med / q3':>38}")
    for name in runs["parent"][0]["end_to_end"]:
        row = summary["end_to_end"][name] = {}
        for side in sides:
            values = [run["end_to_end"][name]["value"] for run in runs[side]]
            row[side] = {"runs": values, "quartiles": quartiles(values)}
        print(f"{name:<16}" + "".join(
            f"  {' / '.join(f'{q:.6g}' for q in row[side]['quartiles']):>36}" for side in sides))

    claimed = summary["end_to_end"][args.metric]
    sign = 1 if better[args.metric] == "higher" else -1
    gaps = [sign * (c - p) for p, c in zip(claimed["parent"]["runs"], claimed["change"]["runs"])]
    wins, ties = sum(gap > 0 for gap in gaps), sum(gap == 0 for gap in gaps)
    (q1, parent_median, q3), (_, change_median, _) = (
        claimed[side]["quartiles"] for side in sides)
    gap, iqr = sign * (change_median - parent_median), q3 - q1
    counts = {
        name: sorted({run["end_to_end"][name]["value"] for side in sides for run in runs[side]})
        for name in EXACT
    }
    counts["failed"] = sorted({run["failed"] for side in sides for run in runs[side]})
    unclean = [f"{side} pair {index}" for side in sides for index, run in enumerate(runs[side])
               if run["violations"] or run["errors"]]
    summary.update(wins=wins, ties=ties, median_gap=gap, parent_iqr=iqr,
                   ratio=change_median / parent_median if parent_median else None,
                   counts=counts, unclean_runs=unclean)
    clean = all(len(values) == 1 for values in counts.values()) and not unclean
    if args.expect == "improved":
        rule = "claim rule (>= 9/10 pairs, gap > parent IQR, counts equal)"
        claim = wins >= 0.9 * (args.pairs - ties) and gap > iqr and clean
    else:
        rule = "unchanged rule (median ahead, or behind by < parent IQR; counts equal)"
        claim = gap > -iqr and clean
    summary["claim_holds"] = claim
    print(f"\n{args.metric} ({better[args.metric]} is better): change ahead in {wins}/{args.pairs}"
          f" pairs ({ties} ties); medians {parent_median:.6g} -> {change_median:.6g}"
          f" ({summary['ratio']:.3f}x of parent); gap {gap:.6g} vs parent IQR {iqr:.6g}")
    for name, values in counts.items():
        print(f"{name}: {'equal on both sides' if len(values) == 1 else 'DIFFERS'} {values}")
    if unclean:
        print(f"runs with violations or errors: {unclean}")
    print(f"{rule}: {'holds' if claim else 'NOT met'}")
    (args.out_dir / f"{stem}-summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if claim else 1


if __name__ == "__main__":
    sys.exit(main())
