"""Perf regression gate over ``BENCH_micro.json`` / ``BENCH_construction.json``.

The micro benchmark (``benchmarks/harness.py``) times each keyspace
hot-path twice — a straightforward reference implementation ("baseline")
and the shipped fast path ("current") — and records their ratio as
``speedup``; the same file carries ``PGrid.replicas_for_key`` /
``seed_index`` on the path directory against the frozen per-call peer
scan (``GRID_ROWS``, gated at the construction tolerance).  That ratio
is a property of the *code*, not the machine:
both sides run in the same process on the same hardware, so comparing
the committed baseline's ratios against a fresh run's is meaningful on
any CI runner, unlike raw ns/op numbers.

The construction benchmark records the same kind of same-run ratios for
the construction engines: incremental vs. naive depth tracking, the
strict array kernel vs. the object core, and the vectorized batch engine
vs. the object core.  Passing ``--fresh-construction`` gates those too
(with a wider tolerance — the two sides are separate timed runs, not
interleaved best-of-N loops, so they wear more scheduler noise).

This script fails (exit 1) if any gated ratio has dropped more than the
applicable tolerance below the committed baseline's, i.e. someone slowed
a fast path back down relative to its reference.

Passing ``--fresh-array-search`` additionally gates the batch query
plane (``BENCH_array_search.json``): the batch-vs-object search speedup
must stay within tolerance of the committed baseline's ratio, and the
fresh run's found-rate / messages-per-search deltas must stay inside the
absolute statistical-equivalence bound (the two engines draw from
different RNG streams, so equality is statistical, never exact).

The committed gate baselines live at
``benchmarks/baselines/BENCH_micro_smoke.json``,
``benchmarks/baselines/BENCH_construction_smoke.json`` and
``benchmarks/baselines/BENCH_array_search_smoke.json`` (smoke scale, so
CI can regenerate the comparison in seconds; scales must match — the
fast paths' advantage depends on the grid sizing).

Usage (what ``make bench-regression`` runs)::

    python benchmarks/harness.py --scale smoke --out-dir benchmarks/results/fresh
    python benchmarks/check_regression.py \
        --baseline benchmarks/baselines/BENCH_micro_smoke.json \
        --fresh benchmarks/results/fresh/BENCH_micro.json \
        --fresh-construction benchmarks/results/fresh/BENCH_construction.json \
        --fresh-array-search benchmarks/results/fresh/BENCH_array_search.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

#: Ratios below this are timing noise, not a meaningful fast path; a
#: hot-path whose committed speedup is ~1x cannot "regress by 10%".
MIN_MEANINGFUL_SPEEDUP = 1.2

#: Micro rows timed on a grid (PGrid's path directory vs the per-call
#: peer scan) rather than on bare keys: the scan side walks N peer
#: objects and both sides share the store writes, so the ratio wears
#: cache and allocator noise the arithmetic rows do not.  Gated at the
#: construction tolerance.
GRID_ROWS = ("replicas_for_key", "seed_index")


def load_speedups(path: Path) -> tuple[str, dict[str, float]]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("benchmark") != "micro":
        raise SystemExit(f"{path}: not a micro benchmark file")
    return payload["scale"], {
        name: row["speedup"] for name, row in payload["results"].items()
    }


def load_construction_ratios(path: Path) -> tuple[str, dict[str, float]]:
    """Same-run engine speedup ratios from a ``BENCH_construction.json``."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("benchmark") != "construction":
        raise SystemExit(f"{path}: not a construction benchmark file")
    results = payload["results"]
    ratios: dict[str, float] = {}
    depth = results.get("depth_tracking", {})
    if depth.get("speedup") is not None:
        ratios["depth_tracking"] = depth["speedup"]
    array = results.get("full_construction_array", {})
    if array.get("speedup_vs_object") is not None:
        ratios["array_strict_vs_object"] = array["speedup_vs_object"]
    batch = results.get("full_construction_batch", {})
    if batch.get("speedup_vs_object") is not None:
        ratios["batch_vs_object"] = batch["speedup_vs_object"]
    return payload["scale"], ratios


def load_array_search(path: Path) -> tuple[str, dict[str, float], dict[str, float]]:
    """Scale, speedup ratios and equivalence deltas from a
    ``BENCH_array_search.json``."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("benchmark") != "array_search":
        raise SystemExit(f"{path}: not an array_search benchmark file")
    results = payload["results"]
    ratios: dict[str, float] = {}
    if results.get("speedup") is not None:
        ratios["batch_search_vs_object"] = results["speedup"]
    deltas = {
        name: results[name]
        for name in ("found_rate_rel_delta", "mean_messages_rel_delta")
        if results.get(name) is not None
    }
    return payload["scale"], ratios, deltas


def check(
    baseline: dict[str, float],
    fresh: dict[str, float],
    tolerance: float,
) -> list[str]:
    """Return one failure line per regressed hot-path (empty = pass)."""
    failures = []
    for name, committed in sorted(baseline.items()):
        if name not in fresh:
            failures.append(f"{name}: missing from fresh run")
            continue
        if committed < MIN_MEANINGFUL_SPEEDUP:
            continue
        measured = fresh[name]
        floor = committed * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"{name}: speedup {measured:.2f}x < floor {floor:.2f}x "
                f"(committed baseline {committed:.2f}x, "
                f"tolerance {tolerance:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path,
        default=_ROOT / "benchmarks" / "baselines" / "BENCH_micro_smoke.json",
        help="committed micro benchmark gate baseline",
    )
    parser.add_argument(
        "--fresh", type=Path, required=True,
        help="BENCH_micro.json from a fresh `harness.py` run",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.10,
        help="allowed fractional speedup drop per hot-path (default 0.10)",
    )
    parser.add_argument(
        "--baseline-construction", type=Path,
        default=_ROOT / "benchmarks" / "baselines"
        / "BENCH_construction_smoke.json",
        help="committed construction benchmark gate baseline",
    )
    parser.add_argument(
        "--fresh-construction", type=Path, default=None,
        help="BENCH_construction.json from a fresh run "
             "(omit to gate micro hot-paths only)",
    )
    parser.add_argument(
        "--construction-tolerance", type=float, default=0.35,
        help="allowed fractional drop per construction ratio (default 0.35; "
             "wider than --tolerance because the two sides are separately "
             "timed full runs)",
    )
    parser.add_argument(
        "--baseline-array-search", type=Path,
        default=_ROOT / "benchmarks" / "baselines"
        / "BENCH_array_search_smoke.json",
        help="committed batch-search benchmark gate baseline",
    )
    parser.add_argument(
        "--fresh-array-search", type=Path, default=None,
        help="BENCH_array_search.json from a fresh run "
             "(omit to skip the batch query plane gate)",
    )
    parser.add_argument(
        "--equivalence-tolerance", type=float, default=0.02,
        help="max relative found-rate / messages-per-search deviation of "
             "the batch query plane from the object core (default 0.02)",
    )
    args = parser.parse_args(argv)

    baseline_scale, baseline = load_speedups(args.baseline)
    fresh_scale, fresh = load_speedups(args.fresh)
    if baseline_scale != fresh_scale:
        # Key lengths (and thus the fast paths' advantage) scale with the
        # grid sizing, so cross-scale ratios are not comparable.
        raise SystemExit(
            f"scale mismatch: baseline is {baseline_scale!r}, "
            f"fresh run is {fresh_scale!r}"
        )
    grid_rows = {name: baseline[name] for name in GRID_ROWS if name in baseline}
    key_rows = {name: baseline[name] for name in baseline if name not in grid_rows}
    failures = check(key_rows, fresh, args.tolerance)
    failures += check(grid_rows, fresh, args.construction_tolerance)

    for name in sorted(baseline):
        committed = baseline[name]
        measured = fresh.get(name)
        gate = "gated" if committed >= MIN_MEANINGFUL_SPEEDUP else "noise-floor"
        shown = f"{measured:.2f}x" if measured is not None else "missing"
        print(f"[bench-regression] {name}: {committed:.2f}x -> {shown} ({gate})")

    if args.fresh_construction is not None:
        base_scale, base_ratios = load_construction_ratios(
            args.baseline_construction
        )
        run_scale, run_ratios = load_construction_ratios(args.fresh_construction)
        if base_scale != run_scale:
            raise SystemExit(
                f"construction scale mismatch: baseline is {base_scale!r}, "
                f"fresh run is {run_scale!r}"
            )
        failures += check(base_ratios, run_ratios, args.construction_tolerance)
        for name in sorted(base_ratios):
            committed = base_ratios[name]
            measured = run_ratios.get(name)
            gate = (
                "gated" if committed >= MIN_MEANINGFUL_SPEEDUP else "noise-floor"
            )
            shown = f"{measured:.2f}x" if measured is not None else "missing"
            print(
                f"[bench-regression] construction {name}: "
                f"{committed:.2f}x -> {shown} ({gate})"
            )

    if args.fresh_array_search is not None:
        base_scale, base_ratios, _ = load_array_search(
            args.baseline_array_search
        )
        run_scale, run_ratios, run_deltas = load_array_search(
            args.fresh_array_search
        )
        if base_scale != run_scale:
            raise SystemExit(
                f"array-search scale mismatch: baseline is {base_scale!r}, "
                f"fresh run is {run_scale!r}"
            )
        # Ratio gate (speedup vs the committed baseline, separately timed
        # runs → construction tolerance) plus the absolute equivalence
        # gate on the fresh run's own deltas.
        failures += check(base_ratios, run_ratios, args.construction_tolerance)
        for name in sorted(base_ratios):
            committed = base_ratios[name]
            measured = run_ratios.get(name)
            gate = (
                "gated" if committed >= MIN_MEANINGFUL_SPEEDUP else "noise-floor"
            )
            shown = f"{measured:.2f}x" if measured is not None else "missing"
            print(
                f"[bench-regression] array-search {name}: "
                f"{committed:.2f}x -> {shown} ({gate})"
            )
        for name, delta in sorted(run_deltas.items()):
            print(
                f"[bench-regression] array-search {name}: {delta:.3%} "
                f"(bound {args.equivalence_tolerance:.0%})"
            )
            if delta > args.equivalence_tolerance:
                failures.append(
                    f"array-search {name}: {delta:.3%} exceeds the "
                    f"{args.equivalence_tolerance:.0%} equivalence bound"
                )

    if failures:
        for line in failures:
            print(f"[bench-regression] FAIL {line}", file=sys.stderr)
        return 1
    print("[bench-regression] OK: no gated ratio regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
