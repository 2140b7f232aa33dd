"""Array-core scale gate: gridless construction + batch search, budgeted.

Runs the two array-core claims of ``benchmarks/harness.py`` that CI must
hold on every PR without paying for the full harness:

1. **Gridless batch construction** at the scale's large point (smoke:
   20k peers, fig4: 100k peers) must converge inside a wall budget.
2. **Batch query plane**: ``BatchQueryEngine.search_many`` must beat the
   object ``SearchEngine`` loop by the scale's speedup floor while
   matching its found rate and messages-per-search within the
   equivalence tolerance (twin seeds, statistical — see
   ``harness.bench_array_search``).

Exits non-zero if either claim fails.  Usage (what ``make bench-array``
runs)::

    python benchmarks/bench_array_smoke.py [--scale smoke|fig4]
        [--out-dir DIR] [--budget-seconds S]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from harness import (  # noqa: E402
    SCALES,
    _write,
    bench_array_search,
    bench_large_construction,
)

from repro.core.grid import PGrid  # noqa: E402
from repro.fast import HAVE_NUMPY  # noqa: E402
from repro.sim import rng as rngmod  # noqa: E402
from repro.sim.builder import GridBuilder  # noqa: E402

#: Default wall budgets for the construction phase, sized ~10x the
#: measured time on a busy 1-CPU runner so the gate catches
#: order-of-magnitude regressions, not noise.
DEFAULT_BUDGETS = {"smoke": 120.0, "fig4": 900.0}

#: Minimum batch-vs-object search speedup per scale.  The fig4 floor is
#: the tentpole acceptance criterion; the smoke floor is lower because
#: 500 queries amortize the per-wave numpy overhead less.
SPEEDUP_FLOORS = {"smoke": 3.0, "fig4": 5.0}

#: Maximum relative found-rate / messages-per-search deviation between
#: the two engines (they draw from different RNG streams, so exact
#: equality is not expected; 2% is the statistical-equivalence bound).
EQUIVALENCE_TOLERANCE = 0.02


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument(
        "--out-dir", type=Path, default=_ROOT,
        help="directory for BENCH_array_smoke.json (default: repo root)",
    )
    parser.add_argument(
        "--budget-seconds", type=float, default=None,
        help="fail if the construction takes longer (default per scale)",
    )
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    budget = (
        args.budget_seconds
        if args.budget_seconds is not None
        else DEFAULT_BUDGETS[scale.name]
    )

    if not HAVE_NUMPY:
        # The batch engines are numpy-only by design; without it this
        # gate has nothing to measure.
        print("[bench-array] SKIP: numpy not available")
        return 0

    print(
        f"[bench-array] scale={scale.name}: N={scale.large_peers} "
        f"maxl={scale.large_maxl} refmax={scale.refmax} "
        f"(budget {budget:.0f}s)"
    )
    large = bench_large_construction(scale)
    print(
        f"[bench-array] converged={large['converged']} "
        f"exchanges={large['exchanges']:,} in {large['seconds']:.1f}s "
        f"({large['exchanges_per_second']:,.0f} exch/s, "
        f"{large['bytes_per_peer']:.0f} B/peer, "
        f"peak RSS {large['peak_rss_bytes'] / 1e6:,.0f} MB)"
    )

    # Batch-search gate on a converged object grid at the scale's core
    # sizing (same build as harness.bench_construction's full run).
    print(
        f"[bench-array] batch search: N={scale.n_peers} "
        f"queries={scale.n_searches}"
    )
    grid = PGrid(scale.config, rng=rngmod.derive(scale.seed, "construction"))
    grid.add_peers(scale.n_peers)
    GridBuilder(grid).build(threshold_fraction=0.985, max_exchanges=10_000_000)
    search = bench_array_search(scale, grid)
    print(
        f"[bench-array] search speedup {search['speedup']:.1f}x "
        f"(object {search['object']['searches_per_second']:,.0f}/s, "
        f"batch {search['batch']['searches_per_second']:,.0f}/s); "
        f"found-rate delta {search['found_rate_rel_delta']:.3%}, "
        f"messages delta {search['mean_messages_rel_delta']:.3%}"
    )

    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = _write(
        args.out_dir, "array_smoke", scale,
        {"large_construction": large, "batch_search": search},
        engines=("batch-gridless", "object-dfs", "batch-dfs"),
    )
    print(f"[bench-array] wrote {path}")

    failures = []
    if not large["converged"]:
        failures.append("construction did not converge")
    if large["seconds"] > budget:
        failures.append(
            f"construction {large['seconds']:.1f}s exceeded the "
            f"{budget:.0f}s budget"
        )
    floor = SPEEDUP_FLOORS[scale.name]
    if search["speedup"] < floor:
        failures.append(
            f"batch search speedup {search['speedup']:.2f}x < {floor:.1f}x floor"
        )
    for metric in ("found_rate_rel_delta", "mean_messages_rel_delta"):
        if search[metric] > EQUIVALENCE_TOLERANCE:
            failures.append(
                f"batch search {metric} {search[metric]:.3%} > "
                f"{EQUIVALENCE_TOLERANCE:.0%} equivalence tolerance"
            )
    if failures:
        for line in failures:
            print(f"[bench-array] FAIL: {line}", file=sys.stderr)
        return 1
    print("[bench-array] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
