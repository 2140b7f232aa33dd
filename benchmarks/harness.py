"""BENCH harness: repo-root perf baselines with before/after comparisons.

Writes three JSON files (default: the repository root) so every future PR
has a perf trajectory to compare against:

``BENCH_micro.json``
    Hot-path micro-operations (``key_value`` / ``interval_contains`` /
    ``common_prefix``), each timed against a *baseline* reference
    implementation preserving the pre-optimization code (per-call
    validation, ``Fraction`` arithmetic, Python character loops); plus
    ``PGrid.replicas_for_key`` / ``seed_index`` on the path directory
    against the frozen per-call peer scan.

``BENCH_construction.json``
    Wall-clock of ``GridBuilder`` over a fixed meeting schedule with the
    incremental average-depth tracking versus a naive variant that rescans
    every peer per meeting (the O(N)-per-meeting "before" behavior), plus
    one full construction to convergence at the active scale.

``BENCH_search.json``
    End-to-end search throughput on the constructed grid, and a
    serial-vs-parallel experiment-trial run (``jobs=1`` vs ``jobs=2``)
    with a bit-identity check of the results.

``BENCH_array_search.json``
    The batch query plane versus the object core: the same query set
    resolved by a ``SearchEngine`` loop and by
    ``BatchQueryEngine.search_many`` on twin seeds, reporting the
    speedup and the found-rate / messages-per-search deltas that the
    regression gate holds within tolerance.

Scales: ``--scale fig4`` (default — the §5.2 Fig. 4 sizing ratios) or
``--scale smoke`` (seconds, for CI).  Usage::

    python benchmarks/harness.py [--scale fig4|smoke] [--out-dir DIR]
        [--no-million]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.core import keys as keyspace  # noqa: E402
from repro.core.config import PGridConfig  # noqa: E402
from repro.core.grid import PGrid  # noqa: E402
from repro.core.search import SearchEngine  # noqa: E402
from repro.core.storage import DataItem, DataRef  # noqa: E402
from repro.perf.parallel import parallel_starmap, warm_pool  # noqa: E402
from repro.experiments.table1_construction_scaling import (  # noqa: E402
    construction_cost,
)
from repro.fast import (  # noqa: E402
    HAVE_NUMPY,
    ArrayGrid,
    BatchQueryEngine,
    grid_memory_report,
    peak_rss_bytes,
)
from repro.sim import rng as rngmod  # noqa: E402
from repro.sim.builder import GridBuilder  # noqa: E402


@dataclass(frozen=True)
class BenchScale:
    """Sizing of one harness run."""

    name: str
    n_peers: int
    maxl: int
    refmax: int
    recmax: int
    recursion_fanout: int
    depth_meetings: int      # fixed meeting budget for the depth comparison
    n_searches: int
    micro_repeats: int
    trial_points: int        # parallel-vs-serial experiment points
    trial_peers: int
    large_peers: int = 0     # gridless batch construction point (0 = skip)
    large_maxl: int = 0
    million_peers: int = 0   # headline gridless point (0 = skip)
    million_maxl: int = 0
    seed: int = 20020101

    @property
    def config(self) -> PGridConfig:
        return PGridConfig(
            maxl=self.maxl,
            refmax=self.refmax,
            recmax=self.recmax,
            recursion_fanout=self.recursion_fanout,
        )


SCALES = {
    # The §5.2 / Fig. 4 sizing ratios at the "scaled" profile's N.
    "fig4": BenchScale(
        name="fig4",
        n_peers=4_000,
        maxl=8,
        refmax=20,
        recmax=2,
        recursion_fanout=2,
        depth_meetings=8_000,
        n_searches=5_000,
        micro_repeats=200_000,
        trial_points=4,
        trial_peers=300,
        large_peers=100_000,
        large_maxl=12,
        million_peers=1_000_000,
        million_maxl=14,
    ),
    # CI smoke: every phase in seconds.
    "smoke": BenchScale(
        name="smoke",
        n_peers=400,
        maxl=6,
        refmax=5,
        recmax=2,
        recursion_fanout=2,
        depth_meetings=1_500,
        n_searches=500,
        micro_repeats=20_000,
        trial_points=2,
        trial_peers=150,
        large_peers=20_000,
        large_maxl=10,
    ),
}


# -- baseline (pre-optimization) reference implementations -----------------------
#
# Frozen copies of the seed's hot-path code, kept here so the micro bench
# always reports the before/after delta of the integer-bit fast paths.


def _is_valid_key_baseline(key: str) -> bool:
    return all(bit in ("0", "1") for bit in key)


def _key_value_baseline(key: str) -> Fraction:
    if not _is_valid_key_baseline(key):
        raise ValueError(key)
    if not key:
        return Fraction(0)
    return Fraction(int(key, 2), 2 ** len(key))


def _interval_contains_baseline(key: str, query: str) -> bool:
    low = _key_value_baseline(key)
    high = low + Fraction(1, 2 ** len(key))
    value = _key_value_baseline(query)
    return low <= value < high


def _common_prefix_baseline(a: str, b: str) -> str:
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return a[:i]


def _replicas_for_key_baseline(grid: PGrid, query: str) -> list[int]:
    """PR 11's ``PGrid.replicas_for_key``: sort + prefix test over all peers."""
    keyspace.validate_key(query)
    peers = grid._peers
    return [
        address for address in sorted(peers) if peers[address].responsible_for(query)
    ]


def _seed_index_baseline(grid: PGrid, items) -> int:
    """PR 11's ``PGrid.seed_index``: one full scan per item."""
    installed = 0
    for item, holder in items:
        grid.peer(holder).store.store_item(item)
        ref = DataRef(key=item.key, holder=holder, version=0)
        for address in _replicas_for_key_baseline(grid, item.key):
            grid.peer(address).store.add_ref(ref)
            installed += 1
    return installed


class NaiveDepthBuilder(GridBuilder):
    """The "before" builder: full O(N) peer rescan per meeting.

    Only the depth bookkeeping differs from :class:`GridBuilder`; RNG
    consumption is untouched, so both variants replay the identical meeting
    schedule for the same seed and their speedup isolates the
    incremental-depth fix alone.
    """

    def _average_depth(self) -> float:
        return self.grid.average_path_length()


# -- phases ---------------------------------------------------------------------


def _time(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def bench_micro(scale: BenchScale) -> dict:
    rng = rngmod.derive(scale.seed, "micro")
    pairs = [
        (
            keyspace.random_key(rng.randint(1, scale.maxl), rng),
            keyspace.random_key(rng.randint(1, scale.maxl), rng),
        )
        for _ in range(512)
    ]

    def loop(fn):
        def body() -> None:
            ops = scale.micro_repeats // len(pairs)
            for _ in range(ops):
                for a, b in pairs:
                    fn(a, b)
        return body

    cases = {
        "key_value": (
            lambda a, b: _key_value_baseline(a),
            lambda a, b: keyspace.key_value(a),
        ),
        "key_value_unchecked": (
            lambda a, b: _key_value_baseline(a),
            lambda a, b: keyspace._key_value_unchecked(a),
        ),
        "interval_contains": (
            _interval_contains_baseline,
            keyspace.interval_contains,
        ),
        "interval_contains_unchecked": (
            _interval_contains_baseline,
            keyspace._interval_contains_unchecked,
        ),
        "common_prefix": (
            _common_prefix_baseline,
            keyspace.common_prefix,
        ),
    }
    results = {}
    ops = (scale.micro_repeats // len(pairs)) * len(pairs)
    for name, (baseline, current) in cases.items():
        for a, b in pairs:  # sanity: both paths agree before timing
            assert baseline(a, b) == current(a, b)
        results[name] = _micro_row(ops, loop(baseline), loop(current))
    results.update(_bench_directory(scale, [key for pair in pairs for key in pair]))
    return results


def _micro_row(ops: int, baseline_body, current_body) -> dict:
    """Minimum over nine interleaved passes of each side — the
    noise-robust estimator the regression gate
    (benchmarks/check_regression.py) depends on: single-pass micro timings
    vary run-to-run by far more than the gate's 10% tolerance, and timing
    the sides back to back lets one slow spell hit only one of them."""
    baseline_s = current_s = float("inf")
    for _ in range(9):
        baseline_s = min(baseline_s, _time(baseline_body))
        current_s = min(current_s, _time(current_body))
    return {
        "ops": ops,
        "baseline_seconds": baseline_s,
        "current_seconds": current_s,
        "baseline_ns_per_op": baseline_s / ops * 1e9,
        "current_ns_per_op": current_s / ops * 1e9,
        "speedup": baseline_s / current_s if current_s else None,
    }


def _bench_directory(scale: BenchScale, keys: list[str]) -> dict:
    """``replicas_for_key`` / ``seed_index`` on the path directory vs the
    frozen per-call scan, over an ideally balanced grid (every depth-maxl
    path held by N / 2^maxl peers — the shape Fig. 4 converges to)."""
    grid = PGrid(scale.config)
    for peer in grid.add_peers(scale.n_peers):
        peer.set_path(format(peer.address % 2 ** scale.maxl, f"0{scale.maxl}b"))
    # Keys shorter than, equal to and longer than the paths.
    keys = keys + [key + "01" for key in keys if len(key) == scale.maxl]
    items = [
        (DataItem(key=key, value=index), index % scale.n_peers)
        for index, key in enumerate(keys[:256])
    ]
    for key in keys:
        assert _replicas_for_key_baseline(grid, key) == grid.replicas_for_key(key)
    assert _seed_index_baseline(grid, items) == grid.seed_index(items)
    return {
        "replicas_for_key": _micro_row(
            len(keys),
            lambda: [_replicas_for_key_baseline(grid, key) for key in keys],
            lambda: [grid.replicas_for_key(key) for key in keys],
        ),
        "seed_index": _micro_row(
            len(items),
            lambda: _seed_index_baseline(grid, items),
            lambda: grid.seed_index(items),
        ),
    }


def _run_depth_variant(scale: BenchScale, builder_cls) -> tuple[float, float]:
    """Run *depth_meetings* meetings; return (seconds, final avg depth)."""
    grid = PGrid(scale.config, rng=rngmod.derive(scale.seed, "depth-bench"))
    grid.add_peers(scale.n_peers)
    builder = builder_cls(grid)
    start = time.perf_counter()
    builder.build(max_meetings=scale.depth_meetings, threshold_fraction=1.0)
    elapsed = time.perf_counter() - start
    return elapsed, grid.average_path_length()


def bench_construction(scale: BenchScale) -> tuple[dict, PGrid]:
    naive_s, naive_depth = _run_depth_variant(scale, NaiveDepthBuilder)
    incremental_s, incremental_depth = _run_depth_variant(scale, GridBuilder)
    assert naive_depth == incremental_depth, (
        "depth-tracking variants diverged — the comparison is void"
    )

    # Full construction to convergence with the production builder.
    grid = PGrid(scale.config, rng=rngmod.derive(scale.seed, "construction"))
    grid.add_peers(scale.n_peers)
    start = time.perf_counter()
    report = GridBuilder(grid).build(
        threshold_fraction=0.985, max_exchanges=10_000_000
    )
    full_s = time.perf_counter() - start
    results = {
        "depth_tracking": {
            "meetings": scale.depth_meetings,
            "naive_rescan_seconds": naive_s,
            "incremental_seconds": incremental_s,
            "speedup": naive_s / incremental_s if incremental_s else None,
            "final_average_depth": incremental_depth,
        },
        "full_construction": {
            "n_peers": scale.n_peers,
            "maxl": scale.maxl,
            "converged": report.converged,
            "exchanges": report.exchanges,
            "meetings": report.meetings,
            "average_depth": report.average_depth,
            "seconds": full_s,
            "exchanges_per_second": report.exchanges / full_s if full_s else None,
        },
    }

    # Vectorized batch engine: deterministic, statistically equivalent,
    # not bit-identical (different meeting interleaving + numpy RNG).
    if HAVE_NUMPY:
        from repro.fast import BatchGridBuilder

        builder = BatchGridBuilder(
            n=scale.n_peers,
            config=scale.config,
            seed=rngmod.derive_seed(scale.seed, "construction-batch"),
        )
        start = time.perf_counter()
        batch_report = builder.build(
            threshold_fraction=0.985, max_exchanges=10_000_000
        )
        batch_s = time.perf_counter() - start
        results["full_construction_batch"] = {
            "engine": "batch",
            "converged": batch_report.converged,
            "exchanges": batch_report.exchanges,
            "meetings": batch_report.meetings,
            "average_depth": batch_report.average_depth,
            "seconds": batch_s,
            "exchanges_per_second": (
                batch_report.exchanges / batch_s if batch_s else None
            ),
            "speedup_vs_object": full_s / batch_s if batch_s else None,
        }
    else:
        results["full_construction_batch"] = {"skipped": "numpy not available"}
    results["memory"] = grid_memory_report(pgrid=grid)
    return results, grid


def _gridless_construction(
    scale: BenchScale, n_peers: int, maxl: int, seed_label: str
) -> dict:
    """One gridless batch construction point on numpy state only."""
    from repro.fast import BatchGridBuilder

    config = PGridConfig(
        maxl=maxl,
        refmax=scale.refmax,
        recmax=scale.recmax,
        recursion_fanout=scale.recursion_fanout,
    )
    builder = BatchGridBuilder(
        n=n_peers,
        config=config,
        seed=rngmod.derive_seed(scale.seed, seed_label),
    )
    # Convergence cost grows linearly in N (~250 exchanges/peer observed),
    # so the cap must scale with the point or the 1M run starves.
    max_exchanges = max(100_000_000, 600 * n_peers)
    start = time.perf_counter()
    report = builder.build(
        threshold_fraction=0.985, max_exchanges=max_exchanges
    )
    elapsed = time.perf_counter() - start
    sizes = builder.replication_sizes()
    state_bytes = builder.memory_bytes()
    return {
        "engine": "batch-gridless",
        "n_peers": n_peers,
        "maxl": maxl,
        "refmax": scale.refmax,
        "converged": report.converged,
        "exchanges": report.exchanges,
        "meetings": report.meetings,
        "exchanges_per_peer": report.exchanges_per_peer,
        "average_depth": report.average_depth,
        "seconds": elapsed,
        "exchanges_per_second": report.exchanges / elapsed if elapsed else None,
        "mean_replication": float(sizes.mean()),
        "max_replication": int(sizes.max()),
        "replication_histogram": {
            str(k): v for k, v in sorted(builder.replication_histogram().items())
        },
        "state_bytes": state_bytes,
        "bytes_per_peer": round(state_bytes / n_peers, 1),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def bench_large_construction(scale: BenchScale) -> dict:
    """The CI-gated scale point: gridless batch construction at 100k peers.

    Runs entirely on numpy state (no Python object per peer), reporting
    wall-clock, throughput, the Fig. 4 replica distribution at scale, and
    the memory footprint.
    """
    if not scale.large_peers:
        return {"skipped": "no large point at this scale"}
    if not HAVE_NUMPY:
        return {"skipped": "numpy not available"}
    return _gridless_construction(
        scale, scale.large_peers, scale.large_maxl, "large-construction"
    )


def bench_million_construction(scale: BenchScale) -> dict:
    """The headline 1M-peer gridless point (fig4 scale only, ~15 min)."""
    if not scale.million_peers:
        return {"skipped": "no million point at this scale"}
    if not HAVE_NUMPY:
        return {"skipped": "numpy not available"}
    return _gridless_construction(
        scale, scale.million_peers, scale.million_maxl, "million-construction"
    )


def bench_search(scale: BenchScale, grid: PGrid) -> dict:
    grid.rng = rngmod.derive(scale.seed, "search-bench")
    engine = SearchEngine(grid)
    query_rng = rngmod.derive(scale.seed, "search-queries")
    addresses = grid.addresses()
    queries = [
        (
            addresses[query_rng.randrange(len(addresses))],
            keyspace.random_key(scale.maxl - 1, query_rng),
        )
        for _ in range(scale.n_searches)
    ]
    found = 0
    messages = 0
    start = time.perf_counter()
    for address, query in queries:
        result = engine.query_from(address, query)
        found += result.found
        messages += result.messages
    search_s = time.perf_counter() - start

    # Serial vs parallel trial execution of an experiment sweep, with the
    # determinism contract checked end-to-end.
    points = [
        {"n_peers": scale.trial_peers, "maxl": 5, "refmax": 2,
         "recmax": 2, "recursion_fanout": 2, "seed": scale.seed + index}
        for index in range(scale.trial_points)
    ]
    start = time.perf_counter()
    serial = parallel_starmap(construction_cost, points, jobs=1)
    serial_s = time.perf_counter() - start
    # Pre-spawn the shared worker pool outside the timed region: the
    # speedup gate measures steady-state sweep throughput, not one-time
    # interpreter start-up (which pool amortization pays exactly once per
    # process anyway).
    parallel_jobs = min(2, len(points))
    warm_pool(parallel_jobs)
    start = time.perf_counter()
    parallel = parallel_starmap(construction_cost, points, jobs=parallel_jobs)
    parallel_s = time.perf_counter() - start
    return {
        "search": {
            "n_searches": scale.n_searches,
            "found": found,
            "messages": messages,
            "seconds": search_s,
            "searches_per_second": (
                scale.n_searches / search_s if search_s else None
            ),
        },
        "parallel_trials": {
            "points": len(points),
            "serial_seconds": serial_s,
            "parallel_jobs2_seconds": parallel_s,
            "speedup": serial_s / parallel_s if parallel_s else None,
            "bit_identical": serial == parallel,
        },
    }


def bench_snapshot_scaling(scale: BenchScale) -> dict:
    """Zero-copy snapshot fan-out versus pickling the grid per trial.

    Builds one grid, exports it as a shared-memory ``GridSnapshot``, and
    runs the same search sweep at ``--jobs`` 1/2/4/8 (capped by the CPU
    count) shipping only the snapshot's handle; the pre-snapshot baseline
    ships the full arrays inside every pickled trial spec.  Reported per
    jobs level: wall-clock, speedup vs serial, bit-identity of results,
    and the per-worker fresh-attach count the regression gate caps at 1
    (the grid crosses the process boundary at most once per worker).
    """
    if not HAVE_NUMPY:
        return {"skipped": "numpy not available"}
    import pickle

    from repro.experiments.common import (
        _gridship_search_trial,
        gridship_state,
        run_snapshot_search_sweep,
    )
    from repro.sim.builder import construct_snapshot

    n_peers = min(scale.n_peers, 2_000)
    config = PGridConfig(
        maxl=scale.maxl,
        refmax=scale.refmax,
        recmax=scale.recmax,
        recursion_fanout=scale.recursion_fanout,
    )
    snapshot, _report = construct_snapshot(
        config,
        n_peers,
        seed=rngmod.derive_seed(scale.seed, "snapshot-bench"),
        threshold_fraction=0.985,
        max_exchanges=max(2_000_000, 600 * n_peers),
    )
    try:
        trials = max(8, 2 * scale.trial_points)
        n_queries = max(200, scale.n_searches // 10)
        master = rngmod.derive_seed(scale.seed, "snapshot-sweep")
        key_length = config.maxl - 1

        state = gridship_state(snapshot)
        spec_tail = {"seed": 1, "n_queries": n_queries, "key_length": key_length}
        snapshot_trial_bytes = len(
            pickle.dumps({"snapshot": snapshot.ref(), **spec_tail})
        )
        gridship_trial_bytes = len(pickle.dumps({"state": state, **spec_tail}))

        cpu = os.cpu_count() or 1
        jobs_levels = [jobs for jobs in (1, 2, 4, 8) if jobs <= cpu] or [1]
        serial_results = None
        serial_s = None
        per_jobs: dict[str, dict] = {}
        for jobs in jobs_levels:
            if jobs > 1:
                warm_pool(jobs)
            start = time.perf_counter()
            out = run_snapshot_search_sweep(
                snapshot,
                trials=trials,
                n_queries=n_queries,
                jobs=jobs,
                master_seed=master,
                key_length=key_length,
            )
            elapsed = time.perf_counter() - start
            results = [trial["results"] for trial in out]
            attaches = {}
            for trial in out:
                worker = trial["worker"]
                attaches[worker["pid"]] = max(
                    attaches.get(worker["pid"], 0), worker["fresh_attaches"]
                )
            if serial_results is None:
                serial_results, serial_s = results, elapsed
            per_jobs[str(jobs)] = {
                "seconds": elapsed,
                "speedup_vs_serial": serial_s / elapsed if elapsed else None,
                "bit_identical_to_serial": results == serial_results,
                "worker_count": len(attaches),
                "max_fresh_attaches_per_worker": max(attaches.values()),
            }

        # Pre-snapshot baseline: grid arrays pickled into every trial spec.
        ship_specs = [
            {
                "state": state,
                "seed": rngmod.derive_seed(master, f"trial-{index}"),
                "n_queries": n_queries,
                "key_length": key_length,
            }
            for index in range(trials)
        ]
        start = time.perf_counter()
        ship_serial = parallel_starmap(_gridship_search_trial, ship_specs, jobs=1)
        ship_serial_s = time.perf_counter() - start
        ship_jobs = min(2, cpu)
        if ship_jobs > 1:
            warm_pool(ship_jobs)
        start = time.perf_counter()
        ship_pooled = parallel_starmap(
            _gridship_search_trial, ship_specs, jobs=ship_jobs
        )
        ship_pooled_s = time.perf_counter() - start
        return {
            "n_peers": n_peers,
            "trials": trials,
            "n_queries": n_queries,
            "cpu_count": cpu,
            "segment_bytes": snapshot.nbytes,
            "pickled_trial_bytes": {
                "snapshot_ref": snapshot_trial_bytes,
                "gridship": gridship_trial_bytes,
                "ratio": (
                    snapshot_trial_bytes / gridship_trial_bytes
                    if gridship_trial_bytes
                    else None
                ),
            },
            "jobs": per_jobs,
            "gridship": {
                "jobs": ship_jobs,
                "serial_seconds": ship_serial_s,
                "pooled_seconds": ship_pooled_s,
                "speedup": (
                    ship_serial_s / ship_pooled_s if ship_pooled_s else None
                ),
                "results_identical_to_snapshot_path": (
                    [trial["results"] for trial in ship_pooled] == serial_results
                ),
            },
        }
    finally:
        snapshot.close()
        snapshot.unlink()


def bench_array_search(scale: BenchScale, grid: PGrid) -> dict:
    """The batch query plane versus the object ``SearchEngine`` loop.

    Both sides resolve the same (start, query) set over the same
    converged grid with every peer online, on twin seeds.  The two
    engines draw routing choices from different RNG streams, so the
    comparison is statistical, not bit-identical: the regression gate
    (``check_regression.py``) holds the found-rate and
    messages-per-search deltas within tolerance while requiring the
    wall-clock speedup.
    """
    if not HAVE_NUMPY:
        return {"skipped": "numpy not available"}
    query_rng = rngmod.derive(scale.seed, "array-search-queries")
    addresses = grid.addresses()
    starts = [
        addresses[query_rng.randrange(len(addresses))]
        for _ in range(scale.n_searches)
    ]
    queries = [
        keyspace.random_key(scale.maxl - 1, query_rng)
        for _ in range(scale.n_searches)
    ]

    grid.rng = rngmod.derive(scale.seed, "array-search-object")
    engine = SearchEngine(grid)
    obj_found = 0
    obj_messages = 0
    obj_failed = 0
    start_t = time.perf_counter()
    for address, query in zip(starts, queries):
        result = engine.query_from(address, query)
        obj_found += result.found
        obj_messages += result.messages
        obj_failed += result.failed_attempts
    object_s = time.perf_counter() - start_t

    batch_engine = BatchQueryEngine.from_arraygrid(
        ArrayGrid.from_pgrid(grid),
        seed=rngmod.derive_seed(scale.seed, "array-search-batch"),
    )
    start_t = time.perf_counter()
    batch = batch_engine.search_many(queries, starts)
    batch_s = time.perf_counter() - start_t

    n = scale.n_searches
    obj_rate = obj_found / n
    batch_rate = batch.found_rate
    obj_mean_msgs = obj_messages / n
    batch_mean_msgs = batch.mean_messages
    return {
        "n_queries": n,
        "n_peers": scale.n_peers,
        "object": {
            "engine": "object-dfs",
            "found": obj_found,
            "found_rate": obj_rate,
            "messages": obj_messages,
            "mean_messages": obj_mean_msgs,
            "failed_attempts": obj_failed,
            "seconds": object_s,
            "searches_per_second": n / object_s if object_s else None,
        },
        "batch": {
            "engine": "batch-dfs",
            "found": int(batch.found.sum()),
            "found_rate": batch_rate,
            "messages": int(batch.messages.sum()),
            "mean_messages": batch_mean_msgs,
            "failed_attempts": int(batch.failed_attempts.sum()),
            "seconds": batch_s,
            "searches_per_second": n / batch_s if batch_s else None,
        },
        "speedup": object_s / batch_s if batch_s else None,
        "found_rate_rel_delta": (
            abs(obj_rate - batch_rate) / obj_rate if obj_rate else None
        ),
        "mean_messages_rel_delta": (
            abs(obj_mean_msgs - batch_mean_msgs) / obj_mean_msgs
            if obj_mean_msgs
            else None
        ),
    }


def _numpy_version() -> str | None:
    if not HAVE_NUMPY:
        return None
    import numpy

    return numpy.__version__


def _write(
    out_dir: Path,
    name: str,
    scale: BenchScale,
    results: dict,
    *,
    engines: tuple[str, ...] = (),
) -> Path:
    payload = {
        "benchmark": name,
        "scale": scale.name,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "engines": sorted(engines),
        "peak_rss_bytes": peak_rss_bytes(),
        "params": {
            "n_peers": scale.n_peers,
            "maxl": scale.maxl,
            "refmax": scale.refmax,
            "recmax": scale.recmax,
            "seed": scale.seed,
        },
        "results": results,
    }
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="fig4")
    parser.add_argument(
        "--out-dir", type=Path, default=_ROOT,
        help="directory for the BENCH_*.json files (default: repo root)",
    )
    parser.add_argument(
        "--no-million", action="store_true",
        help="skip the 1M-peer gridless point (fig4 scale; ~15 min)",
    )
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    args.out_dir.mkdir(parents=True, exist_ok=True)

    print(f"[bench] scale={scale.name} (N={scale.n_peers}, maxl={scale.maxl})")
    micro = bench_micro(scale)
    path = _write(args.out_dir, "micro", scale, micro, engines=("reference",))
    for name, row in micro.items():
        print(
            f"[bench] micro {name}: {row['baseline_ns_per_op']:.0f} -> "
            f"{row['current_ns_per_op']:.0f} ns/op "
            f"({row['speedup']:.2f}x)"
        )
    print(f"[bench] wrote {path}")

    construction, grid = bench_construction(scale)
    depth = construction["depth_tracking"]
    full = construction["full_construction"]
    print(
        f"[bench] construction depth-tracking over {depth['meetings']} "
        f"meetings: naive {depth['naive_rescan_seconds']:.2f}s vs "
        f"incremental {depth['incremental_seconds']:.2f}s "
        f"({depth['speedup']:.1f}x)"
    )
    print(
        f"[bench] full construction: {full['exchanges']} exchanges in "
        f"{full['seconds']:.2f}s (converged={full['converged']})"
    )
    batch = construction["full_construction_batch"]
    if "skipped" not in batch:
        print(
            f"[bench] batch engine: {batch['exchanges']} exchanges in "
            f"{batch['seconds']:.2f}s ({batch['speedup_vs_object']:.1f}x object, "
            f"{batch['exchanges_per_second']:,.0f} exch/s)"
        )
    large = bench_large_construction(scale)
    construction["large_construction"] = large
    if "skipped" not in large:
        print(
            f"[bench] large construction: N={large['n_peers']} "
            f"maxl={large['maxl']} converged={large['converged']} in "
            f"{large['seconds']:.1f}s ({large['exchanges_per_second']:,.0f} exch/s, "
            f"{large['bytes_per_peer']:.0f} B/peer)"
        )
    if args.no_million:
        million = {"skipped": "--no-million"}
    else:
        million = bench_million_construction(scale)
    construction["million_construction"] = million
    if "skipped" not in million:
        print(
            f"[bench] million construction: N={million['n_peers']} "
            f"maxl={million['maxl']} converged={million['converged']} in "
            f"{million['seconds']:.1f}s "
            f"({million['exchanges_per_second']:,.0f} exch/s, "
            f"{million['bytes_per_peer']:.0f} B/peer, "
            f"peak RSS {million['peak_rss_bytes'] / 1e9:.2f} GB)"
        )
    path = _write(
        args.out_dir, "construction", scale, construction,
        engines=("object", "batch", "batch-gridless"),
    )
    print(f"[bench] wrote {path}")

    search = bench_search(scale, grid)
    print(
        f"[bench] search: {search['search']['searches_per_second']:.0f} "
        f"searches/s; parallel trials jobs=2 "
        f"{search['parallel_trials']['speedup']:.2f}x, "
        f"bit_identical={search['parallel_trials']['bit_identical']}"
    )
    snapshot_scaling = bench_snapshot_scaling(scale)
    search["snapshot_scaling"] = snapshot_scaling
    if "skipped" not in snapshot_scaling:
        bytes_row = snapshot_scaling["pickled_trial_bytes"]
        jobs_text = ", ".join(
            f"jobs={jobs} {row['speedup_vs_serial']:.2f}x"
            for jobs, row in snapshot_scaling["jobs"].items()
        )
        print(
            f"[bench] snapshot scaling: {bytes_row['snapshot_ref']} B/trial "
            f"shipped vs {bytes_row['gridship']} B gridship "
            f"({bytes_row['ratio']:.3%}); {jobs_text}"
        )
    path = _write(args.out_dir, "search", scale, search, engines=("object",))
    print(f"[bench] wrote {path}")

    array_search = bench_array_search(scale, grid)
    if "skipped" not in array_search:
        print(
            f"[bench] array search: object "
            f"{array_search['object']['searches_per_second']:,.0f}/s vs batch "
            f"{array_search['batch']['searches_per_second']:,.0f}/s "
            f"({array_search['speedup']:.1f}x); found-rate delta "
            f"{array_search['found_rate_rel_delta']:.3%}, messages delta "
            f"{array_search['mean_messages_rel_delta']:.3%}"
        )
        path = _write(
            args.out_dir, "array_search", scale, array_search,
            engines=("object-dfs", "batch-dfs"),
        )
        print(f"[bench] wrote {path}")
    else:
        print(f"[bench] array search skipped: {array_search['skipped']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
