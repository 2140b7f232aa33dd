"""The benchmark's metric registry: every name, unit, direction, bound,
the workloads it applies to, and — for layer metrics — the end-to-end
metric it should move.  ``BENCHMARK.json`` is this table in the driver's
schema (a self-test keeps the two equal); ``compare.py`` reads the bounds
from here.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from workloads import WORKLOADS

ALL = WORKLOADS
SERVING = ("engine_mixed", "node_mixed", "engine_zipf", "tcp_search", "array_batch")
PER_SEARCH = ("engine_mixed", "node_mixed", "engine_zipf", "tcp_search")

#: The command a user types; the driver appends ``--workload --seed
#: --seconds --trace`` to the same program.
COMMAND = ("python3", "benchmarks/e2e/run.py")
TRACE_COMMAND = "python3 benchmarks/e2e/run.py --seed S --trace [--workload W] [--out FILE]"
RUN_SECONDS = 10


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the baseline median by which the metric may get worse.
    bound: float
    workloads: tuple[str, ...]
    definition: str
    #: Reported by every workload, so the driver can gate it.  The others
    #: apply to some workloads only; they are printed, compared by
    #: ``compare.py`` and mirrored as ``e2e.*`` layer metrics.
    gated: bool = False
    #: Exact per seed (a count, not a timing).
    exact: bool = False


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "median over the run's set-ups of the wall time to build, seed, serve/listen "
             "and bridge until the first op can be issued", gated=True),
    EndToEnd("ops_s", "1/s", "higher", 0.25, ALL,
             "client ops of the list / timed wall of one repetition (build_snapshot: "
             "worker-answered searches / sweep wall including dispatch); like every "
             "per-repetition timing, the run's quiet decile (see quiet())", gated=True),
    EndToEnd("search_ops_s", "1/s", "higher", 0.25, ALL,
             "searches / time spent inside search calls", gated=True),
    EndToEnd("search_p50_us", "us", "lower", 0.20, PER_SEARCH,
             "median per-search latency"),
    EndToEnd("search_p99_us", "us", "lower", 0.25, PER_SEARCH,
             "99th percentile per-search latency (nearest rank, > 10 samples beyond it)"),
    EndToEnd("update_p50_us", "us", "lower", 0.20,
             ("engine_mixed", "node_mixed", "engine_zipf"),
             "median per-update latency"),
    EndToEnd("range_p50_us", "us", "lower", 0.20, ("engine_mixed", "node_mixed"),
             "median per-range-query latency"),
    EndToEnd("msgs_per_op", "count", "lower", 0.10, ALL,
             "protocol messages (result .messages) / ops attempted, repetition 1",
             gated=True, exact=True),
    EndToEnd("found_rate", "share", "higher", 0.03, ALL,
             "searches that located a responsible replica / searches attempted, "
             "repetition 1 (a miss under churn is a valid eq. (3) outcome, not a failure)",
             gated=True, exact=True),
    EndToEnd("fail_share", "share", "lower", 0.0, ALL,
             "ops that raised, were refused or failed verification / ops attempted; "
             "must be 0 (the driver reads it as failed/attempted)", exact=True),
    EndToEnd("build_s", "s", "lower", 0.15, ("build_snapshot",),
             "construct_snapshot wall (batch build to convergence + export), "
             "median over the run's set-ups"),
    EndToEnd("snapshot_ready_s", "s", "lower", 0.25, ("build_snapshot",),
             "from construct_snapshot returning to the first answer of every worker: "
             "ref ship + attach + engine over the segment (the pool is warmed before "
             "the build, so workers cannot inherit the mapping)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.20, ALL,
             "ru_maxrss of the workload process plus its reaped children", gated=True),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    workloads: tuple[str, ...]
    #: The end-to-end metric(s) this layer metric should move, and where.
    moves: str
    definition: str
    #: ``(span name, "call" | "unit", nanoseconds per output unit, setup?)``
    #: for metrics read straight off the span aggregates: self time per call
    #: (or per work unit).  ``None``: computed by the workload's own code.
    span: tuple[str, str, float, bool] | None = None


def _timed(span: str, per: str = "call", scale: float = 1e3) -> tuple[str, str, float, bool]:
    return (span, per, scale, False)


def _setup(span: str) -> tuple[str, str, float, bool]:
    return (span, "call", 1e9, True)


_OBJECT = ("engine_mixed", "engine_zipf")

PER_LAYER = (
    # -- facade ---------------------------------------------------------------
    Layer("api.search_self_us", "us", "lower", ("engine_mixed", "node_mixed", "engine_zipf"),
          "search_p50_us on engine_mixed / node_mixed / engine_zipf",
          "self time per Grid.search / NodeService.search call", _timed("api.search")),
    Layer("api.update_self_us", "us", "lower",
          ("engine_mixed", "node_mixed", "engine_zipf", "array_batch"),
          "update_p50_us on engine_mixed / node_mixed",
          "self time per Grid.update / NodeService.update call", _timed("api.update")),
    Layer("api.search_many_self_us", "us", "lower", ("array_batch",),
          "search_ops_s on array_batch",
          "self time per Grid.search_many call (address -> index mapping of the batch)",
          _timed("api.search_many")),
    # -- core engines -----------------------------------------------------------
    Layer("core.search.query_from_us", "us", "lower", _OBJECT,
          "search_p50_us, ops_s on engine_mixed (and engine_zipf misses)",
          "self time per SearchEngine.query_from call", _timed("core.search.query_from")),
    Layer("core.search.query_range_us", "us", "lower", ("engine_mixed",),
          "range_p50_us, ops_s on engine_mixed",
          "self time per SearchEngine.query_range call (cover, dedup, filter)",
          _timed("core.search.query_range")),
    Layer("core.updates.publish_us", "us", "lower", _OBJECT + ("array_batch",),
          "update_p50_us, ops_s on engine_mixed",
          "self time per UpdateEngine.publish call", _timed("core.updates.publish")),
    Layer("core.storage.lookup_us", "us", "lower",
          ("engine_mixed", "node_mixed", "engine_zipf", "tcp_search"),
          "search_p50_us, range_p50_us on engine_mixed, node_mixed, tcp_search",
          "self time per DataStore.lookup call", _timed("core.storage.lookup")),
    Layer("core.search.hops_per_search", "count", "lower", _OBJECT,
          "msgs_per_op, search_p50_us on engine_mixed",
          "probe on_forward events inside depth-first searches / searches"),
    Layer("core.search.offline_misses_per_search", "count", "lower", _OBJECT,
          "search_p99_us on engine_mixed",
          "probe on_offline_miss events inside depth-first searches / searches"),
    Layer("core.search.backtracks_per_search", "count", "lower", _OBJECT,
          "search_p99_us on engine_mixed",
          "probe on_backtrack events inside depth-first searches / searches"),
    Layer("core.shortcuts.query_from_us", "us", "lower", ("engine_zipf",),
          "search_p50_us on engine_zipf; none on engine_mixed",
          "self time per ShortcutSearchEngine.query_from call",
          _timed("core.shortcuts.query_from")),
    Layer("core.shortcuts.hit_rate", "share", "higher", ("engine_zipf",),
          "msgs_per_op, search_p50_us on engine_zipf; none on engine_mixed",
          "ShortcutSearchEngine.stats.hit_rate over the traced pass"),
    # -- set-up -------------------------------------------------------------------
    Layer("core.grid.seed_index_s", "s", "lower", SERVING,
          "setup_s on every serving workload",
          "PGrid.seed_index of the catalogue", _setup("core.grid.seed_index")),
    Layer("sim.builder.construct_grid_s", "s", "lower", SERVING,
          "setup_s on every serving workload",
          "self time of construct_grid (array bridge and write-back around the batch build)",
          _setup("sim.builder.construct_grid")),
    Layer("aio.swarm.start_s", "s", "lower", ("tcp_search",),
          "setup_s on tcp_search", "AsyncSwarm.start (one mailbox worker per peer)",
          _setup("aio.swarm.start")),
    # -- direct protocol driver ---------------------------------------------------
    Layer("protocol.direct.run_dfs_us", "us", "lower", _OBJECT,
          "search_p50_us on engine_mixed (one level down: node_mixed, tcp_search)",
          "self time per run_dfs call (the Fig. 2 machine and its trampoline)",
          _timed("protocol.direct.run_dfs")),
    Layer("protocol.direct.run_breadth_us", "us", "lower", _OBJECT + ("array_batch",),
          "update_p50_us, range_p50_us on engine_mixed",
          "self time per run_breadth call", _timed("protocol.direct.run_breadth")),
    # -- sync node driver ---------------------------------------------------------
    Layer("net.node.search_us", "us", "lower", ("node_mixed",),
          "search_p50_us on node_mixed; none on engine_mixed",
          "self time per PGridNode.search call (the initiating hop)",
          _timed("net.node.search")),
    Layer("net.node.range_search_us", "us", "lower", ("node_mixed",),
          "range_p50_us on node_mixed", "self time per PGridNode.range_search call",
          _timed("net.node.range_search")),
    Layer("net.node.publish_us", "us", "lower", ("node_mixed",),
          "update_p50_us on node_mixed", "self time per PGridNode.publish call",
          _timed("net.node.publish")),
    Layer("net.node.handle_us", "us", "lower", ("node_mixed",),
          "search_p50_us, ops_s on node_mixed",
          "self time per PGridNode.handle call (one per delivered message)",
          _timed("net.node.handle")),
    Layer("net.transport.send_us", "us", "lower", ("node_mixed",),
          "search_p50_us, ops_s on node_mixed",
          "self time per LocalTransport.send call (oracle, accounting, dispatch)",
          _timed("net.transport.send")),
    Layer("net.transport.messages_per_op", "count", "lower", ("node_mixed",),
          "msgs_per_op on node_mixed",
          "TrafficStats.total_delivered() / ops of the traced repetition"),
    # -- wire ---------------------------------------------------------------------
    Layer("net.wire.encode_us", "us", "lower", ("tcp_search",),
          "search_p50_us on tcp_search only", "self time per wire.encode_message call",
          _timed("net.wire.encode")),
    Layer("net.wire.decode_us", "us", "lower", ("tcp_search",),
          "search_p50_us on tcp_search only", "self time per wire.decode_message call",
          _timed("net.wire.decode")),
    Layer("net.wire.bytes_per_frame", "B", "lower", ("tcp_search",),
          "search_p50_us on tcp_search only",
          "mean encoded body length over the run's real frames"),
    # -- async driver and TCP front door ------------------------------------------
    Layer("aio.tcp.connect_us", "us", "lower", ("tcp_search",),
          "search_p50_us, search_ops_s on tcp_search",
          "self time per asyncio.open_connection (loopback connect)",
          _timed("aio.tcp.connect")),
    Layer("aio.tcp.remote_request_us", "us", "lower", ("tcp_search",),
          "search_p50_us on tcp_search",
          "mean round trip of a PING through remote_request: connection + framing, "
          "no protocol work"),
    Layer("aio.tcp.remote_search_us", "us", "lower", ("tcp_search",),
          "search_p50_us on tcp_search",
          "self time per remote_search call: stream, socket and loop scheduling not "
          "covered by connect / wire / transport spans",
          _timed("aio.tcp.remote_search")),
    Layer("aio.swarm.search_us", "us", "lower", ("tcp_search",),
          "search_p50_us on tcp_search (the async hops under the front door)",
          "mean in-process AsyncSwarm.search latency on the same keys"),
    Layer("aio.node.handle_us", "us", "lower", ("tcp_search",),
          "search_p50_us, search_ops_s on tcp_search",
          "self time per AsyncPGridNode.handle call", _timed("aio.node.handle")),
    Layer("aio.transport.request_us", "us", "lower", ("tcp_search",),
          "search_p50_us, search_ops_s on tcp_search",
          "self time per AsyncTransport.request call (enqueue, wake-up, reply future)",
          _timed("aio.transport.request")),
    Layer("aio.transport.max_mailbox_depth", "count", "lower", ("tcp_search",),
          "search_p99_us on tcp_search", "mailbox_snapshot()['max_depth']"),
    Layer("aio.transport.mean_queue_wait_us", "us", "lower", ("tcp_search",),
          "search_p50_us on tcp_search", "mailbox_snapshot()['mean_wait']"),
    # -- array plane ----------------------------------------------------------------
    Layer("fast.arraygrid.from_pgrid_s", "s", "lower", ("array_batch",),
          "ops_s (re-bridge rounds), setup_s on array_batch",
          "self time per ArrayGrid.from_pgrid call in the timed pass",
          _timed("fast.arraygrid.from_pgrid", scale=1e9)),
    Layer("fast.query.from_arraygrid_s", "s", "lower", ("array_batch",),
          "ops_s (re-bridge rounds), setup_s on array_batch",
          "self time per BatchQueryEngine.from_arraygrid call in the timed pass",
          _timed("fast.query.from_arraygrid", scale=1e9)),
    Layer("fast.query.search_many_us", "us", "lower", ("array_batch", "build_snapshot"),
          "search_ops_s, ops_s on array_batch; ops_s on build_snapshot (workers)",
          "self time of BatchQueryEngine.search_many per query",
          _timed("fast.query.search_many", per="unit")),
    Layer("fast.query.search_b1_us", "us", "lower", ("array_batch",),
          "search_ops_s on array_batch", "per-query time of search_many at batch size 1"),
    Layer("fast.query.search_b64_us", "us", "lower", ("array_batch",),
          "search_ops_s on array_batch", "per-query time of search_many at batch size 64"),
    Layer("fast.query.range_many_us", "us", "lower", ("array_batch",),
          "ops_s on array_batch", "self time of search_range_many per range",
          _timed("fast.query.range_many", per="unit")),
    Layer("fast.query.publish_many_us", "us", "lower", ("array_batch",),
          "ops_s on array_batch", "self time of publish_many per publish",
          _timed("fast.query.publish_many", per="unit")),
    Layer("fast.query.read_many_us", "us", "lower", ("array_batch",),
          "ops_s on array_batch",
          "self time of read_many per read (the nested search_many is its child)",
          _timed("fast.query.read_many", per="unit")),
    Layer("fast.query.waves_per_batch", "count", "lower", ("array_batch",),
          "search_ops_s on array_batch", "probe on_batch_wave / on_batch_search (batch_dfs)"),
    Layer("fast.query.contacts_per_search", "count", "lower", ("array_batch",),
          "msgs_per_op, search_ops_s on array_batch",
          "contacts summed over on_batch_wave / queries (batch_dfs)"),
    Layer("fast.query.offline_per_search", "count", "lower", ("array_batch",),
          "search_ops_s on array_batch",
          "offline misses summed over on_batch_wave / queries (batch_dfs)"),
    Layer("fast.batch.build_s", "s", "lower", ALL,
          "build_s on build_snapshot; setup_s elsewhere",
          "self time per BatchGridBuilder.build call during set-up",
          _setup("fast.batch.build")),
    Layer("fast.batch.exchanges_per_s", "1/s", "higher", ("build_snapshot",),
          "build_s on build_snapshot", "report.exchanges / fast.batch.build_s"),
    Layer("fast.batch.exchanges_per_peer", "count", "lower", ("build_snapshot",),
          "build_s on build_snapshot", "construction report's exchanges_per_peer (paper §5.1)"),
    Layer("fast.batch.meetings", "count", "lower", ("build_snapshot",),
          "build_s on build_snapshot", "construction report's meetings"),
    Layer("fast.mem.bytes_per_peer", "B", "lower", ("build_snapshot",),
          "peak_rss_mb on build_snapshot",
          "grid_memory_report shared-memory bytes / peers"),
    # -- snapshots and the pool -------------------------------------------------------
    Layer("fast.snapshot.export_s", "s", "lower", ("build_snapshot",),
          "build_s, setup_s on build_snapshot", "GridSnapshot.from_batch_builder",
          _setup("fast.snapshot.export")),
    Layer("fast.snapshot.segment_mb", "MB", "lower", ("build_snapshot",),
          "peak_rss_mb on build_snapshot", "GridSnapshot.nbytes"),
    Layer("fast.snapshot.handle_bytes", "B", "lower", ("build_snapshot",),
          "snapshot_ready_s on build_snapshot", "len(pickle.dumps(snapshot.ref()))"),
    Layer("fast.snapshot.attach_ms", "ms", "lower", ("build_snapshot",),
          "snapshot_ready_s on build_snapshot",
          "median GridSnapshot.attach of the live segment (measured in the parent)"),
    Layer("fast.snapshot.engine_ms", "ms", "lower", ("build_snapshot",),
          "snapshot_ready_s, ops_s on build_snapshot",
          "mean GridSnapshot.batch_query_engine inside the workers, per trial"),
    Layer("fast.snapshot.fresh_attaches_per_worker", "count", "lower", ("build_snapshot",),
          "snapshot_ready_s on build_snapshot",
          "max fresh_attach_count() any worker reported (1 = attached once)"),
    Layer("fast.snapshot.shm_residue", "count", "lower", ("build_snapshot",),
          "none (a leak check)", "pgrid_snap_* left in /dev/shm after unlink"),
    Layer("perf.pool.warm_s", "s", "lower", ("build_snapshot",),
          "snapshot_ready_s on build_snapshot", "warm_pool(jobs)", _setup("perf.pool.warm")),
    Layer("perf.pool.dispatch_ms_per_trial", "ms", "lower", ("build_snapshot",),
          "ops_s on build_snapshot",
          "(run_trials wall x jobs - in-worker compute) / trials"),
    Layer("perf.jobs2_speedup", "ratio", "higher", ("build_snapshot",),
          "ops_s on build_snapshot",
          "jobs=1 sweep wall / jobs=2 sweep wall; null with the reason on one CPU"),
    # -- replication ----------------------------------------------------------------
    Layer("replication.tracker.observe_us", "us", "lower", ("engine_zipf",),
          "search_p50_us on engine_zipf", "self time per LoadTracker.observe call",
          _timed("replication.tracker.observe")),
    Layer("replication.rebalance_ms_per_meeting", "ms", "lower", ("engine_zipf",),
          "ops_s on engine_zipf", "self time of Grid.rebalance per meeting",
          _timed("replication.rebalance", per="unit", scale=1e6)),
    Layer("replication.conversions", "count", "higher", ("engine_zipf",),
          "msgs_per_op on engine_zipf", "BalanceStats.conversions after the traced pass"),
    Layer("replication.entries_handed_over", "count", "lower", ("engine_zipf",),
          "ops_s on engine_zipf", "BalanceStats.entries_handed_over after the traced pass"),
    Layer("obs.probe_events_per_op", "count", "lower", ("engine_zipf",),
          "search_p50_us, ops_s on engine_zipf",
          "probe callbacks fired / ops (the always-attached LoadProbe rides the same hooks)"),
    # -- context --------------------------------------------------------------------
    Layer("baselines.flooding.msgs_per_search", "count", "lower", ("engine_mixed",),
          "none: context for msgs_per_op (paper §6)",
          "GnutellaNetwork.search messages on a sample of engine_mixed's searches"),
    Layer("baselines.central.msgs_per_search", "count", "lower", ("engine_mixed",),
          "none: context for msgs_per_op (paper §6)",
          "CentralIndexServer.search messages on the same sample"),
    Layer("bench.trace_overhead_pct", "%", "lower", ALL,
          "none: what the traced pass costs over the untraced one",
          "(traced repetition wall / median untraced repetition wall - 1) x 100"),
) + tuple(
    # The workload-specific end-to-end metrics, mirrored so the driver
    # records them (from the untraced pass) although it cannot gate them.
    Layer(f"e2e.{metric.name}", metric.unit, metric.better, metric.workloads,
          "itself", f"untraced-pass {metric.name}: {metric.definition}")
    for metric in END_TO_END
    if not metric.gated and metric.name != "fail_share"
)

E2E = {metric.name: metric for metric in END_TO_END}
LAYERS = {metric.name: metric for metric in PER_LAYER}


def percentile(samples, percent: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    *percent* % of the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = -(-len(ordered) * percent // 100)  # ceil, in integers
    return float(ordered[max(rank, 1) - 1])


def median(values) -> float:
    return float(statistics.median(values))


def quiet(values, better: str) -> float:
    """The value the best tenth of a run's repetitions reach (nearest rank).

    Other tenants of the host only ever slow a repetition down — here by up
    to 1.8x, for tens of seconds at a time — while a change to the program
    moves every repetition, the undisturbed ones too.  So the run's figure
    is read near its quiet end, not at its middle.
    """
    return percentile(values, 90 if better == "higher" else 10)


def benchmark_json(why: dict[str, str]) -> dict:
    """``BENCHMARK.json`` as the driver's contract wants it."""
    return {
        "command": list(COMMAND),
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why[name]} for name in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
            if m.gated
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
