"""Command-line interface: ``pgrid`` (or ``python -m repro``).

Subcommands
-----------
``build``
    Construct a P-Grid and print the construction report; optionally save a
    JSON snapshot.
``search``
    Load a snapshot and run one search (optionally under churn and
    faults) through ``Grid.serve`` on any of the three drivers
    (``--driver engine|node|async``), or one range query (``--high``).
``swarm``
    Build a grid, run every peer as an asyncio task and drive a mixed
    query/update workload against it (the 1k-node smoke gate).
``analyze``
    Run the §4 sizing planner for a workload.
``info``
    Print structural statistics of a snapshot grid (depth/replication
    distributions, storage footprints, invariant audit).
``scenario``
    Run a declarative end-to-end scenario (build + seed + mixed workload)
    and print its metrics.
``stats``
    Run a scenario with a :class:`~repro.obs.MetricsProbe` attached and
    print the full metrics registry (optionally exported to JSON/CSV).
``experiment``
    Run one of the paper-reproduction experiments and print its table.
``report``
    Run several experiments and write one combined markdown report.
"""

from __future__ import annotations

import argparse
import inspect
import random
import sys
import time
from typing import Any, Callable, Sequence

from repro.api import DRIVERS, Grid
from repro.core import keys as keyspace
from repro.core.analysis import plan_grid
from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.search import SearchEngine
from repro.errors import UnknownPeerError
from repro.experiments import (
    ablations,
    analysis_example,
    convergence,
    fig4_replicas,
    fig5_update_strategies,
    replication,
    resilience,
    scaling_comparison,
    search_reliability,
    table1_construction_scaling,
    table2_maxl,
    table3_recmax,
    table4_refmax,
    table6_tradeoff,
)
from repro.experiments.common import ExperimentResult, run_scenario_trials
from repro.perf.parallel import parallel_starmap
from repro.sim import rng as rngmod
from repro.sim.builder import GridBuilder, construct_grid
from repro.sim.churn import BernoulliChurn
from repro.sim.persistence import load_grid, save_grid

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_construction_scaling.run,
    "table2": table2_maxl.run,
    "table3": table3_recmax.run,
    "table4": lambda: table4_refmax.run(bounded_fanout=False),
    "table5": lambda: table4_refmax.run(bounded_fanout=True),
    "fig4": fig4_replicas.run,
    "fig5": fig5_update_strategies.run,
    "search_reliability": search_reliability.run,
    "resilience": resilience.run,
    "replication": replication.run,
    "table6": table6_tradeoff.run,
    "discussion_scaling": scaling_comparison.run,
    "construction_scale": scaling_comparison.run_construction_scale,
    "analysis_example": analysis_example.run,
    "ablation_online_prob": ablations.run_online_prob,
    "ablation_skew": ablations.run_skew,
    "ablation_adaptive_split": ablations.run_adaptive_split,
    "ablation_membership_churn": ablations.run_membership_churn,
    "ablation_construction_churn": ablations.run_construction_under_churn,
    "ablation_shortcut_cache": ablations.run_shortcut_cache,
    "ablation_proximity": ablations.run_proximity,
    "ablation_meeting_schedulers": ablations.run_meeting_schedulers,
    "convergence": convergence.run,
}


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """The workload flags ``scenario`` and ``stats`` share (see
    :func:`_scenario_spec`)."""
    parser.add_argument("--peers", type=int, default=512)
    parser.add_argument("--maxl", type=int, default=6)
    parser.add_argument("--refmax", type=int, default=5)
    parser.add_argument("--items-per-peer", type=int, default=4)
    parser.add_argument("--key-length", type=int, default=8)
    parser.add_argument("--zipf", type=float, default=0.0,
                        help="Zipf exponent for keys (0 = uniform)")
    parser.add_argument("--p-online", type=float, default=1.0)
    parser.add_argument("--operations", type=int, default=2000)
    parser.add_argument("--update-fraction", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)


def _scenario_spec(args: argparse.Namespace, **extra: Any):
    """The :class:`~repro.sim.scenario.ScenarioSpec` of the shared
    workload flags; *extra* sets the remaining spec fields."""
    from repro.sim.scenario import KeyDistribution, ScenarioSpec

    return ScenarioSpec(
        n_peers=args.peers,
        config=PGridConfig(
            maxl=args.maxl, refmax=args.refmax, recmax=2, recursion_fanout=2
        ),
        items_per_peer=args.items_per_peer,
        key_length=args.key_length,
        key_distribution=(
            KeyDistribution.ZIPF if args.zipf > 0 else KeyDistribution.UNIFORM
        ),
        zipf_exponent=args.zipf if args.zipf > 0 else 1.0,
        p_online=args.p_online,
        operations=args.operations,
        update_fraction=args.update_fraction,
        seed=args.seed,
        **extra,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgrid",
        description="P-Grid (Aberer 2002) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a P-Grid")
    build.add_argument("--peers", type=int, default=500)
    build.add_argument("--maxl", type=int, default=6)
    build.add_argument("--refmax", type=int, default=2)
    build.add_argument("--recmax", type=int, default=2)
    build.add_argument("--fanout", type=int, default=2,
                       help="case-4 recursion fan-out bound (0 = unbounded)")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--threshold", type=float, default=0.99,
                       help="convergence threshold as a fraction of maxl")
    build.add_argument("--max-exchanges", type=int, default=5_000_000)
    build.add_argument("--core", choices=("object", "batch"),
                       default="object",
                       help="construction engine: object (reference) or batch "
                            "(vectorized rounds, needs numpy)")
    build.add_argument("--snapshot", type=str, default=None,
                       help="write the constructed grid to this JSON file")
    build.add_argument("--trace", action="store_true",
                       help="record exchange events (bounded) and print a summary")
    build.add_argument("--trials", type=int, default=1,
                       help="number of independent builds with derived per-trial "
                            "seeds (aggregate statistics are printed)")
    build.add_argument("--jobs", type=int, default=1,
                       help="worker processes for --trials > 1 (0 = one per CPU); "
                            "results are bit-identical to --jobs 1")

    search = sub.add_parser("search", help="search a snapshot grid")
    search.add_argument("snapshot", type=str)
    search.add_argument("key", type=str)
    search.add_argument("--start", type=int, default=0)
    search.add_argument("--high", type=str, default=None,
                        help="upper bound: range query over [KEY, HIGH] "
                             "via the canonical trie cover (equal key "
                             "widths; engine driver only)")
    search.add_argument("--recbreadth", type=int, default=2,
                        help="fan-out per divergence level for --high "
                             "range queries")
    search.add_argument("--p-online", type=float, default=1.0)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--driver", choices=DRIVERS, default="engine",
                        help="Grid.serve driver: in-process engine, the "
                             "message-driven node over the simulated "
                             "transport, or the asyncio mailbox runtime "
                             "(same protocol machines either way)")
    search.add_argument("--trace", action="store_true",
                        help="dump the trace events of the search")
    faults = search.add_argument_group(
        "fault injection & resilience (see docs/RESILIENCE.md)"
    )
    faults.add_argument("--retry-attempts", type=int, default=1,
                        help="contact attempts per reference (1 = no retry)")
    faults.add_argument("--retry-base-delay", type=float, default=1.0,
                        help="simulated backoff before the 2nd attempt")
    faults.add_argument("--retry-backoff", type=float, default=2.0,
                        help="exponential backoff factor between attempts")
    faults.add_argument("--retry-deadline", type=float, default=None,
                        help="cap on accumulated backoff per search")
    faults.add_argument("--self-repair", action="store_true",
                        help="evict+refill references that keep failing")
    faults.add_argument("--evict-after", type=int, default=3,
                        help="consecutive failures before eviction")
    faults.add_argument("--crash-fraction", type=float, default=0.0,
                        help="crash this fraction of peers before searching")
    faults.add_argument("--stale-fraction", type=float, default=0.0,
                        help="corrupt one routing ref on this fraction of peers")
    faults.add_argument("--fault-seed", type=int, default=None,
                        help="seed for fault decisions (default: --seed)")

    swarm = sub.add_parser(
        "swarm",
        help="build a grid and drive a mixed workload on the asyncio runtime",
    )
    swarm.add_argument("--peers", type=int, default=1000)
    swarm.add_argument("--maxl", type=int, default=6)
    swarm.add_argument("--refmax", type=int, default=2)
    swarm.add_argument("--recmax", type=int, default=2)
    swarm.add_argument("--fanout", type=int, default=2,
                       help="case-4 recursion fan-out bound (0 = unbounded)")
    swarm.add_argument("--items-per-peer", type=int, default=1)
    swarm.add_argument("--operations", type=int, default=2000)
    swarm.add_argument("--update-fraction", type=float, default=0.1)
    swarm.add_argument("--concurrency", type=int, default=64,
                       help="operations in flight at once")
    swarm.add_argument("--seed", type=int, default=0)
    swarm.add_argument("--time-budget", type=float, default=0.0,
                       help="fail (exit 1) if the workload takes longer "
                            "than this many wall seconds (0 = no budget)")
    swarm.add_argument("--min-found-rate", type=float, default=1.0,
                       help="fail (exit 1) if fewer searches find their "
                            "key (fraction, default 1.0)")
    swarm.add_argument("--json", type=str, default=None,
                       help="write the swarm report to this JSON file")

    analyze = sub.add_parser("analyze", help="run the §4 sizing planner")
    analyze.add_argument("--d-global", type=int, default=10**7)
    analyze.add_argument("--reference-bytes", type=int, default=10)
    analyze.add_argument("--storage", type=int, default=10**5)
    analyze.add_argument("--p-online", type=float, default=0.3)
    analyze.add_argument("--refmax", type=int, default=20)

    info = sub.add_parser("info", help="inspect a snapshot grid")
    info.add_argument("snapshot", type=str)

    scenario = sub.add_parser(
        "scenario", help="run a declarative end-to-end scenario"
    )
    _add_scenario_arguments(scenario)
    scenario.add_argument("--replication",
                          choices=("static", "sqrt", "adaptive"), default=None,
                          help="attach the query-load replica balancer "
                               "(default: off; 'static' attaches it as an "
                               "inert baseline)")
    scenario.add_argument("--replicate-threshold", type=float, default=4.0,
                          help="per-replica EWMA load above which a group "
                               "is considered hot")
    scenario.add_argument("--retract-floor", type=float, default=0.25,
                          help="per-replica EWMA load below which a replica "
                               "may retract and convert")
    scenario.add_argument("--balance-every", type=int, default=50,
                          help="run balancing meetings every N operations")
    scenario.add_argument("--balance-meetings", type=int, default=4,
                          help="exchange meetings per balancing interval")

    stats = sub.add_parser(
        "stats", help="run an instrumented scenario and print the metrics registry"
    )
    _add_scenario_arguments(stats)
    stats.add_argument("--json", type=str, default=None,
                       help="write the metrics snapshot to this JSON file")
    stats.add_argument("--csv", type=str, default=None,
                       help="write the flat metric rows to this CSV file")
    stats.add_argument("--trials", type=int, default=1,
                       help="independent scenario replays with derived per-trial "
                            "seeds; registries are merged via MetricsRegistry.merge")
    stats.add_argument("--jobs", type=int, default=1,
                       help="worker processes for --trials > 1 (0 = one per CPU); "
                            "results are bit-identical to --jobs 1")

    experiment = sub.add_parser(
        "experiment", help="run a paper-reproduction experiment"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument(
        "--core", choices=("object", "batch"), default="object",
        help="query plane for experiments that support it (fig5, table6, "
             "search_reliability): 'batch' runs the vectorized batch "
             "engine over gridless state — required for the 100k-peer "
             "REPRO_SCALE=large profile",
    )
    experiment.add_argument(
        "--save", type=str, default=None, help="directory for CSV/JSON output"
    )
    experiment.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for experiments that sweep independent trial "
             "points (0 = one per CPU); ignored by single-run experiments",
    )

    report = sub.add_parser(
        "report", help="run several experiments into one markdown report"
    )
    report.add_argument(
        "--experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS),
        default=["analysis_example", "table1", "table3", "table5"],
        help="experiment ids to include (default: the cheap core set)",
    )
    report.add_argument("--out", type=str, default="REPORT.md")
    report.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for experiments that support parallel trials",
    )
    return parser


def _construct(args: argparse.Namespace, seed: int, probe=None):
    """Create ``--peers`` peers and build them to convergence with
    ``--core`` or, given an exchange *probe*, with the object core's
    probed exchange engine.  Returns ``(grid, report)``."""
    config = PGridConfig(
        maxl=args.maxl,
        refmax=args.refmax,
        recmax=args.recmax,
        recursion_fanout=args.fanout if args.fanout > 0 else None,
    )
    grid = PGrid(config, rng=random.Random(seed))
    grid.add_peers(args.peers)
    budget = {"threshold_fraction": args.threshold, "max_exchanges": args.max_exchanges}
    if probe is None:
        return grid, construct_grid(grid, engine=args.core, **budget)
    from repro.core.exchange import ExchangeEngine

    builder = GridBuilder(grid, engine=ExchangeEngine(grid, probe=probe))
    return grid, builder.build(**budget)


def _build_trial(args: argparse.Namespace, seed: int) -> dict[str, Any]:
    """One ``--trials`` construction (module-level so --jobs can pickle it)."""
    grid, report = _construct(args, seed)
    return {
        "seed": seed,
        "converged": report.converged,
        "exchanges": report.exchanges,
        "meetings": report.meetings,
        "average_depth": report.average_depth,
        "exchanges_per_peer": report.exchanges_per_peer,
        "routing_violations": len(grid.audit_routing()),
    }


def _cmd_build(args: argparse.Namespace) -> int:
    if args.trials < 1:
        print("--trials must be >= 1", file=sys.stderr)
        return 2
    if args.trials > 1:
        if args.snapshot or args.trace:
            print(
                "--snapshot/--trace need a single build (--trials 1)",
                file=sys.stderr,
            )
            return 2
        trial_kwargs = [
            {"args": args, "seed": rngmod.derive_seed(args.seed, f"build-trial-{index}")}
            for index in range(args.trials)
        ]
        reports = parallel_starmap(_build_trial, trial_kwargs, jobs=args.jobs)
        for index, report in enumerate(reports):
            print(
                f"trial {index}: converged={report['converged']} "
                f"exchanges={report['exchanges']} "
                f"avg_depth={report['average_depth']:.3f} "
                f"e/N={report['exchanges_per_peer']:.2f} "
                f"violations={report['routing_violations']}"
            )
        exchange_counts = [report["exchanges"] for report in reports]
        print(
            f"aggregate over {args.trials} trials: "
            f"mean_e={sum(exchange_counts) / len(exchange_counts):.1f} "
            f"min_e={min(exchange_counts)} max_e={max(exchange_counts)} "
            f"converged={sum(r['converged'] for r in reports)}/{args.trials}"
        )
        return 0
    trace = None
    if args.trace:
        if args.core != "object":
            print("--trace needs the object core (per-exchange probes)",
                  file=sys.stderr)
            return 2
        from repro.obs import TraceRecorder

        trace = TraceRecorder(limit=100_000)
    grid, report = _construct(args, args.seed, probe=trace)
    print(
        f"converged={report.converged} exchanges={report.exchanges} "
        f"meetings={report.meetings} avg_depth={report.average_depth:.3f} "
        f"e/N={report.exchanges_per_peer:.2f}"
    )
    violations = grid.audit_routing()
    print(f"routing invariant violations: {len(violations)}")
    if trace is not None:
        _print_trace_summary(trace)
    if args.snapshot:
        path = save_grid(grid, args.snapshot)
        print(f"snapshot written to {path}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    """One query through :meth:`Grid.serve` (``--high``: :meth:`Grid.search_range`)."""
    if args.high is not None and args.driver != "engine":
        print(
            "--high range queries need --driver engine "
            "(the node and async services have no range call)",
            file=sys.stderr,
        )
        return 2
    grid = load_grid(args.snapshot, rng=random.Random(args.seed))
    try:
        keyspace.validate_key(args.key)
        if args.high is not None:
            keyspace.range_cover(args.key, args.high)
        grid.peer(args.start)
    except (ValueError, UnknownPeerError) as exc:
        print(f"pgrid search: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.p_online < 1.0:
        grid.online_oracle = BernoulliChurn(args.p_online, random.Random(args.seed + 1))
    if args.crash_fraction > 0.0 or args.stale_fraction > 0.0:
        from repro.faults import FaultInjector, FaultPlan

        fault_seed = args.fault_seed if args.fault_seed is not None else args.seed
        injector = FaultInjector(grid, FaultPlan(seed=fault_seed))
        if args.crash_fraction > 0.0:
            victims = injector.crash_random(args.crash_fraction)
            print(f"crashed {len(victims)} peers: {victims[:10]}"
                  f"{' ...' if len(victims) > 10 else ''}")
        if args.stale_fraction > 0.0:
            corrupted = injector.inject_stale_refs(args.stale_fraction)
            print(f"corrupted {corrupted} routing references")
        injector.install_oracle()
    retry = None
    if args.retry_attempts > 1:
        from repro.faults import RetryPolicy

        retry = RetryPolicy(
            attempts=args.retry_attempts,
            base_delay=args.retry_base_delay,
            backoff_factor=args.retry_backoff,
            max_delay=max(args.retry_base_delay, 60.0),
            deadline=args.retry_deadline,
        )
    healer = None
    if args.self_repair:
        from repro.faults import RefHealer

        healer = RefHealer(grid, evict_after=args.evict_after)
    trace = None
    if args.trace:
        from repro.obs import TraceRecorder

        trace = TraceRecorder()
    facade = Grid(grid, probe=trace, retry=retry, healer=healer)
    transport = None
    if args.high is not None:
        result = facade.search_range(
            args.key, args.high, start=args.start, recbreadth=args.recbreadth
        )
        cover_text = ",".join(prefix or "''" for prefix in result.cover)
        print(
            f"range=[{args.key}, {args.high}] cover={cover_text} "
            f"responders={len(result.responders)} messages={result.messages} "
            f"failed_attempts={result.failed_attempts}"
        )
    else:
        with facade.serve(args.driver) as service:
            result = service.search(args.key, start=args.start)
        transport = getattr(service, "transport", None)
        print(
            f"found={result.found} responder={result.responder} "
            f"messages={result.messages} failed_attempts={result.failed_attempts}"
        )
    if retry is not None:
        print(f"retry backoff accrued: {result.retry_delay:.2f} time units")
    if healer is not None:
        stats = healer.stats
        print(
            f"repair: evictions={stats.evictions} refills={stats.refills} "
            f"probes={stats.probes_sent}"
        )
    for ref in result.data_refs:
        print(f"  data: key={ref.key} holder={ref.holder} version={ref.version}")
    if transport is not None:
        stats = transport.stats
        print(
            f"transport: delivered={stats.total_delivered()} "
            f"offline_failures={stats.offline_failures} "
            f"simulated_time={stats.simulated_time:.2f}"
        )
    if trace is not None:
        print("trace:")
        for line in trace.replay():
            print(f"  {line}")
    return 0 if result.found else 1


def _print_trace_summary(trace) -> int:
    """Per-kind event counts for a (possibly bounded) trace."""
    from collections import Counter as _Counter

    by_kind = _Counter(event.kind for event in trace.events)
    print(f"trace: {len(trace)} events recorded, {trace.dropped} dropped")
    for kind, count in sorted(by_kind.items()):
        print(f"  {kind:<14} {count}")
    return 0


def _print_memory_footprint(config: PGridConfig, n_peers: int, seed: int) -> None:
    """Print peak RSS, per-peer bytes and query throughput per representation.

    Resident memory, not CPU, is what bounds large-population simulation,
    so ``pgrid stats`` measures a representative converged grid at the
    scenario's population in both representations: the object core's
    heap (peers, routing lists, path strings) and the packed layout the
    same state bridges into, exported as one shared-memory segment.  The
    same grid then answers a fixed query batch through both query planes
    so the memory trade-off can be read next to the throughput it buys.
    """
    from repro.fast import HAVE_NUMPY
    from repro.fast.mem import grid_memory_report

    grid = PGrid(config, rng=rngmod.derive(seed, "stats-memory"))
    grid.add_peers(n_peers)
    GridBuilder(grid).build(max_exchanges=500 * n_peers, raise_on_budget=False)
    agrid = snapshot = None
    if HAVE_NUMPY:
        from repro.fast import ArrayGrid, GridSnapshot

        agrid = ArrayGrid.from_pgrid(grid)
        snapshot = GridSnapshot.from_arraygrid(agrid)
    try:
        report = grid_memory_report(pgrid=grid, snapshot=snapshot)
        print()
        peak = report.get("peak_rss_bytes")
        peak_text = f"{peak / 1e6:,.0f} MB" if peak is not None else "unknown"
        print(f"memory: peak RSS {peak_text} (process, high-water mark)")
        core = report.get("object_core")
        if core:
            print(
                f"  object core: {core['bytes_per_peer']:,.0f} B/peer "
                f"({core['bytes_total'] / 1e6:.1f} MB for "
                f"{core['peers']:,} peers, heap)"
            )
        shared = report.get("shared_memory")
        if shared:
            print(
                f"  shared memory: {shared['bytes_total'] / 1e6:.1f} MB in "
                f"{shared['segments']} segment(s) — off-heap pages, mapped "
                f"once per attached process (GridSnapshot)"
            )
        elif not HAVE_NUMPY:
            print("  shared memory: unavailable (numpy is not installed)")
    finally:
        if snapshot is not None:
            snapshot.close()
            snapshot.unlink()
    _print_query_throughput(grid, agrid, seed)


def _print_query_throughput(grid: PGrid, agrid, seed: int) -> None:
    """Time one query batch through both planes on the same grid state."""
    from repro.sim.workload import UniformKeyWorkload

    n_queries = min(500, 5 * len(grid))
    workload = UniformKeyWorkload(
        grid.config.maxl - 1, rngmod.derive(seed, "stats-query-keys")
    )
    keys = [workload.next_key() for _ in range(n_queries)]
    addresses = grid.addresses()
    start_rng = rngmod.derive(seed, "stats-query-starts")
    starts = [start_rng.choice(addresses) for _ in range(n_queries)]
    print(
        f"query plane: {n_queries} searches, "
        f"key length {grid.config.maxl - 1}"
    )

    engine = SearchEngine(grid)
    began = time.perf_counter()
    object_messages = sum(
        engine.query_from(start, key).messages
        for start, key in zip(starts, keys)
    )
    object_seconds = max(time.perf_counter() - began, 1e-9)
    print(
        f"  object core: {n_queries / object_seconds:,.0f} searches/s, "
        f"{object_messages / n_queries:.2f} messages/search"
    )

    if agrid is None:
        print("  array core: unavailable (numpy is not installed)")
        return
    from repro.fast.query import BatchQueryEngine

    batch = BatchQueryEngine.from_arraygrid(
        agrid, seed=rngmod.derive_seed(seed, "stats-query-batch")
    )
    index = {address: i for i, address in enumerate(batch.addresses)}
    began = time.perf_counter()
    result = batch.search_many(keys, [index[start] for start in starts])
    batch_seconds = max(time.perf_counter() - began, 1e-9)
    print(
        f"  array core: {n_queries / batch_seconds:,.0f} searches/s, "
        f"{result.mean_messages:.2f} messages/search"
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import MetricsProbe
    from repro.report.tables import render_table
    from repro.sim.scenario import run_scenario

    spec = _scenario_spec(args)
    if args.trials < 1:
        print("--trials must be >= 1", file=sys.stderr)
        return 2
    if args.trials > 1:
        all_metrics, registry = run_scenario_trials(
            spec, args.trials, jobs=args.jobs
        )
        title = (
            f"merged metrics for {args.trials} trials x {args.operations} "
            f"operations over {args.peers} peers (p_online={args.p_online})"
        )
    else:
        probe = MetricsProbe()
        all_metrics = [run_scenario(spec, probe=probe)]
        registry = probe.registry
        title = (
            f"metrics for {args.operations} operations over "
            f"{args.peers} peers (p_online={args.p_online})"
        )
    print(
        render_table(
            ["metric", "type", "field", "value"],
            list(registry.to_rows()),
            title=title,
            float_digits=3,
        )
    )
    print()
    for index, metrics in enumerate(all_metrics):
        prefix = f"trial {index}: " if args.trials > 1 else "scenario: "
        print(
            f"{prefix}search_success={metrics.search_success_rate:.4f} "
            f"read_success={metrics.read_success_rate:.4f} "
            f"update_coverage={metrics.update_coverage_mean:.4f}"
        )
    _print_memory_footprint(spec.config, args.peers, args.seed)
    if args.json:
        path = registry.write_json(args.json)
        print(f"metrics snapshot written to {path}")
    if args.csv:
        path = registry.write_csv(args.csv)
        print(f"metric rows written to {path}")
    return 0


def _cmd_swarm(args: argparse.Namespace) -> int:
    import asyncio
    import json as jsonmod

    from repro.aio import AsyncSwarm, seed_items

    grid = Grid.build(
        args.peers,
        maxl=args.maxl,
        refmax=args.refmax,
        recmax=args.recmax,
        fanout=args.fanout if args.fanout > 0 else None,
        seed=args.seed,
    )
    report = grid.report
    print(
        f"grid: {args.peers} peers, converged={report.converged} "
        f"avg_depth={report.average_depth:.3f} exchanges={report.exchanges}"
    )
    keys = seed_items(grid.pgrid, items_per_peer=args.items_per_peer, seed=args.seed)
    print(f"seeded {len(keys)} distinct keys")

    async def _run():
        async with AsyncSwarm(grid.pgrid) as swarm:
            return await swarm.run_workload(
                operations=args.operations,
                keys=keys,
                update_fraction=args.update_fraction,
                concurrency=args.concurrency,
                seed=args.seed,
            )

    swarm_report = asyncio.run(_run())
    snapshot = swarm_report.snapshot()
    print(
        f"workload: {swarm_report.operations} ops "
        f"({swarm_report.searches} searches / {swarm_report.updates} updates) "
        f"in {swarm_report.wall_seconds:.2f}s "
        f"({swarm_report.ops_per_second:.0f} ops/s)"
    )
    print(
        f"results: found_rate={swarm_report.found_rate:.4f} "
        f"update_failures={swarm_report.update_failures} "
        f"messages={swarm_report.messages_delivered} "
        f"offline_failures={swarm_report.offline_failures}"
    )
    print(
        f"mailboxes: max_depth={swarm_report.max_mailbox_depth} "
        f"mean_wait={swarm_report.mean_queue_wait * 1000:.2f}ms "
        f"max_wait={swarm_report.max_queue_wait * 1000:.2f}ms"
    )
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(
            jsonmod.dumps(snapshot, indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.json}")
    failed = False
    for error in swarm_report.errors[:5]:
        print(f"operation error: {error}", file=sys.stderr)
        failed = True
    if swarm_report.found_rate < args.min_found_rate:
        print(
            f"FAIL: found_rate {swarm_report.found_rate:.4f} < "
            f"required {args.min_found_rate:.4f}",
            file=sys.stderr,
        )
        failed = True
    if args.time_budget > 0 and swarm_report.wall_seconds > args.time_budget:
        print(
            f"FAIL: workload took {swarm_report.wall_seconds:.2f}s > "
            f"budget {args.time_budget:.2f}s",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    plan = plan_grid(
        args.d_global,
        reference_bytes=args.reference_bytes,
        storage_bytes_per_peer=args.storage,
        p_online=args.p_online,
        refmax=args.refmax,
    )
    print(f"key length k        : {plan.key_length}")
    print(f"i_leaf              : {plan.i_leaf}")
    print(f"refmax              : {plan.refmax}")
    print(f"min peers (eq. 2)   : {plan.min_peers}")
    print(f"success prob (eq. 3): {plan.success_probability:.6f}")
    print(f"storage used        : {plan.storage_used} / {plan.storage_bytes_per_peer} bytes")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.report.hist import render_histogram

    grid = load_grid(args.snapshot)
    print(f"peers               : {len(grid)}")
    print(f"config              : {grid.config}")
    print(f"average path length : {grid.average_path_length():.3f}")
    print(f"average replication : {grid.average_replication():.2f}")
    print(f"distinct paths      : {len(grid.replica_groups())}")
    print(f"total routing refs  : {grid.total_routing_refs()}")
    print(f"max index footprint : {grid.max_index_footprint()}")
    violations = grid.audit_routing()
    print(f"invariant violations: {len(violations)}")
    for violation in violations[:10]:
        print(f"  {violation}")
    print()
    print(
        render_histogram(
            sorted(grid.path_length_histogram().items()),
            title="peers per path length",
            value_label="depth",
            count_label="peers",
        )
    )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.sim.scenario import run_scenario

    spec = _scenario_spec(
        args,
        replication=args.replication,
        replicate_threshold=args.replicate_threshold,
        retract_floor=args.retract_floor,
        balance_every=args.balance_every,
        balance_meetings=args.balance_meetings,
    )
    metrics = run_scenario(spec)
    for key, value in metrics.as_dict().items():
        if isinstance(value, float):
            print(f"{key:<26}: {value:.4f}")
        else:
            print(f"{key:<26}: {value}")
    return 0


def _run_experiment(
    name: str, *, jobs: int = 1, core: str = "object"
) -> ExperimentResult:
    """Invoke a registered experiment, passing ``jobs``/``core`` where
    supported."""
    runner = EXPERIMENTS[name]
    parameters = inspect.signature(runner).parameters
    kwargs: dict[str, Any] = {}
    if jobs != 1 and "jobs" in parameters:
        kwargs["jobs"] = jobs
    if core != "object":
        if "core" not in parameters:
            raise SystemExit(
                f"experiment {name!r} does not support --core {core}; "
                f"the batch query plane backs fig5, table6 and "
                f"search_reliability"
            )
        kwargs["core"] = core
    return runner(**kwargs)


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = _run_experiment(
        args.name, jobs=args.jobs, core=getattr(args, "core", "object")
    )
    print(result.to_text(float_digits=3))
    if args.save:
        result.save(args.save)
        print(f"\nresults written under {args.save}/")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    sections = ["# P-Grid reproduction report", ""]
    for name in args.experiments:
        print(f"running {name} ...")
        result = _run_experiment(name, jobs=args.jobs)
        sections.append(f"## {name}")
        sections.append("")
        sections.append("```")
        sections.append(result.to_text(float_digits=3))
        sections.append("```")
        sections.append("")
    target = Path(args.out)
    target.write_text("\n".join(sections), encoding="utf-8")
    print(f"report written to {target}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "search": _cmd_search,
        "swarm": _cmd_swarm,
        "analyze": _cmd_analyze,
        "info": _cmd_info,
        "scenario": _cmd_scenario,
        "stats": _cmd_stats,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
