"""Replication-strategy ablation under Zipf query traffic (ROADMAP item 4).

The paper sizes replication statically (§4) assuming uniform queries;
this experiment measures what happens when traffic is Zipf-skewed and the
:mod:`repro.replication` balancer is allowed to adapt.  For each Zipf
exponent the same grid (identical build seed) is run under each strategy:

``static``
    the §4 baseline — the balancer is attached but inert, so the column
    doubles as the bit-identity control;
``sqrt``
    square-root replication targets from the measured load;
``adaptive``
    threshold expand/retract (Spiral-Walk style).

Protocol per point: build → warm-up queries (fills the EWMA tracker) →
alternating query/balancing-meeting rounds (where conversions happen) →
a frozen measurement phase (no meetings, so the topology is fixed) that
reports the found rate, the mean and p95 messages-to-hit, the hot
replica-group size, the max per-replica EWMA load and the conversion
count.  The expected shape: for exponents >= 1.0 the adaptive column's
p95 drops below static's — replicating the hot path turns most hot-key
queries into 0-message responsible-start hits, pushing the overall 95th
percentile down into the (cheaper) quantiles of the cold tail.  At
s = 0.8 the hot mass is smaller: adaptive wins the mean (2.41 → 1.78)
but not the p95 (4 → 4) — the regime boundary docs/REPLICATION.md
discusses.  Conversions repair the references they make stale, so no
search pays for one.

Keys are 64-bit (drawn by the sampled inverse-CDF Zipf workload): under
Zipf the fraction of traffic the single hottest leaf path absorbs is
``(key_length - maxl) / key_length`` at s = 1.0, so long keys are the
realistic hash-keyspace regime where one replica group saturates — with
16-bit keys the cold tail alone is heavier than 5% of traffic and no
replication policy could move the 95th percentile at all.

``main(["--check"])`` gates exactly that claim (the CI smoke gate behind
``make replication-smoke``); committed numbers live in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.experiments.common import ExperimentResult
from repro.perf.parallel import parallel_starmap
from repro.replication import ReplicationConfig
from repro.sim import rng as rngmod

EXPERIMENT_ID = "replication"

HEADERS = [
    "zipf_s",
    "strategy",
    "found_rate",
    "messages_mean",
    "messages_p95",
    "hot_replicas",
    "max_load_per_replica",
    "conversions",
]

STRATEGIES = ("static", "sqrt", "adaptive")


@dataclass(frozen=True)
class ReplicationProfile:
    """One scale of the ablation."""

    name: str
    n_peers: int
    maxl: int
    refmax: int
    key_length: int
    exponents: tuple[float, ...]
    warmup_queries: int
    balance_rounds: int
    queries_per_round: int
    meetings_per_round: int
    measure_queries: int
    replicate_threshold: float = 1.0
    retract_floor: float = 0.25
    min_replicas: int = 2
    half_life: float = 64.0
    min_observations: int = 50
    max_replicas_fraction: float = 0.5
    #: --check: adaptive p95 must undercut static p95 by at least this
    #: many messages at every exponent >= 1.0.
    min_p95_improvement: float = 0.5
    #: --check: every strategy must keep at least this found rate.
    found_floor: float = 0.99
    seed: int = 2002


_PROFILES = {
    "tiny": ReplicationProfile(
        name="tiny",
        n_peers=48,
        maxl=4,
        refmax=3,
        key_length=32,  # > 24 bits: exercises the sampled Zipf workload
        exponents=(1.25,),
        warmup_queries=200,
        balance_rounds=4,
        queries_per_round=100,
        meetings_per_round=32,
        measure_queries=400,
    ),
    "smoke": ReplicationProfile(
        name="smoke",
        n_peers=128,
        maxl=5,
        refmax=4,
        key_length=64,
        exponents=(0.8, 1.0, 1.25),
        warmup_queries=400,
        balance_rounds=8,
        queries_per_round=150,
        meetings_per_round=64,
        measure_queries=2000,
    ),
    "fig4": ReplicationProfile(
        name="fig4",
        n_peers=600,
        maxl=5,
        refmax=5,
        key_length=64,
        exponents=(0.8, 1.0, 1.25),
        warmup_queries=800,
        balance_rounds=8,
        queries_per_round=300,
        meetings_per_round=150,
        measure_queries=3000,
    ),
    "large": ReplicationProfile(
        name="large",
        n_peers=4000,
        maxl=8,
        refmax=4,
        key_length=64,
        exponents=(1.0, 1.25),
        warmup_queries=2000,
        balance_rounds=10,
        queries_per_round=1000,
        meetings_per_round=800,
        measure_queries=5000,
    ),
}


def replication_profile(scale: str = "smoke") -> ReplicationProfile:
    """The named profile (``tiny``/``smoke``/``fig4``/``large``)."""
    try:
        return _PROFILES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}: expected one of {', '.join(_PROFILES)}"
        ) from None


def _percentile(values: list[int], fraction: float) -> float:
    """Nearest-rank percentile of *values* (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered) + 0.5) - 1))
    return float(ordered[rank])


def _replication_point(
    *,
    exponent: float,
    strategy: str,
    n_peers: int,
    maxl: int,
    refmax: int,
    key_length: int,
    warmup_queries: int,
    balance_rounds: int,
    queries_per_round: int,
    meetings_per_round: int,
    measure_queries: int,
    replicate_threshold: float,
    retract_floor: float,
    min_replicas: int,
    half_life: float,
    min_observations: int,
    max_replicas: int,
    build_seed: int,
    workload_seed: int,
) -> list:
    """One (exponent, strategy) cell (module-level so --jobs can pickle it)."""
    from repro.api import Grid
    from repro.sim.workload import ZipfKeyWorkload

    grid = Grid.build(
        peers=n_peers,
        maxl=maxl,
        refmax=refmax,
        seed=build_seed,
        replication=ReplicationConfig(
            strategy=strategy,
            replicate_threshold=replicate_threshold,
            retract_floor=retract_floor,
            min_replicas=min_replicas,
            half_life=half_life,
            min_observations=min_observations,
            max_replicas=max_replicas,
        ),
    )
    # Workload streams are derived from the *point* seed only, so every
    # strategy column of one exponent sees the identical key/start
    # sequences over an identically-built grid.
    key_rng = rngmod.derive(workload_seed, "keys")
    start_rng = rngmod.derive(workload_seed, "starts")
    workload = ZipfKeyWorkload(key_length, key_rng, exponent=exponent)
    addresses = grid.addresses()

    def run_queries(count: int) -> tuple[int, list[int]]:
        found = 0
        messages: list[int] = []
        for _ in range(count):
            result = grid.search(
                workload.next_key(), start=start_rng.choice(addresses)
            )
            if result.found:
                found += 1
                messages.append(result.messages)
        return found, messages

    run_queries(warmup_queries)
    for _ in range(balance_rounds):
        run_queries(queries_per_round)
        grid.rebalance(meetings=meetings_per_round)
    found, messages = run_queries(measure_queries)

    tracker = grid.load_tracker
    groups = grid.pgrid.replica_groups()
    hottest = tracker.hottest()
    hot_replicas = (
        len(groups.get(hottest[0], ())) if hottest is not None else 0
    )
    max_load = max(
        (tracker.load(path) / len(members) for path, members in groups.items()),
        default=0.0,
    )
    return [
        exponent,
        strategy,
        found / measure_queries if measure_queries else 0.0,
        sum(messages) / len(messages) if messages else 0.0,
        _percentile(messages, 0.95),
        hot_replicas,
        max_load,
        grid.balancer.stats.conversions,
    ]


def run(
    profile: ReplicationProfile | None = None,
    *,
    scale: str = "smoke",
    jobs: int = 1,
) -> ExperimentResult:
    """The full exponent x strategy sweep at one scale."""
    profile = profile or replication_profile(scale)
    max_replicas = max(
        2, int(profile.n_peers * profile.max_replicas_fraction)
    )
    points = []
    for exponent in profile.exponents:
        workload_seed = rngmod.derive_seed(
            profile.seed, f"workload-{exponent}"
        )
        for strategy in STRATEGIES:
            points.append(
                dict(
                    exponent=exponent,
                    strategy=strategy,
                    n_peers=profile.n_peers,
                    maxl=profile.maxl,
                    refmax=profile.refmax,
                    key_length=profile.key_length,
                    warmup_queries=profile.warmup_queries,
                    balance_rounds=profile.balance_rounds,
                    queries_per_round=profile.queries_per_round,
                    meetings_per_round=profile.meetings_per_round,
                    measure_queries=profile.measure_queries,
                    replicate_threshold=profile.replicate_threshold,
                    retract_floor=profile.retract_floor,
                    min_replicas=profile.min_replicas,
                    half_life=profile.half_life,
                    min_observations=profile.min_observations,
                    max_replicas=max_replicas,
                    build_seed=rngmod.derive_seed(
                        profile.seed, f"build-{exponent}"
                    ),
                    workload_seed=workload_seed,
                )
            )
    rows = parallel_starmap(_replication_point, points, jobs=jobs)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=(
            "Replication strategies under Zipf traffic "
            f"({profile.n_peers} peers, maxl={profile.maxl}, "
            f"{profile.key_length}-bit keys)"
        ),
        headers=HEADERS,
        rows=rows,
        config={
            "profile": profile.name,
            "n_peers": profile.n_peers,
            "maxl": profile.maxl,
            "refmax": profile.refmax,
            "key_length": profile.key_length,
            "exponents": list(profile.exponents),
            "replicate_threshold": profile.replicate_threshold,
            "retract_floor": profile.retract_floor,
            "min_replicas": profile.min_replicas,
            "half_life": profile.half_life,
            "max_replicas": max_replicas,
            "min_p95_improvement": profile.min_p95_improvement,
            "found_floor": profile.found_floor,
            "seed": profile.seed,
        },
        notes=(
            "Same build seed and workload streams per exponent across "
            "strategies; measurement phase runs no meetings, so the "
            "reported costs are over a frozen topology."
        ),
    )


def check_deviations(result: ExperimentResult) -> list[str]:
    """The smoke gate: adaptive must beat static on p95 messages-to-hit
    for every exponent >= 1.0, without sacrificing the found rate."""
    config = result.config
    min_improvement = config["min_p95_improvement"]
    found_floor = config["found_floor"]
    violations: list[str] = []
    cells: dict[tuple[float, str], list] = {
        (row[0], row[1]): row for row in result.rows
    }
    for exponent in config["exponents"]:
        for strategy in STRATEGIES:
            row = cells.get((exponent, strategy))
            if row is None:
                violations.append(f"missing row: s={exponent} {strategy}")
                continue
            if row[2] < found_floor:
                violations.append(
                    f"s={exponent} {strategy}: found rate {row[2]:.4f} "
                    f"below floor {found_floor}"
                )
        static_row = cells.get((exponent, "static"))
        adaptive_row = cells.get((exponent, "adaptive"))
        if static_row is None or adaptive_row is None or exponent < 1.0:
            continue
        improvement = static_row[4] - adaptive_row[4]
        if improvement < min_improvement:
            violations.append(
                f"s={exponent}: adaptive p95 {adaptive_row[4]:.2f} vs "
                f"static {static_row[4]:.2f} — improvement {improvement:.2f} "
                f"below required {min_improvement}"
            )
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=sorted(_PROFILES), default="smoke"
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless adaptive beats static on p95 messages-to-hit "
        "for every exponent >= 1.0",
    )
    parser.add_argument(
        "--save", type=str, default=None, help="directory for CSV/JSON output"
    )
    args = parser.parse_args(argv)
    result = run(scale=args.scale, jobs=args.jobs)
    print(result.to_text())
    if args.save:
        result.save(args.save)
    if args.check:
        violations = check_deviations(result)
        if violations:
            for violation in violations:
                print(f"DEVIATION: {violation}")
            return 1
        print("replication gate: OK (adaptive beats static on p95)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
