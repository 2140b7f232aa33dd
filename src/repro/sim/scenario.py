"""Declarative end-to-end scenarios.

A :class:`ScenarioSpec` describes a whole deployment in one object —
population, grid parameters, data volume, availability, and an operation
mix — and :func:`run_scenario` executes it: build, seed, then run the
mixed workload, returning a :class:`ScenarioMetrics` with the throughput
and reliability numbers a capacity planner cares about.  This is the
"one call" harness a downstream user starts from before dropping to the
individual engines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.search import SearchEngine
from repro.core.storage import DataItem
from repro.core.updates import ReadEngine, UpdateEngine, UpdateStrategy
from repro.core.exchange import ExchangeEngine
from repro.errors import InvalidConfigError
from repro.obs.probe import CompositeProbe, Probe
from repro.replication import (
    STRATEGIES,
    LoadProbe,
    LoadTracker,
    PathResolver,
    ReplicaBalancer,
    ReplicationConfig,
)
from repro.sim import rng as rngmod
from repro.sim.builder import GridBuilder
from repro.sim.churn import BernoulliChurn
from repro.sim.meetings import UniformMeetings
from repro.sim.metrics import RateAccumulator, summarize
from repro.sim.workload import UniformKeyWorkload, ZipfKeyWorkload


class KeyDistribution(enum.Enum):
    """Workload key distributions."""

    UNIFORM = "uniform"
    ZIPF = "zipf"


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete scenario description."""

    n_peers: int = 512
    config: PGridConfig = field(
        default_factory=lambda: PGridConfig(
            maxl=6, refmax=5, recmax=2, recursion_fanout=2
        )
    )
    items_per_peer: int = 4
    key_length: int = 8
    key_distribution: KeyDistribution = KeyDistribution.UNIFORM
    zipf_exponent: float = 1.0
    p_online: float = 1.0
    operations: int = 2_000
    update_fraction: float = 0.1
    update_recbreadth: int = 2
    read_repetitions: int = 50
    seed: int = 0
    replication: str | None = None
    replicate_threshold: float = 4.0
    retract_floor: float = 0.25
    replication_half_life: float = 64.0
    balance_every: int = 50
    balance_meetings: int = 4

    def __post_init__(self) -> None:
        if self.n_peers < 2:
            raise InvalidConfigError(f"n_peers must be >= 2, got {self.n_peers}")
        if self.items_per_peer < 0:
            raise InvalidConfigError(
                f"items_per_peer must be >= 0, got {self.items_per_peer}"
            )
        if self.key_length < 1:
            raise InvalidConfigError(
                f"key_length must be >= 1, got {self.key_length}"
            )
        if not 0.0 < self.p_online <= 1.0:
            raise InvalidConfigError(
                f"p_online must be in (0, 1], got {self.p_online}"
            )
        if self.operations < 0:
            raise InvalidConfigError(
                f"operations must be >= 0, got {self.operations}"
            )
        if not 0.0 <= self.update_fraction <= 1.0:
            raise InvalidConfigError(
                f"update_fraction must be in [0, 1], got {self.update_fraction}"
            )
        if self.replication is not None and self.replication not in STRATEGIES:
            raise InvalidConfigError(
                f"unknown replication strategy {self.replication!r}: "
                f"expected one of {', '.join(STRATEGIES)}"
            )
        if self.balance_every < 1:
            raise InvalidConfigError(
                f"balance_every must be >= 1, got {self.balance_every}"
            )
        if self.balance_meetings < 0:
            raise InvalidConfigError(
                f"balance_meetings must be >= 0, got {self.balance_meetings}"
            )


@dataclass
class ScenarioMetrics:
    """What a scenario run measured."""

    spec: ScenarioSpec
    construction_exchanges: int
    average_depth: float
    seeded_entries: int
    searches: int
    search_success_rate: float
    search_messages_mean: float
    updates: int
    update_coverage_mean: float
    update_messages_mean: float
    reads_after_update: int
    read_success_rate: float
    invariant_violations: int
    replica_conversions: int = 0

    def as_dict(self) -> dict[str, Any]:
        """Flat dict for reports."""
        return {
            "n_peers": self.spec.n_peers,
            "construction_exchanges": self.construction_exchanges,
            "average_depth": self.average_depth,
            "seeded_entries": self.seeded_entries,
            "searches": self.searches,
            "search_success_rate": self.search_success_rate,
            "search_messages_mean": self.search_messages_mean,
            "updates": self.updates,
            "update_coverage_mean": self.update_coverage_mean,
            "update_messages_mean": self.update_messages_mean,
            "reads_after_update": self.reads_after_update,
            "read_success_rate": self.read_success_rate,
            "invariant_violations": self.invariant_violations,
            "replica_conversions": self.replica_conversions,
        }


def _workload(spec: ScenarioSpec, stream: str):
    rng = rngmod.derive(spec.seed, stream)
    if spec.key_distribution is KeyDistribution.ZIPF:
        return ZipfKeyWorkload(spec.key_length, rng, exponent=spec.zipf_exponent)
    return UniformKeyWorkload(spec.key_length, rng)


def run_scenario(
    spec: ScenarioSpec, *, probe: Probe | None = None
) -> ScenarioMetrics:
    """Execute *spec* end to end.

    Phases: (1) construct the grid failure-free; (2) seed
    ``items_per_peer`` items per peer into the index; (3) run
    ``operations`` mixed operations under ``p_online`` availability —
    each operation is an update (publish a new version of a seeded item
    followed by one repeated read-back) with probability
    ``update_fraction``, otherwise a search for a workload key.

    ``probe`` (e.g. a :class:`~repro.obs.MetricsProbe`) observes every
    engine the scenario drives; observation never perturbs the seeded
    RNG streams, so metrics are free of Heisenberg effects.
    """
    grid = PGrid(spec.config, rng=rngmod.derive(spec.seed, "scenario-grid"))
    grid.add_peers(spec.n_peers)
    report = GridBuilder(grid).build(max_exchanges=10_000_000)

    items = []
    item_keys = _workload(spec, "scenario-items")
    for peer in grid.peers():
        for index in range(spec.items_per_peer):
            items.append(
                (
                    DataItem(
                        key=item_keys.next_key(),
                        value=f"item-{peer.address}-{index}",
                    ),
                    peer.address,
                )
            )
    seeded = grid.seed_index(items)

    if spec.p_online < 1.0:
        grid.online_oracle = BernoulliChurn(
            spec.p_online, rngmod.derive(spec.seed, "scenario-churn")
        )
    balancer = None
    exchange = None
    balance_rng = None
    if spec.replication is not None:
        replication_config = ReplicationConfig(
            strategy=spec.replication,
            replicate_threshold=spec.replicate_threshold,
            retract_floor=spec.retract_floor,
            half_life=spec.replication_half_life,
        )
        tracker = LoadTracker(half_life=replication_config.half_life)
        resolver = PathResolver(grid)
        load_probe = LoadProbe(tracker, resolver)
        probe = (
            CompositeProbe([probe, load_probe]) if probe is not None else load_probe
        )
        balancer = ReplicaBalancer(
            grid, tracker, config=replication_config, probe=probe
        )
        exchange = ExchangeEngine(grid, probe=probe, balancer=balancer)
        # Balancing meetings draw from their own derived stream so the
        # operation mix below stays seed-for-seed comparable across
        # strategies (static included — it runs the same meetings and
        # simply never converts anyone).
        balance_rng = rngmod.derive(spec.seed, "scenario-balance")
    search = SearchEngine(grid, probe=probe)
    updates = UpdateEngine(grid, search=search, probe=probe, balancer=balancer)
    reads = ReadEngine(grid, search=search, probe=probe)
    ops_rng = rngmod.derive(spec.seed, "scenario-ops")
    query_keys = _workload(spec, "scenario-queries")
    addresses = grid.addresses()

    search_success = RateAccumulator()
    search_messages: list[int] = []
    read_success = RateAccumulator()
    coverages: list[float] = []
    update_messages: list[int] = []
    versions: dict[tuple[str, int], int] = {}

    meetings = (
        UniformMeetings(grid, rng=balance_rng) if exchange is not None else None
    )
    for op_index in range(spec.operations):
        if (
            meetings is not None
            and op_index
            and op_index % spec.balance_every == 0
        ):
            for _ in range(spec.balance_meetings):
                pair = meetings.next_pair()
                exchange.meet(*pair)
        start = ops_rng.choice(addresses)
        if items and ops_rng.random() < spec.update_fraction:
            item, holder = ops_rng.choice(items)
            version = versions.get((item.key, holder), 0) + 1
            versions[(item.key, holder)] = version
            result = updates.publish(
                start,
                item,
                holder,
                strategy=UpdateStrategy.BFS,
                recbreadth=spec.update_recbreadth,
                version=version,
            )
            coverages.append(result.coverage)
            update_messages.append(result.messages)
            read = reads.read_repeated(
                ops_rng.choice(addresses),
                item.key,
                holder,
                version,
                max_repetitions=spec.read_repetitions,
            )
            read_success.record(read.success)
        else:
            result = search.query_from(start, query_keys.next_key())
            search_success.record(result.found)
            if result.found:
                search_messages.append(result.messages)

    return ScenarioMetrics(
        spec=spec,
        construction_exchanges=report.exchanges,
        average_depth=report.average_depth,
        seeded_entries=seeded,
        searches=search_success.trials,
        search_success_rate=search_success.rate,
        search_messages_mean=(
            summarize(search_messages).mean if search_messages else 0.0
        ),
        updates=len(update_messages),
        update_coverage_mean=(
            summarize(coverages).mean if coverages else 0.0
        ),
        update_messages_mean=(
            summarize(update_messages).mean if update_messages else 0.0
        ),
        reads_after_update=read_success.trials,
        read_success_rate=read_success.rate,
        invariant_violations=len(grid.audit_routing()),
        replica_conversions=(
            balancer.stats.conversions if balancer is not None else 0
        ),
    )
