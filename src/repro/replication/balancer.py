"""Query-load-driven replica balancing (ROADMAP item 4).

The paper's construction yields a *static* replica distribution — roughly
``N / 2^maxl`` peers per leaf path (Fig. 4) — sized analytically in §4
under a uniform-query assumption.  Under skewed (Zipf) traffic that
assumption breaks: a handful of paths absorb most of the load while the
rest idle.  :class:`ReplicaBalancer` redistributes peers between replica
groups using the load measured by
:class:`~repro.replication.tracker.LoadTracker`, in one of three
strategies:

``static``
    The §4 baseline: never act.  Attaching a static balancer is
    bit-identical to attaching none (property-tested, like probes and
    fault plans) — experiments can wire the balancer unconditionally and
    trust the baseline column.

``sqrt``
    Square-root replication (the canonical baseline of the
    search/replication survey literature): per-path replica targets
    proportional to the square root of the measured query rate,
    approached one conversion per meeting.

``adaptive``
    Spiral-Walk-style threshold expansion/retraction: when a replica
    group's per-replica load exceeds ``replicate_threshold``, the hot
    path is replicated onto peers contacted during exchanges — provided
    the contacted peer's own group is *cold* (per-replica load below
    ``retract_floor``) and can spare it.  The cold replica retracts from
    its group exactly like a graceful membership departure: once it has
    taken over the hot path, it hands its old leaf-level index entries to
    a peer still responsible for the old path with
    :func:`repro.core.membership.hand_over`, the hand-over
    :meth:`~repro.core.membership.MembershipEngine.leave` uses.

The balancer acts only at exchange-protocol meetings
(:meth:`after_meeting`, invoked by
:class:`~repro.core.exchange.ExchangeEngine` when threaded in) and after
update propagation (:meth:`after_update` via
:class:`~repro.core.updates.UpdateEngine`) — it rides interactions the
protocol performs anyway, as §3 prescribes for everything else.  All of
its choices are deterministic (max/min with path tie-breaks) and draw
**no RNG**; only a conversion's hand-over and reference repair probe
peers and run searches that do, so a balancer that never fires leaves
the grid's protocol streams untouched.

A conversion would leave every reference to the converted peer that
pointed into its old subtree stale (§2), and a Fig. 2 hop refuses a stale
reference.  :meth:`ReplicaBalancer._convert` therefore drops each such
reference and refills the slot with
:func:`repro.core.membership.refill_slot`, the refill the healer and the
repair sweep use.  The hand-over's and the repair's probes and search
messages are counted in :attr:`BalanceStats.messages`.  The
messages-to-hit win measured in ``experiments/replication.py`` comes from
more queries starting at, or routed early onto, a replica of a hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.grid import PGrid
from repro.core.membership import hand_over, refill_slot
from repro.core.peer import Address, Peer
from repro.core.routing import RoutingTable
from repro.core.search import SearchEngine
from repro.core.storage import DataStore
from repro.errors import InvalidConfigError
from repro.obs.probe import Probe
from repro.replication.tracker import LoadTracker

__all__ = ["STRATEGIES", "ReplicationConfig", "BalanceStats", "ReplicaBalancer"]

#: The strategy names :class:`ReplicationConfig` accepts.
STRATEGIES = ("static", "sqrt", "adaptive")


@dataclass(frozen=True)
class ReplicationConfig:
    """Tuning knobs of the replica balancer.

    ``half_life`` sizes the :class:`LoadTracker` the facade builds (in
    observed queries); ``replicate_threshold`` / ``retract_floor`` are
    *per-replica* EWMA loads (group load divided by group size);
    ``min_observations`` keeps the balancer passive until the tracker has
    seen enough traffic to act on.  See docs/REPLICATION.md for how to
    pick values.
    """

    strategy: str = "adaptive"
    replicate_threshold: float = 4.0
    retract_floor: float = 0.25
    min_replicas: int = 1
    max_replicas: int | None = None
    half_life: float = 64.0
    min_observations: int = 50

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise InvalidConfigError(
                f"unknown replication strategy {self.strategy!r}: "
                f"expected one of {', '.join(STRATEGIES)}"
            )
        if self.replicate_threshold <= 0:
            raise InvalidConfigError(
                f"replicate_threshold must be > 0, got {self.replicate_threshold}"
            )
        if not 0 <= self.retract_floor < self.replicate_threshold:
            raise InvalidConfigError(
                f"retract_floor must be in [0, replicate_threshold), got "
                f"{self.retract_floor}"
            )
        if self.min_replicas < 1:
            raise InvalidConfigError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if self.max_replicas is not None and self.max_replicas < self.min_replicas:
            raise InvalidConfigError(
                f"max_replicas {self.max_replicas} below min_replicas "
                f"{self.min_replicas}"
            )
        if self.half_life <= 0:
            raise InvalidConfigError(
                f"half_life must be > 0, got {self.half_life}"
            )
        if self.min_observations < 0:
            raise InvalidConfigError(
                f"min_observations must be >= 0, got {self.min_observations}"
            )


@dataclass
class BalanceStats:
    """Counters accumulated across balancer activations."""

    meetings_seen: int = 0
    updates_seen: int = 0
    conversions: int = 0
    retractions: int = 0
    entries_handed_over: int = 0
    entries_lost: int = 0
    #: References a conversion made stale, dropped and refilled.
    refs_repaired: int = 0
    #: Probes and search messages of the hand-overs and the repairs.
    messages: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy for experiment records."""
        return {
            "meetings_seen": self.meetings_seen,
            "updates_seen": self.updates_seen,
            "conversions": self.conversions,
            "retractions": self.retractions,
            "entries_handed_over": self.entries_handed_over,
            "entries_lost": self.entries_lost,
            "refs_repaired": self.refs_repaired,
            "messages": self.messages,
        }


class ReplicaBalancer:
    """Moves peers between replica groups according to measured load.

    ``probe`` receives one ``on_replication`` hook per conversion, and
    every listener registered via :meth:`subscribe_conversion` is called
    with the converted peer.  A conversion is the only structural change
    the balancer makes, so that one list is all a cache of grid state
    (the facade's batch-engine snapshot and shortcut cache) needs.
    """

    def __init__(
        self,
        grid: PGrid,
        tracker: LoadTracker,
        *,
        config: ReplicationConfig | None = None,
        probe: Probe | None = None,
    ) -> None:
        self.grid = grid
        self.tracker = tracker
        self.config = config or ReplicationConfig()
        self.probe = probe
        self.stats = BalanceStats()
        self.search = SearchEngine(grid)
        self._conversion_listeners: list[Callable[[Address, str, str], None]] = []

    @property
    def enabled(self) -> bool:
        """Whether the strategy can ever change the grid."""
        return self.config.strategy != "static"

    def subscribe_conversion(
        self, listener: Callable[[Address, str, str], None]
    ) -> None:
        """Call ``listener(address, old_path, new_path)`` per conversion.

        Listeners learn *which* peer moved — what a shortcut cache needs
        to invalidate exactly the stale responder instead of flushing.
        """
        self._conversion_listeners.append(listener)

    # -- protocol hooks ------------------------------------------------------

    def after_meeting(self, address1: Address, address2: Address) -> bool:
        """One exchange meeting finished; maybe convert one of the pair.

        Returns whether a conversion happened.  The no-op paths (static
        strategy, warm-up, no hot path, no eligible donor) read grid
        state only and draw no RNG.
        """
        self.stats.meetings_seen += 1
        return self._step((address1, address2))

    def after_update(self, reached: Iterable[Address]) -> bool:
        """An update propagation reached *reached*; maybe act on them.

        Update traffic walks the same trie as searches, so the peers it
        contacted are meeting opportunities too (Spiral Walk replicates
        along operation paths).
        """
        self.stats.updates_seen += 1
        return self._step(tuple(sorted(reached)))

    # -- strategy dispatch ---------------------------------------------------

    def _step(self, candidates: Sequence[Address]) -> bool:
        config = self.config
        if config.strategy == "static":
            return False
        if self.tracker.observed < config.min_observations:
            return False
        groups = self.grid.directory().groups
        if len(groups) < 2:
            return False
        if config.strategy == "adaptive":
            return self._adaptive_step(candidates, groups)
        return self._sqrt_step(candidates, groups)

    def _per_replica(
        self, path: str, groups: Mapping[str, Sequence[Address]]
    ) -> float:
        return self.tracker.load(path) / len(groups[path])

    def _adaptive_step(
        self, candidates: Sequence[Address], groups: Mapping[str, Sequence[Address]]
    ) -> bool:
        config = self.config
        # A group's per-replica load is at most its path's load, and the max
        # below does not depend on the order candidates are visited in.
        hot_paths = [
            path
            for path in self.tracker.paths(above=config.replicate_threshold)
            if path
            and path in groups
            and self._per_replica(path, groups) > config.replicate_threshold
            and (
                config.max_replicas is None
                or len(groups[path]) < config.max_replicas
            )
        ]
        if not hot_paths:
            return False
        hot = max(hot_paths, key=lambda p: (self._per_replica(p, groups), p))
        for address in candidates:
            donor = self.grid.peer(address)
            if donor.path == hot:
                continue
            group = groups[donor.path]
            if len(group) <= config.min_replicas:
                continue
            if self._per_replica(donor.path, groups) >= config.retract_floor:
                continue  # the donor's group is still earning its replicas
            model = min(groups[hot])
            self._convert(donor, self.grid.peer(model))
            self.stats.retractions += 1
            return True
        return False

    def _sqrt_step(
        self, candidates: Sequence[Address], groups: Mapping[str, Sequence[Address]]
    ) -> bool:
        config = self.config
        targets = self._sqrt_targets(groups)
        if targets is None:
            return False
        receivers = [
            path
            for path in groups
            if path and targets[path] - len(groups[path]) >= 1
        ]
        if not receivers:
            return False
        receiver = max(
            receivers,
            key=lambda p: (targets[p] - len(groups[p]), self.tracker.load(p), p),
        )
        for address in candidates:
            donor = self.grid.peer(address)
            if donor.path == receiver:
                continue
            group = groups[donor.path]
            if len(group) <= config.min_replicas:
                continue
            if len(group) - targets.get(donor.path, 0) < 1:
                continue  # no surplus to give up
            model = min(groups[receiver])
            self._convert(donor, self.grid.peer(model))
            if self._per_replica(donor.path, groups) < config.retract_floor:
                self.stats.retractions += 1
            return True
        return False

    def _sqrt_targets(
        self, groups: Mapping[str, Sequence[Address]]
    ) -> dict[str, int] | None:
        """Square-root replica targets, normalized to the population size."""
        config = self.config
        weights = {
            path: math.sqrt(max(self.tracker.load(path), 0.0))
            for path in groups
        }
        total = sum(weights.values())
        if total <= 0.0:
            return None
        population = len(self.grid)
        targets: dict[str, int] = {}
        for path in groups:
            target = int(population * weights[path] / total + 0.5)
            target = max(config.min_replicas, target)
            if config.max_replicas is not None:
                target = min(target, config.max_replicas)
            targets[path] = target
        return targets

    # -- the conversion mechanic ---------------------------------------------

    def _convert(self, donor: Peer, model: Peer) -> None:
        """Retract *donor* from its group and clone *model*'s position.

        The donor unlinks from its buddies and takes the model's path,
        routing table (minus any reference to the donor itself) and leaf
        store, then links buddy lists both ways so update strategy 2 sees
        the new replica.  Every reference to the donor that its new path
        no longer satisfies (§2) is dropped and its slot refilled.  Last,
        as in :meth:`MembershipEngine.leave`, :func:`hand_over` gives the
        donor's old leaf entries to a peer still responsible for the old
        path: the buddies saved before the move first, then a delegated
        search, which the repaired tables no longer route to the donor.
        If none answers, the entries are lost, as in a crash.
        """
        grid = self.grid
        old_path = donor.path
        entries = list(donor.store.iter_refs())
        buddies = sorted(donor.buddies)
        for buddy in buddies:
            if grid.has_peer(buddy):
                grid.peer(buddy).buddies.discard(donor.address)
        donor.set_path(model.path)
        donor.routing = RoutingTable.from_lists(
            grid.config.refmax,
            [
                [ref for ref in refs if ref != donor.address]
                for refs in model.routing.to_lists()
            ],
        )
        donor.store = DataStore()
        for ref in model.store.iter_refs():
            donor.store.add_ref(ref)
        for buddy in sorted({model.address, *model.buddies}):
            if buddy == donor.address or not grid.has_peer(buddy):
                continue
            donor.add_buddy(buddy)
            grid.peer(buddy).add_buddy(donor.address)
        for peer in grid.peers():
            for level, refs in peer.routing.iter_levels():
                if donor.address not in refs or level > peer.depth:
                    continue
                if not model.path.startswith(peer.ref_prefix(level)):
                    peer.routing.remove_ref(level, donor.address)
                    _, messages = refill_slot(grid, self.search, peer, level, donor.address)
                    self.stats.refs_repaired += 1
                    self.stats.messages += messages
        target, messages = hand_over(
            grid, self.search, donor, old_path, entries, buddies
        )
        self.stats.messages += messages
        if target is None:
            self.stats.entries_lost += len(entries)
        else:
            self.stats.entries_handed_over += len(entries)
        self.stats.conversions += 1
        if self.probe is not None:
            self.probe.on_replication(
                "convert", donor.address, old_path, model.path
            )
        for converted in self._conversion_listeners:
            converted(donor.address, old_path, model.path)

    def __repr__(self) -> str:
        return (
            f"ReplicaBalancer(strategy={self.config.strategy!r}, "
            f"conversions={self.stats.conversions})"
        )
