"""``repro.api`` — the one-stop facade over construction, search, update
and the three interchangeable drivers.

Everything the rest of the package exposes stays available, but the
common path is four calls::

    from repro import Grid

    grid = Grid.build(peers=64, seed=7)
    grid.search("1010")                      # Fig. 2 depth-first search
    grid.update("1010", holder=3)            # §5.2 breadth-first publish

    with grid.serve(driver="async") as svc:  # or "engine" / "node"
        svc.search("1010", start=5)
        svc.update("1010", holder=3, version=1)

:meth:`Grid.serve` returns a *service*: a context manager with a uniform
synchronous ``search`` / ``update`` surface backed by one of the three
drivers of the sans-I/O protocol core —

``"engine"``
    the in-process engines (:class:`~repro.core.search.SearchEngine`,
    :class:`~repro.core.updates.UpdateEngine`) calling peers directly;
``"node"``
    one :class:`~repro.net.node.PGridNode` per peer over a synchronous
    :class:`~repro.net.transport.LocalTransport` — every hop an explicit
    message;
``"async"``
    one :class:`~repro.aio.node.AsyncPGridNode` per peer over an
    :class:`~repro.aio.transport.AsyncTransport` on a private event loop
    — per-node mailboxes, awaitable effects.

All three run the *same* protocol machines and draw from the grid RNG in
the same order, so on equal grids the three services return
field-for-field identical results with identical cost counters (asserted
by ``tests/api/test_facade.py``).  Collaborators are keyword-only
injection throughout, matching the package convention.
"""

from __future__ import annotations

import asyncio
import random
from typing import Iterable

from repro.core.config import PGridConfig, SearchConfig, UpdateConfig
from repro.core.grid import PGrid
from repro.core.peer import Address
from repro.core.search import RangeSearchResult, SearchEngine, SearchResult
from repro.core.storage import DataItem, DataRef
from repro.core.updates import ReadEngine, UpdateEngine, UpdateResult, UpdateStrategy
from repro.errors import InvalidConfigError, UnknownPeerError
from repro.net.node import PGridNode, attach_nodes
from repro.net.transport import LocalTransport
from repro.obs.probe import CompositeProbe, Probe
from repro.replication import (
    LoadProbe,
    LoadTracker,
    PathResolver,
    ReplicaBalancer,
    ReplicationConfig,
)
from repro.sim.builder import ConstructionReport, construct_grid

__all__ = ["Grid", "DRIVERS"]

#: The interchangeable driver names :meth:`Grid.serve` accepts.
DRIVERS = ("engine", "node", "async")


class Grid:
    """A built P-Grid population plus its default engines.

    Construct with :meth:`build` (the common case) or wrap an existing
    :class:`~repro.core.grid.PGrid` directly.  All collaborators are
    keyword-only: ``probe`` observes, ``retry``/``healer`` add
    resilience, the config objects tune the engines, and ``replication``
    enables query-load-driven replica balancing (see below).

    ``replication`` is a strategy name (``"static"`` / ``"sqrt"`` /
    ``"adaptive"``) or a full
    :class:`~repro.replication.ReplicationConfig`.  When set, the facade
    builds a :class:`~repro.replication.LoadTracker` fed from every
    driver's searches, and a
    :class:`~repro.replication.ReplicaBalancer` that acts during
    :meth:`rebalance` meetings and update propagation.  ``None`` (the
    default) and ``"static"`` are bit-identical to today's behaviour
    (property-tested).
    """

    def __init__(
        self,
        pgrid: PGrid,
        *,
        report: ConstructionReport | None = None,
        probe: Probe | None = None,
        retry=None,
        healer=None,
        search_config: SearchConfig | None = None,
        update_config: UpdateConfig | None = None,
        replication: ReplicationConfig | str | None = None,
        shortcut_capacity: int | None = None,
    ) -> None:
        self.pgrid = pgrid
        self.report = report
        self.retry = retry
        self.healer = healer
        self.shortcut_capacity = shortcut_capacity
        self.search_config = search_config or SearchConfig()
        self.update_config = update_config or UpdateConfig()
        self.replication = (
            ReplicationConfig(strategy=replication)
            if isinstance(replication, str)
            else replication
        )
        if self.replication is not None:
            self.load_tracker: LoadTracker | None = LoadTracker(
                half_life=self.replication.half_life
            )
            self._path_resolver = PathResolver(pgrid)
            self.load_probe: LoadProbe | None = LoadProbe(
                self.load_tracker, self._path_resolver
            )
            probe = (
                CompositeProbe([probe, self.load_probe])
                if probe is not None
                else self.load_probe
            )
            self.balancer: ReplicaBalancer | None = ReplicaBalancer(
                pgrid, self.load_tracker, config=self.replication, probe=probe
            )
            self.balancer.subscribe_conversion(self._on_replica_conversion)
        else:
            self.load_tracker = None
            self.load_probe = None
            self.balancer = None
            self._path_resolver = None
        self.probe = probe
        self.engine = SearchEngine(
            pgrid,
            config=self.search_config,
            probe=probe,
            retry=retry,
            healer=healer,
        )
        self._batch_engine = None
        self._rebalance_engine = None
        if shortcut_capacity is not None:
            from repro.core.shortcuts import ShortcutSearchEngine

            #: Its ``cache`` is the one shortcut cache of both query planes.
            self.shortcut_engine: ShortcutSearchEngine | None = ShortcutSearchEngine(
                pgrid, search=self.engine, capacity=shortcut_capacity, probe=probe
            )
        else:
            self.shortcut_engine = None
        self.updates = UpdateEngine(
            pgrid,
            search=self.engine,
            config=self.update_config,
            probe=probe,
            retry=retry,
            balancer=self.balancer,
        )
        self.reads = ReadEngine(pgrid, search=self.engine, probe=probe)

    # -- construction ----------------------------------------------------------------

    @classmethod
    def build(
        cls,
        peers: int = 64,
        *,
        maxl: int = 4,
        refmax: int = 2,
        recmax: int = 2,
        fanout: int | None = 2,
        seed: int = 0,
        threshold: float = 0.99,
        max_exchanges: int | None = 2_000_000,
        core: str = "object",
        config: PGridConfig | None = None,
        probe: Probe | None = None,
        retry=None,
        healer=None,
        search_config: SearchConfig | None = None,
        update_config: UpdateConfig | None = None,
        replication: ReplicationConfig | str | None = None,
        shortcut_capacity: int | None = None,
    ) -> "Grid":
        """Create *peers* peers and run construction to convergence.

        ``maxl``/``refmax``/``recmax``/``fanout`` are the paper's free
        parameters (ignored when an explicit ``config`` is given);
        ``seed`` makes the whole grid — construction and every later
        protocol decision — reproducible.  ``core`` selects the
        construction engine: ``"object"`` (reference) or ``"batch"``
        (vectorized rounds, deterministic but not bit-identical;
        requires numpy).  ``replication`` enables the query-load
        balancer on the returned facade (construction itself is
        unaffected — the balancer needs observed traffic to act).
        """
        if config is None:
            config = PGridConfig(
                maxl=maxl, refmax=refmax, recmax=recmax, recursion_fanout=fanout
            )
        pgrid = PGrid(config, rng=random.Random(seed))
        pgrid.add_peers(peers)
        report = construct_grid(
            pgrid,
            engine=core,
            threshold_fraction=threshold,
            max_exchanges=max_exchanges,
        )
        return cls(
            pgrid,
            report=report,
            probe=probe,
            retry=retry,
            healer=healer,
            search_config=search_config,
            update_config=update_config,
            replication=replication,
            shortcut_capacity=shortcut_capacity,
        )

    # -- population ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.pgrid)

    def addresses(self) -> list[Address]:
        """Sorted addresses of all peers."""
        return self.pgrid.addresses()

    def seed_index(self, items: Iterable[tuple[DataItem, Address]]) -> int:
        """Bootstrap a consistent index outside the protocol (experiments)."""
        return self.pgrid.seed_index(list(items))

    def replicas_for(self, key: str) -> list[Address]:
        """Ground-truth replica set for *key*."""
        return self.pgrid.replicas_for_key(key)

    # -- replication (query-load-driven balancing) --------------------------------------

    def _on_replica_conversion(self, address: Address, old_path: str, new_path: str) -> None:
        """Forget grid state a conversion made stale (balancer listener).

        The converted peer's routing changed, so the batch-plane snapshot
        goes; the peer stays online but answers for a different replica
        group, so every shortcut naming it goes too.
        """
        self._batch_engine = None
        if self.shortcut_engine is not None:
            self.shortcut_engine.cache.invalidate_responder(address)

    def _observe_search(self, key: str) -> None:
        """Credit one query against *key*'s replica group.

        The engine driver feeds the tracker through the probe's
        ``on_search_end`` hook; the node/async drivers and the batch
        query plane do not fire per-query probe hooks, so their service
        wrappers call this instead.  No-op without replication.
        """
        if self.load_tracker is not None:
            self.load_tracker.observe(self._path_resolver(key))

    def rebalance(
        self, *, meetings: int = 64, rounds: int = 1, scheduler=None
    ) -> dict[str, int]:
        """Run balancing meetings and return the stats delta.

        Drives the Fig. 3 exchange protocol (with the balancer attached)
        over ``rounds`` × ``meetings`` uniform random pairings — the
        anti-entropy meetings a live grid performs anyway, which is where
        the Spiral-Walk-style balancer acts.  ``scheduler`` (anything
        with ``next_pair()``) overrides the default
        :class:`~repro.sim.meetings.UniformMeetings` over the grid RNG.
        Requires ``replication=`` to have been set.
        """
        if self.balancer is None:
            raise InvalidConfigError(
                "rebalance() requires the grid to be built with replication="
            )
        from repro.core.exchange import ExchangeEngine
        from repro.sim.meetings import UniformMeetings

        if self._rebalance_engine is None:
            self._rebalance_engine = ExchangeEngine(
                self.pgrid, probe=self.probe, balancer=self.balancer
            )
        if scheduler is None:
            scheduler = UniformMeetings(self.pgrid)
        before = self.balancer.stats.snapshot()
        for _ in range(rounds):
            for _ in range(meetings):
                address1, address2 = scheduler.next_pair()
                self._rebalance_engine.meet(address1, address2)
        after = self.balancer.stats.snapshot()
        return {name: after[name] - before[name] for name in after}

    # -- batch query plane ------------------------------------------------------------

    def batch_query_engine(self, *, refresh: bool = False, chunk: int = 8192):
        """The vectorized query plane over this grid (requires numpy).

        Lazily bridges the current routing tables into a
        :class:`~repro.fast.BatchQueryEngine` snapshot and caches it;
        pass ``refresh=True`` after mutating the grid (joins, departures,
        repair) to re-bridge.  The engine draws from its own numpy
        streams seeded off the grid RNG: deterministic per grid seed and
        statistically equivalent to the object engines, not
        bit-identical (see ``repro.fast.query``).
        """
        if refresh or self._batch_engine is None:
            from repro.fast import ArrayGrid, BatchQueryEngine

            agrid = ArrayGrid.from_pgrid(self.pgrid)
            self._batch_engine = BatchQueryEngine.from_arraygrid(
                agrid,
                max_messages=self.search_config.max_messages,
                chunk=chunk,
                probe=self.probe,
            )
            if self.shortcut_engine is not None:
                self._batch_engine.shortcuts = self.shortcut_engine.cache
        return self._batch_engine

    def snapshot(self, *, p_online: float = 1.0):
        """Export the current grid state as a shared-memory
        :class:`~repro.fast.GridSnapshot` (requires numpy).

        The returned snapshot is owned by the caller: ship its
        :meth:`~repro.fast.GridSnapshot.ref` into parallel sweeps instead
        of pickling the grid, and ``close()``/``unlink()`` it (or use it
        as a context manager) when done.
        """
        from repro.fast import ArrayGrid, GridSnapshot

        return GridSnapshot.from_arraygrid(
            ArrayGrid.from_pgrid(self.pgrid), p_online=p_online
        )

    def search_many(self, keys: list[str], starts: list[Address]):
        """Resolve one search per ``(key, start)`` pair on the batch plane.

        All pairs run through :meth:`batch_query_engine` in vectorized
        waves (requires numpy) and come back as one
        :class:`~repro.fast.BatchSearchResult` (dense peer indices; map
        responders through ``batch_query_engine().addresses``).  With
        ``shortcut_capacity`` set, the batch shares :meth:`search`'s
        shortcut cache.  A start the snapshot does not hold raises
        :class:`~repro.errors.UnknownPeerError`.  A single query belongs
        to :meth:`search`: a batch of one costs about ten times the object
        engine's walk.
        """
        engine = self.batch_query_engine()  # raises first without numpy
        import numpy as np

        addresses = np.asarray(engine.addresses, dtype=np.int64)
        wanted = np.fromiter(starts, dtype=np.int64, count=len(starts))
        dense = np.searchsorted(addresses, wanted)
        known = dense < len(addresses)
        known[known] = addresses[dense[known]] == wanted[known]
        if not known.all():
            raise UnknownPeerError(int(wanted[np.argmin(known)]))
        result = engine.search_many(keys, dense)
        if self.load_tracker is not None:
            for key in keys:
                self._observe_search(key)
        return result

    # -- direct operations (engine driver, no service needed) --------------------------

    def search(self, key: str, *, start: Address = 0) -> SearchResult:
        """One Fig. 2 depth-first search from *start* on the object engine.

        With ``shortcut_capacity`` set, the per-initiator shortcut cache
        is consulted first.  Batches belong to :meth:`search_many`.
        """
        if self.shortcut_engine is not None:
            return self.shortcut_engine.query_from(start, key)
        return self.engine.query_from(start, key)

    def search_range(
        self, low: str, high: str, *, start: Address = 0, recbreadth: int = 2
    ) -> RangeSearchResult:
        """Range query over ``[low, high]`` from *start* on the object engine.

        Batched range queries run on the array plane through
        ``batch_query_engine().search_range_many``.
        """
        return self.engine.query_range(start, low, high, recbreadth=recbreadth)

    def update(
        self,
        key: str,
        holder: Address,
        *,
        start: Address = 0,
        version: int = 0,
        value=None,
        strategy: UpdateStrategy = UpdateStrategy.BFS,
        recbreadth: int | None = None,
        repetition: int | None = None,
    ) -> UpdateResult:
        """Publish (or re-publish) *key* stored at *holder* from *start*."""
        return self.updates.publish(
            start,
            DataItem(key=key, value=value),
            holder,
            strategy=strategy,
            repetition=repetition,
            recbreadth=recbreadth,
            version=version,
        )

    # -- drivers ----------------------------------------------------------------------

    def serve(
        self,
        driver: str = "engine",
        *,
        retry=None,
        healer=None,
        config: SearchConfig | None = None,
    ):
        """Serve this grid behind one of the three drivers.

        Returns a context-managed service with a uniform synchronous
        ``search(key, *, start)`` / ``update(key, holder, ...)`` surface;
        ``retry``/``healer``/``config`` default to this grid's own.
        On equal grids all three drivers return identical results with
        identical cost counters.
        """
        retry = retry if retry is not None else self.retry
        healer = healer if healer is not None else self.healer
        config = config or self.search_config
        if driver == "engine":
            return EngineService(self)
        if driver == "node":
            return NodeService(
                self, retry=retry, healer=healer, config=config
            )
        if driver == "async":
            return AsyncService(self, retry=retry, healer=healer, config=config)
        raise InvalidConfigError(
            f"unknown driver {driver!r}: expected one of {', '.join(DRIVERS)}"
        )


class EngineService:
    """The ``"engine"`` driver: direct in-process execution."""

    driver = "engine"

    def __init__(self, grid: Grid) -> None:
        self._grid = grid

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Nothing to release for the in-process driver."""

    def search(self, key: str, *, start: Address = 0) -> SearchResult:
        return self._grid.engine.query_from(start, key)

    def update(
        self,
        key: str,
        holder: Address,
        *,
        start: Address = 0,
        version: int = 0,
        value=None,
        recbreadth: int | None = None,
    ) -> UpdateResult:
        return self._grid.update(
            key, holder, start=start, version=version, value=value,
            recbreadth=recbreadth,
        )


class NodeService:
    """The ``"node"`` driver: one message-driven node per peer."""

    driver = "node"

    def __init__(
        self,
        grid: Grid,
        *,
        retry=None,
        healer=None,
        config: SearchConfig | None = None,
    ) -> None:
        self._grid = grid
        self.transport = LocalTransport(grid.pgrid, probe=grid.probe)
        self.nodes: dict[Address, PGridNode] = attach_nodes(
            grid.pgrid, self.transport, retry=retry, healer=healer, config=config
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Unregister every node so the grid can be served again."""
        for address in list(self.nodes):
            self.transport.unregister(address)
        self.nodes.clear()

    def _complete(self, outcome):
        """Turn what a node method returned into its result: the sync
        nodes return it directly (:class:`AsyncService` runs the awaitable)."""
        return outcome

    def search(self, key: str, *, start: Address = 0) -> SearchResult:
        result = self._complete(self.nodes[start].search(key))
        self._grid._observe_search(key)
        return result

    def update(
        self,
        key: str,
        holder: Address,
        *,
        start: Address = 0,
        version: int = 0,
        value=None,
        recbreadth: int | None = None,
    ) -> UpdateResult:
        if recbreadth is None:
            recbreadth = self._grid.update_config.recbreadth
        self._grid.pgrid.peer(holder).store.store_item(DataItem(key=key, value=value))
        ref = DataRef(key=key, holder=holder, version=version)
        result = self._complete(self.nodes[start].publish(ref, recbreadth=recbreadth))
        self._grid._observe_search(key)
        return result


class AsyncService(NodeService):
    """The ``"async"`` driver: an :class:`~repro.aio.AsyncSwarm` on a
    private event loop, driven synchronously per operation.

    For genuinely concurrent workloads use :class:`repro.aio.AsyncSwarm`
    directly; this service exists so the facade can expose all three
    drivers behind one synchronous surface — :meth:`search` and
    :meth:`update` are :class:`NodeService`'s, with each node call run
    to completion on the loop.
    """

    driver = "async"

    def __init__(
        self,
        grid: Grid,
        *,
        retry=None,
        healer=None,
        config: SearchConfig | None = None,
    ) -> None:
        from repro.aio.swarm import AsyncSwarm

        self._grid = grid
        self._loop = asyncio.new_event_loop()
        self.swarm = AsyncSwarm(
            grid.pgrid,
            retry=retry,
            healer=healer,
            config=config,
            probe=grid.probe,
        )
        self.transport = self.swarm.transport
        self.nodes = self.swarm.nodes
        self._loop.run_until_complete(self.swarm.start())

    def close(self) -> None:
        """Stop the swarm, release its mailboxes, close the loop."""
        if self._loop.is_closed():
            return
        self._loop.run_until_complete(self.swarm.stop())
        super().close()
        self._loop.close()

    def run(self, coroutine):
        """Run one coroutine on the service's private loop."""
        return self._loop.run_until_complete(coroutine)

    _complete = run
