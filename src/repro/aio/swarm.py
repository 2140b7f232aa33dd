"""Whole-population async runtime: many nodes, one event loop.

:class:`AsyncSwarm` owns an :class:`~repro.aio.transport.AsyncTransport`
plus one :class:`~repro.aio.node.AsyncPGridNode` per peer of a built
grid, and drives mixed query/update workloads against them with bounded
concurrency.  This is what ``pgrid swarm`` and the 1k-node smoke test
run: a sustained stream of operations issued from random nodes, checked
against the grid's ground truth, with mailbox depth and queue latency
reported alongside the protocol's message accounting.

The workload scheduler draws from its *own* derived stream
(``swarm-workload``), never the grid RNG: which operations run — like
transport noise — must not perturb the protocol's randomness.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.core.config import SearchConfig
from repro.core.grid import PGrid
from repro.core.peer import Address
from repro.core.search import SearchResult
from repro.core.storage import DataItem, DataRef
from repro.core.updates import UpdateResult
from repro.obs.probe import Probe
from repro.sim import rng as rngmod

from repro.aio.node import AsyncPGridNode, attach_async_nodes
from repro.aio.transport import AsyncTransport

__all__ = ["AsyncSwarm", "SwarmReport", "seed_items"]


def seed_items(grid: PGrid, *, items_per_peer: int = 1, seed: int = 0) -> list[str]:
    """Seed a consistent index: random maxl-bit keys, one batch per peer.

    Returns the sorted distinct keys, ready to be drawn by
    :meth:`AsyncSwarm.run_workload`.  Key generation uses a derived
    stream, so the catalogue is a pure function of *seed*.
    """
    if items_per_peer < 1:
        raise ValueError(f"items_per_peer must be >= 1, got {items_per_peer}")
    rng = rngmod.derive(seed, "swarm-items")
    maxl = grid.config.maxl
    items: list[tuple[DataItem, Address]] = []
    for peer in grid.peers():
        for i in range(items_per_peer):
            key = "".join(rng.choice("01") for _ in range(maxl))
            items.append(
                (DataItem(key=key, value=f"item-{peer.address}-{i}"), peer.address)
            )
    grid.seed_index(items)
    return sorted({item.key for item, _ in items})


@dataclass
class SwarmReport:
    """Outcome of one :meth:`AsyncSwarm.run_workload` run."""

    peers: int
    operations: int
    searches: int = 0
    updates: int = 0
    found: int = 0
    update_failures: int = 0
    messages_delivered: int = 0
    dropped: int = 0
    offline_failures: int = 0
    simulated_time: float = 0.0
    wall_seconds: float = 0.0
    max_mailbox_depth: int = 0
    mean_queue_wait: float = 0.0
    max_queue_wait: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def found_rate(self) -> float:
        """Fraction of searches that located a responsible replica."""
        return self.found / self.searches if self.searches else 1.0

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.wall_seconds if self.wall_seconds else 0.0

    def snapshot(self) -> dict[str, object]:
        """Plain-dict copy for experiment records / CLI JSON."""
        return {
            "peers": self.peers,
            "operations": self.operations,
            "searches": self.searches,
            "updates": self.updates,
            "found": self.found,
            "found_rate": self.found_rate,
            "update_failures": self.update_failures,
            "messages_delivered": self.messages_delivered,
            "dropped": self.dropped,
            "offline_failures": self.offline_failures,
            "simulated_time": self.simulated_time,
            "wall_seconds": self.wall_seconds,
            "ops_per_second": self.ops_per_second,
            "max_mailbox_depth": self.max_mailbox_depth,
            "mean_queue_wait": self.mean_queue_wait,
            "max_queue_wait": self.max_queue_wait,
            "errors": list(self.errors),
        }


class AsyncSwarm:
    """One event loop serving every peer of *grid* as an async node.

    Use as an async context manager (or call :meth:`start` / :meth:`stop`
    explicitly); operations may be issued concurrently once started.  No
    task is created per peer or per message: an operation is one await
    chain in its caller's task, so cancelling the caller cancels all of it.
    """

    def __init__(
        self,
        grid: PGrid,
        *,
        transport: AsyncTransport | None = None,
        retry=None,
        healer=None,
        config: SearchConfig | None = None,
        probe: Probe | None = None,
        clock=None,
    ) -> None:
        self.grid = grid
        self.config = config or SearchConfig()
        self.transport = transport if transport is not None else AsyncTransport(
            grid, probe=probe, clock=clock
        )
        self.nodes: dict[Address, AsyncPGridNode] = attach_async_nodes(
            grid, self.transport, retry=retry, healer=healer, config=self.config
        )

    async def start(self) -> None:
        await self.transport.start()

    async def stop(self) -> None:
        await self.transport.stop()

    async def __aenter__(self) -> "AsyncSwarm":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- single operations ----------------------------------------------------------

    async def search(self, start: Address, key: str) -> SearchResult:
        """One Fig. 2 search issued from node *start*."""
        return await self.nodes[start].search(key)

    async def update(
        self, start: Address, ref: DataRef, *, recbreadth: int = 2
    ) -> UpdateResult:
        """Publish *ref* from node *start* via breadth-first propagation."""
        return await self.nodes[start].publish(ref, recbreadth=recbreadth)

    # -- sustained mixed workload -----------------------------------------------------

    async def run_workload(
        self,
        *,
        operations: int,
        keys: list[str],
        update_fraction: float = 0.1,
        concurrency: int = 32,
        recbreadth: int = 2,
        seed: int = 0,
    ) -> SwarmReport:
        """Drive *operations* mixed searches/updates with bounded concurrency.

        Each operation picks a start node and a key from the scheduler's
        derived stream; an update re-publishes the key with a bumped
        version from a random holder among its current replicas.  Returns
        a :class:`SwarmReport` with protocol and mailbox accounting.
        """
        if operations < 1:
            raise ValueError(f"operations must be >= 1, got {operations}")
        if not keys:
            raise ValueError("run_workload needs a non-empty key catalogue")
        if not 0.0 <= update_fraction <= 1.0:
            raise ValueError(
                f"update_fraction must be in [0, 1], got {update_fraction}"
            )
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        rng = rngmod.derive(seed, "swarm-workload")
        addresses = self.grid.addresses()
        versions: dict[str, int] = {}
        report = SwarmReport(peers=len(addresses), operations=operations)
        gate = asyncio.Semaphore(concurrency)

        async def one(start: Address, key: str, ref: DataRef | None) -> None:
            async with gate:
                try:
                    if ref is None:
                        outcome = await self.search(start, key)
                        report.searches += 1
                        if outcome.found:
                            report.found += 1
                    else:
                        result = await self.update(start, ref, recbreadth=recbreadth)
                        report.updates += 1
                        if not result.reached:
                            report.update_failures += 1
                except Exception as exc:  # surface, don't sink the gather
                    report.errors.append(f"op({start}, {key}): {exc!r}")

        # The whole schedule (start node, key, kind, update holder) is drawn
        # up front, so it is a pure function of the seed regardless of how
        # the operations later interleave on the loop.
        tasks = []
        for _ in range(operations):
            start = rng.choice(addresses)
            key = rng.choice(keys)
            if rng.random() < update_fraction:
                versions[key] = versions.get(key, 0) + 1
                holder = rng.choice(addresses)
                ref = DataRef(key=key, holder=holder, version=versions[key])
                tasks.append(one(start, key, ref))
            else:
                tasks.append(one(start, key, None))
        began = time.perf_counter()
        await asyncio.gather(*[asyncio.ensure_future(t) for t in tasks])
        report.wall_seconds = time.perf_counter() - began

        stats = self.transport.stats
        report.messages_delivered = stats.total_delivered()
        report.dropped = stats.dropped
        report.offline_failures = stats.offline_failures
        report.simulated_time = stats.simulated_time
        box = self.transport.mailbox_snapshot()
        report.max_mailbox_depth = int(box["max_depth"])
        report.mean_queue_wait = float(box["mean_wait"])
        report.max_queue_wait = float(box["max_wait"])
        return report
