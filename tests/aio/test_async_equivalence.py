"""Engine <-> node <-> async node: one machine, three drivers.

The asyncio runtime's acceptance criterion extends the tentpole claim of
``tests/protocol/test_equivalence.py`` to a *third* driver: on triplet
grids (identical build seed) a sequential workload must produce
identical results, identical cost counters and — the strongest form —
identical grid-RNG states across the in-process engine, the sync
networked node and the asyncio node.  Fault worlds install the same way
on all three, so a fault plan behaves identically on either substrate.
"""

from __future__ import annotations

import asyncio
import random

from repro.core import keys as keyspace
from repro.core.search import SearchEngine
from repro.core.storage import DataRef
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.net.message import MessageKind
from repro.net.node import attach_nodes
from repro.net.transport import LocalTransport
from repro.protocol.search import repeated_queries
from repro.sim import rng as rngmod
from repro.sim.churn import BernoulliChurn
from tests.conftest import build_grid

from repro.aio.node import attach_async_nodes
from repro.aio.transport import AsyncTransport


def triplet_grids(seed: int, n: int = 96, maxl: int = 5, refmax: int = 2):
    """Three independently built but bit-identical grids."""
    return tuple(
        build_grid(n, maxl=maxl, refmax=refmax, seed=seed) for _ in range(3)
    )


def populate(grid, items):
    for key, holder, version in items:
        for address in grid.replicas_for_key(key):
            grid.peer(address).store.add_ref(
                DataRef(key=key, holder=holder, version=version)
            )


def install_faults(grid, seed: int, *, availability=0.85):
    """Same fault world on any substrate, expressed through the oracle."""
    grid.online_oracle = BernoulliChurn(
        availability, rngmod.derive(seed, "faults-availability")
    )
    injector = FaultInjector(grid, FaultPlan(seed=seed))
    injector.crash_random(0.10, downtime=4)
    injector.inject_stale_refs(0.15)
    injector.install_oracle()
    return injector


ITEMS = [("10110", 4, 1), ("01011", 9, 2), ("00100", 2, 1), ("11101", 5, 3)]


class ThreeWay:
    """One engine + one sync node population + one async node population
    over triplet grids, with a single event loop for the async side."""

    def __init__(self, seed: int, *, retry=None, fault_seed: int | None = None,
                 items=None, n: int = 96, maxl: int = 5):
        self.a, self.b, self.c = triplet_grids(seed, n=n, maxl=maxl)
        if items:
            for grid in (self.a, self.b, self.c):
                populate(grid, items)
        if fault_seed is not None:
            for grid in (self.a, self.b, self.c):
                install_faults(grid, fault_seed)
        self.engine = SearchEngine(self.a, retry=retry)
        self.sync_transport = LocalTransport(self.b)
        self.sync_nodes = attach_nodes(self.b, self.sync_transport, retry=retry)
        self.async_transport = AsyncTransport(self.c)
        self.async_nodes = attach_async_nodes(
            self.c, self.async_transport, retry=retry
        )
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.async_transport.start())

    def close(self):
        self.loop.run_until_complete(self.async_transport.stop())
        self.loop.close()

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def assert_rng_aligned(self):
        assert self.a.rng.getstate() == self.b.rng.getstate()
        assert self.a.rng.getstate() == self.c.rng.getstate()


def test_dfs_three_way_results_costs_and_rng():
    world = ThreeWay(seed=41, items=ITEMS)
    try:
        picker = random.Random(3)
        for _ in range(25):
            key = keyspace.random_key(5, picker)
            start = picker.choice(world.a.addresses())
            expected = world.engine.query_from(start, key)
            sync_outcome = world.sync_nodes[start].search(key)
            before = world.async_transport.count(MessageKind.QUERY)
            async_outcome = world.run(world.async_nodes[start].search(key))
            for outcome in (sync_outcome, async_outcome):
                assert outcome.found == expected.found
                assert outcome.responder == expected.responder
                assert outcome.messages == expected.messages
                assert outcome.failed_attempts == expected.failed_attempts
                assert outcome.retry_delay == expected.retry_delay
                assert outcome.data_refs == expected.data_refs
            assert (
                world.async_transport.count(MessageKind.QUERY) - before
                == async_outcome.messages
            )
            world.assert_rng_aligned()
    finally:
        world.close()


def test_dfs_three_way_under_faults_and_retry():
    retry = RetryPolicy(attempts=3, base_delay=0.5, deadline=4.0)
    world = ThreeWay(seed=43, retry=retry, fault_seed=11)
    try:
        picker = random.Random(5)
        for _ in range(20):
            key = keyspace.random_key(5, picker)
            start = picker.choice(world.a.addresses())
            expected = world.engine.query_from(start, key)
            sync_outcome = world.sync_nodes[start].search(key)
            async_outcome = world.run(world.async_nodes[start].search(key))
            for outcome in (sync_outcome, async_outcome):
                assert outcome.found == expected.found
                assert outcome.responder == expected.responder
                assert outcome.messages == expected.messages
                assert outcome.failed_attempts == expected.failed_attempts
                assert outcome.retry_delay == expected.retry_delay
            world.assert_rng_aligned()
        # the fault world actually exercised the failure paths, and the
        # async side accrued the same simulated retry time
        assert world.async_transport.stats.offline_failures > 0
        assert (
            world.async_transport.stats.offline_failures
            == world.sync_transport.stats.offline_failures
        )
        assert world.async_transport.stats.simulated_time == (
            world.sync_transport.stats.simulated_time
        )
    finally:
        world.close()


def test_repeated_search_three_way():
    world = ThreeWay(seed=44, n=64, maxl=4)
    try:
        expected = repeated_queries(lambda: world.engine.query_from(0, "1011"), 5)
        sync, awaited = world.sync_nodes[0], world.async_nodes[0]
        assert repeated_queries(lambda: sync.search("1011"), 5) == expected
        assert repeated_queries(lambda: world.run(awaited.search("1011")), 5) == expected
        world.assert_rng_aligned()
    finally:
        world.close()


def test_breadth_three_way():
    world = ThreeWay(seed=45)
    try:
        picker = random.Random(7)
        for recbreadth in (1, 2, 3):
            key = keyspace.random_key(5, picker)
            start = picker.choice(world.a.addresses())
            expected = world.engine.query_breadth(start, key, recbreadth)
            assert world.sync_nodes[start].search_breadth(key, recbreadth) == expected
            before = world.async_transport.count(MessageKind.BREADTH_QUERY)
            outcome = world.run(
                world.async_nodes[start].search_breadth(key, recbreadth)
            )
            assert outcome == expected
            assert (
                world.async_transport.count(MessageKind.BREADTH_QUERY) - before
                == outcome.messages
            )
            world.assert_rng_aligned()
    finally:
        world.close()


def test_breadth_three_way_under_faults():
    retry = RetryPolicy(attempts=2, base_delay=1.0)
    world = ThreeWay(seed=46, retry=retry, fault_seed=13)
    try:
        picker = random.Random(9)
        for _ in range(8):
            key = keyspace.random_key(5, picker)
            start = picker.choice(world.a.addresses())
            expected = world.engine.query_breadth(start, key, 2)
            assert world.sync_nodes[start].search_breadth(key, 2) == expected
            assert world.run(world.async_nodes[start].search_breadth(key, 2)) == expected
            world.assert_rng_aligned()
    finally:
        world.close()


def test_range_three_way():
    world = ThreeWay(seed=47, items=ITEMS)
    try:
        for low, high in [("00100", "01101"), ("10000", "11101"), ("01011", "01011")]:
            expected = world.engine.query_range(5, low, high, recbreadth=2)
            assert world.sync_nodes[5].range_search(low, high, recbreadth=2) == expected
            before = world.async_transport.count(MessageKind.RANGE_QUERY)
            outcome = world.run(
                world.async_nodes[5].range_search(low, high, recbreadth=2)
            )
            assert outcome == expected
            assert (
                world.async_transport.count(MessageKind.RANGE_QUERY) - before
                == outcome.messages
            )
            world.assert_rng_aligned()
    finally:
        world.close()


def test_range_three_way_under_faults():
    world = ThreeWay(seed=48, items=ITEMS, fault_seed=17)
    try:
        expected = world.engine.query_range(2, "01000", "10111", recbreadth=2)
        assert world.sync_nodes[2].range_search("01000", "10111", recbreadth=2) == expected
        assert world.run(
            world.async_nodes[2].range_search("01000", "10111", recbreadth=2)
        ) == expected
        world.assert_rng_aligned()
    finally:
        world.close()


def test_update_publish_three_way():
    """Breadth-first update propagation reaches the same replica set with
    the same message counts on all three drivers."""
    from repro.core.updates import UpdateEngine, UpdateStrategy

    world = ThreeWay(seed=49)
    try:
        engine_updates = UpdateEngine(world.a, search=world.engine)
        picker = random.Random(11)
        for version in range(1, 6):
            key = keyspace.random_key(5, picker)
            holder = picker.choice(world.a.addresses())
            start = picker.choice(world.a.addresses())
            ref = DataRef(key=key, holder=holder, version=version)
            expected = engine_updates.propagate(
                start, ref, strategy=UpdateStrategy.BFS, recbreadth=2
            )
            sync_result = world.sync_nodes[start].publish(ref, recbreadth=2)
            async_result = world.run(
                world.async_nodes[start].publish(ref, recbreadth=2)
            )
            for result in (sync_result, async_result):
                assert result.reached == expected.reached
                assert result.messages == expected.messages
                assert result.failed_attempts == expected.failed_attempts
                assert result.replica_count == expected.replica_count
            world.assert_rng_aligned()
    finally:
        world.close()


def test_fault_plan_through_async_transport_matches_sync():
    """The same FaultPlan installed on an AsyncTransport and on a
    LocalTransport injects identical extra latency and drop decisions for
    a sequential workload."""
    a = build_grid(48, maxl=4, refmax=2, seed=51)
    b = build_grid(48, maxl=4, refmax=2, seed=51)
    plan = FaultPlan(seed=23, extra_latency=0.25)

    sync_transport = LocalTransport(a)
    sync_injector = sync_transport.install_faults(plan)
    sync_nodes = attach_nodes(a, sync_transport)

    async_transport = AsyncTransport(b)
    async_injector = async_transport.install_faults(plan)
    async_nodes = attach_async_nodes(b, async_transport)

    loop = asyncio.new_event_loop()
    loop.run_until_complete(async_transport.start())
    try:
        picker = random.Random(2)
        for _ in range(15):
            key = keyspace.random_key(4, picker)
            start = picker.choice(a.addresses())
            expected = sync_nodes[start].search(key)
            outcome = loop.run_until_complete(async_nodes[start].search(key))
            assert outcome.found == expected.found
            assert outcome.responder == expected.responder
            assert outcome.messages == expected.messages
            assert a.rng.getstate() == b.rng.getstate()
        assert (
            async_injector.fault_stats.injected_latency
            == sync_injector.fault_stats.injected_latency
        )
        assert async_injector.fault_stats.injected_latency > 0
        assert async_transport.stats.simulated_time == sync_transport.stats.simulated_time
    finally:
        loop.run_until_complete(async_transport.stop())
        loop.close()
