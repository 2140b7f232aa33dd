"""Engine <-> node equivalence: one machine, two drivers.

The tentpole acceptance criterion of the sans-I/O refactor: the in-process
engines (:mod:`repro.core.search`) and the networked node
(:mod:`repro.net.node`) drive the *same* protocol machines, so on twin
grids (identical build seed) the same workload must produce identical
results, identical contact accounting, and — the strongest form —
identical grid-RNG states after every operation (bit-identical draw
streams).

Fault worlds are installed through :meth:`FaultInjector.install_oracle`
over a seeded :class:`BernoulliChurn` on *both* twins (same seed -> same
availability coins, same crash victims, same corrupted references), with
the node attached to a bare
:class:`LocalTransport`, so the only difference between the two sides is
the driver.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def twin_grids(seed: int, n: int = 96, maxl: int = 5, refmax: int = 2):
    """Two independently built but bit-identical grids."""
    return (
        build_grid(n, maxl=maxl, refmax=refmax, seed=seed),
        build_grid(n, maxl=maxl, refmax=refmax, seed=seed),
    )


def populate(grid, items):
    """Install index entries on every replica (deterministic per grid)."""
    for key, holder, version in items:
        for address in grid.replicas_for_key(key):
            grid.peer(address).store.add_ref(
                DataRef(key=key, holder=holder, version=version)
            )


def install_faults(grid, seed: int, *, availability=0.85):
    """One fault world, expressed purely through the grid's oracle.

    Returns the injector.  No transport carries the plan — the node runs
    over a bare one, so both drivers see the fault plan only through
    ``grid.is_online`` and the corrupted routing tables.
    """
    grid.online_oracle = BernoulliChurn(
        availability, rngmod.derive(seed, "faults-availability")
    )
    injector = FaultInjector(grid, FaultPlan(seed=seed))
    injector.crash_random(0.10, downtime=4)
    injector.inject_stale_refs(0.15)
    injector.install_oracle()
    return injector


ITEMS = [("10110", 4, 1), ("01011", 9, 2), ("00100", 2, 1), ("11101", 5, 3)]


class TestDepthFirstEquivalence:
    def test_results_and_rng_stream_identical(self):
        a, b = twin_grids(seed=41)
        populate(a, ITEMS)
        populate(b, ITEMS)
        engine = SearchEngine(a)
        transport = LocalTransport(b)
        nodes = attach_nodes(b, transport)
        picker = random.Random(3)
        for _ in range(40):
            key = keyspace.random_key(5, picker)
            start = picker.choice(a.addresses())
            expected = engine.query_from(start, key)
            before = transport.count(MessageKind.QUERY)
            outcome = nodes[start].search(key)
            assert outcome.found == expected.found
            assert outcome.responder == expected.responder
            assert outcome.messages == expected.messages
            assert outcome.failed_attempts == expected.failed_attempts
            assert outcome.retry_delay == expected.retry_delay
            assert outcome.data_refs == expected.data_refs
            # every counted message is exactly one delivered QUERY
            assert (
                transport.count(MessageKind.QUERY) - before
                == outcome.messages
            )
            # the strongest claim: both drivers consumed the grid RNG
            # bit-identically
            assert a.rng.getstate() == b.rng.getstate()

    def test_equivalence_under_faults_and_retry(self):
        a, b = twin_grids(seed=43)
        install_faults(a, seed=11)
        install_faults(b, seed=11)
        retry = RetryPolicy(attempts=3, base_delay=0.5, deadline=4.0)
        engine = SearchEngine(a, retry=retry)
        transport = LocalTransport(b)
        nodes = attach_nodes(b, transport, retry=retry)
        picker = random.Random(5)
        for _ in range(30):
            key = keyspace.random_key(5, picker)
            start = picker.choice(a.addresses())
            expected = engine.query_from(start, key)
            outcome = nodes[start].search(key)
            assert outcome.found == expected.found
            assert outcome.responder == expected.responder
            assert outcome.messages == expected.messages
            assert outcome.failed_attempts == expected.failed_attempts
            assert outcome.retry_delay == expected.retry_delay
            assert a.rng.getstate() == b.rng.getstate()
        # the fault world actually exercised the failure paths
        assert transport.stats.offline_failures > 0

    def test_repeated_search_equivalence(self):
        a, b = twin_grids(seed=44, n=64, maxl=4)
        engine = SearchEngine(a)
        nodes = attach_nodes(b, LocalTransport(b))
        expected = repeated_queries(lambda: engine.query_from(0, "1011"), 5)
        outcome = repeated_queries(lambda: nodes[0].search("1011"), 5)
        assert outcome == expected
        assert a.rng.getstate() == b.rng.getstate()


class TestBreadthEquivalence:
    def test_responder_sets_and_costs_identical(self):
        a, b = twin_grids(seed=45)
        engine = SearchEngine(a)
        transport = LocalTransport(b)
        nodes = attach_nodes(b, transport)
        picker = random.Random(7)
        for recbreadth in (1, 2, 3):
            key = keyspace.random_key(5, picker)
            start = picker.choice(a.addresses())
            expected = engine.query_breadth(start, key, recbreadth)
            before = transport.count(MessageKind.BREADTH_QUERY)
            outcome = nodes[start].search_breadth(key, recbreadth)
            assert outcome == expected  # same dataclass, field-for-field
            assert (
                transport.count(MessageKind.BREADTH_QUERY) - before
                == outcome.messages
            )
            assert a.rng.getstate() == b.rng.getstate()

    def test_breadth_equivalence_under_faults(self):
        a, b = twin_grids(seed=46)
        install_faults(a, seed=13)
        install_faults(b, seed=13)
        retry = RetryPolicy(attempts=2, base_delay=1.0)
        engine = SearchEngine(a, retry=retry)
        nodes = attach_nodes(b, LocalTransport(b), retry=retry)
        picker = random.Random(9)
        for _ in range(10):
            key = keyspace.random_key(5, picker)
            start = picker.choice(a.addresses())
            assert nodes[start].search_breadth(key, 2) == engine.query_breadth(
                start, key, 2
            )
            assert a.rng.getstate() == b.rng.getstate()


class TestRangeEquivalence:
    def test_range_results_identical(self):
        a, b = twin_grids(seed=47)
        populate(a, ITEMS)
        populate(b, ITEMS)
        engine = SearchEngine(a)
        transport = LocalTransport(b)
        nodes = attach_nodes(b, transport)
        for low, high in [("00100", "01101"), ("10000", "11101"), ("01011", "01011")]:
            expected = engine.query_range(5, low, high, recbreadth=2)
            before = transport.count(MessageKind.RANGE_QUERY)
            outcome = nodes[5].range_search(low, high, recbreadth=2)
            assert outcome == expected  # cover, responders, entries, costs
            assert (
                transport.count(MessageKind.RANGE_QUERY) - before
                == outcome.messages
            )
            assert a.rng.getstate() == b.rng.getstate()

    def test_range_equivalence_under_faults(self):
        a, b = twin_grids(seed=48)
        populate(a, ITEMS)
        populate(b, ITEMS)
        install_faults(a, seed=17)
        install_faults(b, seed=17)
        engine = SearchEngine(a)
        nodes = attach_nodes(b, LocalTransport(b))
        expected = engine.query_range(2, "01000", "10111", recbreadth=2)
        outcome = nodes[2].range_search("01000", "10111", recbreadth=2)
        assert outcome == expected
        assert a.rng.getstate() == b.rng.getstate()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_property_networked_search_matches_engine(seed):
    """Property form: any build seed, fault world and workload agree."""
    a = build_grid(32, maxl=4, refmax=2, seed=seed % 97)
    b = build_grid(32, maxl=4, refmax=2, seed=seed % 97)
    for grid in (a, b):
        grid.online_oracle = BernoulliChurn(0.9, rngmod.derive(seed, "faults-availability"))
        FaultInjector(grid, FaultPlan(seed=seed)).install_oracle()
    retry = RetryPolicy(attempts=2, base_delay=0.5, deadline=3.0)
    engine = SearchEngine(a, retry=retry)
    nodes = attach_nodes(b, LocalTransport(b), retry=retry)
    workload = random.Random(seed)
    for _ in range(6):
        key = keyspace.random_key(4, workload)
        start = workload.choice(a.addresses())
        expected = engine.query_from(start, key)
        outcome = nodes[start].search(key)
        assert (outcome.found, outcome.responder) == (
            expected.found,
            expected.responder,
        )
        assert outcome.messages == expected.messages
        assert outcome.failed_attempts == expected.failed_attempts
        breadth_engine = engine.query_breadth(start, key, 2)
        breadth_node = nodes[start].search_breadth(key, 2)
        assert breadth_node == breadth_engine
    assert a.rng.getstate() == b.rng.getstate()
