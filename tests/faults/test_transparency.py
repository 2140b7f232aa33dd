"""Fault machinery must be a strict no-op when disabled.

Mirrors the probe-transparency suite: an empty `FaultPlan` installed on a
transport or over the grid's oracle, a `RetryPolicy` of one attempt, or a
healer whose threshold is never reached must leave results, traffic
accounting, and — the strong form — the RNG streams bit-identical to runs
without them.
This is what lets experiments attach the fault stack unconditionally and
trust that the baseline column really is the baseline.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import keys as keyspace
from repro.core.search import SearchEngine
from repro.faults import NO_RETRY, FaultInjector, FaultPlan, RefHealer
from repro.net.node import attach_nodes
from repro.net.transport import LocalTransport
from repro.sim.churn import BernoulliChurn
from tests.conftest import build_grid

QUERIES = ("0000", "0101", "1101")
STARTS = (0, 13, 31)


def _grid_pair(seed: int, churn_seed: int | None = None, p_online: float = 0.7):
    plain = build_grid(48, maxl=4, refmax=2, seed=seed)
    wrapped = build_grid(48, maxl=4, refmax=2, seed=seed)
    if churn_seed is not None:
        plain.online_oracle = BernoulliChurn(p_online, random.Random(churn_seed))
        wrapped.online_oracle = BernoulliChurn(p_online, random.Random(churn_seed))
    return plain, wrapped


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10**6), churn_seed=st.integers(0, 10**6))
def test_empty_plan_injector_is_transport_transparent(seed, churn_seed):
    """Networked searches over a transport with an empty plan installed
    are bit-identical."""
    plain_grid, faulty_grid = _grid_pair(seed, churn_seed)
    plain_transport = LocalTransport(plain_grid)
    faulty_transport = LocalTransport(faulty_grid)
    injector = faulty_transport.install_faults(FaultPlan(seed=seed))
    plain_nodes = attach_nodes(plain_grid, plain_transport)
    faulty_nodes = attach_nodes(faulty_grid, faulty_transport)
    for start in STARTS:
        for query in QUERIES:
            assert plain_nodes[start].search(query) == faulty_nodes[start].search(
                query
            )
    assert plain_transport.stats.snapshot() == faulty_transport.stats.snapshot()
    assert injector.fault_stats.snapshot() == {
        "injected_drops": 0,
        "injected_latency": 0.0,
        "crashes": 0,
        "restarts": 0,
        "stale_refs_injected": 0,
        "crashed_contacts": 0,
    }
    assert plain_grid.rng.getstate() == faulty_grid.rng.getstate()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10**6), churn_seed=st.integers(0, 10**6))
def test_empty_plan_oracle_is_churn_transparent(seed, churn_seed):
    """Composing the fault oracle over churn must not shift the churn stream."""
    plain_grid, faulty_grid = _grid_pair(seed, churn_seed, p_online=0.5)
    injector = FaultInjector(faulty_grid, FaultPlan(seed=seed))
    injector.install_oracle()
    plain = SearchEngine(plain_grid)
    faulty = SearchEngine(faulty_grid)
    for start in STARTS:
        for query in QUERIES:
            assert plain.query_from(start, query) == faulty.query_from(start, query)
    assert plain_grid.rng.getstate() == faulty_grid.rng.getstate()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10**6), churn_seed=st.integers(0, 10**6))
def test_single_attempt_retry_is_engine_transparent(seed, churn_seed):
    """retry=NO_RETRY exercises the resilient slow path yet changes nothing."""
    plain_grid, retry_grid = _grid_pair(seed, churn_seed)
    plain = SearchEngine(plain_grid)
    retried = SearchEngine(retry_grid, retry=NO_RETRY)
    for start in STARTS:
        for query in QUERIES:
            assert plain.query_from(start, query) == retried.query_from(start, query)
    assert plain_grid.rng.getstate() == retry_grid.rng.getstate()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10**6), churn_seed=st.integers(0, 10**6))
def test_unreachable_threshold_healer_is_engine_transparent(seed, churn_seed):
    """A healer that never evicts observes contacts without altering them."""
    plain_grid, healed_grid = _grid_pair(seed, churn_seed, p_online=0.6)
    healer = RefHealer(healed_grid, evict_after=10**9)
    plain = SearchEngine(plain_grid)
    healed = SearchEngine(healed_grid, healer=healer)
    for start in STARTS:
        for query in QUERIES:
            assert plain.query_from(start, query) == healed.query_from(start, query)
    assert healer.stats.evictions == 0
    assert plain_grid.rng.getstate() == healed_grid.rng.getstate()


def test_random_queries_with_full_disabled_stack():
    """All three disabled pieces together, over a random workload."""
    plain_grid, stacked_grid = _grid_pair(404, churn_seed=405)
    injector = FaultInjector(stacked_grid, FaultPlan())
    injector.install_oracle()
    healer = RefHealer(stacked_grid, evict_after=10**9)
    plain = SearchEngine(plain_grid)
    stacked = SearchEngine(stacked_grid, retry=NO_RETRY, healer=healer)
    rng = random.Random(7)
    for _ in range(60):
        key = keyspace.random_key(4, rng)
        start = rng.choice(plain_grid.addresses())
        assert plain.query_from(start, key) == stacked.query_from(start, key)
    assert plain_grid.rng.getstate() == stacked_grid.rng.getstate()
