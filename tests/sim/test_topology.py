"""Tests for the topology model and proximity-aware engines."""

from __future__ import annotations

import random

import pytest

from repro.core.exchange import ExchangeEngine
from repro.core.search import SearchEngine
from repro.sim.builder import GridBuilder
from repro.sim.topology import (
    ProximityExchangeEngine,
    ProximitySearchEngine,
    Topology,
)
from tests.conftest import assert_routing_consistent, build_grid


class TestTopology:
    def test_coordinates_stable(self):
        topo = Topology(random.Random(1))
        assert topo.coordinates(5) == topo.coordinates(5)

    def test_coordinates_in_unit_square(self):
        topo = Topology(random.Random(2))
        for address in range(50):
            x, y = topo.coordinates(address)
            assert 0.0 <= x <= 1.0
            assert 0.0 <= y <= 1.0

    def test_latency_metric_properties(self):
        topo = Topology(random.Random(3))
        topo.place_all(list(range(10)))
        for a in range(10):
            assert topo.latency(a, a) == 0.0
            for b in range(10):
                assert topo.latency(a, b) == topo.latency(b, a)
                assert topo.latency(a, b) <= 2**0.5 + 1e-12

    def test_triangle_inequality(self):
        topo = Topology(random.Random(4))
        topo.place_all([0, 1, 2])
        assert topo.latency(0, 2) <= topo.latency(0, 1) + topo.latency(1, 2) + 1e-12

    def test_nearest_orders_by_distance(self):
        topo = Topology(random.Random(5))
        topo.place_all(list(range(20)))
        nearest = topo.nearest(0, list(range(1, 20)), 5)
        assert len(nearest) == 5
        distances = [topo.latency(0, a) for a in nearest]
        assert distances == sorted(distances)
        all_sorted = topo.nearest(0, list(range(1, 20)), 19)
        assert nearest == all_sorted[:5]

    def test_nearest_validates(self):
        topo = Topology(random.Random(6))
        with pytest.raises(ValueError):
            topo.nearest(0, [1, 2], -1)


class TestLatencyAccounting:
    def test_base_engine_reports_latency_when_topology_attached(self):
        grid = build_grid(128, maxl=4, refmax=2, seed=111)
        topo = Topology(random.Random(8))
        topo.place_all(grid.addresses())
        engine = SearchEngine(grid, topology=topo)
        result = engine.query_from(0, "1010")
        assert result.found
        if result.messages:
            assert result.latency > 0.0
        else:
            assert result.latency == 0.0

    def test_latency_zero_without_topology(self):
        grid = build_grid(64, maxl=4, refmax=2, seed=112)
        result = SearchEngine(grid).query_from(0, "0101")
        assert result.latency == 0.0


class TestProximityEngines:
    def test_proximity_search_finds_and_is_cheaper(self):
        grid = build_grid(256, maxl=5, refmax=4, seed=113)
        topo = Topology(random.Random(9))
        topo.place_all(grid.addresses())
        plain = SearchEngine(grid, topology=topo)
        near = ProximitySearchEngine(grid, topo)
        rng = random.Random(10)
        plain_latency = near_latency = 0.0
        for _ in range(100):
            key = format(rng.randrange(32), "05b")
            start = rng.choice(grid.addresses())
            a = plain.query_from(start, key)
            b = near.query_from(start, key)
            assert a.found and b.found
            plain_latency += a.latency
            near_latency += b.latency
        assert near_latency < plain_latency

    def test_proximity_search_deterministic(self):
        # nearest-first ordering consumes no randomness
        grid = build_grid(128, maxl=4, refmax=3, seed=114)
        topo = Topology(random.Random(11))
        topo.place_all(grid.addresses())
        near = ProximitySearchEngine(grid, topo)
        first = near.query_from(3, "1100")
        second = near.query_from(3, "1100")
        assert first.responder == second.responder
        assert first.latency == second.latency

    def test_proximity_retention_preserves_invariant(self):
        from repro.core.config import PGridConfig
        from repro.core.grid import PGrid

        config = PGridConfig(maxl=4, refmax=3, recmax=2, recursion_fanout=2)
        grid = PGrid(config, rng=random.Random(12))
        grid.add_peers(128)
        topo = Topology(random.Random(13))
        topo.place_all(grid.addresses())
        engine = ProximityExchangeEngine(grid, topo)
        report = GridBuilder(grid, engine=engine).build(
            max_exchanges=1_000_000
        )
        assert report.converged
        assert_routing_consistent(grid)

    def test_proximity_retention_yields_nearer_references(self):
        from repro.core.config import PGridConfig
        from repro.core.grid import PGrid

        def mean_ref_distance(engine_factory, seed):
            config = PGridConfig(maxl=4, refmax=3, recmax=2, recursion_fanout=2)
            grid = PGrid(config, rng=random.Random(seed))
            grid.add_peers(256)
            topo = Topology(random.Random(99))  # same coordinates both runs
            topo.place_all(grid.addresses())
            engine = engine_factory(grid, topo)
            GridBuilder(grid, engine=engine).build(max_exchanges=1_000_000)
            total = 0.0
            count = 0
            for peer in grid.peers():
                for _level, refs in peer.routing.iter_levels():
                    for ref in refs:
                        total += topo.latency(peer.address, ref)
                        count += 1
            return total / count

        random_mean = mean_ref_distance(
            lambda grid, _topo: ExchangeEngine(grid), seed=15
        )
        proximity_mean = mean_ref_distance(
            lambda grid, topo: ProximityExchangeEngine(grid, topo), seed=15
        )
        assert proximity_mean < random_mean
