"""Tests for query-adaptive shortcut caching."""

from __future__ import annotations

import pytest

from repro.core.membership import MembershipEngine
from repro.core.shortcuts import ShortcutCache, ShortcutSearchEngine
from repro.core.storage import DataItem
from repro.errors import InvalidKeyError
from repro.sim.churn import FixedOnlineSet
from tests.conftest import build_grid


class TestShortcutCache:
    """Single-origin LRU behaviour; the multi-origin cases live with the
    batch plane that shares the cache (``tests/fast/test_array_shortcuts.py``)."""

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ShortcutCache(0)

    def test_get_put(self):
        cache = ShortcutCache(2)
        assert cache.get(0, "01") is None
        assert cache._origins == {}  # a get for an unseen origin allocates nothing
        cache.put(0, "01", 5)
        assert cache.get(0, "01") == 5

    def test_lru_eviction(self):
        cache = ShortcutCache(2)
        cache.put(0, "00", 1)
        cache.put(0, "01", 2)
        cache.put(0, "10", 3)  # evicts "00"
        assert cache.get(0, "00") is None
        assert cache.get(0, "01") == 2
        assert cache.get(0, "10") == 3
        assert len(cache) == 2

    def test_get_refreshes_lru_position(self):
        cache = ShortcutCache(2)
        cache.put(0, "00", 1)
        cache.put(0, "01", 2)
        cache.get(0, "00")  # refresh
        cache.put(0, "10", 3)  # must evict "01", not "00"
        assert cache.get(0, "00") == 1
        assert cache.get(0, "01") is None

    def test_invalidate(self):
        cache = ShortcutCache(2)
        cache.put(0, "00", 1)
        cache.invalidate(0, "00")
        assert cache.get(0, "00") is None
        cache.invalidate(0, "00")  # idempotent


class TestShortcutSearchEngine:
    @pytest.fixture
    def grid(self):
        return build_grid(128, maxl=5, refmax=3, seed=101)

    def test_repeat_query_hits_cache(self, grid):
        engine = ShortcutSearchEngine(grid)
        first = engine.query_from(0, "10110")
        assert first.found
        assert engine.stats.misses == 1
        second = engine.query_from(0, "10110")
        assert second.found
        assert engine.stats.hits == 1
        assert second.responder == first.responder
        assert second.messages <= 1  # direct contact

    def test_results_match_plain_search_semantics(self, grid):
        grid.seed_index([(DataItem(key="01101", value="x"), 9)])
        engine = ShortcutSearchEngine(grid)
        first = engine.query_from(3, "01101")
        second = engine.query_from(3, "01101")
        assert {ref.holder for ref in first.data_refs} == {
            ref.holder for ref in second.data_refs
        }

    def test_caches_are_per_initiator(self, grid):
        engine = ShortcutSearchEngine(grid)
        engine.query_from(0, "11011")
        engine.query_from(1, "11011")
        # both were misses: peer 1 does not share peer 0's cache
        assert engine.stats.misses == 2

    def test_offline_responder_falls_back(self, grid):
        engine = ShortcutSearchEngine(grid)
        first = engine.query_from(0, "00110")
        assert first.found
        grid.online_oracle = FixedOnlineSet(
            set(grid.addresses()) - {first.responder}
        )
        second = engine.query_from(0, "00110")
        assert engine.stats.invalidations == 1
        if second.found:
            assert second.responder != first.responder

    def test_departed_responder_falls_back(self, grid):
        engine = ShortcutSearchEngine(grid)
        first = engine.query_from(0, "01010")
        assert first.found and first.responder != 0
        MembershipEngine(grid, search=engine.search).fail(first.responder)
        second = engine.query_from(0, "01010")
        assert engine.stats.invalidations == 1
        assert second.responder != first.responder

    def test_self_shortcut_costs_nothing(self, grid):
        # Find a peer and query for its own path from itself, twice.
        peer = next(p for p in grid.peers() if p.depth == 5)
        engine = ShortcutSearchEngine(grid)
        engine.query_from(peer.address, peer.path)
        result = engine.query_from(peer.address, peer.path)
        assert result.messages == 0

    def test_failed_search_not_cached(self, grid):
        grid.online_oracle = FixedOnlineSet({0})
        engine = ShortcutSearchEngine(grid)
        start_peer = grid.peer(0)
        query = ("1" if start_peer.path.startswith("0") else "0") * 5
        result = engine.query_from(0, query)
        assert not result.found
        assert len(engine.cache) == 0

    def test_invalid_key_rejected(self, grid):
        with pytest.raises(InvalidKeyError):
            ShortcutSearchEngine(grid).query_from(0, "01x")

    def test_hit_rate_property(self, grid):
        engine = ShortcutSearchEngine(grid)
        assert engine.stats is engine.cache.stats
        assert engine.stats.hit_rate == 0.0
        engine.query_from(0, "10101")
        engine.query_from(0, "10101")
        assert engine.stats.hit_rate == 0.5
