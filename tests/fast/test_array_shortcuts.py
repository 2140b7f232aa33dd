"""The shortcut cache on the batch query plane.

Both planes share one :class:`~repro.core.shortcuts.ShortcutCache`,
keyed by address.  Its multi-origin semantics (the part only a
population of initiators exercises) are numpy-free bookkeeping, so
those tests run everywhere; only the batch-engine integration class
needs numpy.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.shortcuts import ShortcutCache, ShortcutStats
from repro.fast import HAVE_NUMPY, ArrayGrid
from repro.sim.builder import GridBuilder

if HAVE_NUMPY:
    import numpy as np

    from repro.fast import BatchQueryEngine


class TestCacheSemantics:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ShortcutCache(0)
        with pytest.raises(ValueError):
            ShortcutCache(-1)

    def test_get_put_per_origin(self):
        cache = ShortcutCache(4)
        assert cache.get(0, "101") is None
        cache.put(0, "101", 9)
        assert cache.get(0, "101") == 9
        # Origins are isolated: peer 1 has its own entries.
        assert cache.get(1, "101") is None
        cache.put(1, "101", 0)  # responder address 0 is a real entry
        assert cache.get(1, "101") == 0

    def test_capacity_one_eviction(self):
        cache = ShortcutCache(1)
        cache.put(0, "00", 1)
        cache.put(0, "01", 2)  # evicts the only slot
        assert cache.get(0, "00") is None
        assert cache.get(0, "01") == 2
        assert len(cache) == 1

    def test_get_refreshes_lru_position(self):
        cache = ShortcutCache(2)
        cache.put(0, "00", 1)
        cache.put(0, "01", 2)
        cache.put(1, "01", 4)
        cache.put(1, "00", 5)
        cache.get(0, "00")  # refreshes origin 0's "00" only
        cache.put(0, "10", 3)  # must evict "01", not "00"
        cache.put(1, "10", 6)  # origin 1's order is untouched: "01" goes
        assert cache.get(0, "00") == 1
        assert cache.get(0, "01") is None
        assert cache.get(1, "01") is None
        assert cache.get(1, "00") == 5

    def test_eviction_is_per_origin(self):
        cache = ShortcutCache(1)
        cache.put(0, "00", 1)
        cache.put(1, "01", 2)  # different origin — no eviction
        assert cache.get(0, "00") == 1
        assert cache.get(1, "01") == 2
        assert len(cache) == 2

    def test_invalidate_single_entry(self):
        cache = ShortcutCache(4)
        cache.put(0, "11", 7)
        cache.put(1, "11", 7)
        cache.invalidate(0, "11")
        assert cache.get(0, "11") is None
        assert cache.get(1, "11") == 7  # only the origin's own entry goes
        cache.invalidate(0, "11")  # idempotent
        cache.invalidate(5, "11")  # unseen origin
        assert cache.stats.invalidations == 0  # the engines count their own

    def test_invalidate_responder_sweeps_all_origins(self):
        cache = ShortcutCache(4)
        cache.put(0, "00", 7)
        cache.put(1, "01", 7)
        cache.put(2, "10", 8)
        removed = cache.invalidate_responder(7)
        assert removed == 2
        assert cache.stats.invalidations == 2
        assert cache.get(0, "00") is None
        assert cache.get(1, "01") is None
        assert cache.get(2, "10") == 8
        # No stale entries left: a second sweep is a no-op.
        assert cache.invalidate_responder(7) == 0
        assert cache.stats.invalidations == 2


class TestStatsEdges:
    def test_hit_rate_empty_cache_is_zero(self):
        # No searches yet: 0/0 must not divide.
        assert ShortcutStats().hit_rate == 0.0
        assert ShortcutCache(4).stats.hit_rate == 0.0

    def test_hit_rate_counts(self):
        stats = ShortcutStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestEngineIntegration:
    CONFIG = PGridConfig(maxl=5, refmax=3, recmax=2, recursion_fanout=2)

    @pytest.fixture(scope="class")
    def grid(self) -> PGrid:
        grid = PGrid(self.CONFIG, rng=random.Random(23))
        grid.add_peers(80)
        GridBuilder(grid).build(max_exchanges=40_000)
        return grid

    def _engine(self, grid, seed: int):
        engine = BatchQueryEngine.from_arraygrid(ArrayGrid.from_pgrid(grid), seed=seed)
        engine.shortcuts = ShortcutCache(32)
        return engine, engine.shortcuts

    def test_repeat_batch_hits_cache(self, grid):
        engine, cache = self._engine(grid, 1)
        queries = [format(k, "05b") for k in range(8)]
        starts = [0] * len(queries)
        first = engine.search_many(queries, starts)
        assert cache.stats.hits == 0
        assert cache.stats.misses == len(queries)
        found_first = int(first.found.sum())
        assert len(cache) == found_first  # found misses were cached

        # Pre-packed keys share the string-keyed entries.
        packed = (np.array([int(q, 2) for q in queries]), np.full(len(queries), 5))
        second = engine.search_many(packed, starts)
        assert cache.stats.hits == found_first
        # A usable hit contacts the cached responder directly: 0 messages
        # from the origin itself, 1 otherwise.
        for i in range(len(queries)):
            if first.found[i]:
                assert second.found[i]
                assert second.responder[i] == first.responder[i]
                expected = 0 if int(first.responder[i]) == starts[i] else 1
                assert int(second.messages[i]) == expected

    def test_invalidated_responder_falls_back_to_dfs(self, grid):
        engine, cache = self._engine(grid, 3)
        query = "10101"
        first = engine.search_many([query], [0])
        assert bool(first.found[0])
        cached = cache.get(engine.addresses[0], query)
        assert cached == engine.addresses[int(first.responder[0])]
        cache.invalidate_responder(cached)
        second = engine.search_many([query], [0])
        # The entry is gone, so the query pays the full DFS again...
        assert bool(second.found[0])
        assert cache.stats.misses == 2
        # ...and the fresh responder is cached for next time.
        assert cache.get(0, query) == engine.addresses[int(second.responder[0])]

    def test_stale_responsibility_invalidates_on_use(self, grid):
        engine, cache = self._engine(grid, 4)
        query = "10101"
        # Plant an entry at a peer that is NOT responsible for the query,
        # and one at an address the engine does not hold: the shortcut
        # pass must invalidate both and fall through to DFS.
        wrong = next(
            i
            for i, peer in enumerate(grid.peers())
            if peer.path and not query.startswith(peer.path)
        )
        cache.put(0, query, engine.addresses[wrong])
        cache.put(1, query, 10_000)
        result = engine.search_many([query, query], [0, 1])
        assert cache.stats.invalidations == 2
        assert cache.stats.misses == 2
        assert int(result.responder[0]) != wrong
        assert cache.get(1, query) == engine.addresses[int(result.responder[1])]
