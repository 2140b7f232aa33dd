"""LoadTracker EWMA accounting and PathResolver freshness."""

from __future__ import annotations

import random

import pytest

from repro.core.config import PGridConfig
from repro.core.exchange import ExchangeEngine
from repro.core.grid import PGrid
from repro.replication import LoadProbe, LoadTracker, PathResolver
from tests.conftest import build_grid


class TestLoadTracker:
    def test_record_accumulates_at_same_tick(self):
        tracker = LoadTracker(half_life=8.0)
        tracker.record("00")
        tracker.record("00", weight=2.0)
        assert tracker.load("00") == pytest.approx(3.0)

    def test_half_life_decay(self):
        tracker = LoadTracker(half_life=10.0)
        tracker.record("01")
        tracker.tick(10)
        assert tracker.load("01") == pytest.approx(0.5)
        tracker.tick(10)
        assert tracker.load("01") == pytest.approx(0.25)

    def test_observe_ticks_then_credits(self):
        tracker = LoadTracker(half_life=4.0)
        tracker.observe("11")
        assert tracker.clock == 1
        assert tracker.observed == 1
        # The credit lands at the *new* clock, undecayed.
        assert tracker.load("11") == pytest.approx(1.0)

    def test_observe_none_ticks_clock_without_credit(self):
        tracker = LoadTracker(half_life=2.0)
        tracker.observe("0")
        before = tracker.load("0")
        tracker.observe(None)
        assert tracker.clock == 2
        assert tracker.load("0") < before  # everyone decays
        assert tracker.total() == pytest.approx(tracker.load("0"))

    def test_lazy_decay_matches_eager(self):
        """Touching a path late applies the same decay as ticking through."""
        lazy = LoadTracker(half_life=7.0)
        lazy.record("101")
        lazy.tick(23)
        eager = LoadTracker(half_life=7.0)
        eager.record("101")
        for _ in range(23):
            eager.tick(1)
        assert lazy.load("101") == pytest.approx(eager.load("101"))

    def test_hottest_and_tie_break(self):
        tracker = LoadTracker(half_life=64.0)
        tracker.record("00", weight=2.0)
        tracker.record("01", weight=2.0)
        tracker.record("10", weight=1.0)
        # Equal loads: the lexicographically larger path wins (max over
        # (load, path) tuples) — deterministic either way.
        path, load = tracker.hottest()
        assert path == "01"
        assert load == pytest.approx(2.0)

    def test_hottest_empty(self):
        assert LoadTracker().hottest() is None

    def test_reset(self):
        tracker = LoadTracker()
        tracker.observe("0")
        tracker.reset()
        assert tracker.clock == 0
        assert tracker.observed == 0
        assert tracker.loads() == {}

    def test_snapshot_shape(self):
        tracker = LoadTracker(half_life=16.0)
        tracker.observe("0")
        snap = tracker.snapshot()
        assert snap["clock"] == 1
        assert snap["observed"] == 1
        assert snap["half_life"] == 16.0
        assert snap["loads"] == {"0": pytest.approx(1.0)}

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadTracker(half_life=0.0)
        with pytest.raises(ValueError):
            LoadTracker().tick(-1)


class TestPathResolver:
    def test_resolves_longest_matching_prefix(self):
        grid = build_grid(48, maxl=4, refmax=2, seed=3)
        resolver = PathResolver(grid)
        paths = {peer.path for peer in grid.peers()}
        query = "0000"
        resolved = resolver(query)
        assert resolved is not None
        assert query.startswith(resolved)
        assert resolved in paths
        # No strictly longer prefix of the query is a live path.
        for depth in range(len(resolved) + 1, len(query) + 1):
            assert query[:depth] not in paths

    def test_path_changes_are_visible_to_the_next_resolve(self):
        grid = build_grid(32, maxl=3, refmax=2, seed=5)
        resolver = PathResolver(grid)
        groups = grid.replica_groups()
        old_path = min(groups, key=lambda path: (len(groups[path]), path))
        elsewhere = next(path for path in groups if path != old_path)
        query = old_path + "0" * 4
        assert resolver(query) == old_path
        # Every holder leaves the path: membership is unchanged, no
        # balancer is involved, and the very next resolve must see it.
        for address in groups[old_path]:
            grid.peer(address).set_path(elsewhere)
        assert resolver(query) != old_path
        grid.peer(groups[old_path][0]).set_path(old_path)
        assert resolver(query) == old_path

    def test_exchange_specialisation_is_visible_to_the_next_resolve(self):
        # A plain Fig. 3 meeting — no balancer anywhere — extends both
        # paths; load attribution must follow at once.
        grid = PGrid(PGridConfig(maxl=3, refmax=2), rng=random.Random(1))
        grid.add_peers(2)
        resolver = PathResolver(grid)
        assert resolver("0101") == ""
        ExchangeEngine(grid).meet(0, 1)
        assert {grid.peer(0).path, grid.peer(1).path} == {"0", "1"}
        assert resolver("0101") == "0"
        assert resolver("1101") == "1"

    def test_unresolvable_query_returns_none(self):
        grid = build_grid(32, maxl=3, refmax=2, seed=6)
        resolver = PathResolver(grid)
        # Strip every peer holding a prefix of the all-ones key by
        # resolving against an impossible alphabet instead: a query of
        # a different alphabet shares no prefix with any binary path
        # except the root, which only matches if some peer sits at "".
        has_root = any(peer.path == "" for peer in grid.peers())
        assert (resolver("zzzz") is None) == (not has_root)


class TestLoadProbe:
    def test_search_end_feeds_tracker(self):
        grid = build_grid(48, maxl=4, refmax=2, seed=7)
        tracker = LoadTracker()
        probe = LoadProbe(tracker, PathResolver(grid))
        probe.on_search_end(
            "dfs", 0, "0000", found=True, messages=3, failed_attempts=0
        )
        assert tracker.clock == 1
        assert tracker.observed == 1
        hottest = tracker.hottest()
        assert hottest is not None
        assert "0000".startswith(hottest[0])
