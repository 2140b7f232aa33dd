"""Tests for update propagation and read strategies (§3/§5.2)."""

from __future__ import annotations

import pytest

from repro.core.search import SearchEngine
from repro.core.storage import DataItem, DataRef
from repro.core.updates import ReadEngine, UpdateEngine, UpdateStrategy
from repro.errors import InvalidKeyError
from repro.sim.churn import FixedOnlineSet
from tests.conftest import build_grid


@pytest.fixture
def grid():
    return build_grid(256, maxl=5, refmax=3, seed=21)


class TestPropagation:
    @pytest.mark.parametrize("strategy", list(UpdateStrategy))
    def test_reached_peers_are_responsible(self, grid, strategy):
        engine = UpdateEngine(grid)
        ref = DataRef(key="10110", holder=0, version=1)
        result = engine.propagate(5, ref, strategy=strategy, repetition=3)
        assert result.reached
        for address in result.reached:
            assert grid.peer(address).responsible_for("10110")
            assert grid.peer(address).store.version_of("10110", 0) == 1

    def test_coverage_fraction(self, grid):
        engine = UpdateEngine(grid)
        ref = DataRef(key="01011", holder=0, version=1)
        result = engine.propagate(
            3, ref, strategy=UpdateStrategy.BFS, recbreadth=3
        )
        replicas = set(grid.replicas_for_key("01011"))
        assert result.replica_count == len(replicas)
        assert result.reached <= replicas
        assert result.coverage == pytest.approx(
            len(result.reached) / len(replicas)
        )

    def test_bfs_beats_single_dfs_coverage(self, grid):
        engine = UpdateEngine(grid)
        keys = ["10010", "01101", "11100", "00011"]
        bfs_total = dfs_total = 0
        for key in keys:
            bfs, _, _ = engine.find_replicas(
                2, key, strategy=UpdateStrategy.BFS, recbreadth=3
            )
            dfs, _, _ = engine.find_replicas(
                2, key, strategy=UpdateStrategy.REPEATED_DFS, repetition=1
            )
            bfs_total += len(bfs)
            dfs_total += len(dfs)
        assert bfs_total > dfs_total

    def test_buddies_strategy_extends_dfs(self, grid):
        engine = UpdateEngine(grid)
        key = "11011"
        base, base_msgs, _ = engine.find_replicas(
            1, key, strategy=UpdateStrategy.REPEATED_DFS, repetition=2
        )
        extended, ext_msgs, _ = engine.find_replicas(
            1, key, strategy=UpdateStrategy.DFS_BUDDIES, repetition=2
        )
        # Buddy forwarding can only add peers, at added message cost — the
        # two runs draw different randomness, so compare weakly: buddy runs
        # reach at least one peer and spend >= messages per reached peer
        # comparable to plain DFS.
        assert extended
        assert ext_msgs >= 0 and base_msgs >= 0 and base

    def test_propagate_validates(self, grid):
        engine = UpdateEngine(grid)
        with pytest.raises(ValueError):
            engine.propagate(
                0, DataRef(key="1", holder=0), repetition=0
            )
        with pytest.raises(InvalidKeyError):
            engine.find_replicas(
                0, "xy", strategy=UpdateStrategy.BFS
            )
        with pytest.raises(ValueError):
            engine.find_replicas(
                0, "01", strategy=UpdateStrategy.BFS, repetition=0
            )

    def test_unknown_strategy_rejected(self, grid):
        engine = UpdateEngine(grid)
        with pytest.raises(ValueError):
            engine._find_replicas(
                0, "01", strategy="bogus", repetition=1, recbreadth=2
            )

    def test_publish_stores_item_at_holder(self, grid):
        engine = UpdateEngine(grid)
        item = DataItem(key="00110", value="file.bin")
        result = engine.publish(4, item, holder=9, version=2)
        assert grid.peer(9).store.get_item("00110").value == "file.bin"
        for address in result.reached:
            assert grid.peer(address).store.version_of("00110", 9) == 2

    def test_buddy_forwarding_respects_churn(self, grid):
        # Make every buddy offline: DFS_BUDDIES degrades to plain DFS reach.
        engine = UpdateEngine(grid)
        key = "10101"
        reached_once, _, _ = engine.find_replicas(
            0, key, strategy=UpdateStrategy.REPEATED_DFS, repetition=1
        )
        only_reached_online = FixedOnlineSet(reached_once | {0})
        grid.online_oracle = only_reached_online
        reached, _, failed = engine.find_replicas(
            0, key, strategy=UpdateStrategy.DFS_BUDDIES, repetition=1
        )
        # any buddy outside the online set must have been skipped
        for address in reached:
            assert only_reached_online.is_online(address) or address == 0


class TestReadStrategies:
    def _updated_key(self, grid, coverage_breadth=3):
        """Publish version 1 of an entry and return (key, holder, reached)."""
        engine = UpdateEngine(grid)
        key = "01110"
        holder = 7
        result = engine.publish(
            2,
            DataItem(key=key, value="v1"),
            holder,
            strategy=UpdateStrategy.BFS,
            recbreadth=coverage_breadth,
            version=1,
        )
        return key, holder, result.reached

    def test_read_single_success_iff_fresh_responder(self, grid):
        key, holder, reached = self._updated_key(grid)
        reads = ReadEngine(grid)
        result = reads.read_single(0, key, holder, version=1)
        if result.success:
            # some responder in the reached set answered
            assert result.messages >= 0
        else:
            # a stale replica answered; it must exist
            stale = set(grid.replicas_for_key(key)) - reached
            assert stale

    def test_read_repeated_succeeds_when_any_replica_fresh(self, grid):
        key, holder, reached = self._updated_key(grid)
        assert reached  # sanity
        reads = ReadEngine(grid)
        result = reads.read_repeated(0, key, holder, version=1,
                                     max_repetitions=500)
        assert result.success
        assert result.repetitions >= 1

    def test_read_repeated_fails_when_nothing_updated(self, grid):
        reads = ReadEngine(grid)
        result = reads.read_repeated(
            0, "11111", holder=3, version=5, max_repetitions=5
        )
        assert not result.success
        assert result.repetitions == 5

    def test_read_repeated_validates(self, grid):
        with pytest.raises(ValueError):
            ReadEngine(grid).read_repeated(
                0, "1", holder=0, version=1, max_repetitions=0
            )

    def test_read_majority_all_fresh(self, grid):
        key, holder, _ = self._updated_key(grid, coverage_breadth=3)
        # Force freshness everywhere: install at every replica directly.
        for address in grid.replicas_for_key(key):
            grid.peer(address).store.add_ref(
                DataRef(key=key, holder=holder, version=1)
            )
        result = ReadEngine(grid).read_majority(0, key, holder, version=1)
        assert result.success
        assert result.repetitions == 3

    def test_read_majority_all_stale(self, grid):
        result = ReadEngine(grid).read_majority(
            0, "00101", holder=1, version=9, votes=3
        )
        assert not result.success

    def test_read_majority_validates_votes(self, grid):
        reads = ReadEngine(grid)
        with pytest.raises(ValueError):
            reads.read_majority(0, "1", holder=0, version=1, votes=2)
        with pytest.raises(ValueError):
            reads.read_majority(0, "1", holder=0, version=1, votes=0)

    def test_read_single_counts_messages(self, grid):
        key, holder, _ = self._updated_key(grid)
        result = ReadEngine(grid).read_single(0, key, holder, version=1)
        assert result.messages <= len(key)

    def test_shared_search_engine(self, grid):
        search = SearchEngine(grid)
        updates = UpdateEngine(grid, search=search)
        reads = ReadEngine(grid, search=search)
        assert updates.search is search
        assert reads.search is search


class TestUpdateConfigDefaults:
    def test_engine_uses_config_defaults(self, grid):
        from repro.core.config import UpdateConfig

        engine = UpdateEngine(grid, config=UpdateConfig(recbreadth=3, repetition=2))
        ref = DataRef(key="01010", holder=0, version=1)
        result = engine.propagate(4, ref)  # no per-call overrides
        assert result.reached

    def test_explicit_arguments_override_config(self, grid):
        from repro.core.config import UpdateConfig

        engine = UpdateEngine(grid, config=UpdateConfig(repetition=1))
        with pytest.raises(ValueError):
            engine.propagate(
                0, DataRef(key="1", holder=0), repetition=0
            )

    def test_default_config_matches_previous_behavior(self, grid):
        engine = UpdateEngine(grid)
        assert engine.config.recbreadth == 2
        assert engine.config.repetition == 1
