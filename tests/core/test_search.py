"""Tests for the Fig. 2 depth-first search and the breadth-first variant."""

from __future__ import annotations

import random

import pytest

from repro.core import keys as keyspace
from repro.core.config import SearchConfig
from repro.core.search import SearchEngine
from repro.core.storage import DataItem, DataRef
from repro.errors import InvalidKeyError
from repro.protocol.search import repeated_queries
from repro.sim.churn import FixedOnlineSet
from tests.conftest import build_grid


class TestFig1Examples:
    """The two worked query examples of the paper's Fig. 1."""

    def test_query_00_at_peer_1_resolves_locally(self, fig1_grid):
        engine = SearchEngine(fig1_grid)
        result = engine.query_from(0, "00")  # paper peer 1 = address 0
        assert result.found
        assert result.responder == 0
        assert result.messages == 0  # handled entirely locally

    def test_query_10_at_peer_6_routes_two_hops(self, fig1_grid):
        engine = SearchEngine(fig1_grid)
        result = engine.query_from(5, "10")  # paper peer 6 = address 5
        assert result.found
        # Must end at one of the peers responsible for "10" (addresses 2, 3).
        assert result.responder in (2, 3)
        # Peer 6's own path is 11: the query diverges at the first bit, so at
        # least one forward happens; the figure's walk uses two.
        assert 1 <= result.messages <= 2

    def test_every_key_reachable_from_every_peer(self, fig1_grid):
        engine = SearchEngine(fig1_grid)
        for start in fig1_grid.addresses():
            for key in keyspace.all_keys(2):
                result = engine.query_from(start, key)
                assert result.found, (start, key)
                assert fig1_grid.peer(result.responder).responsible_for(key)


class TestSemantics:
    def test_invalid_query_rejected(self, fig1_grid):
        with pytest.raises(InvalidKeyError):
            SearchEngine(fig1_grid).query_from(0, "0a")

    def test_unknown_start_rejected(self, fig1_grid):
        from repro.errors import UnknownPeerError

        with pytest.raises(UnknownPeerError):
            SearchEngine(fig1_grid).query_from(99, "00")

    def test_query_shorter_than_path_matches(self, fig1_grid):
        # Query "0" is a prefix of peer 0's path "00" -> peer 0 responsible.
        result = SearchEngine(fig1_grid).query_from(0, "0")
        assert result.found and result.responder == 0

    def test_query_longer_than_path_matches(self, fig1_grid):
        # Peer 0's path "00" is a prefix of the query "0011".
        result = SearchEngine(fig1_grid).query_from(0, "0011")
        assert result.found and result.responder == 0

    def test_empty_query_found_immediately(self, fig1_grid):
        result = SearchEngine(fig1_grid).query_from(3, "")
        assert result.found and result.responder == 3 and result.messages == 0

    def test_data_refs_attached_to_result(self, fig1_grid):
        fig1_grid.peer(2).store.add_ref(DataRef(key="101", holder=4))
        fig1_grid.peer(3).store.add_ref(DataRef(key="101", holder=4))
        result = SearchEngine(fig1_grid).query_from(5, "10")
        assert result.found
        assert any(ref.key == "101" for ref in result.data_refs)

    def test_result_total_contacts(self, fig1_grid):
        result = SearchEngine(fig1_grid).query_from(5, "10")
        assert result.total_contacts == result.messages + result.failed_attempts


class TestFailureHandling:
    def test_search_fails_when_other_side_offline(self, fig1_grid):
        # Only the 0-side peers are online; a 1-side query from a 0-side
        # peer cannot cross.
        fig1_grid.online_oracle = FixedOnlineSet({0, 1})
        result = SearchEngine(fig1_grid).query_from(0, "10")
        assert not result.found
        assert result.messages == 0
        assert result.failed_attempts >= 1

    def test_search_succeeds_via_alternative_when_one_replica_offline(self):
        grid = build_grid(64, maxl=4, refmax=2, seed=9)
        # Knock out one specific peer; refmax=2 should usually route around.
        engine = SearchEngine(grid)
        baseline = engine.query_from(0, "1010")
        assert baseline.found
        grid.online_oracle = FixedOnlineSet(set(grid.addresses()) - {baseline.responder})
        rerun = engine.query_from(0, "1010")
        if rerun.found:
            assert rerun.responder != baseline.responder

    def test_offline_attempts_counted_not_charged(self, fig1_grid):
        fig1_grid.online_oracle = FixedOnlineSet({0, 1, 2})  # peer 3 offline
        result = SearchEngine(fig1_grid).query_from(0, "10")
        # Peer 0's L1 ref is peer 2 (online) -> should still succeed.
        assert result.found

    def test_message_budget_exhaustion_returns_not_found(self, fig1_grid):
        engine = SearchEngine(fig1_grid, config=SearchConfig(max_messages=1))
        # Query needing 2 hops from peer 5 can exhaust a 1-message budget
        # only if the first hop does not already resolve; run both ways.
        result = engine.query_from(5, "10")
        assert result.messages <= 1


class TestOnConstructedGrid:
    def test_all_leaf_keys_found_when_online(self, medium_grid):
        engine = SearchEngine(medium_grid)
        rng = random.Random(4)
        for _ in range(100):
            key = keyspace.random_key(5, rng)
            result = engine.query_from(rng.choice(medium_grid.addresses()), key)
            assert result.found, key
            assert medium_grid.peer(result.responder).responsible_for(key)

    def test_messages_bounded_by_key_length(self, medium_grid):
        engine = SearchEngine(medium_grid)
        rng = random.Random(5)
        for _ in range(50):
            key = keyspace.random_key(5, rng)
            result = engine.query_from(rng.choice(medium_grid.addresses()), key)
            # each message consumes at least one further bit of the query
            assert result.messages <= len(key)

    def test_deterministic_for_fixed_rng(self):
        def run(seed):
            grid = build_grid(64, maxl=4, refmax=2, seed=13)
            grid.rng = random.Random(seed)
            engine = SearchEngine(grid)
            return [
                (engine.query_from(0, key).responder)
                for key in keyspace.all_keys(4)
            ]

        assert run(77) == run(77)


class TestRepeatedQuery:
    def test_repeated_query_accumulates_responders(self, medium_grid):
        engine = SearchEngine(medium_grid)
        responders, messages, failed = repeated_queries(
            lambda: engine.query_from(0, "10101"), 10
        )
        assert responders
        assert all(
            medium_grid.peer(address).responsible_for("10101")
            for address in responders
        )
        assert messages >= len(responders) - 1
        assert failed == 0  # everyone online

    def test_repeated_query_validates_times(self, fig1_grid):
        engine = SearchEngine(fig1_grid)
        with pytest.raises(ValueError):
            repeated_queries(lambda: engine.query_from(0, "00"), 0)


class TestBreadthSearch:
    def test_finds_multiple_replicas(self, medium_grid):
        engine = SearchEngine(medium_grid)
        result = engine.query_breadth(0, "10101", recbreadth=3)
        assert result.found
        assert len(result.responders) >= 2
        assert len(set(result.responders)) == len(result.responders)
        for address in result.responders:
            assert medium_grid.peer(address).responsible_for("10101")

    def test_validates_recbreadth(self, fig1_grid):
        with pytest.raises(ValueError):
            SearchEngine(fig1_grid).query_breadth(0, "00", recbreadth=0)

    def test_validates_key(self, fig1_grid):
        with pytest.raises(InvalidKeyError):
            SearchEngine(fig1_grid).query_breadth(0, "0x", recbreadth=2)

    def test_wider_breadth_finds_at_least_as_many_on_average(self, medium_grid):
        engine = SearchEngine(medium_grid)
        rng = random.Random(8)
        narrow = wide = 0
        for _ in range(30):
            key = keyspace.random_key(5, rng)
            start = rng.choice(medium_grid.addresses())
            narrow += len(engine.query_breadth(start, key, 1).responders)
            wide += len(engine.query_breadth(start, key, 3).responders)
        assert wide > narrow

    def test_breadth_respects_online_oracle(self, fig1_grid):
        fig1_grid.online_oracle = FixedOnlineSet({0, 1})
        result = SearchEngine(fig1_grid).query_breadth(0, "10", recbreadth=2)
        assert not result.found
        assert result.failed_attempts >= 1

    def test_local_responsibility_counts_without_messages(self, fig1_grid):
        result = SearchEngine(fig1_grid).query_breadth(0, "00", recbreadth=2)
        assert result.found
        assert 0 in result.responders


class TestBreadthBudget:
    def test_breadth_respects_message_budget(self, medium_grid):
        engine = SearchEngine(medium_grid, config=SearchConfig(max_messages=2))
        result = engine.query_breadth(0, "10101", recbreadth=3)
        assert result.messages <= 2

    def test_range_query_respects_budget_per_cover(self, medium_grid):
        engine = SearchEngine(medium_grid, config=SearchConfig(max_messages=3))
        result = engine.query_range(0, "00000", "11111")
        # one budget per cover prefix search; cover of the full range is [""]
        assert result.messages <= 3 * len(result.cover)


class TestRangeUnderChurn:
    def test_range_query_degrades_gracefully(self, medium_grid):
        from repro.core.storage import DataItem

        medium_grid.seed_index(
            [(DataItem(key=format(v, "07b"), value=v), v % 256)
             for v in range(0, 128, 4)]
        )
        baseline = SearchEngine(medium_grid).query_range(
            0, "0000000", "1111111", recbreadth=4
        )
        medium_grid.online_oracle = FixedOnlineSet(
            set(medium_grid.addresses()[::2])  # half the peers are up
        )
        churned = SearchEngine(medium_grid).query_range(
            0, "0000000", "1111111", recbreadth=4
        )
        assert len(churned.data_refs) <= len(baseline.data_refs)
        assert churned.failed_attempts >= 0
        found_keys = {ref.key for ref in churned.data_refs}
        baseline_keys = {ref.key for ref in baseline.data_refs}
        assert found_keys <= baseline_keys
