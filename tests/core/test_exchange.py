"""Tests for the Fig. 3 exchange (construction) algorithm."""

from __future__ import annotations

import random

import pytest

from repro.core.config import PGridConfig
from repro.core.exchange import ExchangeEngine
from repro.core.grid import PGrid
from repro.core.storage import DataRef
from repro.sim.churn import FixedOnlineSet
from tests.conftest import assert_routing_consistent, build_grid


def two_peer_grid(**config_kwargs) -> tuple[PGrid, ExchangeEngine]:
    grid = PGrid(PGridConfig(**config_kwargs), rng=random.Random(0))
    grid.add_peers(2)
    return grid, ExchangeEngine(grid)


class TestCase1Split:
    def test_bootstrap_split(self):
        grid, engine = two_peer_grid(maxl=4)
        engine.meet(0, 1)
        a, b = grid.peer(0), grid.peer(1)
        assert {a.path, b.path} == {"0", "1"}
        assert a.routing.refs(1) == [b.address]
        assert b.routing.refs(1) == [a.address]
        assert engine.stats.case1_splits == 1

    def test_split_below_maxl_only(self):
        grid, engine = two_peer_grid(maxl=1)
        engine.meet(0, 1)
        assert {grid.peer(0).path, grid.peer(1).path} == {"0", "1"}
        # Second meeting: both at maxl with different paths -> no deepening.
        engine.meet(0, 1)
        assert {grid.peer(0).path, grid.peer(1).path} == {"0", "1"}

    def test_deeper_split_extends_common_prefix(self):
        grid, engine = two_peer_grid(maxl=4)
        grid.peer(0).set_path("01")
        grid.peer(1).set_path("01")
        engine.meet(0, 1)
        assert {grid.peer(0).path, grid.peer(1).path} == {"010", "011"}
        assert grid.peer(0).routing.refs(3) == [1]
        assert grid.peer(1).routing.refs(3) == [0]

    def test_split_hands_over_data_refs(self):
        grid, engine = two_peer_grid(maxl=2)
        ref0 = DataRef(key="00", holder=5)
        ref1 = DataRef(key="10", holder=6)
        for address in (0, 1):
            grid.peer(address).store.add_ref(ref0)
            grid.peer(address).store.add_ref(ref1)
        engine.meet(0, 1)
        zero_side = grid.peer(0) if grid.peer(0).path == "0" else grid.peer(1)
        one_side = grid.peer(1) if zero_side.address == 0 else grid.peer(0)
        assert {r.key for r in zero_side.store.iter_refs()} == {"00"}
        assert {r.key for r in one_side.store.iter_refs()} == {"10"}


class TestCases2And3:
    def test_shorter_specializes_opposite_to_longer(self):
        grid, engine = two_peer_grid(maxl=4)
        grid.peer(0).set_path("0")        # shorter
        grid.peer(1).set_path("01")       # longer; next bit after lc=1 is '1'
        engine.meet(0, 1)
        assert grid.peer(0).path == "00"  # opposite of '1'
        assert grid.peer(0).routing.refs(2) == [1]
        assert 0 in grid.peer(1).routing.refs(2)
        assert engine.stats.case2_specializations == 1

    def test_case3_symmetric(self):
        grid, engine = two_peer_grid(maxl=4)
        grid.peer(0).set_path("01")
        grid.peer(1).set_path("0")
        engine.meet(0, 1)
        assert grid.peer(1).path == "00"
        assert engine.stats.case3_specializations == 1

    def test_specialization_respects_maxl(self):
        grid, engine = two_peer_grid(maxl=2)
        grid.peer(0).set_path("01")
        grid.peer(1).set_path("0")
        # lc = 1 < maxl, so specialization happens...
        engine.meet(0, 1)
        assert grid.peer(1).path == "00"
        # ...but a peer already holding maxl bits cannot be specialized into.
        grid2, engine2 = two_peer_grid(maxl=2)
        grid2.peer(0).set_path("01")
        grid2.peer(1).set_path("01")
        engine2.meet(0, 1)  # lc = 2 = maxl: no case fires
        assert grid2.peer(0).path == "01"
        assert grid2.peer(1).path == "01"

    def test_empty_root_meets_deep_peer(self):
        grid, engine = two_peer_grid(maxl=4)
        grid.peer(1).set_path("110")
        engine.meet(0, 1)
        # lc = 0: peer 0 takes the opposite of peer 1's first bit.
        assert grid.peer(0).path == "0"
        assert grid.peer(0).routing.refs(1) == [1]


class TestRefsExchange:
    def test_refs_merged_at_shared_level(self):
        grid = PGrid(PGridConfig(maxl=3, refmax=4), rng=random.Random(0))
        grid.add_peers(4)
        grid.peer(0).set_path("00")
        grid.peer(1).set_path("00")
        grid.peer(2).set_path("10")
        grid.peer(3).set_path("11")
        grid.peer(0).routing.set_refs(1, [2])
        grid.peer(1).routing.set_refs(1, [3])
        engine = ExchangeEngine(grid)
        engine.meet(0, 1)
        # shared level lc=2 -> refs exchanged at level 2; level 1 untouched
        # by default... but the union at level 2 is empty here; check level 1
        # is NOT merged under the paper's rule.
        assert grid.peer(0).routing.refs(1) == [2]
        assert grid.peer(1).routing.refs(1) == [3]

    def test_refs_capacity_respected_after_merge(self):
        grid = PGrid(PGridConfig(maxl=3, refmax=1), rng=random.Random(0))
        grid.add_peers(4)
        grid.peer(0).set_path("0")
        grid.peer(1).set_path("0")
        grid.peer(2).set_path("1")
        grid.peer(3).set_path("1")
        grid.peer(0).routing.set_refs(1, [2])
        grid.peer(1).routing.set_refs(1, [3])
        ExchangeEngine(grid).meet(0, 1)
        assert len(grid.peer(0).routing.refs(1)) == 1
        assert len(grid.peer(1).routing.refs(1)) == 1


class TestCase4Recursion:
    def _diverged_grid(self, recmax=2, fanout=None, refmax=4):
        grid = PGrid(
            PGridConfig(maxl=3, refmax=refmax, recmax=recmax,
                        recursion_fanout=fanout),
            rng=random.Random(0),
        )
        grid.add_peers(4)
        grid.peer(0).set_path("00")
        grid.peer(1).set_path("01")
        grid.peer(2).set_path("01")
        grid.peer(3).set_path("00")
        grid.peer(0).routing.set_refs(2, [1])
        grid.peer(1).routing.set_refs(2, [3])
        return grid

    def test_no_recursion_at_recmax_zero(self):
        grid = self._diverged_grid(recmax=0)
        engine = ExchangeEngine(grid)
        calls = engine.meet(0, 1)
        assert calls == 1
        assert engine.stats.case4_recursions == 0

    def test_recursion_forwards_to_references(self):
        grid = self._diverged_grid(recmax=2)
        engine = ExchangeEngine(grid)
        calls = engine.meet(0, 1)
        # 0 and 1 diverge at level 2 (lc=1): 1 is forwarded to 0's refs at
        # level 2 ({1}\{1} = empty) — wait, 0's refs at level 2 is [1] which
        # is the partner and excluded; 1's refs at level 2 is [3], so 0
        # meets 3 recursively: total calls >= 2.
        assert calls >= 2
        assert engine.stats.case4_recursions >= 1

    def test_recursion_skips_offline_references(self):
        grid = self._diverged_grid(recmax=2)
        grid.online_oracle = FixedOnlineSet({0, 1})  # 3 offline
        engine = ExchangeEngine(grid)
        calls = engine.meet(0, 1)
        assert calls == 1  # recursion target offline -> no recursive call

    def test_fanout_bound_limits_recursive_calls(self):
        # Give peer 1 three refs at the divergence level; fanout=1 must
        # recurse into exactly one of them.
        grid = self._diverged_grid(recmax=1, fanout=1)
        grid.peer(1).routing.set_refs(2, [3])
        grid.add_peer(4).set_path("00")
        grid.add_peer(5).set_path("00")
        grid.peer(1).routing.merge_refs(2, [4, 5], random.Random(1))
        engine = ExchangeEngine(grid)
        calls = engine.meet(0, 1)
        assert calls == 2  # 1 top-level + exactly 1 recursive

    def test_paper_default_no_mutual_refs(self):
        grid = self._diverged_grid(recmax=0)
        ExchangeEngine(grid).meet(0, 1)
        assert grid.peer(1).routing.refs(2) == [3]


class TestReplicasAndBuddies:
    def test_identical_full_paths_become_buddies(self):
        grid, engine = two_peer_grid(maxl=2)
        grid.peer(0).set_path("01")
        grid.peer(1).set_path("01")
        engine.meet(0, 1)
        assert grid.peer(0).buddies == {1}
        assert grid.peer(1).buddies == {0}
        assert engine.stats.buddy_links == 1

    def test_buddy_lists_gossip_transitively(self):
        grid = PGrid(PGridConfig(maxl=2), rng=random.Random(0))
        grid.add_peers(3)
        for address in range(3):
            grid.peer(address).set_path("01")
        engine = ExchangeEngine(grid)
        engine.meet(0, 1)
        engine.meet(1, 2)
        # 2 learns about 0 through 1's buddy list.
        assert 0 in grid.peer(2).buddies

    def test_replica_meeting_anti_entropies_index(self):
        grid, engine = two_peer_grid(maxl=2)
        grid.peer(0).set_path("01")
        grid.peer(1).set_path("01")
        grid.peer(0).store.add_ref(DataRef(key="011", holder=7, version=3))
        engine.meet(0, 1)
        assert grid.peer(1).store.version_of("011", 7) == 3

    def test_no_buddies_below_maxl(self):
        grid, engine = two_peer_grid(maxl=4)
        grid.peer(0).set_path("01")
        grid.peer(1).set_path("01")
        engine.meet(0, 1)  # case 1 fires instead (split deeper)
        assert grid.peer(0).buddies == set()


class TestStatsAndCounting:
    def test_meet_rejects_self_meeting(self):
        grid, engine = two_peer_grid()
        with pytest.raises(ValueError):
            engine.meet(0, 0)

    def test_exchange_call_counting_matches_meetings_without_recursion(self):
        grid = build_grid(32, maxl=3, refmax=1, recmax=0, seed=2)
        # recmax=0: every meeting is exactly one exchange call.
        # (build_grid used its own engine; verify on a fresh engine here.)
        engine = ExchangeEngine(grid)
        engine.meet(0, 1)
        engine.meet(2, 3)
        assert engine.stats.calls == engine.stats.meetings == 2

    def test_stats_snapshot_keys(self):
        grid, engine = two_peer_grid()
        engine.meet(0, 1)
        snapshot = engine.stats.snapshot()
        assert snapshot["calls"] == 1
        assert snapshot["case1_splits"] == 1
        assert set(snapshot) >= {
            "calls",
            "meetings",
            "case2_specializations",
            "buddy_links",
        }


class TestGlobalInvariants:
    @pytest.mark.parametrize("refmax,recmax,fanout", [
        (1, 0, None),
        (1, 2, None),
        (2, 2, 2),
        (4, 3, 2),
    ])
    def test_construction_preserves_routing_invariant(self, refmax, recmax, fanout):
        grid = build_grid(
            48, maxl=4, refmax=refmax, recmax=recmax,
            recursion_fanout=fanout, seed=refmax * 10 + recmax,
        )
        assert_routing_consistent(grid)

    def test_construction_converges_small(self):
        grid = build_grid(32, maxl=3, refmax=1, recmax=2, seed=1)
        assert grid.average_path_length() >= 0.99 * 3

    def test_paths_never_exceed_maxl(self):
        grid = build_grid(64, maxl=4, refmax=2, seed=6)
        assert all(peer.depth <= 4 for peer in grid.peers())

    def test_both_subtrees_populated(self):
        grid = build_grid(64, maxl=4, refmax=2, seed=8)
        first_bits = {peer.path[0] for peer in grid.peers() if peer.path}
        assert first_bits == {"0", "1"}
