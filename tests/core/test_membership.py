"""Tests for dynamic membership: join, leave, fail, repair."""

from __future__ import annotations

import random

import pytest

from repro.core.keys import random_key
from repro.core.membership import JOIN_MEETINGS, MembershipEngine
from repro.core.search import SearchEngine
from repro.core.storage import DataRef
from repro.errors import UnknownPeerError
from repro.sim.churn import BernoulliChurn, FixedOnlineSet
from tests.conftest import assert_routing_consistent, build_grid, tally_messages


@pytest.fixture
def grid():
    return build_grid(128, maxl=5, refmax=3, seed=71)


class TestJoin:
    def test_newcomer_acquires_a_path(self, grid):
        membership = MembershipEngine(grid)
        before = len(grid)
        report = membership.join(bootstrap=0)
        assert len(grid) == before + 1
        assert grid.has_peer(report.address)
        assert report.final_depth >= 1
        assert report.exchanges >= 1

    def test_newcomer_usually_reaches_full_depth(self, grid):
        membership = MembershipEngine(grid)
        depths = [membership.join(bootstrap=i).final_depth for i in range(10)]
        assert max(depths) == grid.config.maxl
        assert sum(depths) / len(depths) >= grid.config.maxl - 1

    def test_join_preserves_routing_invariant(self, grid):
        membership = MembershipEngine(grid)
        for i in range(10):
            membership.join(bootstrap=i * 7 % 128)
        assert_routing_consistent(grid)

    def test_newcomer_is_searchable_and_can_search(self, grid):
        membership = MembershipEngine(grid)
        report = membership.join(bootstrap=3)
        engine = SearchEngine(grid)
        # the newcomer can resolve queries...
        assert engine.query_from(report.address, "10101").found
        # ...and other peers can reach the newcomer's region
        newcomer = grid.peer(report.address)
        if newcomer.path:
            result = engine.query_from(0, newcomer.path)
            assert result.found

    def test_every_newcomer_reaches_maxl(self, grid):
        membership = MembershipEngine(grid)
        for bootstrap in range(20):
            report = membership.join(bootstrap)
            assert report.final_depth == grid.config.maxl

    def test_join_validation(self, grid):
        membership = MembershipEngine(grid)
        with pytest.raises(UnknownPeerError):
            membership.join(bootstrap=9999)

    def test_join_stops_at_the_meeting_bound_when_no_one_answers(self, grid):
        # No peer online: each meeting is a miss that still counts, so the
        # join gives up at the bound with an empty path.
        grid.online_oracle = FixedOnlineSet()
        membership = MembershipEngine(grid)
        report = membership.join(bootstrap=0)
        assert report.meetings == JOIN_MEETINGS
        assert report.exchanges == 0
        assert report.final_depth == 0


class TestLeave:
    def test_leave_removes_peer(self, grid):
        membership = MembershipEngine(grid)
        membership.leave(5)
        assert not grid.has_peer(5)

    def test_graceful_leave_hands_over_index(self, grid):
        membership = MembershipEngine(grid)
        peer = grid.peer(10)
        key = peer.path + "0" * (5 - peer.depth) if peer.depth < 5 else peer.path
        ref = DataRef(key=key, holder=99, version=2)
        peer.store.add_ref(ref)
        report = membership.leave(10)
        if report.handover_target is not None:
            target = grid.peer(report.handover_target)
            assert target.store.version_of(key, 99) == 2
            assert report.entries_handed_over >= 1

    def test_leave_prefers_buddies(self, grid):
        membership = MembershipEngine(grid)
        peer = grid.peer(20)
        # fabricate a buddy relationship
        twin = next(
            p for p in grid.peers()
            if p.path == peer.path and p.address != peer.address
        ) if any(
            p.path == peer.path and p.address != peer.address
            for p in grid.peers()
        ) else None
        if twin is None:
            pytest.skip("no exact replica in this seed")
        peer.add_buddy(twin.address)
        peer.store.add_ref(DataRef(key=peer.path, holder=1, version=1))
        report = membership.leave(20)
        assert report.handover_target == twin.address

    def test_every_probe_of_a_departure_is_a_message(self, grid, monkeypatch):
        # At the paper's 30 % availability a departure probes buddies and
        # delegates until one answers: each probe is a message, and so is
        # each message of the delegated search.
        grid.online_oracle = BernoulliChurn(0.3, random.Random(5))
        membership = MembershipEngine(grid)
        tally = tally_messages(monkeypatch, grid, membership.search)
        probes = handed = 0
        for victim in grid.addresses()[:20]:
            # Dangling references are dropped first, so every probe is an
            # availability check of a registered peer.
            membership.repair_all()
            peer = grid.peer(victim)
            peer.store.add_ref(DataRef(key=peer.path, holder=victim, version=1))
            tally.probes, tally.searches = 0, []
            report = membership.leave(victim)
            searched = sum(result.messages for result in tally.searches)
            assert report.messages == tally.probes + searched
            probes += tally.probes
            handed += report.entries_handed_over
        assert probes > 20 and handed > 0  # probes went unanswered

    def test_fail_drops_state(self, grid):
        membership = MembershipEngine(grid)
        peer = membership.fail(7)
        assert peer.address == 7
        assert not grid.has_peer(7)
        with pytest.raises(UnknownPeerError):
            grid.peer(7)

    def test_search_survives_failures(self, grid):
        membership = MembershipEngine(grid)
        for victim in (3, 30, 60, 90):
            membership.fail(victim)
        engine = SearchEngine(grid)
        hits = sum(
            engine.query_from(start, "01010").found
            for start in grid.addresses()[:40]
        )
        assert hits >= 30  # refmax=3 absorbs a few failures


class TestRepair:
    def test_repair_drops_dangling_refs(self, grid):
        membership = MembershipEngine(grid)
        victim = 40
        holders = [
            peer.address
            for peer in grid.peers()
            if any(
                victim in refs for _lvl, refs in peer.routing.iter_levels()
            )
        ]
        membership.fail(victim)
        assert holders, "victim was referenced by someone"
        report = membership.repair(holders[0])
        assert report.dead_refs_dropped >= 1
        for _lvl, refs in grid.peer(holders[0]).routing.iter_levels():
            assert victim not in refs

    def test_repair_drops_departed_buddies(self, grid):
        membership = MembershipEngine(grid)
        victim = next(peer for peer in grid.peers() if peer.buddies)
        buddies = sorted(victim.buddies)
        membership.leave(victim.address)
        for buddy in buddies:
            membership.repair(buddy)
            assert victim.address not in grid.peer(buddy).buddies
        # Every surviving buddy list names registered peers only, which
        # is what lets the array plane bridge the grid again.
        membership.repair_all()
        for peer in grid.peers():
            assert all(grid.has_peer(buddy) for buddy in peer.buddies)

    def test_repair_refills_via_search(self, grid):
        membership = MembershipEngine(grid)
        peer = grid.peer(50)
        # artificially deplete level 1 (keep other levels as delegates)
        for ref in peer.routing.refs(1):
            peer.routing.remove_ref(1, ref)
        report = membership.repair(50)
        assert report.refs_added >= 1
        refs = peer.routing.refs(1)
        assert refs
        expected_prefix = ("1" if peer.path[0] == "0" else "0")
        for ref in refs:
            assert grid.peer(ref).path.startswith(expected_prefix)

    def test_repair_preserves_invariant(self, grid):
        membership = MembershipEngine(grid)
        for victim in (8, 16, 24, 32):
            membership.fail(victim)
        membership.repair_all()
        assert_routing_consistent(grid)

    def test_repair_counts_messages(self, grid):
        membership = MembershipEngine(grid)
        peer = grid.peer(70)
        for ref in peer.routing.refs(1):
            peer.routing.remove_ref(1, ref)
        report = membership.repair(70)
        assert report.messages >= 1

    def test_repair_respects_churn(self, grid):
        membership = MembershipEngine(grid)
        peer = grid.peer(80)
        for level in range(1, peer.depth + 1):
            for ref in peer.routing.refs(level):
                peer.routing.remove_ref(level, ref)
        grid.online_oracle = FixedOnlineSet({80})  # everyone else offline
        report = membership.repair(80)
        assert report.refs_added == 0
        assert report.levels_left_empty


class TestChurnCycle:
    def test_replace_and_repair_recovers_search(self, grid):
        membership = MembershipEngine(grid)
        rng_victims = [2, 12, 22, 32, 42, 52, 62, 72, 82, 92]
        for victim in rng_victims:
            membership.fail(victim)
        for bootstrap in (0, 1, 3, 4, 5, 6, 7, 8, 9, 10):
            membership.join(bootstrap)
        membership.repair_all()
        engine = SearchEngine(grid)
        hits = sum(
            engine.query_from(start, "11011").found
            for start in grid.addresses()[:50]
        )
        assert hits >= 48
        assert len(grid) == 128


class TestTurnover:
    def test_four_turnovers_keep_the_grid_organised(self):
        # Steady turnover (ROADMAP item 19): every event removes a random
        # peer, by a graceful leave or a crash with equal odds, and admits
        # one through a random bootstrap; a repair sweep runs every 256
        # events.  The grid is built until every path has maxl bits, so
        # after each of four full turnovers a peer below maxl is a join
        # that stopped short; the grid must also search as well as a built
        # one and every reference must meet §2.
        grid = build_grid(256, maxl=5, refmax=3, seed=1, threshold_fraction=1.0)
        membership = MembershipEngine(grid)
        rng = random.Random(1)
        for event in range(1, 4 * 256 + 1):
            victim = rng.choice(grid.addresses())
            if rng.random() < 0.5:
                membership.leave(victim)
            else:
                membership.fail(victim)
            membership.join(rng.choice(grid.addresses()))
            if event % 256:
                continue
            membership.repair_all()
            addresses = grid.addresses()
            found = sum(
                membership.search.query_from(
                    rng.choice(addresses), random_key(5, rng)
                ).found
                for _ in range(400)
            )
            assert found / 400 >= 0.95, (event, found)
            assert grid.audit_routing() == []
            assert all(peer.depth == grid.config.maxl for peer in grid.peers())
