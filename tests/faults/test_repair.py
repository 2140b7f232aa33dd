"""RefHealer: consecutive-failure eviction and the one search-counted refill."""

from __future__ import annotations

import pytest

from repro.core.grid import PGrid
from repro.core.membership import MembershipEngine, refill_slot
from repro.core.search import SearchEngine
from repro.faults import RefHealer
from repro.obs.probe import Probe
from repro.sim.churn import FixedOnlineSet
from tests.conftest import assert_routing_consistent, build_grid


def first_routed_ref(grid, level: int = 1):
    """Some (owner, level, ref) triple present in the built grid."""
    for address in grid.addresses():
        refs = grid.peer(address).routing.refs(level)
        if refs:
            return address, level, refs[0]
    raise AssertionError("built grid has no routed refs")


class _RepairProbe(Probe):
    def __init__(self):
        self.calls = []

    def on_repair(self, address, *, dead_refs_dropped, refs_added, messages):
        self.calls.append((address, dead_refs_dropped, refs_added, messages))


class _SearchCost(Probe):
    """Sums the messages of the searches an engine finishes."""

    def __init__(self):
        self.searches = 0
        self.messages = 0

    def on_search_end(self, kind, start, query, *, found, messages, failed_attempts,
                      latency=0.0):
        self.searches += 1
        self.messages += messages


def without_buddies(grid):
    """*grid* with every buddy list emptied: a refill has only the search."""
    for peer in grid.peers():
        peer.buddies.clear()
    return grid


def ref_on_a_shared_level(grid):
    """An (owner, level, ref) triple whose level holds another reference."""
    for address in grid.addresses():
        for level, refs in grid.peer(address).routing.iter_levels():
            if len(refs) >= 2:
                return address, level, refs[0]
    raise AssertionError("built grid has no level with two refs")


class TestFailureAccounting:
    def test_below_threshold_keeps_the_ref(self):
        grid = build_grid(32, maxl=4, refmax=2, seed=9)
        healer = RefHealer(grid, evict_after=3)
        owner, level, ref = first_routed_ref(grid)
        assert not healer.record_failure(owner, level, ref)
        assert not healer.record_failure(owner, level, ref)
        assert healer.pending_failures(owner, level, ref) == 2
        assert ref in grid.peer(owner).routing.refs(level)
        assert healer.stats.evictions == 0

    def test_success_resets_the_counter(self):
        grid = build_grid(32, maxl=4, refmax=2, seed=9)
        healer = RefHealer(grid, evict_after=2)
        owner, level, ref = first_routed_ref(grid)
        healer.record_failure(owner, level, ref)
        healer.record_success(owner, level, ref)
        assert healer.pending_failures(owner, level, ref) == 0
        # The next failure starts from scratch — still no eviction.
        assert not healer.record_failure(owner, level, ref)
        assert healer.stats.successes_recorded == 1

    def test_counters_are_per_reference(self):
        grid = build_grid(32, maxl=4, refmax=2, seed=9)
        healer = RefHealer(grid, evict_after=2)
        owner, level, ref = first_routed_ref(grid)
        healer.record_failure(owner, level, ref)
        assert healer.pending_failures(owner + 1, level, ref) == 0
        assert healer.pending_failures(owner, level, ref + 1) == 0

    def test_evict_after_must_be_positive(self):
        grid = build_grid(16, maxl=3, refmax=2, seed=9)
        with pytest.raises(ValueError):
            RefHealer(grid, evict_after=0)


class TestEvictionAndRefill:
    def test_threshold_evicts_and_refills_validly(self):
        grid = build_grid(48, maxl=4, refmax=2, seed=9)
        healer = RefHealer(grid, evict_after=3)
        owner, level, ref = first_routed_ref(grid)
        for _ in range(2):
            healer.record_failure(owner, level, ref)
        assert healer.record_failure(owner, level, ref)  # crossed threshold
        refs = grid.peer(owner).routing.refs(level)
        assert ref not in refs
        assert healer.stats.evictions == 1
        assert healer.stats.refills == 1
        # The replacement respects the §2 invariant for the whole table.
        assert_routing_consistent(grid)
        peer = grid.peer(owner)
        target = peer.prefix(level - 1) + ("1" if peer.path[level - 1] == "0" else "0")
        for replacement in refs:
            assert grid.peer(replacement).path.startswith(target)

    def test_all_offline_falls_back_rather_than_shrinking(self):
        grid = build_grid(48, maxl=4, refmax=2, seed=9)
        grid.online_oracle = FixedOnlineSet()  # everyone reports offline
        healer = RefHealer(grid, evict_after=1)
        owner, level, ref = first_routed_ref(grid)
        size_before = len(grid.peer(owner).routing.refs(level))
        assert healer.record_failure(owner, level, ref)
        # §2 availability is transient: install an offline candidate anyway.
        assert len(grid.peer(owner).routing.refs(level)) == size_before
        assert healer.stats.refills == 1
        assert healer.stats.messages >= 1  # the unanswered probes are paid for
        assert_routing_consistent(grid)

    def test_probe_sees_each_repair(self):
        grid = build_grid(48, maxl=4, refmax=2, seed=9)
        probe = _RepairProbe()
        healer = RefHealer(grid, evict_after=1, probe=probe)
        owner, level, ref = first_routed_ref(grid)
        healer.record_failure(owner, level, ref)
        assert len(probe.calls) == 1
        address, dropped, added, messages = probe.calls[0]
        assert address == owner
        assert dropped == 1
        assert added == 1
        assert messages == healer.stats.messages

    def test_evicting_unknown_owner_is_noop(self):
        grid = build_grid(16, maxl=3, refmax=2, seed=9)
        healer = RefHealer(grid, evict_after=1)
        assert healer.record_failure(10_000, 1, 0)
        assert healer.stats.evictions == 0

    def test_already_removed_ref_not_double_counted(self):
        grid = build_grid(48, maxl=4, refmax=2, seed=9)
        healer = RefHealer(grid, evict_after=1)
        owner, level, ref = first_routed_ref(grid)
        grid.peer(owner).routing.remove_ref(level, ref)
        assert healer.record_failure(owner, level, ref)
        assert healer.stats.evictions == 0
        assert healer.stats.refills == 0


class TestOneRefill:
    """The healer and the repair sweep refill through the same code, which
    runs a search and counts it — never the simulator's global view."""

    def test_neither_refill_reads_the_replica_directory(self, monkeypatch):
        def global_view(self, key):
            raise AssertionError("a refill read PGrid.replicas_for_key")

        monkeypatch.setattr(PGrid, "replicas_for_key", global_view)
        for buddies in (True, False):
            grid = build_grid(48, maxl=4, refmax=2, seed=9)
            if not buddies:
                without_buddies(grid)
            healer = RefHealer(grid, evict_after=1)
            for owner in grid.addresses()[:12]:
                for level, refs in grid.peer(owner).routing.iter_levels():
                    for ref in refs:
                        healer.record_failure(owner, level, ref)
            assert healer.stats.refills > 0
            membership = MembershipEngine(grid)
            for victim in grid.addresses()[::8]:
                membership.fail(victim)
            reports = membership.repair_all()
            assert sum(report.refs_added for report in reports) > 0
            assert_routing_consistent(grid)

    def test_a_refill_without_buddies_pays_for_its_search(self):
        grid = without_buddies(build_grid(48, maxl=4, refmax=2, seed=9))
        healer = RefHealer(grid, evict_after=1)
        healer.search.probe = cost = _SearchCost()
        owner, level, ref = ref_on_a_shared_level(grid)
        assert healer.record_failure(owner, level, ref)
        assert cost.searches == 1 and cost.messages > 0
        assert healer.stats.messages == cost.messages

        grid = without_buddies(build_grid(48, maxl=4, refmax=2, seed=9))
        membership = MembershipEngine(grid)
        membership.search.probe = cost = _SearchCost()
        owner, level, _ = ref_on_a_shared_level(grid)
        for ref in grid.peer(owner).routing.refs(level):
            grid.peer(owner).routing.remove_ref(level, ref)
        report = membership.repair(owner)
        assert report.refs_added >= 1
        # The emptied level's first slot is searched for by a delegate
        # (one request more); the second by the owner itself, through the
        # reference the first search found.
        assert cost.searches == 2 and cost.messages > 0
        assert report.messages == cost.messages + 1

    def test_a_delegate_costs_one_message_per_reference_probed(self, monkeypatch):
        grid = without_buddies(build_grid(48, maxl=4, refmax=2, seed=9))
        owner, level, _ = ref_on_a_shared_level(grid)
        peer = grid.peer(owner)
        for ref in peer.routing.refs(level):
            peer.routing.remove_ref(level, ref)
        others = [ref for _level, refs in peer.routing.iter_levels() for ref in refs]
        live = others[-1]
        grid.online_oracle = FixedOnlineSet(grid.addresses())
        for ref in others[:-1]:
            grid.online_oracle.set_online(ref, False)
        search = SearchEngine(grid, probe=(cost := _SearchCost()))
        asked, searching = [], []
        is_online, query_from = grid.is_online, search.query_from

        def probed(address):
            if not searching:
                asked.append(address)
            return is_online(address)

        def delegated(start, key):
            searching.append(start)
            return query_from(start, key)

        monkeypatch.setattr(grid, "is_online", probed)
        monkeypatch.setattr(search, "query_from", delegated)
        _, messages = refill_slot(grid, search, peer, level)
        # References are drawn one at a time until one answers; only those
        # are probed, each at one message, and the one that answered runs
        # the search.
        assert searching == [live]
        assert asked[-1] == live and len(set(asked)) == len(asked)
        assert set(asked) <= set(others)
        assert messages == len(asked) + cost.messages
