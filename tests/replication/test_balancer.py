"""ReplicaBalancer strategies, guards and the conversion mechanic."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Grid
from repro.core.grid import PGrid
from repro.core.storage import DataRef
from repro.errors import InvalidConfigError
from repro.replication import (
    LoadTracker,
    ReplicaBalancer,
    ReplicationConfig,
)
from repro.sim.churn import FixedOnlineSet
from repro.sim.workload import ZipfKeyWorkload
from tests.conftest import build_grid, tally_messages


def _grid_with_groups(seed: int = 7):
    """A converged grid plus its (path -> members) map."""
    grid = build_grid(48, maxl=4, refmax=2, seed=seed)
    return grid, grid.replica_groups()


def _hot_and_donor(grid, groups, *, min_donor_size: int = 2):
    """Pick a hot path and a donor address from a different, larger group."""
    sized = sorted(
        (path for path in groups if path), key=lambda p: (len(groups[p]), p)
    )
    hot = sized[0]
    for path in reversed(sized):
        if path != hot and len(groups[path]) >= min_donor_size:
            return hot, groups[path][0]
    raise AssertionError("grid has no donor group — pick another seed")


class TestReplicationConfig:
    def test_defaults_valid(self):
        config = ReplicationConfig()
        assert config.strategy == "adaptive"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(strategy="bogus"),
            dict(replicate_threshold=0.0),
            dict(retract_floor=-0.1),
            dict(retract_floor=5.0, replicate_threshold=4.0),
            dict(min_replicas=0),
            dict(min_replicas=3, max_replicas=2),
            dict(half_life=0.0),
            dict(min_observations=-1),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfigError):
            ReplicationConfig(**kwargs)


class TestGuards:
    def test_static_never_acts(self):
        grid, groups = _grid_with_groups()
        tracker = LoadTracker()
        hot, donor = _hot_and_donor(grid, groups)
        for _ in range(200):
            tracker.observe(hot)
        balancer = ReplicaBalancer(
            grid,
            tracker,
            config=ReplicationConfig(strategy="static", min_observations=0),
        )
        assert balancer.enabled is False
        before = {peer.address: peer.path for peer in grid.peers()}
        assert balancer.after_meeting(donor, groups[hot][0]) is False
        assert balancer.after_update([donor]) is False
        assert {peer.address: peer.path for peer in grid.peers()} == before
        assert balancer.stats.conversions == 0
        assert balancer.stats.meetings_seen == 1
        assert balancer.stats.updates_seen == 1

    def test_warmup_gate_blocks_action(self):
        grid, groups = _grid_with_groups()
        tracker = LoadTracker()
        hot, donor = _hot_and_donor(grid, groups)
        for _ in range(10):
            tracker.observe(hot)
        balancer = ReplicaBalancer(
            grid,
            tracker,
            config=ReplicationConfig(
                replicate_threshold=1.0, retract_floor=0.25, min_observations=1000
            ),
        )
        assert balancer.after_meeting(donor, groups[hot][0]) is False
        assert balancer.stats.conversions == 0

    def test_retract_floor_protects_busy_donor(self):
        grid, groups = _grid_with_groups()
        tracker = LoadTracker()
        hot, donor = _hot_and_donor(grid, groups)
        donor_path = grid.peer(donor).path
        for _ in range(100):
            tracker.observe(hot)
            tracker.observe(donor_path)  # donor's group earns its keep
        balancer = ReplicaBalancer(
            grid,
            tracker,
            config=ReplicationConfig(
                replicate_threshold=0.5, retract_floor=0.25, min_observations=0
            ),
        )
        assert balancer.after_meeting(donor, donor) is False
        assert grid.peer(donor).path == donor_path

    def test_min_replicas_protects_small_groups(self):
        grid, groups = _grid_with_groups()
        tracker = LoadTracker()
        hot, donor = _hot_and_donor(grid, groups)
        donor_size = len(groups[grid.peer(donor).path])
        for _ in range(100):
            tracker.observe(hot)
        balancer = ReplicaBalancer(
            grid,
            tracker,
            config=ReplicationConfig(
                replicate_threshold=1.0,
                retract_floor=0.25,
                min_observations=0,
                min_replicas=donor_size,  # donor group exactly at the floor
            ),
        )
        assert balancer.after_meeting(donor, donor) is False

    def test_max_replicas_caps_hot_group(self):
        grid, groups = _grid_with_groups()
        tracker = LoadTracker()
        hot, donor = _hot_and_donor(grid, groups)
        for _ in range(100):
            tracker.observe(hot)
        balancer = ReplicaBalancer(
            grid,
            tracker,
            config=ReplicationConfig(
                replicate_threshold=1.0,
                retract_floor=0.25,
                min_observations=0,
                max_replicas=len(groups[hot]),  # already full
            ),
        )
        assert balancer.after_meeting(donor, donor) is False


class TestAdaptiveConversion:
    def _convert_once(self):
        grid, groups = _grid_with_groups(seed=9)
        tracker = LoadTracker()
        hot, donor = _hot_and_donor(grid, groups)
        for _ in range(100):
            tracker.observe(hot)
        balancer = ReplicaBalancer(
            grid,
            tracker,
            config=ReplicationConfig(
                replicate_threshold=1.0, retract_floor=0.25, min_observations=0
            ),
        )
        donor_peer = grid.peer(donor)
        old_path = donor_peer.path
        old_refs = [
            DataRef(key=old_path + "0" * 8, holder=donor, version=1),
            DataRef(key=old_path + "1" * 8, holder=donor, version=1),
        ]
        for ref in old_refs:
            donor_peer.store.add_ref(ref)
        model = min(groups[hot])
        converted = balancer.after_meeting(donor, groups[hot][0])
        return grid, balancer, hot, donor, old_path, old_refs, model, converted

    def test_conversion_happens_and_counts(self):
        grid, balancer, hot, donor, old_path, _, _, converted = (
            self._convert_once()
        )
        assert converted is True
        assert grid.peer(donor).path == hot
        assert balancer.stats.conversions == 1
        assert balancer.stats.retractions == 1

    def test_routing_clones_model_without_self_references(self):
        grid, _, _, donor, _, _, model, _ = self._convert_once()
        donor_levels = grid.peer(donor).routing.to_lists()
        model_levels = grid.peer(model).routing.to_lists()
        assert len(donor_levels) == len(model_levels)
        for donor_refs, model_refs in zip(donor_levels, model_levels):
            assert donor not in donor_refs
            assert set(donor_refs) <= set(model_refs)

    def test_store_copies_model_index(self):
        grid, _, _, donor, _, _, model, _ = self._convert_once()
        donor_keys = {ref.key for ref in grid.peer(donor).store.iter_refs()}
        model_keys = {ref.key for ref in grid.peer(model).store.iter_refs()}
        assert donor_keys == model_keys

    def test_old_entries_handed_to_surviving_replica(self):
        grid, balancer, _, donor, old_path, old_refs, _, _ = (
            self._convert_once()
        )
        assert balancer.stats.entries_handed_over == len(old_refs)
        assert balancer.stats.entries_lost == 0
        survivors = [
            peer
            for peer in grid.peers()
            if peer.path == old_path and peer.address != donor
        ]
        held = {
            ref.key for peer in survivors for ref in peer.store.iter_refs()
        }
        for ref in old_refs:
            assert ref.key in held

    def _convert_without_buddy(self, monkeypatch, offline_buddy=False):
        """Convert a donor whose buddy list is empty (or names one offline
        co-replica) with the replica directory out of reach; returns the
        grid, balancer, donor, old path, old entries, the buddy and the
        tally of the conversion's probes and searches."""
        grid, groups = _grid_with_groups(seed=9)
        tracker = LoadTracker()
        hot, donor = _hot_and_donor(grid, groups, min_donor_size=3)
        for _ in range(100):
            tracker.observe(hot)
        balancer = ReplicaBalancer(
            grid,
            tracker,
            config=ReplicationConfig(
                replicate_threshold=1.0, retract_floor=0.25, min_observations=0
            ),
        )
        donor_peer = grid.peer(donor)
        old_path = donor_peer.path
        buddy = next(a for a in groups[old_path] if a != donor)
        for peer in grid.peers():
            peer.buddies.discard(donor)
        donor_peer.buddies.clear()
        if offline_buddy:
            donor_peer.add_buddy(buddy)
            grid.online_oracle = FixedOnlineSet(set(grid.addresses()) - {buddy})
        old_refs = [
            DataRef(key=old_path + "0" * 8, holder=donor, version=1),
            DataRef(key=old_path + "1" * 8, holder=donor, version=1),
        ]
        for ref in old_refs:
            donor_peer.store.add_ref(ref)

        def no_directory(self, query):
            raise AssertionError("a hand-over read PGrid.replicas_for_key")

        monkeypatch.setattr(PGrid, "replicas_for_key", no_directory)
        tally = tally_messages(monkeypatch, grid, balancer.search)
        assert balancer.after_meeting(donor, groups[hot][0])
        return grid, balancer, donor, old_path, old_refs, buddy, tally

    def test_entries_without_a_buddy_reach_a_responsible_peer_by_search(
        self, monkeypatch
    ):
        grid, balancer, donor, old_path, old_refs, _, tally = (
            self._convert_without_buddy(monkeypatch)
        )
        assert balancer.stats.entries_handed_over == len(old_refs)
        assert balancer.stats.entries_lost == 0
        holders = [
            peer
            for peer in grid.peers()
            if all(
                peer.store.version_of(ref.key, donor) == 1 for ref in old_refs
            )
        ]
        assert len(holders) == 1
        assert holders[0].address != donor
        assert holders[0].responsible_for(old_path)
        # The delegate's probe and the search for the old path are paid for,
        # as are the conversion repair's probes and searches.
        handover = [result for result in tally.searches if result.query == old_path]
        assert handover and handover[0].found
        assert tally.probes >= 1
        assert balancer.stats.messages == tally.probes + sum(
            result.messages for result in tally.searches
        )

    def test_an_offline_buddy_is_not_handed_the_entries(self, monkeypatch):
        grid, balancer, donor, _, old_refs, buddy, _ = (
            self._convert_without_buddy(monkeypatch, offline_buddy=True)
        )
        assert not any(
            grid.peer(buddy).store.version_of(ref.key, donor) for ref in old_refs
        )
        assert balancer.stats.entries_handed_over == len(old_refs)

    def test_buddy_links_are_mutual(self):
        grid, _, _, donor, old_path, _, model, _ = self._convert_once()
        donor_peer = grid.peer(donor)
        assert model in donor_peer.buddies
        assert donor in grid.peer(model).buddies
        for peer in grid.peers():
            if peer.path == old_path:
                assert donor not in peer.buddies

    def test_no_reference_into_the_old_subtree_survives(self):
        grid, groups = _grid_with_groups(seed=9)
        assert grid.audit_routing() == []
        grid, balancer, _, donor, old_path, _, _, _ = self._convert_once()
        # Without the repair, every reference that routed into the donor's
        # old subtree would still name it: a stale reference (§2).
        assert grid.audit_routing() == []
        assert balancer.stats.refs_repaired > 0
        assert balancer.stats.messages >= balancer.stats.refs_repaired

    def test_listeners_fire_on_conversion(self):
        grid, groups = _grid_with_groups(seed=9)
        tracker = LoadTracker()
        hot, donor = _hot_and_donor(grid, groups)
        for _ in range(100):
            tracker.observe(hot)
        balancer = ReplicaBalancer(
            grid,
            tracker,
            config=ReplicationConfig(
                replicate_threshold=1.0, retract_floor=0.25, min_observations=0
            ),
        )
        fired = []
        old_path = grid.peer(donor).path
        balancer.subscribe_conversion(lambda *move: fired.append(move))
        balancer.after_meeting(donor, donor)
        assert fired == [(donor, old_path, hot)]
        assert balancer.stats.conversions == len(fired)


class TestSqrtStrategy:
    def test_sqrt_targets_track_load_shape(self):
        grid, groups = _grid_with_groups()
        tracker = LoadTracker(half_life=10_000.0)
        paths = sorted(path for path in groups if path)
        hot, cold = paths[0], paths[-1]
        for _ in range(400):
            tracker.observe(hot)
        for _ in range(100):
            tracker.observe(cold)
        balancer = ReplicaBalancer(
            grid,
            tracker,
            config=ReplicationConfig(strategy="sqrt", min_observations=0),
        )
        targets = balancer._sqrt_targets(groups)
        # sqrt(4x) = 2 * sqrt(x): the hot target is ~double, not ~4x.
        assert targets[hot] >= targets[cold]
        assert targets[hot] <= 3 * max(targets[cold], 1)

    def test_sqrt_no_load_is_a_no_op(self):
        grid, groups = _grid_with_groups()
        balancer = ReplicaBalancer(
            grid,
            LoadTracker(),
            config=ReplicationConfig(strategy="sqrt", min_observations=0),
        )
        hot, donor = _hot_and_donor(grid, groups)
        assert balancer.after_meeting(donor, donor) is False

    def test_sqrt_converges_toward_targets(self):
        grid, groups = _grid_with_groups(seed=11)
        tracker = LoadTracker(half_life=10_000.0)
        hot, _ = _hot_and_donor(grid, groups)
        for _ in range(500):
            tracker.observe(hot)
        balancer = ReplicaBalancer(
            grid,
            tracker,
            config=ReplicationConfig(strategy="sqrt", min_observations=0),
        )
        before = len(groups[hot])
        for address in grid.addresses():
            balancer.after_meeting(address, address)
        after = len(grid.replica_groups()[hot])
        assert after > before


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), strategy=st.sampled_from(["sqrt", "adaptive"]))
def test_every_conversion_keeps_the_reference_rule(seed, strategy):
    """The §2 reference rule holds after every balancer step (D3-Tree's
    acceptance shape): Zipf traffic, rebalancing rounds, an audit per
    conversion."""
    grid = Grid.build(
        peers=48,
        maxl=4,
        refmax=2,
        seed=seed,
        replication=ReplicationConfig(
            strategy, replicate_threshold=1.0, retract_floor=0.25, min_observations=0
        ),
    )
    audits = []
    grid.balancer.subscribe_conversion(lambda *_: audits.append(grid.pgrid.audit_routing()))
    rng = random.Random(seed)
    workload = ZipfKeyWorkload(4, rng, exponent=1.2)
    addresses = grid.addresses()
    for _ in range(3):
        for _ in range(40):
            grid.search(workload.next_key(), start=rng.choice(addresses))
        grid.rebalance(meetings=32)
    assert all(audit == [] for audit in audits)
    assert grid.pgrid.audit_routing() == []
