"""PGrid's path directory against the brute-force scan it replaced.

The oracle below is the pre-directory implementation, verbatim in
behaviour: an address-ordered walk over every peer.  The directory must
give the same answers — same list order, same dict key order — after any
interleaving of the operations that change membership or paths.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.config import PGridConfig
from repro.core.exchange import ExchangeEngine
from repro.core.grid import PGrid
from repro.core.search import SearchEngine
from repro.core.storage import DataItem
from repro.core.updates import UpdateEngine
from repro.errors import InvalidKeyError
from repro.fast import ArrayGrid
from repro.replication import (
    LoadProbe,
    LoadTracker,
    PathResolver,
    ReplicaBalancer,
    ReplicationConfig,
)
from repro.sim.builder import GridBuilder
from repro.sim.meetings import UniformMeetings
from repro.sim.persistence import grid_from_dict, grid_to_dict
from tests.conftest import build_grid

MAXL = 5


# -- the oracle: one scan over all peers per question -------------------------------


def scan_groups(grid: PGrid) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {}
    for address in sorted(grid._peers):
        groups.setdefault(grid._peers[address].path, []).append(address)
    return groups


def scan_replicas(grid: PGrid, query: str) -> list[int]:
    return [
        address
        for address in sorted(grid._peers)
        if grid._peers[address].responsible_for(query)
    ]


def assert_matches_oracle(grid: PGrid, queries) -> None:
    expected = scan_groups(grid)
    groups = grid.replica_groups()
    assert groups == expected
    assert list(groups) == list(expected)  # key order: _sqrt_targets sums in it
    assert grid.addresses() == sorted(grid._peers)
    assert [peer.address for peer in grid.peers()] == sorted(grid._peers)
    directory = grid.directory()
    assert list(directory.paths) == sorted(expected)
    assert directory.max_depth == max(map(len, expected), default=0)
    for query in queries:
        replicas = scan_replicas(grid, query)
        assert grid.replicas_for_key(query) == replicas
        assert grid.replica_count(query) == len(replicas)


paths = st.text(alphabet="01", max_size=MAXL)
#: Shorter than, equal to and longer than any live path.
queries = st.text(alphabet="01", max_size=MAXL + 3)


class DirectoryMachine(RuleBasedStateMachine):
    """Random interleavings of everything that can stale the directory."""

    def __init__(self) -> None:
        super().__init__()
        self.grid = PGrid(PGridConfig(maxl=MAXL, refmax=2), rng=random.Random(0))
        self.grid.add_peers(6)  # rules add one at a time; start non-trivial
        self.snapshot: ArrayGrid | None = None

    def _some_peer(self, pick: int):
        addresses = sorted(self.grid._peers)
        return self.grid._peers[addresses[pick % len(addresses)]] if addresses else None

    @rule()
    def add_peer(self):
        self.grid.add_peer()

    @rule(pick=st.integers(0, 1000))
    def remove_peer(self, pick):
        peer = self._some_peer(pick)
        if peer is not None:
            self.grid.remove_peer(peer.address)

    @rule(pick=st.integers(0, 1000), bit=st.sampled_from("01"))
    def extend_path(self, pick, bit):
        peer = self._some_peer(pick)
        if peer is not None and peer.depth < MAXL:
            peer.extend_path(bit)

    @rule(pick=st.integers(0, 1000), path=paths)
    def set_path(self, pick, path):
        peer = self._some_peer(pick)
        if peer is not None:
            peer.set_path(path)

    @rule()
    def take_array_snapshot(self):
        try:
            self.snapshot = ArrayGrid.from_pgrid(self.grid)
        except ValueError:  # dangling buddies after a leave: not bridgeable
            self.snapshot = None

    @rule()
    def write_back(self):
        """Restore the paths of an earlier array snapshot, in place."""
        if self.snapshot is not None and self.snapshot.addresses == self.grid.addresses():
            self.snapshot.write_back(self.grid)

    @rule(hot=st.integers(0, 1000))
    def balancer_conversion(self, hot):
        """Heat one path; any peer of a cold group of two or more converts."""
        hot_peer = self._some_peer(hot)
        if hot_peer is None or not hot_peer.path:
            return
        tracker = LoadTracker()
        tracker.record(hot_peer.path, weight=1000.0)
        balancer = ReplicaBalancer(
            self.grid,
            tracker,
            config=ReplicationConfig(replicate_threshold=1.0, min_observations=0),
        )
        balancer.after_update(self.grid.addresses())

    @rule()
    def persistence_round_trip(self):
        self.grid = grid_from_dict(grid_to_dict(self.grid), rng=random.Random(0))

    @rule(query=queries)
    def read(self, query):
        """Reads between writes: a cached directory must notice the next write."""
        assert self.grid.replicas_for_key(query) == scan_replicas(self.grid, query)

    @invariant()
    def directory_equals_scan(self):
        probes = {"", "0", "1", "0" * (MAXL + 2), "10" * MAXL}
        probes.update(peer.path for peer in self.grid._peers.values())
        probes.update(peer.path + "1" for peer in self.grid._peers.values())
        assert_matches_oracle(self.grid, sorted(probes))


TestDirectoryMachine = DirectoryMachine.TestCase
TestDirectoryMachine.settings = settings(
    max_examples=150,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestEdgeCases:
    def test_empty_grid(self):
        grid = PGrid()
        assert grid.replica_groups() == {}
        assert grid.replicas_for_key("01") == []
        assert grid.replica_count("") == 0
        assert grid.addresses() == []
        assert grid.replication_histogram() == {}

    def test_root_peer_is_responsible_for_everything(self):
        grid = PGrid()
        root, left, deep = grid.add_peers(3)
        left.set_path("0")
        deep.set_path("0110")
        assert root.path == ""
        assert grid.replicas_for_key("") == [0, 1, 2]
        assert grid.replicas_for_key("1") == [0]
        assert grid.replicas_for_key("01") == [0, 1, 2]
        assert grid.replicas_for_key("011011") == [0, 1, 2]
        assert grid.replicas_for_key("00") == [0, 1]
        assert grid.replica_count("0110") == 3

    @pytest.mark.parametrize("key", ["2", "0a", "01 ", None])
    def test_invalid_key_still_raises(self, key):
        grid = build_grid(16, maxl=3, seed=2)
        with pytest.raises(InvalidKeyError):
            grid.replicas_for_key(key)
        with pytest.raises(InvalidKeyError):
            grid.replica_count(key)

    def test_converged_grid_matches_scan_for_every_key_length(self):
        grid = build_grid(96, maxl=5, refmax=2, seed=4)
        rng = random.Random(9)
        keys = ["".join(rng.choice("01") for _ in range(n)) for n in range(9) for _ in range(20)]
        assert_matches_oracle(grid, keys)

    def test_histogram_unchanged(self):
        grid = build_grid(64, maxl=4, seed=5)
        sizes = {path: len(group) for path, group in scan_groups(grid).items()}
        expected = Counter(sizes[peer.path] for peer in grid._peers.values())
        histogram = grid.replication_histogram()
        assert histogram == expected
        assert list(histogram) == list(expected)  # first-seen factor order


class TestInvalidation:
    def test_valid_directory_is_reused(self):
        grid = build_grid(32, maxl=3, seed=6)
        assert grid.directory() is grid.directory()

    def test_every_mutator_invalidates(self):
        grid = build_grid(32, maxl=4, seed=6)
        seen = [grid.directory()]

        def stale() -> bool:
            seen.append(grid.directory())
            return seen[-1] is not seen[-2]

        peer = grid.add_peer()
        assert stale()
        peer.extend_path("1")
        assert stale()
        peer.set_path("0")
        assert stale()
        grid.remove_peer(peer.address)
        assert stale()
        assert not stale()

    def test_held_snapshot_is_not_rewritten(self):
        grid = build_grid(32, maxl=3, seed=6)
        before = grid.directory()
        frozen = {path: tuple(group) for path, group in before.groups.items()}
        grid.peer(0).set_path("" if grid.peer(0).path else "0")
        assert grid.directory() is not before
        assert dict(before.groups) == frozen

    def test_exchange_specialisation_is_seen_at_once(self):
        grid = PGrid(PGridConfig(maxl=3, refmax=2), rng=random.Random(1))
        grid.add_peers(2)
        assert grid.replica_groups() == {"": [0, 1]}
        ExchangeEngine(grid).meet(0, 1)
        assert grid.replica_groups() == {"0": [0], "1": [1]}


class TestReturnedValuesAreCopies:
    """Public list/dict answers are fresh copies; the snapshot is immutable."""

    def test_mutating_answers_cannot_corrupt_the_cache(self):
        grid = build_grid(48, maxl=4, seed=8)
        key = grid.peer(0).path
        groups = grid.replica_groups()
        replicas = grid.replicas_for_key(key)
        addresses = grid.addresses()
        groups[key].append(-1)
        groups.clear()
        replicas.append(-1)
        addresses.reverse()
        assert_matches_oracle(grid, [key, key + "0", key[:1]])

    def test_snapshot_is_read_only(self):
        directory = build_grid(16, maxl=3, seed=8).directory()
        path = directory.paths[0]
        with pytest.raises(TypeError):
            directory.groups[path] = ()
        with pytest.raises(AttributeError):
            directory.groups[path].append(0)
        with pytest.raises(AttributeError):
            directory.max_depth = 0


# -- the balancer on the directory ≡ the balancer on scans ------------------------------


class ScanGrid(PGrid):
    """PGrid answering every directory question by brute force."""

    def replica_groups(self):
        return scan_groups(self)

    def replicas_for_key(self, query):
        return scan_replicas(self, query)

    def replica_count(self, query):
        return len(scan_replicas(self, query))


class ScanBalancer(ReplicaBalancer):
    """The pre-directory balancer: full scans, every group evaluated."""

    def _step(self, candidates):
        config = self.config
        if config.strategy == "static":
            return False
        if self.tracker.observed < config.min_observations:
            return False
        groups = scan_groups(self.grid)
        if len(groups) < 2:
            return False
        if config.strategy == "adaptive":
            return self._adaptive_step(candidates, groups)
        return self._sqrt_step(candidates, groups)

    def _adaptive_step(self, candidates, groups):
        config = self.config
        hot_paths = [
            path
            for path in groups
            if path
            and self._per_replica(path, groups) > config.replicate_threshold
            and (config.max_replicas is None or len(groups[path]) < config.max_replicas)
        ]
        if not hot_paths:
            return False
        hot = max(hot_paths, key=lambda p: (self._per_replica(p, groups), p))
        for address in candidates:
            donor = self.grid.peer(address)
            if donor.path == hot:
                continue
            if len(groups[donor.path]) <= config.min_replicas:
                continue
            if self._per_replica(donor.path, groups) >= config.retract_floor:
                continue
            self._convert(donor, self.grid.peer(min(groups[hot])))
            self.stats.retractions += 1
            return True
        return False

    def _hand_over(self, donor):
        entries = list(donor.store.iter_refs())
        if not entries:
            return 0
        grid = self.grid
        target = None
        for buddy in sorted(donor.buddies):
            if grid.has_peer(buddy) and grid.peer(buddy).path == donor.path:
                target = buddy
                break
        if target is None and donor.path:
            exact = responsible = None
            for address in scan_replicas(grid, donor.path):
                if address == donor.address:
                    continue
                if grid.peer(address).path == donor.path:
                    exact = address
                    break
                if responsible is None:
                    responsible = address
            target = exact if exact is not None else responsible
        if target is None:
            self.stats.entries_lost += len(entries)
            return 0
        store = grid.peer(target).store
        for ref in entries:
            store.add_ref(ref)
        return len(entries)


def scan_resolver(grid):
    def resolve(query):
        live = {peer.path for peer in grid._peers.values()}
        for depth in range(len(query), -1, -1):
            if query[:depth] in live:
                return query[:depth]
        return None

    return resolve


def run_balanced_workload(grid_cls, balancer_cls, resolver_for, strategy):
    """A Zipf-ish search/update/meeting mix; returns everything the balancer did."""
    config = PGridConfig(maxl=5, refmax=3, recmax=2, recursion_fanout=2)
    grid = grid_cls(config, rng=random.Random(21))
    grid.add_peers(160)
    GridBuilder(grid).build(threshold_fraction=0.99, max_exchanges=2_000_000)
    keys = [format(value, "07b") for value in range(0, 128, 3)]
    grid.seed_index(
        [(DataItem(key=key, value=index), index % 160) for index, key in enumerate(keys)]
    )
    tracker = LoadTracker(half_life=32.0)
    probe = LoadProbe(tracker, resolver_for(grid))
    balancer = balancer_cls(
        grid,
        tracker,
        config=ReplicationConfig(
            strategy=strategy, replicate_threshold=1.0, retract_floor=0.25,
            half_life=32.0, min_observations=20,
        ),
    )
    conversions: list[tuple[int, str, str]] = []
    balancer.subscribe_conversion(lambda *move: conversions.append(move))
    search = SearchEngine(grid, probe=probe)
    updates = UpdateEngine(grid, search=search, probe=probe, balancer=balancer)
    exchange = ExchangeEngine(grid, probe=probe, balancer=balancer)
    meetings = UniformMeetings(grid, rng=random.Random(22))
    ops = random.Random(23)
    weights = [1.0 / (rank + 1) ** 1.2 for rank in range(len(keys))]
    for op in range(900):
        key = ops.choices(keys, weights)[0]
        start = ops.randrange(160)
        if ops.random() < 0.15:
            updates.publish(start, DataItem(key=key, value=op), start)
        else:
            search.query_from(start, key)
        if op % 30 == 29:
            for _ in range(8):
                exchange.meet(*meetings.next_pair())
    final = {address: grid._peers[address].path for address in sorted(grid._peers)}
    return conversions, balancer.stats.snapshot(), final, tracker.snapshot()


@pytest.mark.parametrize("strategy", ["adaptive", "sqrt"])
def test_balancer_on_directory_equals_balancer_on_scans(strategy):
    fast = run_balanced_workload(PGrid, ReplicaBalancer, PathResolver, strategy)
    oracle = run_balanced_workload(ScanGrid, ScanBalancer, scan_resolver, strategy)
    assert fast == oracle
    conversions, stats, _, _ = fast
    assert stats["conversions"] == len(conversions) > 0  # the twin run exercised it
