"""Tests for meeting schedulers."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.sim.meetings import BiasedMeetings, RoundRobinMeetings, UniformMeetings


def grid_of(n: int) -> PGrid:
    grid = PGrid(PGridConfig(), rng=random.Random(0))
    grid.add_peers(n)
    return grid


class TestUniformMeetings:
    def test_needs_two_peers(self):
        with pytest.raises(ValueError):
            UniformMeetings(grid_of(1))

    def test_pairs_are_distinct(self):
        scheduler = UniformMeetings(grid_of(5))
        for _ in range(200):
            a, b = scheduler.next_pair()
            assert a != b

    def test_pairs_cover_population(self):
        scheduler = UniformMeetings(grid_of(6), rng=random.Random(1))
        seen = set()
        for _ in range(500):
            a, b = scheduler.next_pair()
            seen.update((a, b))
        assert seen == set(range(6))

    def test_roughly_uniform(self):
        scheduler = UniformMeetings(grid_of(4), rng=random.Random(2))
        counts = Counter()
        for _ in range(4000):
            counts[frozenset(scheduler.next_pair())] += 1
        # 6 unordered pairs; each should get ~666
        assert len(counts) == 6
        assert min(counts.values()) > 450

    def test_new_peers_show_up_at_the_next_draw(self):
        grid = grid_of(2)
        scheduler = UniformMeetings(grid, rng=random.Random(3))
        grid.add_peer()
        seen = set()
        for _ in range(100):
            seen.update(scheduler.next_pair())
        assert 2 in seen

    def test_pairs_stream(self):
        scheduler = UniformMeetings(grid_of(3), rng=random.Random(4))
        stream = list(itertools.islice(scheduler.pairs(), 10))
        assert len(stream) == 10

    def test_membership_changes_seen_without_refresh(self):
        # The cached address list revalidates against the grid's
        # membership version at every draw.
        grid = grid_of(2)
        scheduler = UniformMeetings(grid, rng=random.Random(3))
        scheduler.next_pair()  # prime the cache
        grid.add_peer()
        seen = set()
        for _ in range(100):
            seen.update(scheduler.next_pair())
        assert 2 in seen

        grid.remove_peer(0)
        for _ in range(100):
            assert 0 not in scheduler.next_pair()


class TestBiasedMeetings:
    def test_bias_validated(self):
        with pytest.raises(ValueError):
            BiasedMeetings(grid_of(3), bias=1.5)

    def test_needs_two_peers(self):
        with pytest.raises(ValueError):
            BiasedMeetings(grid_of(1))

    def test_pairs_distinct(self):
        grid = grid_of(6)
        for address, peer in enumerate(grid.peers()):
            peer.set_path("01" if address % 2 else "00")
        scheduler = BiasedMeetings(grid, bias=0.9, rng=random.Random(5))
        for _ in range(200):
            a, b = scheduler.next_pair()
            assert a != b

    def test_bias_prefers_prefix_related(self):
        grid = grid_of(10)
        # two camps: prefixes 0... and 1...
        for address, peer in enumerate(grid.peers()):
            peer.set_path("00" if address < 5 else "11")
        biased = BiasedMeetings(grid, bias=1.0, rng=random.Random(6))
        same_camp = 0
        trials = 500
        for _ in range(trials):
            a, b = biased.next_pair()
            if (a < 5) == (b < 5):
                same_camp += 1
        # uniform would give ~44%; full bias must give far more
        assert same_camp / trials > 0.8

    def test_pairs_stream(self):
        grid = grid_of(4)
        scheduler = BiasedMeetings(grid, rng=random.Random(7))
        assert len(list(itertools.islice(scheduler.pairs(), 5))) == 5


class TestRoundRobinMeetings:
    def test_each_peer_initiates_once_per_round(self):
        grid = grid_of(8)
        scheduler = RoundRobinMeetings(grid, rng=random.Random(8))
        initiators = [scheduler.next_pair()[0] for _ in range(8)]
        assert sorted(initiators) == list(range(8))

    def test_pairs_distinct(self):
        scheduler = RoundRobinMeetings(grid_of(3), rng=random.Random(9))
        for _ in range(50):
            a, b = scheduler.next_pair()
            assert a != b

    def test_needs_two_peers(self):
        with pytest.raises(ValueError):
            RoundRobinMeetings(grid_of(1))

    def test_reshuffles_between_rounds(self):
        scheduler = RoundRobinMeetings(grid_of(16), rng=random.Random(10))
        round1 = [scheduler.next_pair()[0] for _ in range(16)]
        round2 = [scheduler.next_pair()[0] for _ in range(16)]
        assert sorted(round1) == sorted(round2)
        assert round1 != round2  # overwhelmingly likely


class CountingGrid(PGrid):
    """PGrid that counts sorted-address-list materializations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.address_builds = 0

    def addresses(self):
        self.address_builds += 1
        return super().addresses()


class TestAddressCacheInvalidation:
    def test_churn_storm_rebuilds_once_per_draw_burst(self):
        # A burst of membership events between draws must cost one
        # rebuild at the next draw, not one rebuild per event.
        grid = CountingGrid(PGridConfig(), rng=random.Random(11))
        grid.add_peers(4)
        scheduler = UniformMeetings(grid, rng=random.Random(11))
        grid.address_builds = 0

        scheduler.next_pair()
        assert grid.address_builds == 1  # lazy first materialization

        for _ in range(50):  # churn storm: 100 membership events
            victim = grid.addresses()[0]
            grid.remove_peer(victim)
            grid.add_peer()
        grid.address_builds = 0

        scheduler.next_pair()
        assert grid.address_builds == 1
        scheduler.next_pair()
        assert grid.address_builds == 1  # stable membership: cache hit

    def test_unchanged_membership_keeps_the_address_cache(self):
        grid = CountingGrid(PGridConfig(), rng=random.Random(12))
        grid.add_peers(3)
        scheduler = UniformMeetings(grid, rng=random.Random(12))
        scheduler.next_pair()
        grid.address_builds = 0
        for _ in range(25):
            scheduler.next_pair()
        assert grid.address_builds == 0  # unchanged membership: no rebuild
        new_peer = grid.add_peer().address
        seen = set()
        for _ in range(100):
            seen.update(scheduler.next_pair())
        assert new_peer in seen
        assert grid.address_builds == 1

    def test_all_schedulers_survive_churn(self):
        for factory in (
            lambda g: UniformMeetings(g, rng=random.Random(13)),
            lambda g: BiasedMeetings(g, bias=0.5, rng=random.Random(13)),
            lambda g: RoundRobinMeetings(g, rng=random.Random(13)),
        ):
            grid = grid_of(6)
            scheduler = factory(grid)
            scheduler.next_pair()
            removed = grid.addresses()[0]
            grid.remove_peer(removed)
            added = grid.add_peer().address
            seen = set()
            for _ in range(200):
                pair = scheduler.next_pair()
                assert removed not in pair
                seen.update(pair)
            assert added in seen
