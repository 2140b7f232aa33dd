"""Meeting schedulers — who meets whom during construction (paper §3).

The paper is deliberately agnostic about *why* peers meet ("they may meet
randomly, because they are involved in other operations, or because they
systematically want to build the access structure"); its simulations use
uniform random pairs.  We provide that scheduler plus two alternatives used
by ablations:

:class:`UniformMeetings`
    Uniformly random unordered pairs — the paper's §5 setting.
:class:`BiasedMeetings`
    Pairs biased towards peers with matching prefixes, modelling meetings
    triggered by search traffic (searches route towards one's own region).
:class:`RoundRobinMeetings`
    A deterministic sweep pairing each peer with a random partner once per
    round — bounds per-peer meeting skew.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core import keys as keyspace
from repro.core.grid import PGrid
from repro.core.peer import Address

__all__ = ["UniformMeetings", "BiasedMeetings", "RoundRobinMeetings"]


class _AddressCache:
    """Sorted address list memoized against the grid's membership version.

    Rebuilding (and re-sorting) the population on every meeting is an
    O(N log N) cost per pair; the version check amortizes it to one rebuild
    per actual join/leave.

    The rebuild is *lazy*: construction and invalidation are O(1), and
    the sorted list is only (re)materialized on the next :meth:`get`.
    Churn storms that touch membership many times between draws — e.g.
    a burst of join/leave callbacks — therefore cost one rebuild total,
    not one per event.
    """

    def __init__(self, grid: PGrid) -> None:
        self._grid = grid
        self._version: int | None = None
        self._addresses: list[Address] = []

    def get(self) -> list[Address]:
        version = self._grid.membership_version
        if version != self._version:
            self._version = version
            self._addresses = self._grid.addresses()
        return self._addresses


class UniformMeetings:
    """Uniformly random pairwise meetings (the paper's scheduler)."""

    def __init__(self, grid: PGrid, rng: random.Random | None = None) -> None:
        if len(grid) < 2:
            raise ValueError("meetings need at least two peers")
        self.grid = grid
        self._rng = rng or grid.rng
        self._cache = _AddressCache(grid)

    def next_pair(self) -> tuple[Address, Address]:
        """Draw one unordered uniform pair of distinct peers."""
        first, second = self._rng.sample(self._cache.get(), 2)
        return first, second

    def pairs(self) -> Iterator[tuple[Address, Address]]:
        """Infinite stream of meeting pairs."""
        while True:
            yield self.next_pair()


class BiasedMeetings:
    """Meetings biased towards prefix-related peers.

    With probability *bias* the second peer is drawn from those sharing the
    first peer's first bit (when any exist); otherwise uniformly.  Models
    construction piggy-backed on search traffic, which is concentrated along
    routing paths.
    """

    def __init__(
        self,
        grid: PGrid,
        bias: float = 0.5,
        rng: random.Random | None = None,
    ) -> None:
        if not 0.0 <= bias <= 1.0:
            raise ValueError(f"bias must be in [0, 1], got {bias}")
        if len(grid) < 2:
            raise ValueError("meetings need at least two peers")
        self.grid = grid
        self.bias = bias
        self._rng = rng or grid.rng
        self._cache = _AddressCache(grid)

    def next_pair(self) -> tuple[Address, Address]:
        """Draw one pair, prefix-biased."""
        addresses = self._cache.get()
        first = self._rng.choice(addresses)
        first_path = self.grid.peer(first).path
        if first_path and self._rng.random() < self.bias:
            related = [
                address
                for address in addresses
                if address != first
                and keyspace.common_prefix_length(
                    self.grid.peer(address).path, first_path
                )
                >= 1
            ]
            if related:
                return first, self._rng.choice(related)
        second = self._rng.choice(addresses)
        while second == first:
            second = self._rng.choice(addresses)
        return first, second

    def pairs(self) -> Iterator[tuple[Address, Address]]:
        """Infinite stream of meeting pairs."""
        while True:
            yield self.next_pair()


class RoundRobinMeetings:
    """Each round, every peer meets one random partner (shuffled sweep)."""

    def __init__(self, grid: PGrid, rng: random.Random | None = None) -> None:
        if len(grid) < 2:
            raise ValueError("meetings need at least two peers")
        self.grid = grid
        self._rng = rng or grid.rng
        self._cache = _AddressCache(grid)
        self._queue: list[Address] = []

    def next_pair(self) -> tuple[Address, Address]:
        """Next pair of the sweep, reshuffling when a round completes.

        Queue entries are validated against current membership: a peer
        removed mid-round is skipped rather than handed to the exchange
        engine as a dangling initiator.
        """
        first = None
        while self._queue:
            candidate = self._queue.pop()
            if self.grid.has_peer(candidate):
                first = candidate
                break
        if first is None:
            self._queue = list(self._cache.get())
            self._rng.shuffle(self._queue)
            first = self._queue.pop()
        addresses = self._cache.get()
        second = self._rng.choice(addresses)
        while second == first:
            second = self._rng.choice(addresses)
        return first, second

    def pairs(self) -> Iterator[tuple[Address, Address]]:
        """Infinite stream of meeting pairs."""
        while True:
            yield self.next_pair()
