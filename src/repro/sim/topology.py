"""Network topology model: peer coordinates and link latencies.

§6 lists "knowledge on the network topology" among the parameters P-Grid
construction could exploit.  The classic instantiation (proximity neighbor
selection, later canonized for DHTs by Gummadi et al.) needs only a
latency metric between peers; we model peers as points in a unit square
with Euclidean latency, which preserves the triangle-inequality structure
real RTTs approximately have.

Two integration points use this model (see :mod:`repro.core.proximity`):

* **proximity reference selection** — when a reference set overflows
  ``refmax``, keep the nearest candidates instead of a random sample;
* **proximity routing** — try references nearest-first instead of in
  random order.

Both are *optimizations*: correctness and the §2 invariant are untouched,
since any reference at a level is as correct as any other.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from repro.core.exchange import ExchangeEngine
from repro.core.grid import PGrid
from repro.core.peer import Address, Peer
from repro.core.search import SearchEngine

__all__ = [
    "Topology",
    "ProximitySearchEngine",
    "ProximityExchangeEngine",
]


class Topology:
    """Random 2D peer coordinates with Euclidean latency."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._coordinates: dict[Address, tuple[float, float]] = {}

    def place(self, address: Address) -> tuple[float, float]:
        """Assign (or return) the coordinates for *address*."""
        point = self._coordinates.get(address)
        if point is None:
            point = (self._rng.random(), self._rng.random())
            self._coordinates[address] = point
        return point

    def place_all(self, addresses: list[Address]) -> None:
        """Assign coordinates to every listed address."""
        for address in addresses:
            self.place(address)

    def coordinates(self, address: Address) -> tuple[float, float]:
        """Coordinates of *address* (placing it on first use)."""
        return self.place(address)

    def latency(self, a: Address, b: Address) -> float:
        """Euclidean latency between two peers."""
        xa, ya = self.coordinates(a)
        xb, yb = self.coordinates(b)
        return math.hypot(xa - xb, ya - yb)

    def nearest(self, origin: Address, candidates: list[Address], count: int) -> list[Address]:
        """The *count* candidates nearest to *origin* (ties by address)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        ranked = sorted(
            candidates, key=lambda other: (self.latency(origin, other), other)
        )
        return ranked[:count]


class ProximitySearchEngine(SearchEngine):
    """Fig. 2 search with proximity routing: nearest reference first.

    Correctness is identical to the base engine (any reference at the
    divergence level is valid); only the *order* of attempts changes, so
    successful chains prefer short links.  Under full availability the
    first attempt succeeds and the whole chain is nearest-possible; under
    churn the fallback attempts walk outward by distance.
    """

    def __init__(
        self,
        grid: PGrid,
        topology: Topology,
    ) -> None:
        super().__init__(grid, topology=topology)
        self._ctx.order = self._nearest_first

    def _nearest_first(
        self, peer: Peer, refs: list[Address]
    ) -> Iterator[Address]:
        """Nearest-first attempt order (no RNG draw, unlike the paper's)."""
        return iter(self.topology.nearest(peer.address, refs, len(refs)))


class ProximityExchangeEngine(ExchangeEngine):
    """Fig. 3 exchange with proximity reference *retention*.

    When the union of two peers' reference sets overflows ``refmax``, the
    paper keeps a uniform random subset; this variant keeps the candidates
    nearest to the retaining peer (proximity neighbor selection).  The
    retained sets satisfy the same invariant — proximity only biases which
    of the equally-valid references survive.
    """

    def __init__(
        self,
        grid: PGrid,
        topology: Topology,
    ) -> None:
        super().__init__(grid)
        self.topology = topology

    def _exchange_refs(self, a1: Peer, a2: Peer, lc: int) -> None:
        combined = [
            address
            for address in (*a1.routing.refs(lc), *a2.routing.refs(lc))
            if address not in (a1.address, a2.address)
        ]
        if not combined:
            return
        for peer in (a1, a2):
            union = list(dict.fromkeys([*peer.routing.refs(lc), *combined]))
            keep = self.topology.nearest(peer.address, union, peer.routing.refmax)
            peer.routing.set_refs(lc, keep)
