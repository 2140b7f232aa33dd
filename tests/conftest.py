"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.peer import Peer
from repro.sim.builder import GridBuilder


def build_grid(
    n_peers: int = 64,
    *,
    maxl: int = 4,
    refmax: int = 2,
    recmax: int = 2,
    recursion_fanout: int | None = 2,
    seed: int = 7,
    threshold_fraction: float = 0.99,
) -> PGrid:
    """Construct a small converged grid (deterministic for a given seed)."""
    config = PGridConfig(
        maxl=maxl, refmax=refmax, recmax=recmax, recursion_fanout=recursion_fanout
    )
    grid = PGrid(config, rng=random.Random(seed))
    grid.add_peers(n_peers)
    GridBuilder(grid).build(
        threshold_fraction=threshold_fraction, max_exchanges=2_000_000
    )
    return grid


@pytest.fixture
def small_grid() -> PGrid:
    """A converged 64-peer grid (maxl=4, refmax=2)."""
    return build_grid()


@pytest.fixture
def medium_grid() -> PGrid:
    """A converged 256-peer grid (maxl=5, refmax=3) for search/update tests."""
    return build_grid(256, maxl=5, refmax=3, seed=11)


def make_fig1_grid() -> PGrid:
    """The paper's Fig. 1 example, built by hand.

    Six peers over a depth-2 trie::

        peer 1: path 00, refs L1 -> {3 (path 10)}, L2 -> {2 (path 01)}
        peer 2: path 01, refs L1 -> {4},            L2 -> {1}
        peer 3: path 10, refs L1 -> {1},            L2 -> {6}
        peer 4: path 10, refs L1 -> {2},            L2 -> {6}
        peer 5: path 11, refs L1 -> {2},            L2 -> {4}
        peer 6: path 11, refs L1 -> {5 -- via its L1 ref to the 0 side},
                            actually L1 -> {1}, L2 -> {4}

    (Reference targets chosen to satisfy the §2 invariant; addresses are
    0-based internally: peer *i* of the figure is address ``i - 1``.)
    """
    grid = PGrid(PGridConfig(maxl=2, refmax=2, recmax=0), rng=random.Random(1))
    paths = {0: "00", 1: "01", 2: "10", 3: "10", 4: "11", 5: "11"}
    for address, path in paths.items():
        peer = grid.add_peer(address)
        peer.set_path(path)
    refs = {
        # level 1 references: opposite first bit; level 2: same first bit,
        # opposite second bit.
        0: {1: [2], 2: [1]},
        1: {1: [3], 2: [0]},
        2: {1: [0], 2: [5]},
        3: {1: [1], 2: [4]},
        4: {1: [1], 2: [3]},
        5: {1: [0], 2: [2]},
    }
    for address, levels in refs.items():
        for level, targets in levels.items():
            grid.peer(address).routing.set_refs(level, targets)
    assert grid.audit_routing() == []
    return grid


@pytest.fixture
def fig1_grid() -> PGrid:
    """The hand-built Fig. 1 example grid."""
    return make_fig1_grid()


def assert_routing_consistent(grid: PGrid) -> None:
    """Fail the test with the violation list if the invariant is broken."""
    violations = grid.audit_routing()
    assert not violations, "\n".join(violations)


def online_set(grid: PGrid) -> set[int]:
    """Addresses currently reported online by the grid's oracle."""
    return {a for a in grid.addresses() if grid.is_online(a)}


def peer_with_path(grid: PGrid, path: str) -> Peer:
    """First peer holding exactly *path* (fails if none)."""
    for peer in grid.peers():
        if peer.path == path:
            return peer
    raise AssertionError(f"no peer with path {path!r}")


def tally_messages(monkeypatch, grid: PGrid, search) -> SimpleNamespace:
    """From now on, count the ``grid.is_online`` probes made outside
    ``search.query_from`` (``probes``) and keep the result of every search
    it runs (``searches``); the caller may reset both."""
    tally = SimpleNamespace(probes=0, searches=[], searching=False)
    is_online, query_from = grid.is_online, search.query_from

    def counted_is_online(address):
        tally.probes += not tally.searching
        return is_online(address)

    def logged_query_from(start, query):
        tally.searching = True
        try:
            result = query_from(start, query)
        finally:
            tally.searching = False
        tally.searches.append(result)
        return result

    monkeypatch.setattr(grid, "is_online", counted_is_online)
    monkeypatch.setattr(search, "query_from", logged_query_from)
    return tally
