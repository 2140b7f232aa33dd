"""Bridge fidelity: ``from_pgrid → to_pgrid`` must be the identity.

Reference *order* matters (it feeds future ``rng.sample`` draws), so the
round-trip is checked exactly, not as sets; search equivalence then
confirms a bridged grid is observably indistinguishable — same results,
same consumed draws — from the original.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Grid
from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.search import SearchEngine
from repro.core.storage import DataItem
from repro.fast import HAVE_NUMPY, ArrayGrid
from repro.faults.repair import RefHealer
from repro.sim.builder import GridBuilder, construct_grid
from repro.sim.churn import BernoulliChurn


def build_grid(
    seed: int,
    n: int,
    maxl: int,
    refmax: int,
    *,
    with_data: bool = True,
    meetings: int = 1500,
) -> PGrid:
    config = PGridConfig(maxl=maxl, refmax=refmax, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=random.Random(seed))
    grid.add_peers(n)
    GridBuilder(grid).build(max_meetings=meetings, max_exchanges=20_000)
    if with_data:
        data_rng = random.Random(seed + 1)
        items = []
        for index, address in enumerate(grid.addresses()):
            key = format(data_rng.getrandbits(maxl), f"0{maxl}b")
            items.append((DataItem(key=key, value=f"value-{index}"), address))
        grid.seed_index(items)
    return grid


def full_state(grid: PGrid):
    """Everything the bridge must preserve, in comparable form."""
    state = {}
    for peer in grid.peers():
        refs = sorted(
            (ref.key, ref.holder, ref.version, ref.deleted)
            for ref in peer.store.iter_refs()
        )
        items = sorted(
            (item.key, item.value) for item in peer.store.iter_items()
        )
        state[peer.address] = (
            peer.path,
            peer.routing.to_lists(),  # exact reference order per level
            sorted(peer.buddies),
            refs,
            items,
        )
    return state


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=40),
    maxl=st.integers(min_value=2, max_value=6),
    refmax=st.integers(min_value=1, max_value=5),
)
def test_round_trip_is_exact(seed, n, maxl, refmax):
    grid = build_grid(seed, n, maxl, refmax, meetings=400)
    agrid = ArrayGrid.from_pgrid(grid)
    bridged = agrid.to_pgrid(rng=random.Random(0))
    assert full_state(bridged) == full_state(grid)
    assert bridged.config is grid.config
    assert bridged.addresses() == grid.addresses()


def test_round_trip_preserves_reference_order():
    grid = build_grid(7, 30, 5, 4)
    agrid = ArrayGrid.from_pgrid(grid)
    bridged = agrid.to_pgrid(rng=random.Random(0))
    for peer in grid.peers():
        assert (
            bridged.peer(peer.address).routing.to_lists() == peer.routing.to_lists()
        )


def test_dangling_refs_rejected():
    grid = build_grid(3, 20, 4, 3, with_data=False)
    victim = grid.addresses()[0]
    grid.remove_peer(victim)
    # Removal leaves dangling routing references behind; the bridge
    # must refuse rather than silently renumber.
    with pytest.raises(ValueError):
        ArrayGrid.from_pgrid(grid)


def test_search_results_bit_identical_on_bridged_grid():
    # Same seeded generator, same queries: the bridged grid must produce
    # the same result objects AND leave the generator in the same state.
    grid = build_grid(11, 40, 5, 4)
    agrid = ArrayGrid.from_pgrid(grid)
    bridged = agrid.to_pgrid(rng=random.Random(555))
    grid.rng = random.Random(555)

    engine_orig = SearchEngine(grid)
    engine_bridged = SearchEngine(bridged)
    starts = grid.addresses()
    query_rng = random.Random(99)
    for _ in range(60):
        start = query_rng.choice(starts)
        query = format(query_rng.getrandbits(5), "05b")
        r1 = engine_orig.query_from(start, query)
        r2 = engine_bridged.query_from(start, query)
        assert r1 == r2
    assert grid.rng.getstate() == bridged.rng.getstate()


class TestBridgeEdgeCases:
    """Degenerate populations and repaired (ragged) routing state."""

    def test_empty_grid_round_trip(self):
        config = PGridConfig(maxl=4, refmax=2, recmax=2, recursion_fanout=2)
        grid = PGrid(config, rng=random.Random(0))
        agrid = ArrayGrid.from_pgrid(grid)
        assert len(agrid) == 0
        assert agrid.average_path_length() == 0.0
        bridged = agrid.to_pgrid(rng=random.Random(1))
        assert bridged.addresses() == []
        assert full_state(bridged) == full_state(grid)

    def test_single_peer_round_trip_and_local_answer(self):
        config = PGridConfig(maxl=4, refmax=2, recmax=2, recursion_fanout=2)
        grid = PGrid(config, rng=random.Random(2))
        grid.add_peers(1)
        address = grid.addresses()[0]
        grid.seed_index([(DataItem(key="0110", value="only"), address)])
        agrid = ArrayGrid.from_pgrid(grid)
        bridged = agrid.to_pgrid(rng=random.Random(3))
        assert full_state(bridged) == full_state(grid)
        # The lone peer has the empty path: responsible for every key,
        # so both grids must answer from it without any forwarding.
        original = SearchEngine(grid).query_from(address, "0110")
        mirrored = SearchEngine(bridged).query_from(address, "0110")
        assert original == mirrored
        assert original.found

    def test_post_churn_evicted_refs_round_trip(self):
        # Healer evictions leave ragged routing lists (fewer than refmax
        # entries, possibly empty levels); the bridge must carry the
        # shrunken lists through exactly, not re-pad or drop levels.
        grid = build_grid(13, 30, 5, 3, with_data=False)
        healer = RefHealer(grid, evict_after=1, refill=False)
        for peer in grid.peers():
            for level0, level_refs in enumerate(peer.routing.to_lists()):
                if level_refs:
                    healer.record_failure(
                        peer.address, level0 + 1, level_refs[0]
                    )
        assert healer.stats.evictions > 0
        agrid = ArrayGrid.from_pgrid(grid)
        bridged = agrid.to_pgrid(rng=random.Random(0))
        assert full_state(bridged) == full_state(grid)
        assert bridged.addresses() == grid.addresses()


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=32),
    maxl=st.integers(min_value=2, max_value=5),
    refmax=st.integers(min_value=1, max_value=4),
    n_queries=st.integers(min_value=1, max_value=15),
)
def test_bridged_search_bit_identical_property(seed, n, maxl, refmax, n_queries):
    """Any bridged grid answers any query stream bit-identically.

    Both grids get equal-but-independent RNGs and churn oracles, so every
    ``rng.sample`` draw and every availability coin must line up — the
    strongest observable-equivalence statement the bridge can make, under
    churn rather than the all-online easy case.
    """
    grid = build_grid(seed, n, maxl, refmax, meetings=300)
    agrid = ArrayGrid.from_pgrid(grid)
    bridged = agrid.to_pgrid(rng=random.Random(seed ^ 0xA5A5))
    grid.rng = random.Random(seed ^ 0xA5A5)
    grid.online_oracle = BernoulliChurn(0.7, random.Random(seed + 1))
    bridged.online_oracle = BernoulliChurn(0.7, random.Random(seed + 1))
    engine_orig = SearchEngine(grid)
    engine_bridged = SearchEngine(bridged)
    addresses = grid.addresses()
    query_rng = random.Random(seed + 7)
    for _ in range(n_queries):
        start = query_rng.choice(addresses)
        query = format(query_rng.getrandbits(maxl), f"0{maxl}b")
        assert engine_orig.query_from(start, query) == (
            engine_bridged.query_from(start, query)
        )
    assert grid.rng.getstate() == bridged.rng.getstate()


def test_write_back_requires_same_population():
    grid = build_grid(5, 12, 4, 2, with_data=False)
    agrid = ArrayGrid.from_pgrid(grid)
    other = PGrid(grid.config, rng=random.Random(1))
    other.add_peers(11)
    with pytest.raises(ValueError):
        agrid.write_back(other)


def routing_state(grid: PGrid):
    """What a construction writes back: paths, reference order, buddies."""
    return {
        peer.address: (peer.path, peer.routing.to_lists(), sorted(peer.buddies))
        for peer in grid.peers()
    }


def batch_construct(seed: int):
    config = PGridConfig(maxl=5, refmax=3, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=random.Random(seed))
    grid.add_peers(200)
    report = construct_grid(
        grid, engine="batch", threshold_fraction=0.98, max_exchanges=50_000
    )
    return grid, report


@pytest.mark.skipif(not HAVE_NUMPY, reason="the batch engine needs numpy")
class TestBatchConstructionFrontDoor:
    """``construct_grid(engine="batch")`` and ``Grid.build(core="batch")``
    bridge into the batch builder and write its result back."""

    def test_construct_grid_twin_seeds_are_identical(self):
        grid, report = batch_construct(21)
        twin, twin_report = batch_construct(21)
        assert report.converged
        assert (report.stats, report.exchanges, report.meetings) == (
            twin_report.stats, twin_report.exchanges, twin_report.meetings
        )
        assert routing_state(grid) == routing_state(twin)
        other, _ = batch_construct(22)
        assert routing_state(other) != routing_state(grid)

    def test_construct_grid_keeps_routing_invariants(self):
        grid, _ = batch_construct(23)
        assert grid.audit_routing() == []
        assert grid.average_path_length() >= 0.98 * grid.config.maxl

    def test_grid_build_converges_through_the_batch_builder(self):
        grid = Grid.build(peers=150, maxl=5, refmax=3, seed=24, core="batch")
        assert grid.report.converged
        assert grid.pgrid.audit_routing() == []
