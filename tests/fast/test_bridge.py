"""Bridge fidelity: ``from_pgrid → write_back`` into a fresh grid must
restore paths, routing-reference order and buddies exactly.

Reference *order* matters (it feeds future ``rng.sample`` draws), so the
round-trip is checked exactly, not as sets; search equivalence then
confirms a bridged grid is observably indistinguishable — same results,
same consumed draws — from the original.  ``TestLayoutPinned`` pins the
batch construction, the batch query plane and the gridless snapshot to
digests of the values they produced before the packed layout became the
only one.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Grid
from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.search import SearchEngine
from repro.core.storage import DataItem, DataRef
from repro.fast import HAVE_NUMPY, ArrayGrid
from repro.sim.builder import GridBuilder, construct_grid, construct_snapshot
from repro.sim.churn import BernoulliChurn

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="the packed layout needs numpy")


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


def routing_state(grid: PGrid):
    """What the bridge restores: paths, reference order, buddies."""
    return {
        peer.address: (peer.path, peer.routing.to_lists(), sorted(peer.buddies))
        for peer in grid.peers()
    }


def store_rows(grid: PGrid):
    """The object stores as the layout's sorted ``store`` rows."""
    index = {address: i for i, address in enumerate(grid.addresses())}
    return sorted(
        [
            index[peer.address],
            int(ref.key, 2) if ref.key else 0,
            len(ref.key),
            ref.holder,
            ref.version,
            int(ref.deleted),
        ]
        for peer in grid.peers()
        for ref in peer.store.iter_refs()
    )


def bridge(grid: PGrid, rng: random.Random) -> tuple[ArrayGrid, PGrid]:
    """Pack *grid* and write it back into a fresh grid of the same peers."""
    agrid = ArrayGrid.from_pgrid(grid)
    fresh = PGrid(grid.config, rng=rng)
    for address in grid.addresses():
        fresh.add_peer(address)
    agrid.write_back(fresh)
    return agrid, fresh


@needs_numpy
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=40),
    maxl=st.integers(min_value=2, max_value=6),
    refmax=st.integers(min_value=1, max_value=5),
)
def test_round_trip_is_exact(seed, n, maxl, refmax):
    grid = build_grid(seed, n, maxl, refmax, meetings=400)
    agrid, bridged = bridge(grid, random.Random(0))
    assert routing_state(bridged) == routing_state(grid)
    assert agrid.store.tolist() == store_rows(grid)
    assert agrid.config is grid.config
    assert bridged.addresses() == grid.addresses()


@needs_numpy
def test_round_trip_preserves_reference_order():
    grid = build_grid(7, 30, 5, 4)
    _, bridged = bridge(grid, random.Random(0))
    for peer in grid.peers():
        assert (
            bridged.peer(peer.address).routing.to_lists() == peer.routing.to_lists()
        )


@needs_numpy
def test_dangling_refs_rejected():
    grid = build_grid(3, 20, 4, 3, with_data=False)
    victim = grid.addresses()[0]
    grid.remove_peer(victim)
    # Removal leaves dangling routing references behind; the bridge
    # must refuse rather than silently renumber.
    with pytest.raises(ValueError, match=f"dangling routing ref {victim} at level"):
        ArrayGrid.from_pgrid(grid)


@needs_numpy
def test_dangling_buddy_rejected():
    grid = build_grid(3, 20, 4, 3, with_data=False)
    peer = grid.peer(grid.addresses()[0])
    peer.buddies.add(10_000)
    with pytest.raises(ValueError, match=f"peer {peer.address}: dangling buddy 10000"):
        ArrayGrid.from_pgrid(grid)


@needs_numpy
def test_search_results_bit_identical_on_bridged_grid():
    # Same seeded generator, same queries: the bridged grid must produce
    # the same result objects AND leave the generator in the same state.
    grid = build_grid(11, 40, 5, 4, with_data=False)
    _, bridged = bridge(grid, random.Random(555))
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


@needs_numpy
class TestBridgeEdgeCases:
    """Degenerate populations and repaired (ragged) routing state."""

    def test_empty_grid_round_trip(self):
        config = PGridConfig(maxl=4, refmax=2, recmax=2, recursion_fanout=2)
        grid = PGrid(config, rng=random.Random(0))
        agrid, bridged = bridge(grid, random.Random(1))
        assert len(agrid) == 0
        assert agrid.refs.shape == (0, config.refmax)
        assert agrid.buddy_offsets.tolist() == [0]
        assert bridged.addresses() == []

    def test_single_peer_round_trip_and_local_answer(self):
        config = PGridConfig(maxl=4, refmax=2, recmax=2, recursion_fanout=2)
        grid = PGrid(config, rng=random.Random(2))
        grid.add_peers(1)
        address = grid.addresses()[0]
        grid.seed_index([(DataItem(key="0110", value="only"), address)])
        agrid, bridged = bridge(grid, random.Random(3))
        assert routing_state(bridged) == routing_state(grid)
        assert agrid.store.tolist() == store_rows(grid)
        # The lone peer has the empty path: responsible for every key,
        # so both grids must answer from it without any forwarding.
        original = SearchEngine(grid).query_from(address, "0110")
        mirrored = SearchEngine(bridged).query_from(address, "0110")
        assert (original.found, original.responder, original.messages) == (
            mirrored.found, mirrored.responder, mirrored.messages
        )
        assert original.found

    def test_post_churn_evicted_refs_round_trip(self):
        # Evicted references leave ragged routing lists (fewer than refmax
        # entries, possibly empty levels); the bridge must carry the
        # shrunken lists through exactly, not re-pad or drop levels.
        grid = build_grid(13, 30, 5, 3, with_data=False)
        evicted = 0
        for peer in grid.peers():
            for level0, level_refs in enumerate(peer.routing.to_lists()):
                if level_refs:
                    evicted += peer.routing.remove_ref(level0 + 1, level_refs[0])
        assert evicted > 0
        _, bridged = bridge(grid, random.Random(0))
        assert routing_state(bridged) == routing_state(grid)
        assert bridged.addresses() == grid.addresses()

    def test_sparse_addresses_round_trip(self):
        config = PGridConfig(maxl=4, refmax=3, recmax=2, recursion_fanout=2)
        grid = PGrid(config, rng=random.Random(19))
        for address in range(30):
            grid.add_peer(address * 5 + 2)
        GridBuilder(grid).build(max_meetings=600, max_exchanges=20_000)
        agrid, bridged = bridge(grid, random.Random(0))
        assert agrid.addresses.tolist() == grid.addresses()
        assert routing_state(bridged) == routing_state(grid)

    def test_tombstones_pack(self):
        grid = build_grid(17, 12, 4, 2)
        peer = grid.peer(grid.addresses()[3])
        peer.store.add_ref(DataRef(key="01", holder=900, version=4, deleted=True))
        agrid = ArrayGrid.from_pgrid(grid)
        assert agrid.store.tolist() == store_rows(grid)
        assert [900, 4, 1] in agrid.store[:, 3:].tolist()


@needs_numpy
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
    grid = build_grid(seed, n, maxl, refmax, with_data=False, meetings=300)
    _, bridged = bridge(grid, random.Random(seed ^ 0xA5A5))
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


@needs_numpy
def test_write_back_requires_same_population():
    grid = build_grid(5, 12, 4, 2, with_data=False)
    agrid = ArrayGrid.from_pgrid(grid)
    other = PGrid(grid.config, rng=random.Random(1))
    other.add_peers(11)
    with pytest.raises(ValueError):
        agrid.write_back(other)


def batch_construct(seed: int, addresses=None):
    config = PGridConfig(maxl=5, refmax=3, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=random.Random(seed))
    for address in addresses or range(200):
        grid.add_peer(address)
    report = construct_grid(
        grid, engine="batch", threshold_fraction=0.98, max_exchanges=50_000
    )
    return grid, report


@needs_numpy
class TestBatchConstructionFrontDoor:
    """``construct_grid(engine="batch")`` and ``Grid.build(core="batch")``
    run the batch builder and write its result back."""

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

    def test_sparse_addresses_map_through_the_write_back(self):
        dense, _ = batch_construct(25)
        sparse, _ = batch_construct(25, [address * 3 + 1 for address in range(200)])
        assert sparse.audit_routing() == []
        relabel = {address * 3 + 1: address for address in range(200)}
        assert {
            relabel[address]: (
                path,
                [[relabel[ref] for ref in level] for level in levels],
                sorted(relabel[buddy] for buddy in buddies),
            )
            for address, (path, levels, buddies) in routing_state(sparse).items()
        } == routing_state(dense)


def _give_path(peer, _grid):
    peer.set_path("01")


def _give_routing_ref(peer, grid):
    peer.routing.add_ref(1, grid.addresses()[-1])


def _give_buddy(peer, grid):
    peer.buddies.add(grid.addresses()[-1])


def _give_index_entry(peer, _grid):
    peer.store.add_ref(DataRef(key="0", holder=peer.address))


def _give_item(peer, _grid):
    peer.store.store_item(DataItem(key="0"))


@pytest.mark.parametrize(
    "give",
    [_give_path, _give_routing_ref, _give_buddy, _give_index_entry, _give_item],
    ids=["path", "routing-ref", "buddy", "index-entry", "item"],
)
def test_batch_construction_rejects_a_non_fresh_grid(give):
    config = PGridConfig(maxl=4, refmax=2, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=random.Random(3))
    grid.add_peers(20)
    give(grid.peer(grid.addresses()[4]), grid)
    state = grid.rng.getstate()
    with pytest.raises(ValueError, match="engine='object'"):
        construct_grid(grid, engine="batch")
    assert grid.rng.getstate() == state


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


@needs_numpy
class TestLayoutPinned:
    """Digests of the ``tolist()`` / ``getstate()`` forms, captured before
    ``ArrayGrid`` held the packed layout (it was Python lists bridged into
    numpy by each consumer): the one layout must reproduce them bit for bit."""

    @pytest.mark.parametrize(
        "seed, state_digest, report_digest, rng_digest",
        [
            (3, "0b7997c367d6be33", "989290182d3ee585", "6c77383ed69fb8a0"),
            (4, "8abc82549866192e", "49291632c9cbbbda", "9d4748b21199de71"),
        ],
    )
    def test_batch_build(self, seed, state_digest, report_digest, rng_digest):
        grid = Grid.build(peers=256, maxl=6, refmax=4, seed=seed, core="batch")
        state = [
            (peer.address, peer.path, peer.routing.to_lists(), sorted(peer.buddies))
            for peer in grid.pgrid.peers()
        ]
        report = grid.report
        assert _digest(state) == state_digest
        assert _digest(
            sorted(report.stats.items()), report.exchanges, report.meetings,
            report.average_depth, report.converged,
        ) == report_digest
        assert _digest(grid.pgrid.rng.getstate()) == rng_digest

    def test_batch_query_engine_search(self):
        grid = Grid.build(peers=200, maxl=5, refmax=3, seed=5, core="batch")
        rng = random.Random(6)
        addresses = grid.addresses()
        grid.seed_index(
            (DataItem(format(rng.getrandbits(5), "05b"), f"v{k}"), addresses[k % 200])
            for k in range(300)
        )
        grid.pgrid.online_oracle = BernoulliChurn(0.7, random.Random(7))
        engine = grid.batch_query_engine()
        arrays = [
            getattr(engine, name).tolist()
            for name in (
                "_pb", "_pl", "_refs", "_rl", "_buddy_off", "_buddy_val", "_store",
                "_store_off",
            )
        ]
        assert _digest(arrays, engine.addresses, engine.p_online) == "ba8e34d3eea59ac5"
        keys = [format(rng.getrandbits(4), "04b") for _ in range(400)]
        starts = [rng.randrange(engine.n) for _ in range(400)]
        result = engine.search_many(keys, starts)
        assert _digest(
            result.found.tolist(), result.responder.tolist(), result.messages.tolist()
        ) == "64cbd3df343bc6a9"
        mt = engine._rng.bit_generator.state["state"]
        assert _digest(
            mt["key"].tolist(), mt["pos"], engine._pyrng.getstate()
        ) == "dedb658b1a57235a"

    def test_gridless_snapshot_fields(self):
        config = PGridConfig(maxl=6, refmax=4, recmax=2, recursion_fanout=2)
        snap, report = construct_snapshot(config, 400, seed=11, p_online=0.8)
        try:
            fields = {
                field: _digest(dtype, shape, snap.view(field).tolist())
                for field, dtype, shape, _ in snap.handle.fields
            }
        finally:
            snap.close()
            snap.unlink()
        assert fields == {
            "path_bits": "3d2a4d219e6e7896",
            "path_len": "e47707ce8b746593",
            "refs": "a869a4effa67ed6c",
            "ref_len": "3588ed3398721f2c",
            "table_depth": "e47707ce8b746593",
            "addresses": "6b6278fe434f0644",
            "buddy_offsets": "42211ed153a0f5d6",
            "buddy_values": "40e70986a07c3dfb",
            "store": "59d8a9f9a3e728a9",
        }
        assert _digest(sorted(report.stats.items()), report.exchanges) == (
            "89740c8dcc54b26c"
        )
        assert snap.p_online == 0.8
