"""Vectorized range search vs the object core's ``query_range``.

Both cores resolve the same canonical cover and run one
subtree-enumerating breadth search per prefix, but enumeration reach is
RNG-order dependent in *both* engines (a peer's out-edges depend on its
arrival state, and candidate order comes from the engine RNG), so the
equivalence contract is the batch plane's usual one: exact agreement on
covers and on the found index entries of a well-replicated grid,
statistical agreement on responder/message accounting.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Grid
from repro.core import keys as keyspace
from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.search import SearchEngine
from repro.core.storage import DataItem
from repro.fast import HAVE_NUMPY, ArrayGrid
from repro.protocol.search import key_in_range
from repro.sim.builder import GridBuilder

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

if HAVE_NUMPY:
    from repro.fast import BatchQueryEngine

CONFIG = PGridConfig(maxl=5, refmax=3, recmax=2, recursion_fanout=2)
KEY_LENGTH = CONFIG.maxl


def _ranges(count: int, seed: int) -> list[tuple[str, str]]:
    """Random equal-width ``[low, high]`` pairs over the key space."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        width = rng.choice([2, 3, KEY_LENGTH])
        a, b = sorted(rng.randrange(1 << width) for _ in range(2))
        out.append((format(a, f"0{width}b"), format(b, f"0{width}b")))
    return out


@pytest.fixture(scope="module")
def built_grid() -> PGrid:
    grid = PGrid(CONFIG, rng=random.Random(11))
    grid.add_peers(60)
    GridBuilder(grid).build(max_exchanges=40_000)
    grid.seed_index(
        [
            (DataItem(format(k, "05b"), f"v{k}"), grid.addresses()[k % 60])
            for k in range(32)
        ]
    )
    return grid


def _batch_engine(grid: PGrid, seed: int = 0) -> "BatchQueryEngine":
    return BatchQueryEngine.from_arraygrid(ArrayGrid.from_pgrid(grid), seed=seed)


def _object_refs(grid: PGrid, low: str, high: str, seed: int) -> set:
    grid.rng.seed(seed)
    result = SearchEngine(grid).query_range(0, low, high)
    return {(ref.key, ref.holder, ref.version) for ref in result.data_refs}


class TestCoverAndRefs:
    def test_covers_are_the_canonical_decomposition(self, built_grid):
        cases = _ranges(20, seed=1)
        engine = _batch_engine(built_grid)
        batch = engine.search_range_many(
            [low for low, _ in cases],
            [high for _, high in cases],
            [i % 60 for i in range(len(cases))],
        )
        for i, (low, high) in enumerate(cases):
            assert batch.covers[i] == keyspace.range_cover(low, high)

    def test_data_refs_match_object_engine_exactly(self, built_grid):
        # Replication saturates recall on a converged all-online grid, so
        # the found index entries agree exactly even though the marginal
        # responder sets of the two enumeration walks differ.
        cases = _ranges(20, seed=2)
        engine = _batch_engine(built_grid, seed=3)
        batch = engine.search_range_many(
            [low for low, _ in cases],
            [high for _, high in cases],
            [(i * 7) % 60 for i in range(len(cases))],
        )
        for i, (low, high) in enumerate(cases):
            expected = _object_refs(built_grid, low, high, seed=i)
            got = {(r.key, r.holder, r.version) for r in batch.data_refs[i]}
            assert got == expected, f"range [{low}, {high}]"

    def test_point_range_recall(self, built_grid):
        # A degenerate [k, k] range must find exactly the entries at k.
        keys = [format(k, "05b") for k in range(0, 32, 3)]
        engine = _batch_engine(built_grid, seed=5)
        batch = engine.search_range_many(keys, keys, [0] * len(keys))
        for i, key in enumerate(keys):
            refs = batch.data_refs[i]
            assert refs, f"seeded key {key} not found"
            assert {r.key for r in refs} == {key}

    def test_refs_lie_inside_the_range(self, built_grid):
        cases = _ranges(15, seed=6)
        engine = _batch_engine(built_grid, seed=6)
        batch = engine.search_range_many(
            [low for low, _ in cases],
            [high for _, high in cases],
            [0] * len(cases),
        )
        for i, (low, high) in enumerate(cases):
            for ref in batch.data_refs[i]:
                assert key_in_range(ref.key, low, high)

    def test_with_refs_false_skips_the_store_fold(self, built_grid):
        engine = _batch_engine(built_grid, seed=7)
        batch = engine.search_range_many(
            ["001"], ["110"], [0], with_refs=False
        )
        assert batch.data_refs[0] == []
        assert batch.found(0)

    def test_responders_are_responsible_for_a_cover_prefix(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        engine = BatchQueryEngine.from_arraygrid(agrid, seed=8)
        low, high = "00100", "11000"
        batch = engine.search_range_many([low], [high], [0])
        cover = batch.covers[0]
        for dense in batch.responders(0).tolist():
            path = agrid.path_str(dense)
            assert any(
                path.startswith(prefix) or prefix.startswith(path)
                for prefix in cover
            ), f"responder path {path!r} outside cover {cover}"


class TestAccountingEquivalence:
    def test_message_and_responder_means_are_statistically_close(self, built_grid):
        cases = _ranges(40, seed=9)
        lows = [low for low, _ in cases]
        highs = [high for _, high in cases]
        starts = [(i * 11) % 60 for i in range(len(cases))]

        obj_msgs, obj_resp = [], []
        for i, (low, high) in enumerate(cases):
            built_grid.rng.seed(1000 + i)
            result = SearchEngine(built_grid).query_range(
                built_grid.addresses()[starts[i]], low, high
            )
            obj_msgs.append(result.messages)
            obj_resp.append(len(result.responders))

        engine = _batch_engine(built_grid, seed=10)
        batch = engine.search_range_many(lows, highs, starts)
        batch_msgs = batch.messages.tolist()
        batch_resp = [
            int(batch.offsets[i + 1] - batch.offsets[i]) for i in range(len(cases))
        ]

        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean(batch_msgs) == pytest.approx(mean(obj_msgs), rel=0.15)
        assert mean(batch_resp) == pytest.approx(mean(obj_resp), rel=0.15)


class TestValidation:
    def test_rejects_bad_recbreadth(self, built_grid):
        engine = _batch_engine(built_grid)
        with pytest.raises(ValueError, match="recbreadth"):
            engine.search_range_many(["01"], ["10"], [0], recbreadth=0)

    def test_rejects_mismatched_bounds(self, built_grid):
        engine = _batch_engine(built_grid)
        with pytest.raises(ValueError, match="lows"):
            engine.search_range_many(["01", "00"], ["10"], [0, 0])

    def test_rejects_mismatched_starts(self, built_grid):
        engine = _batch_engine(built_grid)
        with pytest.raises(ValueError, match="starts"):
            engine.search_range_many(["01"], ["10"], [0, 1])

    def test_rejects_unequal_bound_lengths(self, built_grid):
        engine = _batch_engine(built_grid)
        with pytest.raises(ValueError, match="equal length"):
            engine.search_range_many(["0"], ["111"], [0])


class TestFacade:
    def test_batch_range_matches_search_range(self, built_grid):
        grid = Grid(built_grid)
        obj = grid.search_range("001", "110", start=0)
        engine = grid.batch_query_engine()
        batch = engine.search_range_many(["001"], ["110"], [0])
        assert list(batch.covers[0]) == obj.cover == keyspace.range_cover("001", "110")
        assert obj.low == "001" and obj.high == "110"
        assert obj.found and len(batch.responders(0)) > 0
        assert {(r.key, r.holder, r.version) for r in batch.data_refs[0]} == {
            (r.key, r.holder, r.version) for r in obj.data_refs
        }
        assert int(batch.messages[0]) > 0
        # Dense responder indices map back to the grid's addresses.
        responders = {engine.addresses[int(i)] for i in batch.responders(0)}
        assert responders <= set(built_grid.addresses())
