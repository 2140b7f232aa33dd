"""Batched vectorized construction: determinism, semantics, restrictions."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.fast import HAVE_NUMPY
from repro.sim.builder import construct_grid

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

if HAVE_NUMPY:
    import numpy as np

    from repro.fast.batch import BatchGridBuilder


CONFIG = PGridConfig(maxl=6, refmax=5, recmax=2, recursion_fanout=2)


def fresh_pgrid(n: int = 300, seed: int = 17, config: PGridConfig = CONFIG) -> PGrid:
    grid = PGrid(config, rng=random.Random(seed))
    grid.add_peers(n)
    return grid


def builder(seed: int, n: int = 300, **kwargs) -> "BatchGridBuilder":
    return BatchGridBuilder(n=n, config=CONFIG, seed=seed, **kwargs)


class TestGridBacked:
    """Through ``construct_grid(engine="batch")``: a build written back
    into an object grid."""

    def test_converges_and_writes_back(self):
        grid = fresh_pgrid()
        report = construct_grid(grid, engine="batch", threshold_fraction=0.985)
        assert report.converged
        assert report.peer_count == 300
        assert grid.average_path_length() == pytest.approx(report.average_depth)
        # The written-back grid satisfies the routing invariant.
        assert grid.audit_routing() == []

    def test_deterministic_under_seed(self):
        b1, b2, b3 = builder(42), builder(42), builder(42)
        r1, r2, r3 = (b.build(threshold_fraction=0.985) for b in (b1, b2, b3))
        assert r1.stats == r2.stats == r3.stats
        for field in ("path_bits", "refs", "ref_len", "buddy_offsets", "buddy_values"):
            assert np.array_equal(getattr(b2.grid, field), getattr(b3.grid, field))

    def test_different_seeds_differ(self):
        r1 = builder(1).build(threshold_fraction=0.985)
        r2 = builder(2).build(threshold_fraction=0.985)
        assert r1.stats != r2.stats

    def test_seed_defaults_to_grid_rng_draw(self):
        g1, g2 = fresh_pgrid(seed=13), fresh_pgrid(seed=13)
        r1 = construct_grid(g1, engine="batch", threshold_fraction=0.985)
        r2 = construct_grid(g2, engine="batch", threshold_fraction=0.985)
        assert r1.stats == r2.stats
        assert [p.path for p in g1.peers()] == [p.path for p in g2.peers()]
        # One documented draw from the grid's Random seeds the builder.
        drawn = builder(random.Random(13).getrandbits(64))
        assert drawn.build(threshold_fraction=0.985).stats == r1.stats

    def test_counters_consistent_with_depth(self):
        built = builder(9)
        report = built.build(threshold_fraction=0.985)
        stats = report.stats
        # From fresh peers every path bit comes from a split (2 bits) or a
        # specialization (1 bit).
        total_bits = (
            2 * stats["case1_splits"]
            + stats["case2_specializations"]
            + stats["case3_specializations"]
        )
        assert total_bits == int(built.grid.path_len.sum())
        assert stats["calls"] == report.exchanges
        assert stats["meetings"] == report.meetings
        assert report.average_depth == pytest.approx(total_bits / 300)

    def test_statistically_matches_object_core(self):
        report = builder(23).build(threshold_fraction=0.985)
        obj = fresh_pgrid(seed=23)
        obj_report = construct_grid(
            obj, engine="object", threshold_fraction=0.985
        )
        assert report.converged and obj_report.converged
        # Same convergence point by definition; cost within a modest
        # factor (different meeting interleavings).
        ratio = report.exchanges / obj_report.exchanges
        assert 0.5 < ratio < 2.0
        assert abs(report.average_depth - obj_report.average_depth) < 0.2

    def test_budget_stops_at_round_granularity(self):
        report = builder(3, round_size=128).build(threshold_fraction=1.0, max_meetings=500)
        assert not report.converged
        assert report.meetings <= 500


class TestGridless:
    def test_matches_grid_backed_run(self):
        # construct_grid's build is the gridless build at the drawn seed,
        # written back: the object grid holds exactly the builder's layout.
        grid = fresh_pgrid(n=250)
        r1 = construct_grid(grid, engine="batch", threshold_fraction=0.985)
        gridless = builder(random.Random(17).getrandbits(64), n=250)
        r2 = gridless.build(threshold_fraction=0.985)
        assert r1.stats == r2.stats
        assert r1.average_depth == r2.average_depth
        assert [len(p.path) for p in grid.peers()] == gridless.grid.path_len.tolist()
        assert [p.routing.total_refs() for p in grid.peers()] == (
            gridless.grid.ref_len.reshape(250, -1).sum(axis=1).tolist()
        )

    def test_analytics_match_written_back_grid(self):
        grid = fresh_pgrid(n=200)
        built = builder(31, n=200)
        built.build(threshold_fraction=0.985)
        built.grid.write_back(grid)
        assert built.replication_histogram() == dict(grid.replication_histogram())
        assert built.path_length_histogram() == dict(
            Counter(len(peer.path) for peer in grid.peers())
        )

    def test_memory_bytes_is_compact(self):
        builder = BatchGridBuilder(n=10_000, config=CONFIG, seed=1)
        per_peer = builder.memory_bytes() / 10_000
        # int32 refs dominate: maxl * refmax * 4 bytes plus scalars.
        assert per_peer < CONFIG.maxl * CONFIG.refmax * 4 + 200

    def test_needs_seed(self):
        with pytest.raises(ValueError):
            BatchGridBuilder(n=100, config=CONFIG)

    def test_needs_n(self):
        with pytest.raises(ValueError):
            BatchGridBuilder(seed=1)


class TestRestrictions:
    @pytest.mark.parametrize(
        "config",
        [
            PGridConfig(maxl=4, refmax=2, split_min_items=1),
        ],
        ids=["split-min-items"],
    )
    def test_unsupported_configs_rejected(self, config):
        with pytest.raises(ValueError):
            BatchGridBuilder(n=100, config=config, seed=1)

    def test_stores_must_be_empty(self):
        from repro.core.storage import DataItem

        grid = fresh_pgrid(n=50)
        grid.seed_index([(DataItem(key="0" * CONFIG.maxl), grid.addresses()[0])])
        with pytest.raises(ValueError, match="engine='object'"):
            construct_grid(grid, engine="batch")

    def test_validation_messages_match_grid_builder(self):
        builder = BatchGridBuilder(n=100, config=CONFIG, seed=1)
        with pytest.raises(ValueError):
            builder.build(threshold_fraction=0.0)
        with pytest.raises(ValueError):
            builder.build(max_meetings=-1)
        with pytest.raises(ValueError):
            builder.build(max_exchanges=-1)
        with pytest.raises(ValueError):
            builder.build(sample_every=0)
