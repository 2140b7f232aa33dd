"""GridSnapshot: shared-memory round-trip, lifecycle and accounting."""

from __future__ import annotations

import contextlib
import pickle
import random
from pathlib import Path

import pytest

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.storage import DataItem
from repro.fast import HAVE_NUMPY, ArrayGrid
from repro.fast.arraygrid import FIELDS
from repro.sim.builder import GridBuilder, construct_snapshot

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

if HAVE_NUMPY:
    import numpy as np

    from repro.fast import BatchQueryEngine, GridSnapshot, SnapshotRef
    from repro.fast.snapshot import resolve

CONFIG = PGridConfig(maxl=5, refmax=3, recmax=2, recursion_fanout=2)


@pytest.fixture(scope="module")
def built_grid() -> PGrid:
    grid = PGrid(CONFIG, rng=random.Random(7))
    grid.add_peers(60)
    GridBuilder(grid).build(max_exchanges=40_000)
    grid.seed_index(
        [
            (DataItem(format(k * 7 % 32, "05b"), f"v{k}"), grid.addresses()[k % 60])
            for k in range(40)
        ]
    )
    return grid


def _shm_names() -> set[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {entry.name for entry in shm.glob("pgrid_snap_*")}


def _release(snap) -> None:
    """Owner teardown that tolerates stray views still alive on failure
    paths (close() refuses while views exist; unlink always runs)."""
    with contextlib.suppress(BufferError):
        snap.close()
    snap.unlink()


class TestRoundTrip:
    def test_views_match_source_arrays(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        with GridSnapshot.from_arraygrid(agrid) as snap:
            attached = GridSnapshot.attach(snap.handle)
            try:
                for field in ("path_bits", "path_len", "refs", "ref_len",
                              "table_depth", "addresses", "store"):
                    assert np.array_equal(attached.view(field), snap.view(field))
            finally:
                attached.close()

    def test_engine_bit_identical_to_from_arraygrid(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        queries = [format(i % 32, "05b")[:4] for i in range(200)]
        starts = [(i * 13) % 60 for i in range(200)]
        snap = GridSnapshot.from_arraygrid(agrid)
        try:
            engine = snap.batch_query_engine(seed=99)
            twin = BatchQueryEngine.from_arraygrid(agrid, seed=99)
            assert np.array_equal(engine._store, twin._store)
            assert np.array_equal(engine._store_off, twin._store_off)
            assert np.array_equal(engine._buddy_off, twin._buddy_off)
            assert np.array_equal(engine._buddy_val, twin._buddy_val)
            from_snap = engine.search_many(queries, starts)
            from_grid = twin.search_many(queries, starts)
            assert np.array_equal(from_snap.found, from_grid.found)
            assert np.array_equal(from_snap.responder, from_grid.responder)
            assert np.array_equal(from_snap.messages, from_grid.messages)
            del engine
        finally:
            _release(snap)

    def test_engine_shares_the_segment_and_never_writes_it(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        snap = GridSnapshot.from_arraygrid(agrid)
        try:
            engine = snap.batch_query_engine(seed=3)
            for attr, field in (
                ("_pb", "path_bits"), ("_pl", "path_len"), ("_refs", "refs"),
                ("_rl", "ref_len"), ("_buddy_off", "buddy_offsets"),
                ("_buddy_val", "buddy_values"), ("_store", "store"),
            ):
                assert np.shares_memory(getattr(engine, attr), snap.view(field)), field
            fields = [field for field, *_ in snap.handle.fields]
            before = [snap.view(field).tobytes() for field in fields]
            # Raise a stored slot at its own peer, and add a new holder.
            peer, bits, length, holder, version, _ = snap.view("store")[0].tolist()
            key = format(bits, f"0{length}b")
            engine.publish_many(
                [key, key], [holder, holder + 1000], [version + 5, 1], [peer, peer]
            )
            assert not np.shares_memory(engine._store, snap.view("store"))
            row = engine._store[engine._store_off[peer]].tolist()
            assert row == [peer, bits, length, holder, version + 5, 0]
            assert [snap.view(field).tobytes() for field in fields] == before
            del engine
        finally:
            _release(snap)

    def test_from_batch_builder_gridless_path(self):
        snap, report = construct_snapshot(
            CONFIG, 200, seed=5, threshold_fraction=0.985,
            max_exchanges=600 * 200,
        )
        try:
            assert report is not None
            assert snap.n == 200
            engine = snap.batch_query_engine(seed=1)
            result = engine.search_many(["101"] * 5, [0, 1, 2, 3, 4])
            assert len(result) == 5
            del engine
        finally:
            _release(snap)

    def test_grid_snapshot_exports_the_packed_layout(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        names = _shm_names()
        exported = ArrayGrid.from_pgrid(built_grid)
        with GridSnapshot.from_arraygrid(exported, p_online=0.5) as snap:
            assert snap.owner
            assert snap.n == 60
            assert snap.p_online == 0.5
            assert [field for field, *_ in snap.handle.fields] == list(FIELDS)
            for field, dtype in FIELDS.items():
                view = snap.view(field)
                assert view.dtype == np.dtype(dtype)
                assert np.array_equal(view, getattr(agrid, field)), field
            del view
            name = snap.name
        assert name not in _shm_names()
        assert _shm_names() == names

class TestHandle:
    def test_handle_pickles_small(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        with GridSnapshot.from_arraygrid(agrid) as snap:
            assert len(pickle.dumps(snap.handle)) < 4096
            assert len(pickle.dumps(snap.ref())) < 4096

    def test_resolve_prefers_local_owner(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        with GridSnapshot.from_arraygrid(agrid) as snap:
            assert resolve(snap.handle) is snap

    def test_ref_resolves_via_trial_protocol(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        with GridSnapshot.from_arraygrid(agrid) as snap:
            ref = pickle.loads(pickle.dumps(snap.ref()))
            assert isinstance(ref, SnapshotRef)
            assert ref.__trial_resolve__() is snap


class TestLifecycle:
    def test_context_manager_unlinks_segment(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        with GridSnapshot.from_arraygrid(agrid) as snap:
            name = snap.name
            if Path("/dev/shm").is_dir():
                assert name in _shm_names()
        assert name not in _shm_names()

    def test_no_segment_leak_across_attach(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        before = _shm_names()
        snap = GridSnapshot.from_arraygrid(agrid)
        attached = GridSnapshot.attach(snap.handle)
        attached.close()
        snap.close()
        snap.unlink()
        assert _shm_names() == before

    def test_views_are_read_only(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        with GridSnapshot.from_arraygrid(agrid) as snap:
            view = snap.view("path_bits")
            with pytest.raises(ValueError):
                view[0] = 1

    def test_view_after_close_raises(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        snap = GridSnapshot.from_arraygrid(agrid)
        name = snap.name
        snap.close()
        with pytest.raises(ValueError):
            snap.view("path_bits")
        # unlink stays legal after close, and is idempotent.
        snap.unlink()
        snap.unlink()
        assert name not in _shm_names()

    def test_double_close_is_idempotent(self, built_grid):
        agrid = ArrayGrid.from_pgrid(built_grid)
        snap = GridSnapshot.from_arraygrid(agrid)
        snap.close()
        snap.close()
        snap.unlink()

    def test_missing_field_rejected_at_export(self):
        with pytest.raises(ValueError, match="missing fields"):
            GridSnapshot.from_arraygrid(ArrayGrid(CONFIG, {"path_bits": np.zeros(1)}))


class TestMemoryReport:
    def test_shared_memory_section(self, built_grid):
        from repro.fast.mem import grid_memory_report, shared_memory_report

        agrid = ArrayGrid.from_pgrid(built_grid)
        with GridSnapshot.from_arraygrid(agrid) as snap:
            shared = shared_memory_report(snap)
            assert shared is not None
            assert shared["segments"] >= 1
            assert shared["bytes_total"] >= snap.nbytes
            report = grid_memory_report(pgrid=built_grid, snapshot=snap)
            assert report["shared_memory"]["bytes_total"] >= snap.nbytes
            # Heap and segment bytes are accounted separately.
            assert report["object_core"]["bytes_total"] > 0

    def test_no_section_when_nothing_mapped(self):
        from repro.fast.mem import grid_memory_report
        from repro.fast.snapshot import attached_segments

        # Other tests may leave cached attachments in the registries;
        # only assert absence when this process truly maps nothing.
        if not attached_segments():
            assert "shared_memory" not in grid_memory_report()
