"""Shared-memory grid snapshots: one grid build, many processes.

A :class:`GridSnapshot` exports the packed :class:`~repro.fast.arraygrid.ArrayGrid`
buffers — paths, the routing slab, the buddy CSR, the leaf-store table —
into a single named :mod:`multiprocessing.shared_memory` segment, plus a
small picklable :class:`SnapshotHandle` describing the layout.  Any
process that holds the handle can :meth:`~GridSnapshot.attach` and get
read-only numpy views over the *same* physical pages: no copy, no pickle
of grid state, attach cost independent of grid size.

This is what lets ``--jobs`` experiment sweeps build a grid **once** and
fan it out: trial specs carry a :class:`SnapshotRef` (a few hundred
bytes pickled) instead of the grid; :func:`repro.perf.parallel.run_trials`
resolves the ref inside the worker via :func:`resolve`, which attaches
at most once per segment per process and caches the attachment.

Segment layout
--------------
All arrays live back-to-back in one segment, 16-byte aligned, in the
query-plane layout (so :meth:`GridSnapshot.batch_query_engine` is
zero-copy: the engine reads these very arrays, buddies and store
included):

========================  =========  =======================================
field                     dtype      shape
========================  =========  =======================================
``path_bits``             int64      ``(n,)`` packed MSB-first paths
``path_len``              int64      ``(n,)``
``refs``                  int32      ``(n * maxl, refmax)``, ``-1`` padded
``ref_len``               int16      ``(n * maxl,)``
``table_depth``           int64      ``(n,)`` materialized routing levels
``addresses``             int64      ``(n,)`` dense index -> sparse address
``buddy_offsets``         int64      ``(n + 1,)`` buddy CSR offsets
``buddy_values``          int64      sorted buddy CSR values
``store``                 int64      ``(entries, 6)`` rows of
                                     ``(peer, key bits, key len, holder,
                                     version, deleted)``, sorted by the
                                     first four columns
========================  =========  =======================================

``store_items`` (full payload objects) are **not** captured — snapshots
serve the query plane, where only index refs matter; use the object core
when item payloads do.

Lifecycle
---------
The creating process *owns* the segment: ``close()`` drops its mapping,
``unlink()`` removes the name from the OS (``/dev/shm`` on Linux).  Used
as a context manager, the owner closes *and* unlinks on exit; attached
(non-owner) snapshots only close.  Attaching is safe exactly while the
segment is still linked or some process keeps it open — ship handles
only to workers that outlive the owner's ``unlink()`` at your own risk
(the POSIX segment survives until every mapping is gone, but new
attaches fail once unlinked).  Attachments made through :func:`resolve`
are cached per process and released atexit; a CPython < 3.13 wart makes
plain attaches register with the resource tracker (which would unlink
the segment when the *worker* exits), so every attach here explicitly
opts out of tracking.
"""

from __future__ import annotations

import atexit
import os
import secrets
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.config import PGridConfig
from repro.fast.arraygrid import buddy_csr, store_order

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    np = None

try:
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platforms without shared memory
    _shm = None
    _resource_tracker = None

if TYPE_CHECKING:  # pragma: no cover
    from repro.fast.arraygrid import ArrayGrid
    from repro.fast.batch import BatchGridBuilder
    from repro.fast.query import BatchQueryEngine

__all__ = [
    "GridSnapshot",
    "SnapshotHandle",
    "SnapshotRef",
    "attached_segments",
    "fresh_attach_count",
    "resolve",
]

_ALIGN = 16

#: Field order inside the segment (fixed — the handle records offsets).
_FIELDS = (
    "path_bits",
    "path_len",
    "refs",
    "ref_len",
    "table_depth",
    "addresses",
    "buddy_offsets",
    "buddy_values",
    "store",
)


def _require_numpy() -> None:
    if np is None:
        raise RuntimeError(
            "grid snapshots require numpy; install it or use the object core"
        )
    if _shm is None:  # pragma: no cover - platforms without shared memory
        raise RuntimeError("multiprocessing.shared_memory is unavailable")


@dataclass(frozen=True)
class SnapshotHandle:
    """Picklable description of one shared-memory grid segment.

    Everything a process needs to :func:`resolve` the snapshot: the
    segment name, the grid config, and per-field ``(dtype, shape,
    offset)`` layout.  Pickles to a few hundred bytes regardless of grid
    size — this is what trial specs ship instead of the grid.
    """

    name: str
    n: int
    nbytes: int
    config: PGridConfig
    p_online: float
    fields: tuple[tuple[str, str, tuple[int, ...], int], ...]


class SnapshotRef:
    """A picklable stand-in for a :class:`GridSnapshot` in trial kwargs.

    :func:`repro.perf.parallel.run_trials` resolves any kwarg exposing
    ``__trial_resolve__`` before calling the trial function; a ref
    resolves to the owner snapshot in-process and to a cached attachment
    in workers, so the pool boundary only ever carries the handle.
    """

    __slots__ = ("handle",)

    def __init__(self, handle: "SnapshotHandle | GridSnapshot") -> None:
        if isinstance(handle, GridSnapshot):
            handle = handle.handle
        self.handle = handle

    def __trial_resolve__(self) -> "GridSnapshot":
        return resolve(self.handle)

    def __repr__(self) -> str:
        return f"SnapshotRef({self.handle.name!r}, n={self.handle.n})"


def _open_untracked(name: str):
    """Attach to a named segment without resource-tracker registration.

    Python < 3.13 registers *every* attach with the resource tracker,
    which unlinks the segment when the attaching process exits — exactly
    wrong for worker processes attaching a segment the parent owns.
    3.13+ grew ``track=False``; older versions need the unregister dance.
    """
    try:
        return _shm.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        # Suppress the attach-time register instead of unregistering after
        # the fact: fork-started pool workers share the owner's tracker
        # process, and the tracker caches names in one per-type set, so an
        # unregister here would strip the owner's cleanup entry (the
        # owner's own unlink would then KeyError inside the tracker).
        register = _resource_tracker.register
        _resource_tracker.register = lambda *args, **kwargs: None
        try:
            return _shm.SharedMemory(name=name)
        finally:
            _resource_tracker.register = register


# Registries: owner snapshots by name (so in-process resolve returns the
# owner without a second mapping) and worker-side cached attachments.
_OWNED: dict[str, "GridSnapshot"] = {}
_ATTACHED: dict[str, "GridSnapshot"] = {}
_FRESH_ATTACHES = 0


def resolve(handle: SnapshotHandle) -> "GridSnapshot":
    """Handle → snapshot: owner if local, else a cached per-process attach.

    The first resolve of a segment in a process attaches (counted by
    :func:`fresh_attach_count`); later resolves are dictionary lookups.
    """
    snapshot = _OWNED.get(handle.name)
    if snapshot is not None and not snapshot.closed:
        return snapshot
    snapshot = _ATTACHED.get(handle.name)
    if snapshot is not None and not snapshot.closed:
        return snapshot
    global _FRESH_ATTACHES
    snapshot = GridSnapshot.attach(handle)
    _ATTACHED[handle.name] = snapshot
    _FRESH_ATTACHES += 1
    return snapshot


def fresh_attach_count() -> int:
    """How many segments this process attached via :func:`resolve`.

    The at-most-once-per-worker gate: under the snapshot path a worker
    resolves the same segment for every trial it runs, so this stays at
    the number of *distinct* snapshots, never the number of trials.
    """
    return _FRESH_ATTACHES


def attached_segments() -> list[dict[str, Any]]:
    """Live segments this process maps (owner and attached), for memory
    accounting: ``[{"name", "bytes", "role"}, ...]``."""
    out: list[dict[str, Any]] = []
    for name, snapshot in _OWNED.items():
        if not snapshot.closed:
            out.append({"name": name, "bytes": snapshot.nbytes, "role": "owner"})
    for name, snapshot in _ATTACHED.items():
        if not snapshot.closed:
            out.append({"name": name, "bytes": snapshot.nbytes, "role": "attached"})
    return out


def _close_attached() -> None:  # pragma: no cover - atexit plumbing
    for snapshot in list(_ATTACHED.values()):
        try:
            snapshot.close()
        except Exception:
            pass


atexit.register(_close_attached)


class GridSnapshot:
    """Read-only shared-memory view of one grid's packed state.

    Create with :meth:`from_arraygrid` / :meth:`from_batch_builder` (or
    :meth:`from_arrays` for pre-packed buffers); reconstruct in another
    process with :meth:`attach` or, preferably, ship a :meth:`ref` and
    let :func:`resolve` cache the attachment.  Consume via
    :meth:`arraygrid` (an :class:`ArrayGrid` view) or
    :meth:`batch_query_engine` (zero-copy query plane).
    """

    __slots__ = ("handle", "_segment", "_views", "_owner", "_owner_pid", "_closed")

    def __init__(self, handle: SnapshotHandle, segment, *, owner: bool) -> None:
        self.handle = handle
        self._segment = segment
        self._owner = owner
        # Fork-started pool workers inherit the owner object; implicit
        # cleanup must not unlink the segment from under the parent, so
        # the pid of the creating process gates __exit__/__del__.
        self._owner_pid = os.getpid() if owner else -1
        self._closed = False
        self._views: dict[str, Any] = {}
        buf = segment.buf
        for field, dtype, shape, offset in handle.fields:
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
            view.flags.writeable = False
            self._views[field] = view

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        arrays: dict[str, Any],
        *,
        n: int,
        config: PGridConfig,
        p_online: float = 1.0,
    ) -> "GridSnapshot":
        """Copy the packed state into a fresh named segment (the owner).

        ``arrays`` must provide every field in the module-docstring
        layout table; dtypes are coerced to the layout's and the store
        rows are sorted into the layout's order.
        """
        _require_numpy()
        dtypes = {
            "path_bits": np.int64,
            "path_len": np.int64,
            "refs": np.int32,
            "ref_len": np.int16,
            "table_depth": np.int64,
            "addresses": np.int64,
            "buddy_offsets": np.int64,
            "buddy_values": np.int64,
            "store": np.int64,
        }
        missing = [field for field in _FIELDS if field not in arrays]
        if missing:
            raise ValueError(f"snapshot arrays missing fields: {missing}")
        packed = {
            field: np.ascontiguousarray(arrays[field], dtype=dtypes[field])
            for field in _FIELDS
        }
        store = packed["store"].reshape(-1, 6)
        packed["store"] = store[store_order(store)]
        fields: list[tuple[str, str, tuple[int, ...], int]] = []
        offset = 0
        for field in _FIELDS:
            arr = packed[field]
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            fields.append((field, arr.dtype.str, arr.shape, offset))
            offset += arr.nbytes
        nbytes = max(offset, 1)
        segment = None
        for _ in range(16):
            name = f"pgrid_snap_{secrets.token_hex(6)}"
            try:
                segment = _shm.SharedMemory(name=name, create=True, size=nbytes)
                break
            except FileExistsError:  # pragma: no cover - 48-bit collision
                continue
        if segment is None:  # pragma: no cover - 48-bit collision
            raise RuntimeError("could not allocate a unique snapshot segment")
        handle = SnapshotHandle(
            name=segment.name,
            n=n,
            nbytes=nbytes,
            config=config,
            p_online=p_online,
            fields=tuple(fields),
        )
        snapshot = cls(handle, segment, owner=True)
        for field in _FIELDS:
            view = snapshot._views[field]
            view.flags.writeable = True
            view[...] = packed[field]
            view.flags.writeable = False
        _OWNED[handle.name] = snapshot
        return snapshot

    @classmethod
    def from_arraygrid(
        cls,
        grid: "ArrayGrid",
        *,
        p_online: float | None = None,
    ) -> "GridSnapshot":
        """Export an :class:`ArrayGrid` (typically bridged from a
        ``PGrid``) into shared memory.

        ``p_online`` defaults from the grid's online oracle the same way
        :meth:`BatchQueryEngine.from_arraygrid` does.  ``store_items``
        are not captured (see module docstring).
        """
        _require_numpy()
        from repro.fast.query import _oracle_p_online

        if p_online is None:
            p_online = _oracle_p_online(grid.online_oracle)
        buddy_offsets, buddy_values = buddy_csr(grid.buddies, grid.n)
        return cls.from_arrays(
            {
                "path_bits": grid.path_bits,
                "path_len": grid.path_len,
                "refs": grid.routing_slab(),
                "ref_len": grid.ref_len,
                "table_depth": grid.table_depth,
                "addresses": grid.addresses,
                "buddy_offsets": buddy_offsets,
                "buddy_values": buddy_values,
                "store": grid.store_rows(),
            },
            n=grid.n,
            config=grid.config,
            p_online=p_online,
        )

    @classmethod
    def from_batch_builder(
        cls,
        builder: "BatchGridBuilder",
        *,
        p_online: float = 1.0,
    ) -> "GridSnapshot":
        """Export a (converged) gridless builder's state — the 100k+ peer
        path where no object grid ever exists.

        The builder carries no per-level materialization record, so
        ``table_depth`` is derived as each peer's deepest non-empty
        routing level (observably identical for query purposes).
        """
        _require_numpy()
        pb, pl, refs, rl, buddies = builder.snapshot_state()
        n = builder.n
        maxl = builder.config.maxl
        rl2 = np.asarray(rl).reshape(n, maxl)
        nonempty = rl2 > 0
        depth = np.where(
            nonempty.any(axis=1),
            maxl - np.argmax(nonempty[:, ::-1], axis=1),
            0,
        )
        offsets, values = buddy_csr(buddies, n)
        return cls.from_arrays(
            {
                "path_bits": pb,
                "path_len": pl,
                "refs": np.asarray(refs).reshape(n * maxl, builder.config.refmax),
                "ref_len": rl,
                "table_depth": depth,
                "addresses": np.arange(n, dtype=np.int64),
                "buddy_offsets": offsets,
                "buddy_values": values,
                "store": np.empty((0, 6), dtype=np.int64),
            },
            n=n,
            config=builder.config,
            p_online=p_online,
        )

    @classmethod
    def attach(cls, handle: SnapshotHandle) -> "GridSnapshot":
        """Map an existing segment read-only (no copy, any process)."""
        _require_numpy()
        return cls(handle, _open_untracked(handle.name), owner=False)

    # -- identity -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.handle.name

    @property
    def n(self) -> int:
        return self.handle.n

    @property
    def config(self) -> PGridConfig:
        return self.handle.config

    @property
    def p_online(self) -> float:
        return self.handle.p_online

    @property
    def nbytes(self) -> int:
        """Shared segment size in bytes (the off-heap footprint)."""
        return self.handle.nbytes

    @property
    def owner(self) -> bool:
        return self._owner

    @property
    def closed(self) -> bool:
        return self._closed

    def ref(self) -> SnapshotRef:
        """The picklable stand-in to put in trial kwargs."""
        return SnapshotRef(self.handle)

    # -- views ----------------------------------------------------------------

    def view(self, field: str):
        """Read-only numpy view of one layout field."""
        if self._closed:
            raise ValueError(f"snapshot {self.name} is closed")
        return self._views[field]

    def buddies_dict(self) -> dict[int, set[int]]:
        """Buddy CSR → :class:`ArrayGrid`'s sparse ``{peer: set}`` form."""
        offsets = self.view("buddy_offsets")
        values = self.view("buddy_values")
        out: dict[int, set[int]] = {}
        for i in range(self.n):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            if hi > lo:
                out[i] = set(values[lo:hi].tolist())
        return out

    def store_refs_dict(
        self,
    ) -> dict[int, dict[tuple[int, int], dict[int, tuple[int, bool]]]]:
        """Store rows in :class:`ArrayGrid`'s ``store_refs`` form
        (tombstones preserved)."""
        out: dict[int, dict[tuple[int, int], dict[int, tuple[int, bool]]]] = {}
        for peer, bits, length, holder, version, deleted in self.view("store").tolist():
            out.setdefault(peer, {}).setdefault((bits, length), {})[holder] = (
                version,
                bool(deleted),
            )
        return out

    # -- consumers ------------------------------------------------------------

    def arraygrid(self, *, rng=None, online_oracle=None) -> "ArrayGrid":
        """A read-only :class:`ArrayGrid` over the shared buffers.

        Query/statistics methods work unchanged; the flat buffers are
        immutable (exchange engines must not run on it) and
        ``store_items`` is empty by construction.
        """
        from repro.fast.arraygrid import ArrayGrid

        store_refs = self.store_refs_dict()
        return ArrayGrid.from_buffers(
            n=self.n,
            config=self.config,
            path_bits=self.view("path_bits"),
            path_len=self.view("path_len"),
            refs2d=self.view("refs"),
            ref_len=self.view("ref_len"),
            table_depth=self.view("table_depth"),
            addresses=self.view("addresses").tolist(),
            buddies=self.buddies_dict(),
            store_refs=store_refs,
            rng=rng,
            online_oracle=online_oracle,
        )

    def batch_query_engine(
        self,
        *,
        seed: int,
        p_online: float | None = None,
        max_messages: int | None = None,
        chunk: int = 8192,
        probe: Any = None,
    ) -> "BatchQueryEngine":
        """A :class:`BatchQueryEngine` directly over the shared buffers.

        Paths, routing slab, buddy CSR and store rows are the segment's
        pages (zero copy); only the address list is built on the heap.
        The store is filtered only when it holds tombstones;
        :meth:`~BatchQueryEngine.publish_many` copies it before its first
        write and never writes through to the segment.
        ``p_online`` defaults to the value recorded at export.
        """
        from repro.fast.query import BatchQueryEngine

        engine = BatchQueryEngine(
            pb=self.view("path_bits"),
            pl=self.view("path_len"),
            refs=self.view("refs"),
            rl=self.view("ref_len"),
            n=self.n,
            config=self.config,
            buddies=(self.view("buddy_offsets"), self.view("buddy_values")),
            addresses=self.view("addresses").tolist(),
            seed=seed,
            p_online=self.p_online if p_online is None else p_online,
            max_messages=max_messages,
            chunk=chunk,
            probe=probe,
        )
        engine._set_store(self.view("store"))
        return engine

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        Every numpy view handed out becomes invalid; engines built from
        the snapshot must be dropped first or ``BufferError`` is raised
        (the OS cannot unmap pages a live array still points into).
        """
        if self._closed:
            return
        self._views.clear()
        try:
            self._segment.close()
        except BufferError:
            raise BufferError(
                f"snapshot {self.name} still has live views "
                "(drop engines/arrays built from it before close())"
            ) from None
        self._closed = True
        _OWNED.pop(self.name, None)
        _ATTACHED.pop(self.name, None)

    def unlink(self) -> None:
        """Remove the segment name from the OS (owner's final release).

        Safe to call after :meth:`close`; idempotent if the name is
        already gone.  Existing mappings in other processes stay valid
        until they close.
        """
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "GridSnapshot":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
        if self._owner and os.getpid() == self._owner_pid:
            self.unlink()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown order
        try:
            if not self._closed:
                self._views.clear()
                self._segment.close()
                if self._owner and os.getpid() == self._owner_pid:
                    self._segment.unlink()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("owner" if self._owner else "attached")
        return (
            f"GridSnapshot({self.name!r}, n={self.n}, "
            f"nbytes={self.nbytes}, {state})"
        )
