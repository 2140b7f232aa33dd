"""Shared-memory grid snapshots: one grid build, many processes.

A :class:`GridSnapshot` copies an :class:`~repro.fast.arraygrid.ArrayGrid`
— paths, the routing slab, the buddy CSR, the leaf-store table — into a
single named :mod:`multiprocessing.shared_memory` segment, plus a
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
The segment holds the packed layout of :mod:`repro.fast.arraygrid` —
its nine :data:`~repro.fast.arraygrid.FIELDS` back-to-back, 16-byte
aligned, in that order — so :meth:`GridSnapshot.batch_query_engine` is
zero-copy: the engine reads these very arrays, buddies and store
included.  Leaf *items* are not part of the layout; snapshots serve the
query plane, where only index refs matter.

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
from repro.fast.arraygrid import FIELDS, ArrayGrid

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

    Create with :meth:`from_arraygrid`; reconstruct in another process
    with :meth:`attach` or, preferably, ship a :meth:`ref` and let
    :func:`resolve` cache the attachment.  Consume via :meth:`view` (one
    layout field) or :meth:`batch_query_engine` (zero-copy query plane).
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
    def from_arraygrid(
        cls,
        grid: ArrayGrid,
        *,
        p_online: float | None = None,
    ) -> "GridSnapshot":
        """Copy *grid*'s packed layout into a fresh named segment (the
        owner).

        ``p_online`` defaults from the grid's online oracle the same way
        :meth:`BatchQueryEngine.from_arraygrid` does.
        """
        _require_numpy()
        from repro.fast.query import _oracle_p_online

        if p_online is None:
            p_online = _oracle_p_online(grid.online_oracle)
        fields: list[tuple[str, str, tuple[int, ...], int]] = []
        offset = 0
        for field, dtype in FIELDS.items():
            array = getattr(grid, field)
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            fields.append((field, np.dtype(dtype).str, array.shape, offset))
            offset += array.size * np.dtype(dtype).itemsize
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
            n=grid.n,
            nbytes=nbytes,
            config=grid.config,
            p_online=p_online,
            fields=tuple(fields),
        )
        snapshot = cls(handle, segment, owner=True)
        for field, view in snapshot._views.items():
            view.flags.writeable = True
            view[...] = getattr(grid, field)
            view.flags.writeable = False
        _OWNED[handle.name] = snapshot
        return snapshot

    @classmethod
    def from_batch_builder(
        cls,
        builder: "BatchGridBuilder",
        *,
        p_online: float = 1.0,
    ) -> "GridSnapshot":
        """:meth:`from_arraygrid` of a builder's :attr:`~repro.fast.BatchGridBuilder.grid`."""
        return cls.from_arraygrid(builder.grid, p_online=p_online)

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

    # -- consumers ------------------------------------------------------------

    def batch_query_engine(self, *, seed: int) -> "BatchQueryEngine":
        """A :class:`BatchQueryEngine` directly over the shared buffers.

        Every layout array is the segment's pages (zero copy); only the
        address list is built on the heap.  The store is filtered only
        when it holds tombstones;
        :meth:`~BatchQueryEngine.publish_many` copies it before its first
        write and never writes through to the segment.
        The engine's ``p_online`` is the value recorded at export.
        """
        from repro.fast.query import BatchQueryEngine

        return BatchQueryEngine(
            ArrayGrid(self.config, {field: self.view(field) for field in FIELDS}),
            seed=seed,
            p_online=self.p_online,
        )

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
