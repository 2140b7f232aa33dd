"""Memory accounting for both grid representations.

The real limiter for 1M-peer simulation is resident memory, not CPU, so
every bench run reports:

* **peak RSS** of the process (``resource.getrusage``),
* **estimated per-peer bytes** of the object core (peers + routing lists
  + path strings + stores).  An estimate, not exact accounting: CPython
  interns small ints and shares string storage, so treat it as an upper
  bound for relative comparison;
* **shared-memory bytes** of the packed layout's snapshot segments —
  the exact size of the layout itself.
"""

from __future__ import annotations

import sys
from typing import Any

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = [
    "peak_rss_bytes",
    "object_grid_bytes",
    "grid_memory_report",
    "shared_memory_report",
]

_INT_BOX = 28  # sys.getsizeof of a one-digit int


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, in bytes (None if unknown)."""
    if _resource is None:  # pragma: no cover - non-POSIX platforms
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024  # Linux reports kilobytes


def object_grid_bytes(grid: Any) -> int:
    """Estimated resident bytes of an object-core ``PGrid``'s peer state."""
    total = sys.getsizeof(grid._peers)
    for peer in grid._peers.values():
        total += object.__sizeof__(peer)  # slots header
        total += sys.getsizeof(peer.path)
        total += _INT_BOX  # address box
        routing = peer.routing
        total += object.__sizeof__(routing)
        total += sys.getsizeof(routing._levels)
        for slot in routing._levels:
            total += sys.getsizeof(slot) + _INT_BOX * len(slot)
        total += sys.getsizeof(peer.buddies) + _INT_BOX * len(peer.buddies)
        store = peer.store
        total += object.__sizeof__(store)
        total += sys.getsizeof(store._items)
        total += sys.getsizeof(store._index)
        for holders in store._index.values():
            total += sys.getsizeof(holders) + 72 * len(holders)  # DataRef objects
    return total


def shared_memory_report(snapshot: Any = None) -> dict[str, Any] | None:
    """Shared-memory segment accounting: ``{"segments", "bytes_total",
    "details"}`` or ``None`` when nothing is mapped.

    Segment bytes live in ``/dev/shm``-backed pages shared across every
    attached process — they are *not* part of any process's heap, which
    is why :func:`grid_memory_report` reports them separately from the
    object core's heap estimate.  Covers every segment this process maps
    (owner or attached via :func:`repro.fast.snapshot.resolve`), plus
    *snapshot* if given and not already registered.
    """
    try:
        from repro.fast import snapshot as snapmod
    except ImportError:  # pragma: no cover - snapshot module unavailable
        return None
    details = snapmod.attached_segments()
    if snapshot is not None and not snapshot.closed:
        if all(entry["name"] != snapshot.name for entry in details):
            details.append(
                {
                    "name": snapshot.name,
                    "bytes": snapshot.nbytes,
                    "role": "owner" if snapshot.owner else "attached",
                }
            )
    if not details:
        return None
    return {
        "segments": len(details),
        "bytes_total": sum(entry["bytes"] for entry in details),
        "details": details,
    }


def grid_memory_report(pgrid: Any = None, snapshot: Any = None) -> dict[str, Any]:
    """Peak RSS plus the object core's per-peer heap estimate and the
    packed layout's shared-memory bytes, for whichever are given.

    The heap estimate (``object_core``) and segment bytes
    (``shared_memory``) are reported separately: segments are off-heap
    pages shared across processes, so counting them as heap would
    double-charge every attached worker.
    """
    report: dict[str, Any] = {"peak_rss_bytes": peak_rss_bytes()}
    if pgrid is not None and len(pgrid):
        total = object_grid_bytes(pgrid)
        report["object_core"] = {
            "peers": len(pgrid),
            "bytes_total": total,
            "bytes_per_peer": round(total / len(pgrid), 1),
        }
    shared = shared_memory_report(snapshot)
    if shared is not None:
        report["shared_memory"] = shared
    return report
