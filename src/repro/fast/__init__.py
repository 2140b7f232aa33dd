"""Flat-array performance core.

``repro.fast`` holds one grid's §2 access structure in a single packed
numpy layout — packed-int paths, an index-array routing slab, a buddy
CSR and sorted store rows — so grids of 100k–1M peers can be built and
queried at an order of magnitude higher throughput than the object
core.  :class:`repro.sim.builder.GridBuilder` stays the reference:

:class:`ArrayGrid`
    The layout, plus the ``from_pgrid`` / ``write_back`` bridge to the
    object core.
:class:`BatchGridBuilder`
    Batched-round numpy construction whose state is an ``ArrayGrid`` —
    deterministic under a seed and statistically equivalent, an order
    of magnitude faster, and memory-lean enough for 100k–1M peers.
:class:`BatchQueryEngine`
    The vectorized query plane, reading an ``ArrayGrid``.
:class:`GridSnapshot`
    The layout copied into shared memory for many processes.
"""

from repro.fast.arraygrid import HAVE_NUMPY, ArrayGrid
from repro.fast.batch import BatchGridBuilder
from repro.fast.mem import grid_memory_report, peak_rss_bytes, shared_memory_report
from repro.fast.query import (
    BatchQueryEngine,
    BatchRangeResult,
    BatchReachResult,
    BatchReadResult,
    BatchSearchResult,
)
from repro.fast.snapshot import GridSnapshot, SnapshotHandle, SnapshotRef

__all__ = [
    "ArrayGrid",
    "BatchGridBuilder",
    "BatchQueryEngine",
    "BatchRangeResult",
    "BatchReachResult",
    "BatchReadResult",
    "BatchSearchResult",
    "GridSnapshot",
    "SnapshotHandle",
    "SnapshotRef",
    "HAVE_NUMPY",
    "grid_memory_report",
    "peak_rss_bytes",
    "shared_memory_report",
]
