"""Flat-array construction core (ROADMAP item 2).

``repro.fast`` re-implements the Fig. 3 construction protocol over flat
integer state — packed-int paths, index-array routing tables, CSR
snapshots — so grids of 100k–1M peers can be built at an order of
magnitude higher exchange throughput than the object core.
:class:`repro.sim.builder.GridBuilder` stays the reference; this package
holds the scale path:

:class:`BatchGridBuilder` (vectorized)
    Batched-round numpy engine — deterministic under a seed and
    statistically equivalent, an order of magnitude faster, and (in
    gridless mode) memory-lean enough for 100k–1M peers.
:class:`ArrayGrid`
    The flat grid state plus the ``from_pgrid`` / ``to_pgrid`` /
    ``write_back`` bridge to the object core.
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
