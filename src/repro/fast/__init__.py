"""Flat-array construction core (ROADMAP item 2).

``repro.fast`` re-implements the Fig. 3 construction protocol over flat
integer state — packed-int paths, index-array routing tables, CSR
snapshots — so grids of 100k–1M peers can be built at an order of
magnitude higher exchange throughput than the object core.  Two engines
share the flat representation:

:class:`ArrayGridBuilder` (strict)
    Drop-in twin of :class:`repro.sim.builder.GridBuilder`, *bit
    identical* to the object core: same RNG draw sequence, same case
    counters, same convergence trajectory (verified by
    ``tests/fast/test_equivalence.py``).
:class:`BatchGridBuilder` (vectorized)
    Batched-round numpy engine — deterministic under a seed and
    statistically equivalent, an order of magnitude faster, and (in
    gridless mode) memory-lean enough for 100k–1M peers.

Entry points:

:class:`ArrayGrid`
    The flat grid state plus the ``from_pgrid`` / ``to_pgrid`` /
    ``write_back`` bridge to the object core.
:class:`ArrayExchangeEngine`
    The compiled exchange kernel (closure over the flat arrays).
"""

from repro.fast.arraygrid import ArrayGrid
from repro.fast.batch import BatchGridBuilder
from repro.fast.builder import ArrayGridBuilder
from repro.fast.engine import ArrayExchangeEngine
from repro.fast.mem import grid_memory_report, peak_rss_bytes, shared_memory_report
from repro.fast.query import (
    BatchQueryEngine,
    BatchRangeResult,
    BatchReachResult,
    BatchReadResult,
    BatchSearchResult,
)
from repro.fast.rngbuf import HAVE_NUMPY, BufferedReader, DirectReader, reader_for
from repro.fast.snapshot import GridSnapshot, SnapshotHandle, SnapshotRef

__all__ = [
    "ArrayGrid",
    "ArrayGridBuilder",
    "ArrayExchangeEngine",
    "BatchGridBuilder",
    "BatchQueryEngine",
    "BatchRangeResult",
    "BatchReachResult",
    "BatchReadResult",
    "BatchSearchResult",
    "BufferedReader",
    "DirectReader",
    "GridSnapshot",
    "SnapshotHandle",
    "SnapshotRef",
    "reader_for",
    "HAVE_NUMPY",
    "grid_memory_report",
    "peak_rss_bytes",
    "shared_memory_report",
]
