"""Flat integer grid state and the object-core bridge.

The whole grid lives in a handful of contiguous Python lists — the
bridge format that :class:`~repro.fast.batch.BatchGridBuilder` seeds its
numpy buffers from and that the snapshot export packs into its
read-only layouts:

``path_bits[i]`` / ``path_len[i]``
    Peer *i*'s path as a packed MSB-first integer plus its bit length
    (``path "011"`` → ``bits 0b011, len 3``).
``refs`` / ``ref_len``
    All routing tables in one buffer.  The slot for peer *i*, level
    ``l`` (1-based) starts at ``(i*maxl + l - 1) * refmax`` and holds
    ``ref_len[i*maxl + l - 1]`` peer indices, insertion-ordered exactly
    like :class:`repro.core.routing.RoutingTable` (reference order feeds
    future RNG draws, so it must survive the bridge bit-for-bit).
``table_depth[i]``
    Number of *materialized* levels — distinguishes "level exists but is
    empty" from "level never touched", which ``RoutingTable.to_lists()``
    round-trips observably.
``buddies``
    Sparse ``{peer index: set of peer indices}`` — replica/buddy sets
    only exist once paths complete, so a dense array would waste the
    whole construction phase.  :func:`buddy_csr` exports the CSR
    (offsets + values) form the snapshot and the batch query plane read.
``store_refs`` / ``store_items``
    Sparse leaf-index sidecars keyed by packed ``(bits, length)`` keys,
    carried across the bridge for the query plane and the snapshot
    (the batch builder requires them empty).

Addresses: internally everything is a dense index ``0..n-1`` into the
sorted address list; :meth:`from_pgrid` / :meth:`to_pgrid` translate at
the boundary.  RNG draws operate on positions, so the translation cannot
perturb the draw stream.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Any

from repro.core.config import PGridConfig
from repro.core.grid import AlwaysOnline
from repro.core.routing import RoutingTable
from repro.core.storage import DataItem, DataRef, DataStore

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.grid import PGrid

__all__ = ["HAVE_NUMPY", "ArrayGrid"]

HAVE_NUMPY = _np is not None

Address = int


def _pack_key(key: str) -> tuple[int, int]:
    """Binary-string key → ``(packed bits, length)``."""
    return (int(key, 2) if key else 0, len(key))


def _unpack_key(bits: int, length: int) -> str:
    """``(packed bits, length)`` → binary-string key."""
    return format(bits, f"0{length}b") if length else ""


def buddy_csr(buddies: dict[int, set[int]] | None, n: int):
    """Sparse ``{peer: set of peers}`` → CSR ``(offsets, values)`` int64
    arrays with sorted rows: peer *p*'s buddies are
    ``values[offsets[p]:offsets[p + 1]]`` (the snapshot's
    ``buddy_offsets`` / ``buddy_values``)."""
    buddies = buddies or {}
    sizes = _np.fromiter(map(len, buddies.values()), dtype=_np.int64, count=len(buddies))
    owner = _np.repeat(_np.fromiter(buddies, dtype=_np.int64, count=len(buddies)), sizes)
    values = _np.fromiter(
        chain.from_iterable(buddies.values()), dtype=_np.int64, count=int(sizes.sum())
    )
    offsets = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(owner, minlength=n), out=offsets[1:])
    return offsets, values[_np.lexsort((values, owner))]


def store_order(rows):
    """Permutation sorting ``store`` rows by ``(peer, key bits, key len,
    holder)``: the order the snapshot exports and the batch query plane's
    side store keeps, so one binary search per peer finds a slot."""
    return _np.lexsort(rows[:, 3::-1].T)


class ArrayGrid:
    """The grid as flat integer state (see module docstring for layout)."""

    __slots__ = (
        "config",
        "rng",
        "online_oracle",
        "n",
        "maxl",
        "refmax",
        "addresses",
        "addr_index",
        "path_bits",
        "path_len",
        "refs",
        "ref_len",
        "table_depth",
        "buddies",
        "store_refs",
        "store_items",
    )

    def __init__(
        self,
        n: int,
        config: PGridConfig | None = None,
        *,
        rng: random.Random | None = None,
        addresses: list[Address] | None = None,
        online_oracle: Any = None,
    ) -> None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        config = config or PGridConfig()
        if addresses is None:
            addresses = list(range(n))
        elif len(addresses) != n:
            raise ValueError(f"{len(addresses)} addresses for {n} peers")
        self.config = config
        self.rng = rng or random.Random()
        self.online_oracle = online_oracle or AlwaysOnline()
        self.n = n
        self.maxl = config.maxl
        self.refmax = config.refmax
        self.addresses = addresses
        self.addr_index = {address: i for i, address in enumerate(addresses)}
        self.path_bits = [0] * n
        self.path_len = [0] * n
        self.refs = [0] * (n * config.maxl * config.refmax)
        self.ref_len = [0] * (n * config.maxl)
        self.table_depth = [0] * n
        self.buddies: dict[int, set[int]] = {}
        self.store_refs: dict[int, dict[tuple[int, int], dict[Address, tuple[int, bool]]]] = {}
        self.store_items: dict[int, list[DataItem]] = {}

    def __len__(self) -> int:
        return self.n

    # -- bridge: object core -> arrays --------------------------------------------

    @classmethod
    def from_pgrid(cls, grid: "PGrid") -> "ArrayGrid":
        """Snapshot *grid* into flat state (shares its config and RNG).

        Raises :class:`ValueError` on dangling routing references or
        buddies — repair membership first; the array core models a fixed
        population.
        """
        addresses = grid.addresses()
        agrid = cls(
            len(addresses),
            grid.config,
            rng=grid.rng,
            addresses=addresses,
            online_oracle=grid.online_oracle,
        )
        index = agrid.addr_index
        maxl = agrid.maxl
        refmax = agrid.refmax
        refs = agrid.refs
        ref_len = agrid.ref_len
        for i, address in enumerate(addresses):
            peer = grid.peer(address)
            path = peer.path
            agrid.path_bits[i] = int(path, 2) if path else 0
            agrid.path_len[i] = len(path)
            levels = peer.routing.to_lists()
            if len(levels) > maxl:
                raise ValueError(
                    f"peer {address}: routing depth {len(levels)} exceeds maxl={maxl}"
                )
            agrid.table_depth[i] = len(levels)
            for level0, level_refs in enumerate(levels):
                base = (i * maxl + level0) * refmax
                for j, ref_address in enumerate(level_refs):
                    try:
                        refs[base + j] = index[ref_address]
                    except KeyError:
                        raise ValueError(
                            f"peer {address}: dangling routing ref {ref_address} "
                            f"at level {level0 + 1}; repair before array construction"
                        ) from None
                ref_len[i * maxl + level0] = len(level_refs)
            if peer.buddies:
                try:
                    agrid.buddies[i] = {index[b] for b in peer.buddies}
                except KeyError as exc:
                    raise ValueError(
                        f"peer {address}: dangling buddy {exc.args[0]}"
                    ) from None
            entries: dict[tuple[int, int], dict[Address, tuple[int, bool]]] = {}
            for ref in peer.store.iter_refs():
                holders = entries.setdefault(_pack_key(ref.key), {})
                holders[ref.holder] = (ref.version, ref.deleted)
            if entries:
                agrid.store_refs[i] = entries
            items = list(peer.store.iter_items())
            if items:
                agrid.store_items[i] = items
        return agrid

    @classmethod
    def from_buffers(
        cls,
        *,
        n: int,
        config: PGridConfig,
        path_bits,
        path_len,
        refs2d,
        ref_len,
        table_depth,
        addresses: list[Address],
        buddies: dict[int, set[int]],
        store_refs: dict[int, dict[tuple[int, int], dict[Address, tuple[int, bool]]]]
        | None = None,
        rng: random.Random | None = None,
        online_oracle: Any = None,
    ) -> "ArrayGrid":
        """Wrap pre-packed buffers (typically a shared-memory
        :class:`~repro.fast.snapshot.GridSnapshot`) as a query view.

        No copies: ``refs2d`` is the ``(n * maxl, refmax)`` slab with
        ``-1`` padding — its flattened form is layout-identical to the
        list representation because reads never pass ``ref_len``.  The
        numpy buffers may be read-only; treat the resulting grid as
        immutable (run queries and statistics, not exchanges) and note
        that ``store_items`` is empty by construction.
        """
        grid = object.__new__(cls)
        grid.config = config
        grid.rng = rng or random.Random()
        grid.online_oracle = online_oracle or AlwaysOnline()
        grid.n = n
        grid.maxl = config.maxl
        grid.refmax = config.refmax
        grid.addresses = addresses
        grid.addr_index = {address: i for i, address in enumerate(addresses)}
        grid.path_bits = path_bits
        grid.path_len = path_len
        grid.refs = refs2d.reshape(-1)
        grid.ref_len = ref_len
        grid.table_depth = table_depth
        grid.buddies = buddies
        grid.store_refs = store_refs if store_refs is not None else {}
        grid.store_items = {}
        return grid

    # -- bridge: arrays -> object core --------------------------------------------

    def write_back(self, grid: "PGrid") -> None:
        """Copy the flat state back into *grid*'s peer objects, in place.

        *grid* must hold exactly this grid's peer population.  Paths and
        routing-reference order are restored bit-exactly (reference order
        feeds future ``rng.sample`` draws); store entries are restored
        content-exactly (the object store's internal dict order never
        reaches results or RNG — every query output is sorted).
        """
        if grid.addresses() != self.addresses:
            raise ValueError("peer populations differ; cannot write back")
        addresses = self.addresses
        maxl = self.maxl
        refmax = self.refmax
        refs = self.refs
        ref_len = self.ref_len
        for i, address in enumerate(addresses):
            peer = grid.peer(address)
            peer.set_path(_unpack_key(self.path_bits[i], self.path_len[i]))
            table = RoutingTable(refmax)
            for level0 in range(self.table_depth[i]):
                count = ref_len[i * maxl + level0]
                base = (i * maxl + level0) * refmax
                table.set_refs(
                    level0 + 1,
                    [addresses[j] for j in refs[base : base + count]],
                )
            peer.routing = table
            buddy_set = self.buddies.get(i)
            if buddy_set:
                peer.buddies.update(addresses[j] for j in buddy_set)
            store = DataStore()
            for item in self.store_items.get(i, ()):
                store.store_item(item)
            for (bits, length), holders in self.store_refs.get(i, {}).items():
                key = _unpack_key(bits, length)
                for holder, (version, deleted) in holders.items():
                    store.add_ref(
                        DataRef(key=key, holder=holder, version=version, deleted=deleted)
                    )
            peer.store = store

    def to_pgrid(
        self,
        *,
        rng: random.Random | None = None,
        online_oracle: Any = None,
    ) -> "PGrid":
        """Materialize a fresh object-core :class:`PGrid` from the arrays.

        By default the new grid *shares* this grid's ``random.Random`` (so
        a search on the bridged grid consumes the same stream the object
        core would); pass ``rng`` for an independent twin.
        """
        from repro.core.grid import PGrid

        grid = PGrid(
            self.config,
            rng=rng if rng is not None else self.rng,
            online_oracle=online_oracle or self.online_oracle,
        )
        for address in self.addresses:
            grid.add_peer(address)
        self.write_back(grid)
        return grid

    # -- paths ---------------------------------------------------------------------

    def path_str(self, i: int) -> str:
        """Peer *i*'s path as a binary string."""
        return _unpack_key(self.path_bits[i], self.path_len[i])

    # -- structural statistics (PGrid-equivalent, computed on the arrays) ----------

    def average_path_length(self) -> float:
        """The §5.1 convergence measure over the flat state."""
        if not self.n:
            return 0.0
        return sum(self.path_len) / self.n

    def path_length_histogram(self) -> Counter[int]:
        """Number of peers per path length."""
        return Counter(self.path_len)

    def replica_groups(self) -> dict[str, list[Address]]:
        """Map each held path to the sorted addresses holding it exactly."""
        groups: dict[tuple[int, int], list[Address]] = {}
        addresses = self.addresses
        bits = self.path_bits
        lens = self.path_len
        for i in range(self.n):
            groups.setdefault((bits[i], lens[i]), []).append(addresses[i])
        return {_unpack_key(b, ln): addrs for (b, ln), addrs in groups.items()}

    def replication_histogram(self) -> Counter[int]:
        """Fig. 4's distribution, identical to ``PGrid.replication_histogram``."""
        sizes: Counter[tuple[int, int]] = Counter(zip(self.path_bits, self.path_len))
        return Counter(sizes[key] for key in zip(self.path_bits, self.path_len))

    def average_replication(self) -> float:
        """Mean replication factor over peers."""
        if not self.n:
            return 0.0
        histogram = self.replication_histogram()
        return sum(factor * count for factor, count in histogram.items()) / self.n

    def total_routing_refs(self) -> int:
        """Sum of routing references over all peers."""
        return sum(self.ref_len)

    # -- exported layouts (snapshot segment / batch query plane) ---------------------

    def routing_slab(self):
        """Routing tables as the ``(n * maxl, refmax)`` int32 slab the
        snapshot and the batch query plane read: row ``i*maxl + l - 1``
        holds peer *i*'s level-``l`` references, ``-1`` past ``ref_len``."""
        counts = _np.asarray(self.ref_len, dtype=_np.int64)
        if not counts.any():  # a fresh grid (construction input): nothing to convert
            return _np.full((len(counts), self.refmax), -1, dtype=_np.int32)
        slab = _np.asarray(self.refs, dtype=_np.int32).reshape(len(counts), self.refmax)
        return _np.where(_np.arange(self.refmax) < counts[:, None], slab, _np.int32(-1))

    def store_rows(self):
        """Leaf-store refs as ``(entries, 6)`` int64 rows ``(peer, key bits,
        key len, holder, version, deleted)`` in :func:`store_order` — the
        snapshot's ``store`` layout, tombstones included."""
        rows = _np.array(
            [
                (peer, bits, length, holder, version, deleted)
                for peer, entries in self.store_refs.items()
                for (bits, length), holders in entries.items()
                for holder, (version, deleted) in holders.items()
            ],
            dtype=_np.int64,
        ).reshape(-1, 6)
        return rows[store_order(rows)]

    # -- memory accounting -----------------------------------------------------------

    def memory_bytes(self) -> int:
        """Estimated resident bytes of the flat state (containers + boxes).

        Python lists store pointers to boxed ints; the estimate charges
        each occupied slot one box.  Upper bound — CPython interns small
        ints and shares repeated references.
        """
        total = (
            sys.getsizeof(self.path_bits)
            + sys.getsizeof(self.path_len)
            + sys.getsizeof(self.refs)
            + sys.getsizeof(self.ref_len)
            + sys.getsizeof(self.table_depth)
            + sys.getsizeof(self.addresses)
            + sys.getsizeof(self.addr_index)
        )
        box = 28  # sys.getsizeof(int) for one-digit ints
        occupied = self.n * 4 + sum(self.ref_len) + len(self.addr_index)
        total += box * occupied
        for row in self.buddies.values():
            total += sys.getsizeof(row) + box * len(row)
        total += sys.getsizeof(self.buddies)
        return total

    def __repr__(self) -> str:
        return (
            f"ArrayGrid(N={self.n}, avg_depth={self.average_path_length():.2f}, "
            f"config={self.config})"
        )
