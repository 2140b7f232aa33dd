"""The packed grid layout and the object-core bridge.

One grid's §2 access structure — a path, per-level references and leaf
index entries per peer — as nine numpy arrays.  The batch builder builds
in this layout, the batch query plane reads it, and a
:class:`~repro.fast.snapshot.GridSnapshot` copies it verbatim into one
shared-memory segment:

========================  =========  =======================================
field                     dtype      shape
========================  =========  =======================================
``path_bits``             int64      ``(n,)`` packed MSB-first paths
                                     (``"011"`` → ``0b011``)
``path_len``              int64      ``(n,)``
``refs``                  int32      ``(n * maxl, refmax)``: row
                                     ``i * maxl + l - 1`` holds peer *i*'s
                                     level-``l`` references in
                                     :class:`~repro.core.routing.RoutingTable`
                                     order, ``-1`` padded
``ref_len``               int16      ``(n * maxl,)`` references per row
``table_depth``           int64      ``(n,)`` materialized routing levels
``addresses``             int64      ``(n,)`` dense index -> address
``buddy_offsets``         int64      ``(n + 1,)`` buddy CSR offsets
``buddy_values``          int64      buddy CSR values, sorted per peer
``store``                 int64      ``(entries, 6)`` rows of
                                     ``(peer, key bits, key len, holder,
                                     version, deleted)`` in
                                     :func:`store_order`
========================  =========  =======================================

Peers are dense indices ``0..n-1`` into the ascending address list;
references and buddies are stored as dense indices, store holders as
addresses.  Reference order survives the bridge bit-for-bit (it feeds
future ``rng.sample`` draws); ``table_depth`` separates "level exists
but is empty" from "level never touched", which ``RoutingTable`` keeps.
Leaf *items* (payload objects) are not part of the layout.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.config import PGridConfig
from repro.core.grid import AlwaysOnline
from repro.core.routing import RoutingTable

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.grid import PGrid

__all__ = ["FIELDS", "HAVE_NUMPY", "ArrayGrid"]

HAVE_NUMPY = _np is not None

#: The layout's fields and dtypes, in segment order.
FIELDS = {
    "path_bits": "int64",
    "path_len": "int64",
    "refs": "int32",
    "ref_len": "int16",
    "table_depth": "int64",
    "addresses": "int64",
    "buddy_offsets": "int64",
    "buddy_values": "int64",
    "store": "int64",
}


def buddy_csr(owner, values, n: int):
    """Buddy pairs ``(owner[k], values[k])`` → CSR ``(offsets, values)``
    int64 arrays with sorted rows: peer *p*'s buddies are
    ``values[offsets[p]:offsets[p + 1]]``."""
    offsets = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(owner, minlength=n), out=offsets[1:])
    return offsets, values[_np.lexsort((values, owner))]


def store_order(rows):
    """Permutation sorting ``store`` rows by ``(peer, key bits, key len,
    holder)``: the layout's order, so one binary search per peer finds a
    slot."""
    return _np.lexsort(rows[:, 3::-1].T)


def _dense(index, addresses: list[int]):
    """Addresses → positions in the ascending *index*, plus a mask of the
    ones *index* does not hold."""
    values = _np.asarray(addresses, dtype=_np.int64)
    pos = _np.minimum(_np.searchsorted(index, values), len(index) - 1)
    return pos, index[pos] != values


class ArrayGrid:
    """One grid in the packed layout (see the module docstring).

    *arrays* maps every name in :data:`FIELDS` to its array; they are
    held, not copied, so a grid may sit over a builder's working state
    or a snapshot's read-only segment.  ``rng`` and ``online_oracle``
    are what :meth:`BatchQueryEngine.from_arraygrid
    <repro.fast.query.BatchQueryEngine.from_arraygrid>` draws its default
    seed from and reads its default ``p_online`` off.
    """

    __slots__ = ("config", "rng", "online_oracle", *FIELDS)

    def __init__(
        self,
        config: PGridConfig,
        arrays: Mapping[str, Any],
        *,
        rng: random.Random | None = None,
        online_oracle: Any = None,
    ) -> None:
        missing = [field for field in FIELDS if field not in arrays]
        if missing:
            raise ValueError(f"grid arrays missing fields: {missing}")
        self.config = config
        self.rng = rng or random.Random()
        self.online_oracle = online_oracle or AlwaysOnline()
        for field in FIELDS:
            setattr(self, field, arrays[field])

    @property
    def n(self) -> int:
        return len(self.path_bits)

    def __len__(self) -> int:
        return self.n

    # -- bridge: object core -> layout ------------------------------------------------

    @classmethod
    def from_pgrid(cls, grid: "PGrid") -> "ArrayGrid":
        """Pack *grid* into the layout in one pass (shares its config, RNG
        and online oracle).

        Raises :class:`ValueError` on dangling routing references or
        buddies — repair membership first; the layout models a fixed
        population.
        """
        config = grid.config
        maxl = config.maxl
        refmax = config.refmax
        addresses = grid.addresses()
        n = len(addresses)
        bits = [0] * n
        lengths = [0] * n
        depth = [0] * n
        counts = [0] * (n * maxl)
        ref_addresses: list[int] = []
        buddy_owner: list[int] = []
        buddy_addresses: list[int] = []
        store: list[tuple[int, int, int, int, int, bool]] = []
        for i, address in enumerate(addresses):
            peer = grid.peer(address)
            path = peer.path
            if path:
                bits[i] = int(path, 2)
                lengths[i] = len(path)
            levels = peer.routing.to_lists()
            if len(levels) > maxl:
                raise ValueError(
                    f"peer {address}: routing depth {len(levels)} exceeds maxl={maxl}"
                )
            depth[i] = len(levels)
            row = i * maxl
            for level_refs in levels:
                counts[row] = len(level_refs)
                ref_addresses.extend(level_refs)
                row += 1
            if peer.buddies:
                buddy_owner.extend([i] * len(peer.buddies))
                buddy_addresses.extend(peer.buddies)
            for ref in peer.store.iter_refs():
                key = ref.key
                store.append(
                    (i, int(key, 2) if key else 0, len(key), ref.holder, ref.version,
                     ref.deleted)
                )

        index = _np.asarray(addresses, dtype=_np.int64)
        ref_len = _np.asarray(counts, dtype=_np.int16)
        per_row = ref_len.astype(_np.int64)
        ends = _np.cumsum(per_row)
        slots, dangling = _dense(index, ref_addresses)
        if dangling.any():
            at = int(_np.argmax(dangling))
            row = int(_np.searchsorted(ends, at, side="right"))
            raise ValueError(
                f"peer {addresses[row // maxl]}: dangling routing ref "
                f"{ref_addresses[at]} at level {row % maxl + 1}; "
                "repair before array construction"
            )
        refs = _np.full((n * maxl, refmax), -1, dtype=_np.int32)
        rows = _np.repeat(_np.arange(n * maxl), per_row)
        cols = _np.arange(len(slots)) - _np.repeat(ends - per_row, per_row)
        refs[rows, cols] = slots

        buddies, dangling = _dense(index, buddy_addresses)
        if dangling.any():
            at = int(_np.argmax(dangling))
            raise ValueError(
                f"peer {addresses[buddy_owner[at]]}: dangling buddy {buddy_addresses[at]}"
            )
        buddy_offsets, buddy_values = buddy_csr(
            _np.asarray(buddy_owner, dtype=_np.int64), buddies, n
        )
        store_rows = _np.array(store, dtype=_np.int64).reshape(-1, 6)
        return cls(
            config,
            {
                "path_bits": _np.asarray(bits, dtype=_np.int64),
                "path_len": _np.asarray(lengths, dtype=_np.int64),
                "refs": refs,
                "ref_len": ref_len,
                "table_depth": _np.asarray(depth, dtype=_np.int64),
                "addresses": index,
                "buddy_offsets": buddy_offsets,
                "buddy_values": buddy_values,
                "store": store_rows[store_order(store_rows)],
            },
            rng=grid.rng,
            online_oracle=grid.online_oracle,
        )

    # -- bridge: layout -> object core ------------------------------------------------

    def write_back(self, grid: "PGrid") -> None:
        """Restore paths, routing-reference order and buddies into *grid*'s
        peer objects, in place; stores are left alone.

        *grid* must hold exactly this grid's peer population.
        """
        addresses = self.addresses.tolist()
        if grid.addresses() != addresses:
            raise ValueError("peer populations differ; cannot write back")
        maxl = self.config.maxl
        refmax = self.config.refmax
        bits = self.path_bits.tolist()
        lengths = self.path_len.tolist()
        depth = self.table_depth.tolist()
        counts = self.ref_len.tolist()
        refs = self.refs.tolist()
        offsets = self.buddy_offsets.tolist()
        buddies = self.buddy_values.tolist()
        for i, address in enumerate(addresses):
            peer = grid.peer(address)
            length = lengths[i]
            peer.set_path(format(bits[i], f"0{length}b") if length else "")
            rows = range(i * maxl, i * maxl + depth[i])
            peer.routing = RoutingTable.from_lists(
                refmax,
                ([addresses[j] for j in refs[row][: counts[row]]] for row in rows),
            )
            peer.buddies.update(addresses[j] for j in buddies[offsets[i] : offsets[i + 1]])

    def __repr__(self) -> str:
        return f"ArrayGrid(N={self.n}, config={self.config})"
