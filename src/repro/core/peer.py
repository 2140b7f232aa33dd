"""Peer state (paper §2).

A peer ``a`` maintains the sequence ``(p_1, R_1) ... (p_n, R_n)`` — its
*path* plus one bounded reference set per level — together with the
leaf-level data index ``D`` and (for update strategy 3 of §3) a *buddy list*
of peers known to share its exact path.
"""

from __future__ import annotations

from typing import Iterable

from repro.core import keys as keyspace
from repro.core.routing import RoutingTable
from repro.core.storage import DataStore
from repro.errors import InvalidKeyError

Address = int


class Peer:
    """One participant of the P-Grid network.

    The peer object is pure state; the exchange/search/update engines
    manipulate it.  ``online`` is the peer's *current* availability as
    decided by the active churn model (the paper models availability as a
    probability ``online: P -> [0, 1]``; engines consult the churn model
    rather than this flag when a probabilistic model is in force).

    ``epoch`` is the owning grid's one-element path-change counter; every
    path change bumps it, which is all that keeps
    :meth:`PGrid.directory <repro.core.grid.PGrid.directory>` fresh.
    """

    __slots__ = ("address", "_path", "_epoch", "routing", "store", "buddies", "online")

    def __init__(
        self, address: Address, refmax: int, epoch: list[int] | None = None
    ) -> None:
        self.address = address
        self._path = keyspace.EMPTY_PATH
        self._epoch = [0] if epoch is None else epoch
        self.routing = RoutingTable(refmax)
        self.store = DataStore()
        self.buddies: set[Address] = set()
        self.online = True

    # -- path ----------------------------------------------------------------

    @property
    def path(self) -> str:
        """The binary path the peer is currently responsible for."""
        return self._path

    @property
    def depth(self) -> int:
        """Length of the peer's path."""
        return len(self._path)

    def prefix(self, level: int) -> str:
        """The paper's ``prefix(i, a)`` — first *level* bits of the path."""
        if not 0 <= level <= len(self._path):
            raise IndexError(
                f"prefix level {level} out of range for path {self._path!r}"
            )
        return self._path[:level]

    def extend_path(self, bit: str) -> None:
        """Append one bit to the path (specialization step of Fig. 3).

        Specializing invalidates the buddy list: former buddies now share
        only a proper prefix.
        """
        if bit not in ("0", "1"):
            raise InvalidKeyError(bit)
        self._path += bit
        self._epoch[0] += 1
        self.buddies.clear()

    def set_path(self, path: str) -> None:
        """Force the path (snapshot loading / tests); clears buddies."""
        keyspace.validate_key(path)
        self._path = path
        self._epoch[0] += 1
        self.buddies.clear()

    def responsible_for(self, query: str) -> bool:
        """True iff the peer's interval covers *query* (prefix relation)."""
        return keyspace.in_prefix_relation(self._path, query)

    # -- buddies ---------------------------------------------------------------

    def add_buddy(self, address: Address) -> None:
        """Record a peer known to hold the same path."""
        if address != self.address:
            self.buddies.add(address)

    def merge_buddies(self, addresses: Iterable[Address]) -> None:
        """Record several buddies at once."""
        for address in addresses:
            self.add_buddy(address)

    # -- storage metrics --------------------------------------------------------

    def index_footprint(self) -> int:
        """Total index entries held: routing refs + leaf refs (§4 metric)."""
        return self.routing.total_refs() + self.store.ref_count

    def __repr__(self) -> str:
        return (
            f"Peer(addr={self.address}, path={self._path!r}, "
            f"refs={self.routing.total_refs()}, buddies={len(self.buddies)})"
        )
