"""The P-Grid network container.

:class:`PGrid` owns the peer registry, the construction configuration, the
seeded random source shared by the randomized algorithms, and the *online
oracle* (availability model).  It also exposes the structural statistics the
paper's evaluation reports: average path length (convergence measure §5.1),
the replica distribution (Fig. 4), and per-peer storage footprints (§4, §6).

The container is deliberately passive — the algorithms live in
:mod:`repro.core.exchange`, :mod:`repro.core.search` and
:mod:`repro.core.updates`.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Protocol

from repro.core import keys as keyspace
from repro.core.config import PGridConfig
from repro.core.peer import Address, Peer
from repro.core.storage import DataItem, DataRef
from repro.errors import DuplicatePeerError, UnknownPeerError


class OnlineOracle(Protocol):
    """Availability model consulted before any peer-to-peer interaction.

    The paper models availability as a probability ``online: P -> [0, 1]``
    evaluated at contact time; implementations live in
    :mod:`repro.sim.churn`.
    """

    def is_online(self, address: Address) -> bool:
        """Whether the peer at *address* answers a contact attempt now."""
        ...  # pragma: no cover - protocol


class AlwaysOnline:
    """Oracle for failure-free runs (the §5.1 construction experiments)."""

    def is_online(self, address: Address) -> bool:  # noqa: ARG002
        return True


class PathDirectory(NamedTuple):
    """Who holds which path: an immutable snapshot (DESIGN.md §6).

    ``groups`` maps each held path to the address-sorted peers holding it
    exactly, keyed in first-seen order of an address-ordered walk;
    ``paths`` is the same keys sorted.  Valid while ``key`` equals the
    grid's ``(membership_version, path_epoch)``.
    """

    key: tuple[int, int]
    addresses: tuple[Address, ...]
    groups: Mapping[str, tuple[Address, ...]]
    paths: tuple[str, ...]
    max_depth: int


class PGrid:
    """A population of peers plus the shared P-Grid parameters."""

    def __init__(
        self,
        config: PGridConfig | None = None,
        *,
        rng: random.Random | None = None,
        online_oracle: OnlineOracle | None = None,
    ) -> None:
        self.config = config or PGridConfig()
        self.rng = rng or random.Random()
        self.online_oracle: OnlineOracle = online_oracle or AlwaysOnline()
        self._peers: dict[Address, Peer] = {}
        self._next_address = 0
        self._membership_version = 0
        self._path_epoch = [0]  # bumped by every path change of our peers
        self._directory = PathDirectory((-1, -1), (), MappingProxyType({}), (), 0)

    # -- membership -----------------------------------------------------------

    @property
    def membership_version(self) -> int:
        """Monotonic counter bumped on every join/leave.

        Lets consumers that derive state from the peer population (meeting
        schedulers' address lists, the builder's incremental depth) cache
        against the population and revalidate in O(1) instead of re-reading
        all peers on every call.
        """
        return self._membership_version

    def add_peer(self, address: Address | None = None) -> Peer:
        """Create and register a fresh peer; returns it.

        Addresses are auto-assigned unless given explicitly (snapshots).
        """
        if address is None:
            address = self._next_address
        if address in self._peers:
            raise DuplicatePeerError(address)
        peer = Peer(address, self.config.refmax, self._path_epoch)
        self._peers[address] = peer
        self._next_address = max(self._next_address, address + 1)
        self._membership_version += 1
        return peer

    def add_peers(self, count: int) -> list[Peer]:
        """Create *count* fresh peers."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return [self.add_peer() for _ in range(count)]

    def remove_peer(self, address: Address) -> Peer:
        """Unregister *address* and return its final state.

        References held by other peers become dangling — the membership
        engine repairs them lazily (:mod:`repro.core.membership`), exactly
        as a deployed system discovers dead peers only on contact.
        """
        try:
            peer = self._peers.pop(address)
        except KeyError:
            raise UnknownPeerError(address) from None
        self._membership_version += 1
        return peer

    def peer(self, address: Address) -> Peer:
        """Resolve an address (the paper's ``peer(r)``)."""
        try:
            return self._peers[address]
        except KeyError:
            raise UnknownPeerError(address) from None

    def has_peer(self, address: Address) -> bool:
        """Whether *address* is registered."""
        return address in self._peers

    def peers(self) -> Iterator[Peer]:
        """Iterate peers in address order (deterministic)."""
        for address in self.directory().addresses:
            yield self._peers[address]

    def addresses(self) -> list[Address]:
        """Sorted list of all registered addresses (a fresh copy)."""
        return list(self.directory().addresses)

    def directory(self) -> PathDirectory:
        """The current :class:`PathDirectory`, rebuilt only when stale.

        Joins and leaves bump ``membership_version``; every path change of
        a peer this grid created bumps the path epoch.  Revalidation is
        one tuple compare, a rebuild one O(N) pass (plus the address sort
        when membership changed).
        """
        key = (self._membership_version, self._path_epoch[0])
        old = self._directory
        if old.key == key:
            return old
        membership_unchanged = old.key[0] == key[0]
        addresses = old.addresses if membership_unchanged else tuple(sorted(self._peers))
        members: dict[str, list[Address]] = {}
        for address in addresses:
            members.setdefault(self._peers[address].path, []).append(address)
        groups = {path: tuple(group) for path, group in members.items()}
        self._directory = PathDirectory(
            key, addresses, MappingProxyType(groups), tuple(sorted(groups)),
            max(map(len, groups), default=0),
        )
        return self._directory

    def __len__(self) -> int:
        return len(self._peers)

    def __contains__(self, address: object) -> bool:
        return address in self._peers

    # -- availability ------------------------------------------------------------

    def is_online(self, address: Address) -> bool:
        """Consult the availability model for *address*."""
        return self.online_oracle.is_online(address)

    # -- structural statistics (paper §4/§5) --------------------------------------

    def average_path_length(self) -> float:
        """The §5.1 convergence measure ``(1/N) Σ length(path(a))``."""
        if not self._peers:
            return 0.0
        return sum(peer.depth for peer in self._peers.values()) / len(self._peers)

    def path_length_histogram(self) -> Counter[int]:
        """Number of peers per path length."""
        return Counter(peer.depth for peer in self._peers.values())

    def replica_groups(self) -> dict[str, list[Address]]:
        """Map each held path to the sorted addresses holding it exactly."""
        groups = self.directory().groups
        return {path: list(group) for path, group in groups.items()}

    def replication_histogram(self) -> Counter[int]:
        """Fig. 4's distribution: per peer, how many peers share its path.

        The paper plots, for each replication factor r, the number of peers
        whose path is held by exactly r peers (including themselves).
        """
        groups = self.directory().groups
        return Counter(len(groups[peer.path]) for peer in self._peers.values())

    def average_replication(self) -> float:
        """Mean replication factor over peers (paper reports 19.46)."""
        if not self._peers:
            return 0.0
        histogram = self.replication_histogram()
        total = sum(factor * count for factor, count in histogram.items())
        return total / len(self._peers)

    def _responsible_groups(self, query: str) -> Iterator[tuple[Address, ...]]:
        """The replica groups whose path is in prefix relation with *query*."""
        keyspace.validate_key(query)
        directory = self.directory()
        groups = directory.groups
        for depth in range(min(len(query), directory.max_depth) + 1):
            group = groups.get(query[:depth])
            if group is not None:
                yield group
        # Paths that properly extend the query sort directly after it.
        paths = directory.paths
        for index in range(bisect_right(paths, query), len(paths)):
            if not paths[index].startswith(query):
                break
            yield groups[paths[index]]

    def replicas_for_key(self, query: str) -> list[Address]:
        """Every peer responsible for *query* (path in prefix relation).

        This is the ground-truth replica set the §5.2 update experiments
        compare against, address-sorted.
        """
        return sorted(
            address for group in self._responsible_groups(query) for address in group
        )

    def replica_count(self, query: str) -> int:
        """``len(replicas_for_key(query))`` without building the list."""
        return sum(map(len, self._responsible_groups(query)))

    def total_routing_refs(self) -> int:
        """Sum of routing references over all peers (storage metric)."""
        return sum(peer.routing.total_refs() for peer in self._peers.values())

    def max_index_footprint(self) -> int:
        """Largest per-peer index footprint (routing + leaf refs)."""
        if not self._peers:
            return 0
        return max(peer.index_footprint() for peer in self._peers.values())

    # -- data seeding ----------------------------------------------------------------

    def seed_index(self, items: list[tuple[DataItem, Address]]) -> int:
        """Bootstrap the leaf-level index outside the protocol.

        Stores each item at its holder and installs a version-0
        :class:`DataRef` at *every* currently responsible peer.  Experiments
        use this to start from a fully consistent index before measuring
        update propagation; protocol-level insertion lives in
        :mod:`repro.core.updates`.

        Returns the number of index entries installed.
        """
        installed = 0
        for item, holder in items:
            self.peer(holder).store.store_item(item)
            ref = DataRef(key=item.key, holder=holder, version=0)
            for address in self.replicas_for_key(item.key):
                self.peer(address).store.add_ref(ref)
                installed += 1
        return installed

    # -- invariant audit ---------------------------------------------------------------

    def audit_routing(self) -> list[str]:
        """Check the §2 reference invariant for every stored reference.

        The *table rule*, which a refill checks too: a reference at level
        ``i`` of peer ``a`` must point to a registered peer whose path
        starts with ``prefix(i-1, a)`` followed by the complement of bit
        ``i`` of ``path(a)`` (:meth:`Peer.ref_prefix`).  A Fig. 2 hop checks
        the weaker *responsibility rule* (the receiver's path is in prefix
        relation with the prefix it was routed on), so a reference to a
        peer whose path is shorter than that prefix is reported here yet
        routes to a responsible peer.  Returns human-readable violation
        descriptions (empty list = consistent grid).
        """
        violations: list[str] = []
        for peer in self.peers():
            for level, refs in peer.routing.iter_levels():
                if level > peer.depth:
                    if refs:
                        violations.append(
                            f"peer {peer.address}: refs at level {level} beyond "
                            f"path depth {peer.depth}"
                        )
                    continue
                expected = peer.ref_prefix(level)
                for address in refs:
                    if address not in self._peers:
                        violations.append(
                            f"peer {peer.address}: dangling ref {address} at "
                            f"level {level}"
                        )
                        continue
                    target = self._peers[address].path
                    if not target.startswith(expected):
                        violations.append(
                            f"peer {peer.address}: ref {address} at level {level} "
                            f"has path {target!r}, expected prefix {expected!r}"
                        )
        return violations

    def __repr__(self) -> str:
        return (
            f"PGrid(N={len(self._peers)}, avg_depth={self.average_path_length():.2f}, "
            f"config={self.config})"
        )
