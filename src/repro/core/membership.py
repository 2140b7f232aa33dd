"""Dynamic membership: joins, departures and reference repair.

The paper constructs the grid from a fixed population, but its §6 agenda —
"the structures have to continuously adapt" — needs primitives a
deployed P-Grid cannot live without:

:meth:`MembershipEngine.join`
    A newcomer meets one known peer, then uniformly drawn ones, exactly as
    the paper builds the grid (§3, Fig. 3's random meetings) until its path
    reaches ``maxl``.  Because the exchange algorithm is the *only*
    mechanism used, a join is just "more of the same protocol" — the
    self-organization property the paper emphasizes.
:meth:`MembershipEngine.leave` / :meth:`MembershipEngine.fail`
    A graceful departure leaves the grid, then hands its leaf-level index
    to a co-replica (:func:`hand_over`); a failure just disappears.
    Either way, references held by other peers dangle until repaired.
:meth:`MembershipEngine.repair`
    An eager sweep over one peer: drop dead references and buddies, then
    fill each free slot with :func:`refill_slot`.
:func:`refill_slot`
    The one way a slot of a routing table is restored, shared with the
    contact-driven :class:`repro.faults.RefHealer` and the replica
    balancer's conversions: buddies first, then a Fig. 2 search for the
    prefix the level must cover, every probe and search message counted.
:func:`hand_over`
    The one hand-over of a leaf index, shared with the replica balancer's
    conversions: former buddies still on the path, then a delegated Fig. 2
    search for it, every probe and search message counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.exchange import ExchangeEngine
from repro.core.grid import PGrid
from repro.core.peer import Address, Peer
from repro.core.search import SearchEngine
from repro.core.storage import DataRef
from repro.obs.probe import Probe

#: The most meetings a join runs before it stops short of ``maxl``.
JOIN_MEETINGS = 64


@dataclass
class JoinReport:
    """Outcome of one join."""

    address: Address
    exchanges: int
    final_depth: int
    meetings: int


@dataclass
class LeaveReport:
    """Outcome of one graceful departure."""

    address: Address
    handover_target: Address | None
    entries_handed_over: int
    messages: int


@dataclass
class RepairReport:
    """Outcome of one repair pass over a peer's routing table."""

    address: Address
    dead_refs_dropped: int
    refs_added: int
    levels_left_empty: list[int] = field(default_factory=list)
    messages: int = 0


class MembershipEngine:
    """Joins, departures and repair over a live :class:`PGrid`."""

    def __init__(
        self,
        grid: PGrid,
        *,
        exchange: ExchangeEngine | None = None,
        search: SearchEngine | None = None,
        probe: Probe | None = None,
    ) -> None:
        self.grid = grid
        self.exchange = exchange or ExchangeEngine(grid, probe=probe)
        self.search = search or SearchEngine(grid, probe=probe)
        self.probe = probe

    # -- join ---------------------------------------------------------------

    def join(self, bootstrap: Address) -> JoinReport:
        """Admit a new peer through *bootstrap* by the paper's meetings.

        The newcomer meets *bootstrap* first; every later partner is one
        uniform draw from ``grid.rng`` over the other peers (Fig. 3's
        random meetings).  An offline partner still costs a meeting.  The
        join stops at the grid's ``maxl`` or after :data:`JOIN_MEETINGS`
        meetings.
        """
        self.grid.peer(bootstrap)  # an unknown bootstrap raises
        others = self.grid.addresses()
        newcomer = self.grid.add_peer()
        before = self.exchange.stats.calls
        meetings = 0
        while newcomer.depth < self.grid.config.maxl and meetings < JOIN_MEETINGS:
            partner = self.grid.rng.choice(others) if meetings else bootstrap
            if self.grid.is_online(partner):
                self.exchange.meet(newcomer.address, partner)
            meetings += 1
        if self.probe is not None:
            self.probe.on_join(
                newcomer.address,
                meetings=meetings,
                exchanges=self.exchange.stats.calls - before,
            )
        return JoinReport(
            address=newcomer.address,
            exchanges=self.exchange.stats.calls - before,
            final_depth=newcomer.depth,
            meetings=meetings,
        )

    # -- departures -------------------------------------------------------------

    def leave(self, address: Address) -> LeaveReport:
        """Graceful departure: leave the grid, then hand the leaf index
        over with :func:`hand_over` (so no search can answer with the
        departed peer); unanswered, the entries are lost as in a crash."""
        peer = self.grid.remove_peer(address)
        entries = list(peer.store.iter_refs())
        target, messages = hand_over(
            self.grid, self.search, peer, peer.path, entries, peer.buddies
        )
        handed = len(entries) if target is not None else 0
        if self.probe is not None:
            self.probe.on_leave(address, entries_handed_over=handed)
        return LeaveReport(
            address=address,
            handover_target=target,
            entries_handed_over=handed,
            messages=messages,
        )

    def fail(self, address: Address) -> Peer:
        """Crash departure: the peer vanishes, state and all."""
        return self.grid.remove_peer(address)

    # -- repair ------------------------------------------------------------------

    def repair(self, address: Address) -> RepairReport:
        """Drop dead references and buddies of *address*, refill depleted levels.

        Each free slot of a level is filled by :func:`refill_slot`, whose
        liveness probes and Fig. 2 search messages are the repair's cost.
        """
        peer = self.grid.peer(address)
        report = RepairReport(address=address, dead_refs_dropped=0, refs_added=0)
        peer.buddies.difference_update(
            [buddy for buddy in peer.buddies if not self.grid.has_peer(buddy)]
        )
        for level in range(1, peer.depth + 1):
            for ref in peer.routing.refs(level):
                if not self.grid.has_peer(ref):
                    peer.routing.remove_ref(level, ref)
                    report.dead_refs_dropped += 1
            for _ in range(peer.routing.refmax - len(peer.routing.refs(level))):
                added, messages = refill_slot(self.grid, self.search, peer, level)
                report.refs_added += added
                report.messages += messages
                if not added:
                    break  # this level cannot be refilled right now
            if not peer.routing.refs(level):
                report.levels_left_empty.append(level)
        if self.probe is not None:
            self.probe.on_repair(
                address,
                dead_refs_dropped=report.dead_refs_dropped,
                refs_added=report.refs_added,
                messages=report.messages,
            )
        return report

    def repair_all(self) -> list[RepairReport]:
        """Run :meth:`repair` over every peer (a maintenance sweep)."""
        return [self.repair(address) for address in self.grid.addresses()]


def refill_slot(
    grid: PGrid, search: SearchEngine, peer: Peer, level: int, dead: Address | None = None
) -> tuple[int, int]:
    """Fill one free slot of *peer*'s *level* with a peer under
    ``peer.ref_prefix(level)`` (§2); returns ``(added, messages)``.

    The sources, cheapest first: (1) the buddies of the lost reference
    *dead* and of the level's surviving references, each liveness-probed
    at one message; (2) a Fig. 2 search for the prefix through *search*,
    run by *peer* or, when the level is empty, by a live reference of
    another level on its behalf; (3) the first buddy that did not answer
    — under §2 "offline" is transient, and a table that shrinks for good
    would bias search success below eq. (3).
    """
    if level > peer.depth:
        return 0, 0  # a level below the path routes nothing
    target = peer.ref_prefix(level)
    current = peer.routing.refs(level)
    seen = {peer.address, *current}
    messages = 0
    offline: Address | None = None
    for source in current if dead is None else [dead, *current]:
        if not grid.has_peer(source):
            continue
        for candidate in sorted(grid.peer(source).buddies):
            if candidate in seen or not grid.has_peer(candidate):
                continue
            seen.add(candidate)
            if grid.peer(candidate).path.startswith(target):
                messages += 1
                if grid.is_online(candidate):
                    return int(peer.routing.add_ref(level, candidate)), messages
                offline = candidate if offline is None else offline
    origin: Address | None = peer.address
    if not current:
        origin, probes = _delegate(grid, peer)
        messages += probes
    if origin is not None:
        result = search.query_from(origin, target)
        messages += result.messages
        if (
            result.found
            and grid.peer(result.responder).path.startswith(target)
            and peer.routing.add_ref(level, result.responder)
        ):
            return 1, messages
    if offline is not None and peer.routing.add_ref(level, offline):
        return 1, messages
    return 0, messages


def hand_over(
    grid: PGrid, search: SearchEngine, peer: Peer, path: str,
    entries: list[DataRef], buddies: Iterable[Address],
) -> tuple[Address | None, int]:
    """Give *entries*, the leaf index *peer* held for *path*, to a peer
    still responsible for *path*, once *peer* has left that group;
    returns ``(target, messages)``.

    The sources, cheapest first: (1) the former *buddies* still on *path*,
    each liveness-probed at one message; (2) a Fig. 2 search for *path*
    run by a delegate of *peer*, whose responder (not *peer*) is in prefix
    relation with *path*.  No entries: nothing is probed.  No target: the
    entries are lost, as in a crash.
    """
    if not entries:
        return None, 0
    target: Address | None = None
    messages = 0
    for buddy in sorted(buddies):
        if not grid.has_peer(buddy) or grid.peer(buddy).path != path:
            continue
        messages += 1
        if grid.is_online(buddy):
            target = buddy
            break
    else:
        delegate, probes = _delegate(grid, peer)
        messages += probes
        if delegate is not None:
            result = search.query_from(delegate, path)
            messages += result.messages
            if result.found and result.responder != peer.address:
                target = result.responder
    if target is not None:
        store = grid.peer(target).store
        for ref in entries:
            store.add_ref(ref)
    return target, messages


def _delegate(grid: PGrid, peer: Peer) -> tuple[Address | None, int]:
    """A live reference of *peer* to search on its behalf: references of
    every level drawn one at a time, one message per probe, until one
    answers; returns ``(delegate, messages)``."""
    pool = [ref for _level, refs in peer.routing.iter_levels() for ref in refs]
    messages = 0
    while pool:
        delegate = pool.pop(grid.rng.randrange(len(pool)))
        messages += 1
        if grid.has_peer(delegate) and grid.is_online(delegate):
            return delegate, messages
    return None, messages
