"""Dynamic membership: joins, departures and reference repair.

The paper constructs the grid from a fixed population, but its §6 agenda —
"the structures have to continuously adapt" — needs primitives a
deployed P-Grid cannot live without:

:meth:`MembershipEngine.join`
    A newcomer bootstraps by exchanging with one known peer, then keeps
    exchanging with peers drawn from the routing references it accumulates
    (a random walk over the trie).  Because the exchange algorithm is the
    *only* mechanism used, a join is just "more of the same protocol" —
    the self-organization property the paper emphasizes.
:meth:`MembershipEngine.leave` / :meth:`MembershipEngine.fail`
    A graceful departure hands the peer's leaf-level index entries to a
    replica (found with the peer's own routing state) before leaving; a
    failure just disappears.  Either way, references held by other peers
    dangle until repaired.
:meth:`MembershipEngine.repair`
    An eager sweep over one peer: drop dead references and buddies, then
    fill each free slot with :func:`refill_slot`.
:func:`refill_slot`
    The one way a slot of a routing table is restored, shared with the
    contact-driven :class:`repro.faults.RefHealer` and the replica
    balancer's conversions: buddies first, then a Fig. 2 search for the
    prefix the level must cover, every probe and search message counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.exchange import ExchangeEngine
from repro.core.grid import PGrid
from repro.core.peer import Address, Peer
from repro.core.search import SearchEngine
from repro.obs.probe import Probe


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

    def join(
        self,
        bootstrap: Address,
        *,
        max_meetings: int = 64,
        target_depth: int | None = None,
    ) -> JoinReport:
        """Admit a new peer, bootstrapping through *bootstrap*.

        The newcomer first exchanges with the bootstrap peer, then runs a
        random walk: each further meeting partner is drawn from the
        routing references the newcomer has accumulated so far (falling
        back to the bootstrap's references while its own table is empty).
        The walk stops at *target_depth* (default: the grid's ``maxl``) or
        after *max_meetings*.
        """
        if max_meetings < 1:
            raise ValueError(f"max_meetings must be >= 1, got {max_meetings}")
        depth_goal = (
            target_depth if target_depth is not None else self.grid.config.maxl
        )
        if depth_goal < 0:
            raise ValueError(f"target_depth must be >= 0, got {depth_goal}")
        bootstrap_peer = self.grid.peer(bootstrap)

        newcomer = self.grid.add_peer()
        before = self.exchange.stats.calls
        meetings = 0
        rng = self.grid.rng
        while newcomer.depth < depth_goal and meetings < max_meetings:
            partner = self._walk_partner(newcomer, bootstrap_peer, rng)
            if partner is None:
                break
            if not self.grid.is_online(partner):
                meetings += 1
                continue
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

    def _walk_partner(
        self, newcomer: Peer, bootstrap: Peer, rng
    ) -> Address | None:
        """Next meeting partner: own refs > bootstrap refs > bootstrap."""
        candidates = [
            address
            for _level, refs in newcomer.routing.iter_levels()
            for address in refs
            if address != newcomer.address and self.grid.has_peer(address)
        ]
        if not candidates:
            candidates = [
                address
                for _level, refs in bootstrap.routing.iter_levels()
                for address in refs
                if address != newcomer.address and self.grid.has_peer(address)
            ]
        if not candidates:
            if bootstrap.address == newcomer.address:
                return None
            return bootstrap.address
        return rng.choice(candidates)

    # -- departures -------------------------------------------------------------

    def leave(self, address: Address) -> LeaveReport:
        """Graceful departure: hand the leaf index to a replica, then go.

        The departing peer searches for its *own path* (excluding itself as
        responder by searching from itself through its references): the
        responder — another peer responsible for the same region — absorbs
        its index entries.  If no replica is reachable the entries are
        dropped with the peer, as they would be in a real crash.
        """
        peer = self.grid.peer(address)
        entries = list(peer.store.iter_refs())
        target: Address | None = None
        messages = 0

        # Buddies are co-replicas by construction — the cheapest target.
        for buddy in sorted(peer.buddies):
            if self.grid.has_peer(buddy) and self.grid.is_online(buddy):
                target = buddy
                messages += 1
                break

        # Otherwise delegate the search: a peer cannot find its own
        # co-replicas through its own references (a search at a responsible
        # peer terminates immediately at itself), but a *referenced* peer
        # on the other side routes back into the region and may land on a
        # different replica.
        if target is None and entries and peer.path:
            delegates = [
                ref
                for _level, refs in peer.routing.iter_levels()
                for ref in refs
                if self.grid.has_peer(ref)
            ]
            rng = self.grid.rng
            for _ in range(min(4, len(delegates)) or 0):
                delegate = rng.choice(delegates)
                if not self.grid.is_online(delegate):
                    continue
                messages += 1  # the delegation request itself
                result = self.search.query_from(delegate, peer.path)
                messages += result.messages
                if result.found and result.responder not in (None, address):
                    target = result.responder
                    break

        handed = 0
        if target is not None:
            store = self.grid.peer(target).store
            for ref in entries:
                store.add_ref(ref)
                handed += 1
        self.grid.remove_peer(address)
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

    def repair(self, address: Address, *, refill: bool = True) -> RepairReport:
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
            if not refill:
                continue
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

    def repair_all(self, *, refill: bool = True) -> list[RepairReport]:
        """Run :meth:`repair` over every peer (a maintenance sweep)."""
        return [
            self.repair(address, refill=refill)
            for address in self.grid.addresses()
        ]


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
        # References of other levels, drawn one at a time and probed at
        # one message each; the first that answers takes the request.
        pool = [ref for _level, refs in peer.routing.iter_levels() for ref in refs]
        origin = None
        while pool and origin is None:
            delegate = pool.pop(grid.rng.randrange(len(pool)))
            messages += 1
            if grid.has_peer(delegate) and grid.is_online(delegate):
                origin = delegate
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
