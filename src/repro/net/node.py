"""Message-driven P-Grid node: the protocol machines' network driver.

:class:`PGridNode` wraps one :class:`~repro.core.peer.Peer` behind a message
handler and executes the *same* sans-I/O machines as the in-process engines
(:mod:`repro.protocol`) — but answers their effects over the transport
instead of by direct calls:

* :class:`~repro.protocol.Contact` becomes one ``transport.send`` of a
  ``QUERY`` / ``BREADTH_QUERY`` / ``RANGE_QUERY`` / ``PROPAGATE`` message
  (a retry's simulated backoff is fed into the transport's clock first);
  :class:`~repro.errors.NoHandlerError` answers ``GONE`` (dangling
  reference — never retried), :class:`~repro.errors.PeerOfflineError` and
  dropped messages answer ``OFFLINE``;
* :class:`~repro.protocol.Resolve` reads the remote subtree's result off
  the synchronous reply, merging its message/failure deltas, cumulative
  retry backoff and remaining budget into the local operation state —
  value-threading that is equivalent to the engines' shared objects
  because delivery is synchronous.

Routing decisions therefore live in exactly one place
(:mod:`repro.protocol.search`), consume the grid RNG in exactly the same
order as the engines, and honor the full :class:`~repro.faults.RetryPolicy`
semantics (attempt bound, exponential backoff on the simulated clock, and
the accumulated-delay deadline — threaded across hops via the messages'
``retry_spent`` field).  The integration tests cross-validate this path
against the engines message-for-message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import keys as keyspace
from repro.core.config import SearchConfig
from repro.core.grid import PGrid
from repro.core.peer import Address, Peer
from repro.core.search import BreadthSearchResult, RangeSearchResult
from repro.core.storage import DataRef
from repro.errors import NoHandlerError, PeerOfflineError, TransportError
from repro.net.message import (
    Message,
    MessageKind,
    breadth_message,
    breadth_response,
    pong,
    propagate_ack,
    propagate_message,
    query_message,
    query_response,
    update_message,
)
from repro.net.transport import LocalTransport
from repro.protocol.contact import Budget, Context, StepStats
from repro.protocol.effects import GONE, OFFLINE, OK, Contact, Resolve
from repro.protocol.search import (
    Traversal,
    breadth_step,
    dfs_step,
    repeated_queries,
    run_range,
)

__all__ = ["NodeSearchOutcome", "PGridNode", "attach_nodes"]


@dataclass
class NodeSearchOutcome:
    """Result of a node-initiated (networked) search."""

    query: str
    found: bool
    responder: Address | None
    messages_sent: int
    failed_attempts: int = 0
    retry_delay: float = 0.0
    data_refs: list[DataRef] = field(default_factory=list)

    @property
    def messages(self) -> int:
        """Alias of ``messages_sent`` (the shared result protocol's name)."""
        return self.messages_sent


class PGridNode:
    """One networked peer: handles protocol messages for its local state.

    ``transport`` is anything with the :class:`LocalTransport` interface —
    in particular a :class:`repro.faults.FaultInjector` wrapping one.
    ``retry`` / ``healer`` are the resilience collaborators (duck-typed
    :class:`repro.faults.RetryPolicy` / :class:`repro.faults.RefHealer`),
    consulted by the shared contact machine exactly as the engines do;
    ``config`` supplies the message budget for operations this node
    initiates (forwarded hops inherit the initiator's remaining budget
    from the message payload).
    """

    def __init__(
        self,
        peer: Peer,
        grid: PGrid,
        transport: LocalTransport,
        *,
        retry=None,
        healer=None,
        config: SearchConfig | None = None,
    ) -> None:
        self.peer = peer
        self.grid = grid
        self.transport = transport
        self.retry = retry
        self.config = config or SearchConfig()
        self._ctx = Context(grid.rng, retry=retry, healer=healer)
        transport.register(peer.address, self.handle)

    # -- effect execution ---------------------------------------------------------

    def _drive(self, gen, budget: Budget, stats: StepStats, build, resolve):
        """Run one machine, answering effects over the transport.

        *build* turns a :class:`Contact` effect into the wire message;
        *resolve* merges the pending reply into the operation state and
        returns the machine's answer to the :class:`Resolve` effect.
        """
        response = None
        pending: Message | None = None
        while True:
            try:
                effect = gen.send(response)
            except StopIteration as stop:
                return stop.value
            cls = type(effect)
            if cls is Contact:
                response, pending = self._contact(effect, budget, stats, build)
            elif cls is Resolve:
                response = resolve(pending)
            else:
                raise TypeError(
                    f"unexpected effect for the message driver: {effect!r}"
                )

    def _contact(self, effect: Contact, budget: Budget, stats: StepStats, build):
        """One contact attempt over the transport -> (status, reply)."""
        if effect.delay:
            # Retry backoff is simulated time spent waiting before this
            # attempt; it accrues on the transport's clock.
            self.transport.stats.simulated_time += effect.delay
        if budget.remaining <= 0:
            # The budget is spent: the machine will stop right after this
            # liveness check, so answer it without paying for a message
            # (mirrors the direct driver, which never sent one here).
            if not self.grid.has_peer(effect.target):
                return GONE, None
            return (OK if self.grid.is_online(effect.target) else OFFLINE), None
        message = build(effect)
        try:
            reply = self.transport.send(message)
        except NoHandlerError:
            return GONE, None
        except PeerOfflineError:
            return OFFLINE, None
        except TransportError:  # dropped by the loss model / fault plan
            return OFFLINE, None
        if reply is None:
            return OFFLINE, None
        return OK, reply

    @staticmethod
    def _merge_costs(payload: dict, budget: Budget, stats: StepStats) -> None:
        """Fold a reply's subtree deltas into the local operation state."""
        stats.messages += payload.get("messages", 0)
        stats.failed += payload.get("failed", 0)
        stats.retry_delay = payload.get("retry_delay", stats.retry_delay)
        budget.remaining = payload.get("budget", budget.remaining)

    # -- Fig. 2 depth-first search over messages -----------------------------------

    def _run_dfs(self, query: str, level: int, budget: Budget, stats: StepStats):
        """Drive the shared Fig. 2 machine; returns (found, responder, refs).

        *refs* is the responder's reply payload (list of entry dicts) when
        the answer came over the wire, ``None`` when this node itself is
        the responder (the caller does the local lookup).
        """
        captured: dict[str, list[dict]] = {}

        def build(effect: Contact) -> Message:
            step = effect.payload
            return query_message(
                self.peer.address,
                effect.target,
                step.query,
                step.level,
                budget=budget.remaining - 1,
                retry_spent=stats.retry_delay,
            )

        def resolve(reply: Message):
            payload = reply.payload
            self._merge_costs(payload, budget, stats)
            found = payload["found"]
            if found:
                captured["refs"] = payload.get("refs", [])
            return found, payload["responder"]

        found, responder = self._drive(
            dfs_step(self.peer, query, level, self._ctx, budget, stats),
            budget,
            stats,
            build,
            resolve,
        )
        return found, responder, captured.get("refs")

    def _handle_query(self, message: Message) -> Message:
        payload = message.payload
        query = payload["query"]
        level = payload["level"]
        budget = Budget(payload.get("budget", self.config.max_messages))
        stats = StepStats()
        stats.retry_delay = payload.get("retry_spent", 0.0)
        found, responder, refs = self._run_dfs(query, level, budget, stats)
        if found and refs is None and responder == self.peer.address:
            # Routing consumed the first `level` bits of the original query;
            # they equal this peer's path prefix (search invariant), so the
            # full key for the leaf lookup is prefix + suffix.
            full_query = self.peer.path[:level] + query
            refs = [
                {"key": ref.key, "holder": ref.holder, "version": ref.version}
                for ref in self.peer.store.lookup(full_query)
            ]
        return query_response(
            message,
            found=found,
            responder=responder,
            refs=refs or [],
            messages=stats.messages,
            failed=stats.failed,
            retry_delay=stats.retry_delay,
            budget=budget.remaining,
        )

    # -- breadth-first walks over messages (update / breadth / range) ---------------

    def _run_breadth(
        self,
        query: str,
        level: int,
        trav: Traversal,
        *,
        collect: str | None = None,
        ref: DataRef | None = None,
    ) -> dict[Address, list[dict]]:
        """Drive the shared breadth machine at this hop.

        With *ref* the walk is an update propagation: every responsible
        peer (including this one) installs the entry.  With *collect* it
        is a range sweep: responsible peers return their entries under the
        *collect* prefix.  Returns the entries gathered by this subtree.
        """
        budget, stats = trav.budget, trav.stats
        entries: dict[Address, list[dict]] = {}

        def build(effect: Contact) -> Message:
            step = effect.payload
            seen = sorted(trav.seen)
            if ref is not None:
                return propagate_message(
                    self.peer.address,
                    effect.target,
                    key=ref.key,
                    holder=ref.holder,
                    version=ref.version,
                    deleted=ref.deleted,
                    query=step.query,
                    level=step.level,
                    recbreadth=step.recbreadth,
                    seen=seen,
                    budget=budget.remaining - 1,
                    retry_spent=stats.retry_delay,
                )
            return breadth_message(
                self.peer.address,
                effect.target,
                query=step.query,
                level=step.level,
                recbreadth=step.recbreadth,
                enumerate_subtree=step.enumerate_subtree,
                seen=seen,
                budget=budget.remaining - 1,
                retry_spent=stats.retry_delay,
                collect=collect,
            )

        def resolve(reply: Message):
            payload = reply.payload
            self._merge_costs(payload, budget, stats)
            trav.seen.update(payload.get("seen", ()))
            trav.responders.extend(
                payload.get("responders", payload.get("reached", []))
            )
            for responder, found in payload.get("entries", {}).items():
                entries.setdefault(responder, []).extend(found)
            return None

        self._drive(
            breadth_step(self.peer, query, level, self._ctx, trav),
            budget,
            stats,
            build,
            resolve,
        )
        # The machine appends this hop's own address first iff responsible.
        if trav.responders and trav.responders[0] == self.peer.address:
            if ref is not None:
                self.peer.store.add_ref(ref)
            if collect is not None:
                entries[self.peer.address] = [
                    {
                        "key": r.key,
                        "holder": r.holder,
                        "version": r.version,
                        "deleted": r.deleted,
                    }
                    for r in self.peer.store.lookup(collect)
                ]
        return entries

    def _traversal_from(self, payload: dict, *, enumerate_subtree: bool) -> Traversal:
        """Reconstruct the walk state a breadth-family message carries."""
        trav = Traversal(
            Budget(payload.get("budget", self.config.max_messages)),
            StepStats(),
            payload["recbreadth"],
            enumerate_subtree=enumerate_subtree,
            seen=set(payload.get("seen", ())),
        )
        trav.stats.retry_delay = payload.get("retry_spent", 0.0)
        return trav

    def _handle_breadth(self, message: Message) -> Message:
        payload = message.payload
        trav = self._traversal_from(
            payload, enumerate_subtree=payload.get("enumerate_subtree", False)
        )
        entries = self._run_breadth(
            payload["query"], payload["level"], trav, collect=payload.get("collect")
        )
        return breadth_response(
            message,
            responders=list(trav.responders),
            seen=sorted(trav.seen),
            messages=trav.stats.messages,
            failed=trav.stats.failed,
            retry_delay=trav.stats.retry_delay,
            budget=trav.budget.remaining,
            entries=entries if message.kind is MessageKind.RANGE_QUERY else None,
        )

    def _handle_propagate(self, message: Message) -> Message:
        payload = message.payload
        ref = DataRef(
            key=payload["key"],
            holder=payload["holder"],
            version=payload["version"],
            deleted=payload["deleted"],
        )
        trav = self._traversal_from(payload, enumerate_subtree=False)
        self._run_breadth(payload["query"], payload["level"], trav, ref=ref)
        return propagate_ack(
            message,
            trav.responders,
            seen=sorted(trav.seen),
            messages=trav.stats.messages,
            failed=trav.stats.failed,
            retry_delay=trav.stats.retry_delay,
            budget=trav.budget.remaining,
        )

    # -- message dispatch ---------------------------------------------------------

    def handle(self, message: Message) -> Message | None:
        """Transport entry point."""
        kind = message.kind
        if kind is MessageKind.QUERY:
            return self._handle_query(message)
        if kind is MessageKind.BREADTH_QUERY or kind is MessageKind.RANGE_QUERY:
            return self._handle_breadth(message)
        if kind is MessageKind.PROPAGATE:
            return self._handle_propagate(message)
        if kind is MessageKind.UPDATE:
            return self._handle_update(message)
        if kind is MessageKind.PING:
            return pong(message)
        return None

    # -- local API (what the user of this node calls) -----------------------------------

    def search(self, query: str) -> NodeSearchOutcome:
        """Search issued by this node's user (starts locally, no message)."""
        keyspace.validate_key(query)
        budget = Budget(self.config.max_messages)
        stats = StepStats()
        found, responder, refs = self._run_dfs(query, 0, budget, stats)
        if found and refs is None and responder == self.peer.address:
            refs = [
                {"key": ref.key, "holder": ref.holder, "version": ref.version}
                for ref in self.peer.store.lookup(query)
            ]
        data_refs = [
            DataRef(key=r["key"], holder=r["holder"], version=r["version"])
            for r in (refs or [])
        ]
        return NodeSearchOutcome(
            query=query,
            found=found,
            responder=responder,
            messages_sent=stats.messages,
            failed_attempts=stats.failed,
            retry_delay=stats.retry_delay,
            data_refs=data_refs,
        )

    def search_repeated(
        self, query: str, times: int
    ) -> tuple[set[Address], int, int]:
        """§5.2 update strategy 1 over messages: *times* independent
        searches; returns (responders, messages, failed attempts)."""
        return repeated_queries(lambda: self.search(query), times)

    def search_breadth(
        self, query: str, recbreadth: int, *, enumerate_subtree: bool = False
    ) -> BreadthSearchResult:
        """Breadth-first search over BREADTH_QUERY messages (§3 strategy 3).

        Same semantics (and same result type) as
        :meth:`repro.core.search.SearchEngine.query_breadth`.
        """
        if recbreadth < 1:
            raise ValueError(f"recbreadth must be >= 1, got {recbreadth}")
        keyspace.validate_key(query)
        trav = Traversal(
            Budget(self.config.max_messages),
            StepStats(),
            recbreadth,
            enumerate_subtree=enumerate_subtree,
        )
        self._run_breadth(query, 0, trav)
        return BreadthSearchResult(
            query=query,
            start=self.peer.address,
            responders=list(trav.responders),
            messages=trav.stats.messages,
            failed_attempts=trav.stats.failed,
            retry_delay=trav.stats.retry_delay,
        )

    def range_search(
        self, low: str, high: str, *, recbreadth: int = 2
    ) -> RangeSearchResult:
        """Range query over RANGE_QUERY messages.

        Same cover decomposition, deduplication and result type as
        :meth:`repro.core.search.SearchEngine.query_range`; the
        responders' entries travel back in the replies instead of being
        read off their stores directly.
        """
        cover = keyspace.range_cover(low, high)
        collected: dict[str, dict[Address, list[DataRef]]] = {}

        def search(prefix: str) -> BreadthSearchResult:
            trav = Traversal(
                Budget(self.config.max_messages),
                StepStats(),
                recbreadth,
                enumerate_subtree=True,
            )
            entries = self._run_breadth(prefix, 0, trav, collect=prefix)
            collected[prefix] = {
                responder: [
                    DataRef(
                        key=e["key"],
                        holder=e["holder"],
                        version=e["version"],
                        deleted=e.get("deleted", False),
                    )
                    for e in found
                ]
                for responder, found in entries.items()
            }
            return BreadthSearchResult(
                query=prefix,
                start=self.peer.address,
                responders=list(trav.responders),
                messages=trav.stats.messages,
                failed_attempts=trav.stats.failed,
                retry_delay=trav.stats.retry_delay,
            )

        responders, data_refs, messages, failed, retry_delay = run_range(
            low,
            high,
            cover=cover,
            search=search,
            fetch=lambda responder, prefix: collected[prefix].get(responder, []),
        )
        return RangeSearchResult(
            low=low,
            high=high,
            cover=cover,
            responders=responders,
            data_refs=data_refs,
            messages=messages,
            failed_attempts=failed,
            retry_delay=retry_delay,
        )

    def push_update(self, destination: Address, ref: DataRef) -> bool:
        """Send one index update to *destination*; True on delivery.

        Honors the full retry policy: bounded attempts, exponential
        backoff accrued on the transport's simulated clock, and the
        accumulated-delay deadline.  A destination with no handler is
        gone for good and is never retried.
        """
        message = update_message(
            self.peer.address, destination, ref.key, ref.holder, ref.version
        )
        retry = self.retry
        attempts = retry.attempts if retry is not None else 1
        spent = 0.0
        attempt = 1
        while True:
            try:
                self.transport.send(message)
                return True
            except NoHandlerError:
                return False
            except (PeerOfflineError, TransportError):
                pass
            attempt += 1
            if attempt > attempts:
                return False
            delay = retry.delay_before(attempt)
            if retry.deadline is not None and spent + delay > retry.deadline:
                return False
            spent += delay
            self.transport.stats.simulated_time += delay

    def propagate_update(
        self, ref: DataRef, *, recbreadth: int = 2
    ) -> set[Address]:
        """Publish *ref* via the message-level breadth-first protocol.

        Runs the same machine as
        :meth:`repro.core.search.SearchEngine.query_breadth` over explicit
        PROPAGATE messages with aggregated acknowledgements; the returned
        set contains every replica that installed the entry (including
        this node if responsible).
        """
        return self.publish(ref, recbreadth=recbreadth).reached

    def publish(self, ref: DataRef, *, recbreadth: int = 2) -> "UpdateResult":
        """:meth:`propagate_update` with the engines' full accounting.

        Returns the same :class:`~repro.core.updates.UpdateResult` shape
        as :meth:`repro.core.updates.UpdateEngine.propagate` (BFS
        strategy), so the driver facade can expose updates uniformly
        across drivers.
        """
        if recbreadth < 1:
            raise ValueError(f"recbreadth must be >= 1, got {recbreadth}")
        keyspace.validate_key(ref.key)
        trav = Traversal(
            Budget(self.config.max_messages), StepStats(), recbreadth
        )
        self._run_breadth(ref.key, 0, trav, ref=ref)
        from repro.core.updates import UpdateResult

        return UpdateResult(
            key=ref.key,
            version=ref.version,
            reached=set(trav.responders),
            messages=trav.stats.messages,
            failed_attempts=trav.stats.failed,
            replica_count=self.grid.replica_count(ref.key),
        )

    def _handle_update(self, message: Message) -> Message:
        ref = DataRef(
            key=message.payload["key"],
            holder=message.payload["holder"],
            version=message.payload["version"],
        )
        self.peer.store.add_ref(ref)
        return Message(
            kind=MessageKind.UPDATE_ACK,
            source=self.peer.address,
            destination=message.source,
            in_reply_to=message.message_id,
        )


def attach_nodes(
    grid: PGrid,
    transport: LocalTransport,
    *,
    retry=None,
    healer=None,
    config: SearchConfig | None = None,
) -> dict[Address, PGridNode]:
    """Create one node per peer of *grid*, registered on *transport*.

    *transport* may be a :class:`repro.faults.FaultInjector`; *retry* /
    *healer* / *config* are forwarded to every node.
    """
    return {
        peer.address: PGridNode(
            peer, grid, transport, retry=retry, healer=healer, config=config
        )
        for peer in grid.peers()
    }
