"""Message-driven P-Grid node, written once: prepare → drive → finish.

A networked peer runs the *same* sans-I/O machines as the in-process
engines (:mod:`repro.protocol`) and turns their effects into messages.
That job splits at the only place it touches a transport:

**prepare** — :class:`NodeCore`, uncoloured, shared by both transports.
    Everything a node *decides*: request parsing and kind dispatch,
    ``Budget`` / ``StepStats`` / ``Traversal`` set-up, store reads and
    writes, reply and result assembly.  The outcome is an
    ``Operation`` tuple: the machine, its budget, the ``kind`` of message
    its contacts send, ``build`` (a :class:`~repro.protocol.Contact` as
    that ``QUERY`` / ``BREADTH_QUERY`` / ``RANGE_QUERY`` / ``PROPAGATE``
    / ``UPDATE`` message), ``resolve`` (fold the reply's message/failure
    deltas, cumulative retry backoff and remaining budget into the local
    state; return the machine's answer to its
    :class:`~repro.protocol.Resolve`) and ``finish``.
**drive** — ``_run``, the only code written once per transport
(:class:`PGridNode` here, :class:`repro.aio.node.AsyncPGridNode` awaited).
    Answer ``Contact``, after accruing the retry's backoff on the
    transport clock, with ``transport.admit(kind, me, target)`` — Fig. 2's
    ``IF online(peer(r))`` — and only on ``OK`` build the message and
    ``transport.deliver`` it: a refused contact (most, at the paper's 30 %
    availability) constructs nothing and raises nothing.  ``GONE`` is a
    dangling reference (never retried); offline, dropped or a ``None``
    reply is ``OFFLINE``.  On a spent budget answer locally, without a
    message.  Answer ``Resolve`` from the reply held since the contact.
**finish** — ``return op.finish(result)``: the reply to a served request,
or the typed result of an operation this node's user started.

Routing decisions therefore live in exactly one place
(:mod:`repro.protocol.search`), consume the grid RNG in the engines'
order, and honor the full :class:`~repro.faults.RetryPolicy` (attempt
bound, backoff on the simulated clock, and the accumulated-delay deadline
threaded across hops in ``retry_spent``) on either transport.  Threading
values through replies is equivalent to the engines' shared objects
because delivery is synchronous per operation; ``tests/protocol/``
cross-validates both shells against the engines message-for-message and
holds the two loops to one contract (``test_node_shells.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import keys as keyspace
from repro.core.config import SearchConfig
from repro.core.grid import PGrid
from repro.core.peer import Address, Peer
from repro.core.search import BreadthSearchResult, RangeSearchResult
from repro.core.storage import DataRef
from repro.core.updates import UpdateResult
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
from repro.protocol.contact import Budget, Context, StepStats, contact_step
from repro.protocol.effects import GONE, OFFLINE, OK, Contact, Resolve
from repro.protocol.search import (
    Traversal,
    breadth_step,
    dfs_step,
    repeated_queries,
    run_range,
)

__all__ = ["NodeSearchOutcome", "PGridNode", "attach_nodes"]


def _ref_from_entry(entry: dict) -> DataRef:
    """An index entry as it travels in payloads -> :class:`DataRef`."""
    return DataRef(
        key=entry["key"],
        holder=entry["holder"],
        version=entry["version"],
        deleted=entry.get("deleted", False),
    )


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

    @classmethod
    def from_payload(cls, query: str, payload: dict) -> "NodeSearchOutcome":
        """Decode a ``QUERY_RESPONSE`` payload (local or off the wire)."""
        return cls(
            query=query,
            found=payload["found"],
            responder=payload["responder"],
            messages_sent=payload.get("messages", 0),
            failed_attempts=payload.get("failed", 0),
            retry_delay=payload.get("retry_delay", 0.0),
            data_refs=[_ref_from_entry(entry) for entry in payload.get("refs", ())],
        )


#: One prepared protocol operation — all a driver loop needs to run it, as
#: the plain tuple ``(machine, budget, kind, build, resolve, finish)``:
#:
#: ``machine``  the sans-I/O machine (a generator of effects);
#: ``budget``   the operation's message budget — once spent, contacts are
#:              answered locally (the machine stops right after the check);
#: ``kind``     the :class:`MessageKind` ``build`` makes (all the gate needs);
#: ``build``    ``Contact`` effect -> the message to send, once admitted;
#: ``resolve``  the reply held since the contact -> the ``Resolve`` answer;
#: ``finish``   the machine's return value -> reply message / typed result.
#:
#: (A tuple, not a class: one is built per hop.)
Operation = tuple


def _settled(reply: Message | None) -> Operation:
    """The operation of a request answered without contacting anyone."""

    def machine():
        return reply
        yield  # pragma: no cover - makes this an (effect-free) generator

    return machine(), None, None, None, None, lambda settled: settled


def _merge_costs(payload: dict, budget: Budget, stats: StepStats) -> None:
    """Fold a reply's subtree deltas into the local operation state."""
    stats.messages += payload.get("messages", 0)
    stats.failed += payload.get("failed", 0)
    stats.retry_delay = payload.get("retry_delay", stats.retry_delay)
    budget.remaining = payload.get("budget", budget.remaining)


class NodeCore:
    """One networked peer minus its transport calls (see the module docs).

    ``transport`` is anything with the
    :class:`~repro.net.transport.LocalTransport` interface (or its
    awaitable twin) — in particular a
    :class:`repro.faults.FaultInjector` wrapping one.  ``retry`` /
    ``healer`` are the resilience collaborators (duck-typed
    :class:`repro.faults.RetryPolicy` / :class:`repro.faults.RefHealer`),
    consulted by the shared contact machine exactly as the engines do;
    ``config`` supplies the message budget for operations this node
    initiates (forwarded hops inherit the initiator's remaining budget
    from the message payload).  Construction registers the subclass's
    ``handle`` on the transport.
    """

    def __init__(
        self,
        peer: Peer,
        grid: PGrid,
        transport,
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

    @classmethod
    def attach(cls, grid: PGrid, transport, *, retry=None, healer=None, config=None):
        """Create one node per peer of *grid*, registered on *transport*.

        *transport* may be a :class:`repro.faults.FaultInjector`; *retry* /
        *healer* / *config* are forwarded to every node.
        """
        return {
            peer.address: cls(peer, grid, transport, retry=retry, healer=healer, config=config)
            for peer in grid.peers()
        }

    def _liveness(self, target: Address):
        """Answer a contact on a spent budget without paying for a message.

        The machine stops right after this check; the direct driver never
        sent a message here either.
        """
        if not self.grid.has_peer(target):
            return GONE
        return OK if self.grid.is_online(target) else OFFLINE

    # -- requests: the operation whose result is the reply ---------------------------

    def _request_op(self, request: Message) -> Operation:
        """Kind dispatch for one request (from a peer, or from :meth:`_local`)."""
        kind = request.kind
        if kind is MessageKind.QUERY:
            return self._query_op(request.payload, request)
        if (
            kind is MessageKind.BREADTH_QUERY
            or kind is MessageKind.RANGE_QUERY
            or kind is MessageKind.PROPAGATE
        ):
            return self._walk_op(request)
        if kind is MessageKind.UPDATE:
            return _settled(self._install(request))
        if kind is MessageKind.PING:
            return _settled(pong(request))
        return _settled(None)

    def _query_op(self, payload: dict, request: Message | None = None) -> Operation:
        """Fig. 2 depth-first search at this hop: a ``QUERY``'s *payload*.

        The result is the reply to *request* — or, without one, the typed
        outcome: a search this node's user starts is served straight from
        the payload (the walks go through :meth:`_local`; for the ~100 µs
        search, building a request and a reply message only to decode it
        again measured ~6 % of the whole operation).
        """
        query, level = payload["query"], payload["level"]
        budget = Budget(payload.get("budget", self.config.max_messages))
        stats = StepStats()
        stats.retry_delay = payload.get("retry_spent", 0.0)
        peer = self.peer
        me = peer.address
        remote_refs: list[dict] | None = None

        def build(effect: Contact) -> Message:
            step = effect.payload
            return query_message(
                me,
                effect.target,
                step.query,
                step.level,
                budget=budget.remaining - 1,
                retry_spent=stats.retry_delay,
            )

        def resolve(reply: Message):
            nonlocal remote_refs
            answer = reply.payload
            _merge_costs(answer, budget, stats)
            found = answer["found"]
            if found:
                remote_refs = answer.get("refs", [])
            return found, answer["responder"]

        def finish(result) -> Message:
            found, responder = result
            refs = remote_refs
            if found and refs is None and responder == me:
                # Routing consumed the first `level` bits of the original
                # query; they equal this peer's path prefix (search
                # invariant), so the full key for the leaf lookup is
                # prefix + suffix.
                refs = [
                    {"key": ref.key, "holder": ref.holder, "version": ref.version}
                    for ref in peer.store.lookup(peer.path[:level] + query)
                ]
            if request is None:
                return NodeSearchOutcome.from_payload(
                    query,
                    {
                        "found": found,
                        "responder": responder,
                        "refs": refs or (),
                        "messages": stats.messages,
                        "failed": stats.failed,
                        "retry_delay": stats.retry_delay,
                    },
                )
            return query_response(
                request,
                found=found,
                responder=responder,
                refs=refs or [],
                messages=stats.messages,
                failed=stats.failed,
                retry_delay=stats.retry_delay,
                budget=budget.remaining,
            )

        machine = dfs_step(peer, query, level, self._ctx, budget, stats)
        return machine, budget, MessageKind.QUERY, build, resolve, finish

    def _walk_op(self, request: Message) -> Operation:
        """§3 breadth-first walk at this hop.

        A ``PROPAGATE`` carries an index entry: every responsible peer the
        walk reaches (including this one) installs it.  A ``RANGE_QUERY``
        names a *collect* prefix: responsible peers return their entries
        under it.  A ``BREADTH_QUERY`` only reports the responders.
        """
        payload = request.payload
        kind = request.kind
        ref = _ref_from_entry(payload) if kind is MessageKind.PROPAGATE else None
        collect = payload.get("collect")
        budget = Budget(payload.get("budget", self.config.max_messages))
        stats = StepStats()
        stats.retry_delay = payload.get("retry_spent", 0.0)
        trav = Traversal(
            budget,
            stats,
            payload["recbreadth"],
            enumerate_subtree=payload.get("enumerate_subtree", False),
            seen=set(payload.get("seen", ())),
        )
        peer = self.peer
        me = peer.address
        entries: dict[Address, list[dict]] = {}

        def build(effect: Contact) -> Message:
            step = effect.payload
            if ref is not None:
                return propagate_message(
                    me,
                    effect.target,
                    key=ref.key,
                    holder=ref.holder,
                    version=ref.version,
                    deleted=ref.deleted,
                    query=step.query,
                    level=step.level,
                    recbreadth=step.recbreadth,
                    seen=sorted(trav.seen),
                    budget=budget.remaining - 1,
                    retry_spent=stats.retry_delay,
                )
            return breadth_message(
                me,
                effect.target,
                query=step.query,
                level=step.level,
                recbreadth=step.recbreadth,
                enumerate_subtree=step.enumerate_subtree,
                seen=sorted(trav.seen),
                budget=budget.remaining - 1,
                retry_spent=stats.retry_delay,
                collect=collect,
            )

        def resolve(reply: Message):
            answer = reply.payload
            _merge_costs(answer, budget, stats)
            trav.seen.update(answer.get("seen", ()))
            trav.responders.extend(answer.get("responders", answer.get("reached", [])))
            for responder, found in answer.get("entries", {}).items():
                entries.setdefault(responder, []).extend(found)

        def finish(_) -> Message:
            # The machine appends this hop's own address first iff responsible.
            if trav.responders and trav.responders[0] == me:
                if ref is not None:
                    peer.store.add_ref(ref)
                if collect is not None:
                    entries[me] = [
                        {
                            "key": r.key,
                            "holder": r.holder,
                            "version": r.version,
                            "deleted": r.deleted,
                        }
                        for r in peer.store.lookup(collect)
                    ]
            if ref is not None:
                return propagate_ack(
                    request,
                    trav.responders,
                    seen=sorted(trav.seen),
                    messages=stats.messages,
                    failed=stats.failed,
                    retry_delay=stats.retry_delay,
                    budget=budget.remaining,
                )
            return breadth_response(
                request,
                responders=list(trav.responders),
                seen=sorted(trav.seen),
                messages=stats.messages,
                failed=stats.failed,
                retry_delay=stats.retry_delay,
                budget=budget.remaining,
                entries=entries if kind is MessageKind.RANGE_QUERY else None,
            )

        machine = breadth_step(peer, payload["query"], payload["level"], self._ctx, trav)
        return machine, budget, kind, build, resolve, finish  # a walk forwards its own kind

    def _install(self, request: Message) -> Message:
        """Serve an ``UPDATE``: install the pushed entry, acknowledge."""
        self.peer.store.add_ref(_ref_from_entry(request.payload))
        return Message(
            kind=MessageKind.UPDATE_ACK,
            source=self.peer.address,
            destination=request.source,
            in_reply_to=request.message_id,
        )

    # -- operations this node's user starts --------------------------------------------

    def _local(self, request: Message, decode) -> Operation:
        """The operation a user of this node starts.

        It is *request* — what a peer would have sent this node to ask
        for the same thing — served here without a message or a liveness
        check, the budget the node's own; *decode* turns the reply's
        payload into the typed result.
        """
        machine, budget, kind, build, resolve, finish = self._request_op(request)
        return machine, budget, kind, build, resolve, lambda result: decode(finish(result).payload)

    def _search_op(self, query: str) -> Operation:
        keyspace.validate_key(query)
        return self._query_op({"query": query, "level": 0})

    def _breadth_request(
        self, query: str, recbreadth: int, enumerate_subtree: bool, collect: str | None = None
    ) -> Message:
        if recbreadth < 1:
            raise ValueError(f"recbreadth must be >= 1, got {recbreadth}")
        keyspace.validate_key(query)
        me = self.peer.address
        return breadth_message(
            me,
            me,
            query=query,
            level=0,
            recbreadth=recbreadth,
            enumerate_subtree=enumerate_subtree,
            seen=[],
            budget=self.config.max_messages,
            collect=collect,
        )

    def _walk_result(self, query: str, answer: dict) -> BreadthSearchResult:
        return BreadthSearchResult(
            query=query,
            start=self.peer.address,
            responders=answer["responders"],
            messages=answer["messages"],
            failed_attempts=answer["failed"],
            retry_delay=answer["retry_delay"],
        )

    def _search_breadth_op(
        self, query: str, recbreadth: int, enumerate_subtree: bool
    ) -> Operation:
        return self._local(
            self._breadth_request(query, recbreadth, enumerate_subtree),
            lambda answer: self._walk_result(query, answer),
        )

    def _sweep_op(self, prefix: str, recbreadth: int) -> Operation:
        """One cover prefix of a range query -> (walk result, entries).

        The responders' entries travel back in the replies instead of
        being read off their stores directly.
        """
        return self._local(
            self._breadth_request(prefix, recbreadth, True, collect=prefix),
            lambda answer: (
                self._walk_result(prefix, answer),
                {
                    responder: [_ref_from_entry(entry) for entry in found]
                    for responder, found in answer["entries"].items()
                },
            ),
        )

    def _range_result(
        self, low: str, high: str, cover: list[str], sweeps: list[tuple]
    ) -> RangeSearchResult:
        """Merge the per-prefix sweeps exactly as the engines' range scan."""
        by_prefix = dict(zip(cover, sweeps))
        responders, data_refs, messages, failed, retry_delay = run_range(
            low,
            high,
            cover=cover,
            search=lambda prefix: by_prefix[prefix][0],
            fetch=lambda responder, prefix: by_prefix[prefix][1].get(responder, []),
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

    def _publish_op(self, ref: DataRef, recbreadth: int) -> Operation:
        if recbreadth < 1:
            raise ValueError(f"recbreadth must be >= 1, got {recbreadth}")
        keyspace.validate_key(ref.key)
        me = self.peer.address
        request = propagate_message(
            me,
            me,
            key=ref.key,
            holder=ref.holder,
            version=ref.version,
            deleted=ref.deleted,
            query=ref.key,
            level=0,
            recbreadth=recbreadth,
        )
        return self._local(
            request,
            lambda answer: UpdateResult(
                key=ref.key,
                version=ref.version,
                reached=set(answer["reached"]),
                messages=answer["messages"],
                failed_attempts=answer["failed"],
                replica_count=self.grid.replica_count(ref.key),
            ),
        )

    def _push_op(self, destination: Address, ref: DataRef) -> Operation:
        """One ``UPDATE`` to *destination* under the retry policy.

        The machine is the shared :func:`contact_step` itself, so attempt
        bound, backoff and deadline are the routing contacts' — minus the
        healer: *destination* is not a routing reference of this peer.
        """
        me = self.peer.address
        machine = contact_step(
            Context(self.grid.rng, retry=self.retry), StepStats(), me, destination, 0, ref
        )

        def build(effect: Contact) -> Message:
            return update_message(
                me, destination, ref.key, ref.holder, ref.version, deleted=ref.deleted
            )

        # Budget(1) is never consumed (a push is one contact, not a walk);
        # the machine never resolves; its result is already "delivered?".
        return machine, Budget(1), MessageKind.UPDATE, build, None, bool


class PGridNode(NodeCore):
    """One networked peer over a synchronous transport.

    The class is the sync driver loop plus the public surface; every
    decision is inherited from :class:`NodeCore`.
    """

    def _run(self, op: Operation):
        """Drive *op*'s machine, answering effects over the transport."""
        machine, budget, kind, build, resolve, finish = op
        transport = self.transport
        me = self.peer.address
        response = reply = None
        while True:
            try:
                effect = machine.send(response)
            except StopIteration as stop:
                return finish(stop.value)
            cls = type(effect)
            if cls is Contact:
                if effect.delay:
                    # Retry backoff is simulated time spent waiting before
                    # this attempt; it accrues on the transport's clock.
                    transport.stats.simulated_time += effect.delay
                if budget.remaining <= 0:
                    response = self._liveness(effect.target)
                    continue
                # The gate first: a message exists only once it is admitted.
                response = transport.admit(kind, me, effect.target)
                if response is OK:
                    reply = transport.deliver(build(effect))
                    if reply is None:
                        response = OFFLINE
                elif response is not GONE:
                    response = OFFLINE  # offline, or dropped by loss / fault plan
            elif cls is Resolve:
                response = resolve(reply)
            else:
                raise TypeError(
                    f"unexpected effect for the message driver: {effect!r}"
                )

    def handle(self, message: Message) -> Message | None:
        """Transport entry point."""
        return self._run(self._request_op(message))

    def search(self, query: str) -> NodeSearchOutcome:
        """Search issued by this node's user (starts locally, no message)."""
        return self._run(self._search_op(query))

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
        return self._run(self._search_breadth_op(query, recbreadth, enumerate_subtree))

    def range_search(
        self, low: str, high: str, *, recbreadth: int = 2
    ) -> RangeSearchResult:
        """Range query over RANGE_QUERY messages.

        Same cover decomposition, deduplication and result type as
        :meth:`repro.core.search.SearchEngine.query_range`.
        """
        cover = keyspace.range_cover(low, high)
        sweeps = [self._run(self._sweep_op(prefix, recbreadth)) for prefix in cover]
        return self._range_result(low, high, cover, sweeps)

    def push_update(self, destination: Address, ref: DataRef) -> bool:
        """Send one index update to *destination*; True on delivery.

        Honors the full retry policy: bounded attempts, exponential
        backoff accrued on the transport's simulated clock, and the
        accumulated-delay deadline.  A destination with no handler is
        gone for good and is never retried.
        """
        return self._run(self._push_op(destination, ref))

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

    def publish(self, ref: DataRef, *, recbreadth: int = 2) -> UpdateResult:
        """:meth:`propagate_update` with the engines' full accounting.

        Returns the same :class:`~repro.core.updates.UpdateResult` shape
        as :meth:`repro.core.updates.UpdateEngine.propagate` (BFS
        strategy), so the driver facade can expose updates uniformly
        across drivers.
        """
        return self._run(self._publish_op(ref, recbreadth))


#: ``attach_nodes(grid, transport, *, retry=, healer=, config=)`` -> one
#: :class:`PGridNode` per peer, by address (see :meth:`NodeCore.attach`).
attach_nodes = PGridNode.attach
