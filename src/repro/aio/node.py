"""Async message-driven P-Grid node: the protocol machines' third driver.

:class:`AsyncPGridNode` is :class:`~repro.net.node.PGridNode` with the
transport hop awaited instead of called: the *same* sans-I/O machines
(:mod:`repro.protocol`) run unchanged, driven by
:func:`repro.protocol.driver.drive_async`, and each
:class:`~repro.protocol.Contact` effect becomes one
``await transport.request(...)`` — an enqueue into the destination's
bounded mailbox plus an awaited reply future.  Error mapping is
identical to the sync node (:class:`~repro.errors.NoHandlerError` →
``GONE``; offline / dropped → ``OFFLINE``), and a retry's simulated
backoff is both accrued on the transport clock and awaited on the event
loop via the transport's :mod:`~repro.aio.clock`, so
:class:`~repro.faults.RetryPolicy` deadlines mean the same thing here.

Determinism: every routing/retry decision draws from the grid RNG inside
the machines, in the same order as the engines and the sync node — so a
*sequential* workload over this driver is bit-identical to both (the
three-way equivalence suite).  Under *concurrent* load the draws
interleave per-operation; each operation still routes correctly (the
machines are reorder-tolerant by construction: they never share mutable
state across operations), which is what the swarm smoke test checks
against ground truth.
"""

from __future__ import annotations

from repro.core import keys as keyspace
from repro.core.config import SearchConfig
from repro.core.grid import PGrid
from repro.core.peer import Address, Peer
from repro.core.search import BreadthSearchResult, RangeSearchResult
from repro.core.storage import DataRef
from repro.core.updates import UpdateResult
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
from repro.net.node import NodeSearchOutcome
from repro.protocol.contact import Budget, Context, StepStats
from repro.protocol.driver import drive_async
from repro.protocol.effects import GONE, OFFLINE, OK, Contact, Resolve
from repro.protocol.search import (
    Traversal,
    breadth_step,
    dfs_step,
    repeated_queries,
    run_range,
)

from repro.aio.transport import AsyncTransport

__all__ = ["AsyncPGridNode", "attach_async_nodes"]


class AsyncPGridNode:
    """One networked peer served as asyncio tasks over an async transport.

    Construction registers the node's async :meth:`handle` (and thereby
    its mailbox) on *transport*; ``retry`` / ``healer`` / ``config`` have
    exactly the :class:`~repro.net.node.PGridNode` semantics.
    """

    def __init__(
        self,
        peer: Peer,
        grid: PGrid,
        transport: AsyncTransport,
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

    async def _drive(self, gen, budget: Budget, stats: StepStats, build, resolve):
        """Run one machine, answering effects over the async transport.

        Same contract as the sync node's driver loop, expressed through
        :func:`repro.protocol.driver.drive_async`: *build* turns a
        :class:`Contact` effect into the wire message, *resolve* merges
        the pending reply into the operation state.
        """
        pending: Message | None = None

        async def execute(effect):
            nonlocal pending
            cls = type(effect)
            if cls is Contact:
                status, pending = await self._contact(effect, budget, stats, build)
                return status
            if cls is Resolve:
                return resolve(pending)
            raise TypeError(f"unexpected effect for the async driver: {effect!r}")

        return await drive_async(gen, execute)

    async def _contact(self, effect: Contact, budget: Budget, stats: StepStats, build):
        """One contact attempt over the transport -> (status, reply)."""
        if effect.delay:
            # Retry backoff: accrue simulated time (as the sync node does)
            # AND spend it on the event-loop clock, so a RetryPolicy
            # deadline maps onto real waiting under a realtime clock.
            self.transport.stats.simulated_time += effect.delay
            await self.transport.clock.sleep(effect.delay)
        if budget.remaining <= 0:
            # Budget spent: the machine stops right after this liveness
            # check — answer it locally without paying for a message.
            if not self.grid.has_peer(effect.target):
                return GONE, None
            return (OK if self.grid.is_online(effect.target) else OFFLINE), None
        message = build(effect)
        try:
            reply = await self.transport.request(message)
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

    async def _run_dfs(self, query: str, level: int, budget: Budget, stats: StepStats):
        """Drive the shared Fig. 2 machine; returns (found, responder, refs)."""
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

        found, responder = await self._drive(
            dfs_step(self.peer, query, level, self._ctx, budget, stats),
            budget,
            stats,
            build,
            resolve,
        )
        return found, responder, captured.get("refs")

    async def _handle_query(self, message: Message) -> Message:
        payload = message.payload
        query = payload["query"]
        level = payload["level"]
        budget = Budget(payload.get("budget", self.config.max_messages))
        stats = StepStats()
        stats.retry_delay = payload.get("retry_spent", 0.0)
        found, responder, refs = await self._run_dfs(query, level, budget, stats)
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

    async def _run_breadth(
        self,
        query: str,
        level: int,
        trav: Traversal,
        *,
        collect: str | None = None,
        ref: DataRef | None = None,
    ) -> dict[Address, list[dict]]:
        """Drive the shared breadth machine at this hop (see sync node)."""
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

        await self._drive(
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

    async def _handle_breadth(self, message: Message) -> Message:
        payload = message.payload
        trav = self._traversal_from(
            payload, enumerate_subtree=payload.get("enumerate_subtree", False)
        )
        entries = await self._run_breadth(
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

    async def _handle_propagate(self, message: Message) -> Message:
        payload = message.payload
        ref = DataRef(
            key=payload["key"],
            holder=payload["holder"],
            version=payload["version"],
            deleted=payload["deleted"],
        )
        trav = self._traversal_from(payload, enumerate_subtree=False)
        await self._run_breadth(payload["query"], payload["level"], trav, ref=ref)
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

    async def handle(self, message: Message) -> Message | None:
        """Transport entry point (runs as its own task per message)."""
        kind = message.kind
        if kind is MessageKind.QUERY:
            return await self._handle_query(message)
        if kind is MessageKind.BREADTH_QUERY or kind is MessageKind.RANGE_QUERY:
            return await self._handle_breadth(message)
        if kind is MessageKind.PROPAGATE:
            return await self._handle_propagate(message)
        if kind is MessageKind.UPDATE:
            return self._handle_update(message)
        if kind is MessageKind.PING:
            return pong(message)
        return None

    # -- local API (what the user of this node awaits) ------------------------------

    async def search(self, query: str) -> NodeSearchOutcome:
        """Search issued by this node's user (starts locally, no message)."""
        keyspace.validate_key(query)
        budget = Budget(self.config.max_messages)
        stats = StepStats()
        found, responder, refs = await self._run_dfs(query, 0, budget, stats)
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

    async def search_repeated(
        self, query: str, times: int
    ) -> tuple[set[Address], int, int]:
        """§5.2 update strategy 1 over messages: *times* independent
        searches; returns (responders, messages, failed attempts)."""
        results = [await self.search(query) for _ in range(times)]
        return repeated_queries(iter(results).__next__, times)

    async def search_breadth(
        self, query: str, recbreadth: int, *, enumerate_subtree: bool = False
    ) -> BreadthSearchResult:
        """Breadth-first search over BREADTH_QUERY messages (§3 strategy 3)."""
        if recbreadth < 1:
            raise ValueError(f"recbreadth must be >= 1, got {recbreadth}")
        keyspace.validate_key(query)
        trav = Traversal(
            Budget(self.config.max_messages),
            StepStats(),
            recbreadth,
            enumerate_subtree=enumerate_subtree,
        )
        await self._run_breadth(query, 0, trav)
        return BreadthSearchResult(
            query=query,
            start=self.peer.address,
            responders=list(trav.responders),
            messages=trav.stats.messages,
            failed_attempts=trav.stats.failed,
            retry_delay=trav.stats.retry_delay,
        )

    async def range_search(
        self, low: str, high: str, *, recbreadth: int = 2
    ) -> RangeSearchResult:
        """Range query over RANGE_QUERY messages (see the sync node)."""
        cover = keyspace.range_cover(low, high)
        collected: dict[str, dict[Address, list[DataRef]]] = {}
        sweeps: dict[str, BreadthSearchResult] = {}

        for prefix in cover:
            trav = Traversal(
                Budget(self.config.max_messages),
                StepStats(),
                recbreadth,
                enumerate_subtree=True,
            )
            entries = await self._run_breadth(prefix, 0, trav, collect=prefix)
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
            sweeps[prefix] = BreadthSearchResult(
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
            search=lambda prefix: sweeps[prefix],
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

    async def push_update(self, destination: Address, ref: DataRef) -> bool:
        """Send one index update to *destination*; True on delivery.

        Full :class:`~repro.faults.RetryPolicy` semantics: bounded
        attempts, exponential backoff spent on both the simulated clock
        and the event-loop clock, and the accumulated-delay deadline.
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
                await self.transport.request(message)
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
            await self.transport.clock.sleep(delay)

    async def propagate_update(
        self, ref: DataRef, *, recbreadth: int = 2
    ) -> set[Address]:
        """Publish *ref* via PROPAGATE messages; returns the replicas reached."""
        return (await self.publish(ref, recbreadth=recbreadth)).reached

    async def publish(self, ref: DataRef, *, recbreadth: int = 2) -> UpdateResult:
        """:meth:`propagate_update` with the engines' full accounting."""
        if recbreadth < 1:
            raise ValueError(f"recbreadth must be >= 1, got {recbreadth}")
        keyspace.validate_key(ref.key)
        trav = Traversal(
            Budget(self.config.max_messages), StepStats(), recbreadth
        )
        await self._run_breadth(ref.key, 0, trav, ref=ref)
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


def attach_async_nodes(
    grid: PGrid,
    transport: AsyncTransport,
    *,
    retry=None,
    healer=None,
    config: SearchConfig | None = None,
) -> dict[Address, AsyncPGridNode]:
    """Create one async node per peer of *grid*, registered on *transport*."""
    return {
        peer.address: AsyncPGridNode(
            peer, grid, transport, retry=retry, healer=healer, config=config
        )
        for peer in grid.peers()
    }
