"""Async message-driven P-Grid node: the awaited driver loop.

:class:`AsyncPGridNode` is :class:`~repro.net.node.PGridNode` with the
transport hop awaited instead of called.  Everything a node decides is
prepared by the shared :class:`~repro.net.node.NodeCore` (the prepare →
drive → finish contract is in :mod:`repro.net.node`); this module holds
only the **drive** step as asyncio makes it: each
:class:`~repro.protocol.Contact` is put to ``transport.admit`` (synchronous:
a refused contact builds no message) and, admitted, becomes one ``await
transport.deliver(...)`` — a slot in the destination's bounded mailbox,
then the destination's :meth:`~AsyncPGridNode.handle` awaited in this
very task — with the sync loop's status mapping, and a retry's backoff
is both accrued on the transport clock and slept on the transport's :mod:`~repro.aio.clock`, so
:class:`~repro.faults.RetryPolicy` deadlines mean the same thing here.
The machine stays a synchronous generator (all protocol randomness
happens inside it): concurrency lives in this loop, never in the protocol.

Determinism: every routing/retry decision draws from the grid RNG inside
the machines, in the same order as the engines and the sync node — so a
*sequential* workload over this driver is bit-identical to both (the
three-way equivalence suite).  Under *concurrent* load the draws
interleave per-operation; each operation still routes correctly (the
machines never share mutable state across operations), which is what the
swarm smoke test checks against ground truth.
"""

from __future__ import annotations

from repro.core import keys as keyspace
from repro.core.peer import Address
from repro.core.search import BreadthSearchResult, RangeSearchResult
from repro.core.storage import DataRef
from repro.core.updates import UpdateResult
from repro.errors import NoHandlerError
from repro.net.message import Message
from repro.net.node import NodeCore, NodeSearchOutcome, Operation
from repro.protocol.effects import GONE, OFFLINE, OK, Contact, Resolve
from repro.protocol.search import repeated_queries

__all__ = ["AsyncPGridNode", "attach_async_nodes"]


class AsyncPGridNode(NodeCore):
    """One networked peer served on an event loop over an async transport.

    Construction registers the node's async :meth:`handle` (and thereby
    its mailbox) on *transport*; ``retry`` / ``healer`` / ``config`` have
    exactly the :class:`~repro.net.node.PGridNode` semantics.  The class
    is the awaited driver loop plus the public surface; every decision is
    inherited from :class:`~repro.net.node.NodeCore`.
    """

    async def _run(self, op: Operation):
        """Drive *op*'s machine, answering effects over the async transport."""
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
                    # Retry backoff: accrue simulated time (as the sync
                    # loop does) AND spend it on the event-loop clock, so a
                    # RetryPolicy deadline maps onto real waiting under a
                    # realtime clock.
                    transport.stats.simulated_time += effect.delay
                    await transport.clock.sleep(effect.delay)
                if budget.remaining <= 0:
                    response = self._liveness(effect.target)
                    continue
                # The gate first: a message exists only once it is admitted.
                response = transport.admit(kind, me, effect.target)
                if response is OK:
                    try:
                        reply = await transport.deliver(build(effect))
                    except NoHandlerError:
                        response = GONE  # it left while the message was parked
                    else:
                        if reply is None:
                            response = OFFLINE
                elif response is not GONE:
                    response = OFFLINE  # offline, or dropped by loss / fault plan
            elif cls is Resolve:
                response = resolve(reply)
            else:
                raise TypeError(f"unexpected effect for the async driver: {effect!r}")

    async def handle(self, message: Message) -> Message | None:
        """Transport entry point (awaited in the requester's task, one call per message)."""
        return await self._run(self._request_op(message))

    async def search(self, query: str) -> NodeSearchOutcome:
        """Search issued by this node's user (starts locally, no message)."""
        return await self._run(self._search_op(query))

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
        return await self._run(
            self._search_breadth_op(query, recbreadth, enumerate_subtree)
        )

    async def range_search(
        self, low: str, high: str, *, recbreadth: int = 2
    ) -> RangeSearchResult:
        """Range query over RANGE_QUERY messages (see the sync node)."""
        cover = keyspace.range_cover(low, high)
        sweeps = [
            await self._run(self._sweep_op(prefix, recbreadth)) for prefix in cover
        ]
        return self._range_result(low, high, cover, sweeps)

    async def push_update(self, destination: Address, ref: DataRef) -> bool:
        """Send one index update to *destination*; True on delivery.

        Full :class:`~repro.faults.RetryPolicy` semantics: bounded
        attempts, exponential backoff spent on both the simulated clock
        and the event-loop clock, and the accumulated-delay deadline.
        """
        return await self._run(self._push_op(destination, ref))

    async def propagate_update(
        self, ref: DataRef, *, recbreadth: int = 2
    ) -> set[Address]:
        """Publish *ref* via PROPAGATE messages; returns the replicas reached."""
        return (await self.publish(ref, recbreadth=recbreadth)).reached

    async def publish(self, ref: DataRef, *, recbreadth: int = 2) -> UpdateResult:
        """:meth:`propagate_update` with the engines' full accounting."""
        return await self._run(self._publish_op(ref, recbreadth))


#: ``attach_async_nodes(grid, transport, *, retry=, healer=, config=)`` ->
#: one :class:`AsyncPGridNode` per peer of *grid*, registered on the
#: :class:`~repro.aio.transport.AsyncTransport` (see ``NodeCore.attach``).
attach_async_nodes = AsyncPGridNode.attach
