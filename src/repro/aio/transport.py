"""Async transport: per-node mailboxes, delivered in the caller's task.

:class:`AsyncTransport` is the asyncio counterpart of
:class:`~repro.net.transport.LocalTransport`.  Delivery semantics are
identical — the very same synchronous pre-delivery gate, inherited
(:meth:`repro.net.transport.Gated.admit`: fault plan, missing handler,
offline oracle), the same :class:`TrafficStats` counters;
``await deliver(message)`` carries an admitted message to its handler
(``arrive``, the handler, ``postcheck``) and ``request`` is ``admit`` and
``deliver`` in order, raising for a refusal.  A delivered hop:

* one transport-wide gate, opened by :meth:`AsyncTransport.start` and
  closed by :meth:`AsyncTransport.stop`, decides when accepted messages
  are dispatched.  While it is open a message passes straight through
  (depth 1, no wait, no yield to the event loop); while it is closed the
  senders park in the destination's *mailbox*, a waiting room, and leave
  it in arrival order when the gate opens;
* the destination's operation then runs in the requester's task (pushed
  onto the node loop's stack), so the re-entrant walks of the protocol (A
  queries B, whose subtree queries A back) never wait on each other;
* cancelling (or timing out) a ``request`` unwinds the whole remote
  subtree it was waiting on; a sender cancelled while parked leaves the
  mailbox's depth and tallies consistent;
* mailbox depth and waiting time are tallied per node
  (:class:`MailboxStats`) and streamed to the observability layer via
  :meth:`repro.obs.probe.Probe.on_mailbox`.

Fault plans plug in through the inherited
:meth:`~repro.net.transport.Gated.install_faults`: the plan goes first
through ``admit`` (crash, drop coin) and its post-delivery faults (latency,
slept on the transport's clock; crash coin; stale refs) run after each
handler, from the same derived streams in the same order — a plan behaves
identically on either substrate.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.core.grid import PGrid
from repro.core.peer import Address
from repro.errors import NoHandlerError
from repro.net.message import Message
from repro.net.transport import Gated, refusal
from repro.obs.probe import Probe
from repro.protocol.effects import OK

from repro.aio.clock import VirtualClock

__all__ = ["AsyncHandler", "AsyncTransport", "MailboxStats"]

AsyncHandler = Callable[[Message], Awaitable[Message | None]]


@dataclass
class MailboxStats:
    """Depth/latency tallies for one node's mailbox."""

    enqueued: int = 0
    handled: int = 0
    max_depth: int = 0
    total_wait: float = 0.0
    max_wait: float = 0.0

    def snapshot(self) -> dict[str, object]:
        """Plain-dict copy for experiment records."""
        return {
            "enqueued": self.enqueued,
            "handled": self.handled,
            "max_depth": self.max_depth,
            "total_wait": self.total_wait,
            "max_wait": self.max_wait,
        }


class _Mailbox:
    """One node's waiting room: handler, tallies, current depth."""

    __slots__ = ("handler", "stats", "depth")

    def __init__(self, handler: AsyncHandler) -> None:
        self.handler = handler
        self.stats = MailboxStats()
        self.depth = 0


class AsyncTransport(Gated):
    """Mailbox-based asyncio transport over a :class:`PGrid` population."""

    def __init__(self, grid: PGrid, *, probe: Probe | None = None, clock=None) -> None:
        super().__init__(grid, probe=probe)
        self.clock = clock if clock is not None else VirtualClock()
        self.mailbox_stats: dict[Address, MailboxStats] = {}
        self._gate = asyncio.Event()  # set while started

    # -- registration / lifecycle ---------------------------------------------------

    def register(self, address: Address, handler: AsyncHandler) -> None:
        """Attach the async message handler (and mailbox) for *address*.
        (Unregistered again, senders parked in its mailbox get
        :class:`NoHandlerError` when the gate next opens.)"""
        box = _Mailbox(handler)
        self._register(address, box)
        self.mailbox_stats[address] = box.stats

    async def start(self) -> None:
        """Open the gate: parked and future messages are dispatched."""
        self._gate.set()

    async def stop(self) -> None:
        """Close the gate: messages accepted from now on park until the
        next :meth:`start`.  Requests already being handled run on in
        their callers' tasks; cancel those to abandon them."""
        self._gate.clear()

    # -- delivery -------------------------------------------------------------------

    async def arrive(self, message: Message) -> AsyncHandler:
        """Bring an admitted *message* to its handler, which is returned.

        ``delivered`` tally, then the mailbox: on a started transport the
        message passes straight through; on a stopped one the sender parks
        here until the next :meth:`start`.
        """
        destination = message.destination
        box: _Mailbox | None = self._handlers.get(destination)
        if box is None:
            raise NoHandlerError(destination)
        probe = self.probe
        self.stats.delivered[message.kind] += 1
        if probe is not None:
            probe.on_transport(
                message.kind.value, message.source, destination, "delivered"
            )
        stats, gate, wait = box.stats, self._gate, 0.0
        stats.enqueued += 1
        box.depth = depth = box.depth + 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        if probe is not None:
            probe.on_mailbox("enqueue", destination, depth=depth)
        try:
            if not gate.is_set():
                now = asyncio.get_running_loop().time
                parked_at = now()
                while not gate.is_set():  # closed again before we ran: stay parked
                    await gate.wait()
                wait = now() - parked_at
        finally:
            box.depth -= 1
        if self._handlers.get(destination) is not box:
            raise NoHandlerError(destination)  # the peer left while we waited
        stats.handled += 1
        if wait:
            stats.total_wait += wait
            if wait > stats.max_wait:
                stats.max_wait = wait
        if probe is not None:
            probe.on_mailbox("dequeue", destination, depth=box.depth, wait=wait)
        return box.handler

    async def deliver(self, message: Message) -> Message | None:
        """Carry an admitted *message* to its handler; return the reply:
        :meth:`arrive`, the handler in this task, then
        :meth:`~repro.net.transport.Gated.postcheck` (its latency slept)."""
        reply = await (await self.arrive(message))(message)
        extra = self.postcheck(message)
        if extra:
            await self.clock.sleep(extra)
        return reply

    async def request(self, message: Message) -> Message | None:
        """:meth:`admit`, then :meth:`deliver`; raises as
        :meth:`LocalTransport.send` does (no handler, offline, dropped)."""
        status = self.admit(message.kind, message.source, message.destination)
        if status is not OK:
            raise refusal(status, message)
        return await self.deliver(message)

    # -- reporting ------------------------------------------------------------------

    def max_mailbox_depth(self) -> int:
        """Largest mailbox depth observed across all nodes."""
        return max((s.max_depth for s in self.mailbox_stats.values()), default=0)

    def mailbox_snapshot(self) -> dict[str, object]:
        """Aggregate mailbox tallies for experiment records."""
        stats = list(self.mailbox_stats.values())
        handled = sum(s.handled for s in stats)
        total_wait = sum(s.total_wait for s in stats)
        return {
            "enqueued": sum(s.enqueued for s in stats),
            "handled": handled,
            "max_depth": self.max_mailbox_depth(),
            "mean_wait": (total_wait / handled) if handled else 0.0,
            "max_wait": max((s.max_wait for s in stats), default=0.0),
        }
