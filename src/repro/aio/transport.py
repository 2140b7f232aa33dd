"""Async transport: bounded per-node mailboxes, delivered in the caller's task.

:class:`AsyncTransport` is the asyncio counterpart of
:class:`~repro.net.transport.LocalTransport`.  Delivery semantics are
identical — the very same synchronous pre-delivery gate, inherited
(:meth:`repro.net.transport.Gated.admit`: fault plan, missing handler,
offline oracle, loss coin), the same :class:`TrafficStats` counters and
transport RNG stream; ``await deliver(message)`` carries an admitted message
to its handler and ``request`` is the two in order, raising for a refusal.
A delivered hop is one awaited call:

* every registered address owns a *mailbox*: a waiting room of
  ``mailbox_size`` slots.  An accepted message holds a slot until it is
  dispatched; with every slot taken ``await request(...)`` blocks, which
  is the backpressure that keeps a node from being buried;
* one transport-wide gate, opened by :meth:`AsyncTransport.start` and
  closed by :meth:`AsyncTransport.stop`, decides when accepted messages
  are dispatched.  While it is open a message passes straight through
  (depth 1, no wait, no yield to the event loop); while it is closed the
  senders park in the waiting room, in arrival order;
* the slot is released *before* the handler runs, and the handler runs in
  the requester's own task.  ``mailbox_size`` therefore bounds the
  messages waiting at a node, never the handlers in progress — the
  re-entrant chains the recursive protocol produces (node A queries B,
  whose subtree queries A back) would deadlock on such a bound;
* cancelling (or timing out) a ``request`` unwinds the whole remote
  subtree it was waiting on; a sender cancelled while parked gives its
  slot back;
* mailbox depth and waiting time are tallied per node
  (:class:`MailboxStats`) and streamed to the observability layer via
  :meth:`repro.obs.probe.Probe.on_mailbox`.

Fault plans plug in through :meth:`install_faults`: the sync stack's
:class:`~repro.faults.FaultInjector` goes first through ``admit`` (crash,
drop coin) and runs its post-delivery faults (latency, crash coin, stale
refs) after each handler, from the same derived streams in the same order
— a plan behaves identically on either substrate.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.core.grid import PGrid
from repro.core.peer import Address
from repro.errors import NoHandlerError, PeerOfflineError, TransportError
from repro.net.message import Message
from repro.net.transport import Gated, LatencyModel, refusal
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
    """One node's waiting room: handler, free slots, tallies, current depth."""

    __slots__ = ("handler", "slots", "stats", "depth")

    def __init__(self, handler: AsyncHandler, size: int) -> None:
        self.handler = handler
        self.slots = asyncio.Semaphore(size)
        self.stats = MailboxStats()
        self.depth = 0


class AsyncTransport(Gated):
    """Mailbox-based asyncio transport over a :class:`PGrid` population."""

    def __init__(
        self,
        grid: PGrid,
        *,
        mailbox_size: int = 64,
        loss_probability: float = 0.0,
        latency: LatencyModel | None = None,
        rng: random.Random | None = None,
        seed: int | None = None,
        probe: Probe | None = None,
        clock=None,
    ) -> None:
        if mailbox_size < 1:
            raise ValueError(f"mailbox_size must be >= 1, got {mailbox_size}")
        super().__init__(grid, loss_probability=loss_probability, latency=latency,
                         rng=rng, seed=seed, probe=probe)
        self.mailbox_size = mailbox_size
        self.clock = clock if clock is not None else VirtualClock()
        self.mailbox_stats: dict[Address, MailboxStats] = {}
        self._gate = asyncio.Event()  # set while started

    # -- registration / lifecycle ---------------------------------------------------

    def register(self, address: Address, handler: AsyncHandler) -> None:
        """Attach the async message handler (and mailbox) for *address*.
        (Unregistered again, senders parked in its mailbox get
        :class:`NoHandlerError` when the gate next opens.)"""
        box = _Mailbox(handler, self.mailbox_size)
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

    def install_faults(self, plan, *, probe: Probe | None = None):
        """Wire a :class:`~repro.faults.FaultPlan` into this transport.

        Builds the standard :class:`~repro.faults.FaultInjector` over this
        transport (it only needs ``grid``/``stats``), installs its
        composed availability oracle on the grid; from then on its plan
        goes first through :meth:`admit` and its post-delivery faults end
        every :meth:`deliver`.  Returns the injector so callers can
        crash/restart peers or read ``fault_stats``.
        """
        from repro.faults.inject import FaultInjector

        injector = FaultInjector(self, plan, probe=probe)
        injector.install_oracle()
        self._faults = injector
        return injector

    @property
    def faults(self):
        """The installed :class:`~repro.faults.FaultInjector`, if any."""
        return self._faults

    # -- delivery -------------------------------------------------------------------

    async def deliver(self, message: Message) -> Message | None:
        """Carry an admitted *message* to its handler; return the reply.

        Latency sample (slept on the clock), ``delivered`` tally, mailbox.
        A full destination mailbox blocks here — backpressure on the
        caller, not silent loss — and so does a stopped transport; the
        handler then runs in this task, after the slot is given back,
        and the fault plan's post-delivery faults after it.
        """
        destination = message.destination
        box: _Mailbox | None = self._handlers.get(destination)
        if box is None:
            raise NoHandlerError(destination)
        probe = self.probe
        if self.latency is not None:
            delay = self.latency.sample(message)
            self.stats.simulated_time += delay
            await self.clock.sleep(delay)
        self.stats.delivered[message.kind] += 1
        if probe is not None:
            probe.on_transport(
                message.kind.value, message.source, destination, "delivered"
            )
        stats, gate, slots, wait = box.stats, self._gate, box.slots, 0.0
        # Open gate, free slot: straight through — the slot would be taken
        # and given back with no yield in between.
        held = not gate.is_set() or slots.locked()
        if held:
            await slots.acquire()
        try:
            stats.enqueued += 1
            box.depth = depth = box.depth + 1
            if depth > stats.max_depth:
                stats.max_depth = depth
            if probe is not None:
                probe.on_mailbox("enqueue", destination, depth=depth)
            if held and not gate.is_set():
                now = asyncio.get_running_loop().time
                parked_at = now()
                while not gate.is_set():  # closed again before we ran: stay parked
                    await gate.wait()
                wait = now() - parked_at
        finally:
            box.depth -= 1
            if held:
                slots.release()
        if self._handlers.get(destination) is not box:
            raise NoHandlerError(destination)  # the peer left while we waited
        stats.handled += 1
        if wait:
            stats.total_wait += wait
            if wait > stats.max_wait:
                stats.max_wait = wait
        if probe is not None:
            probe.on_mailbox("dequeue", destination, depth=box.depth, wait=wait)
        reply = await box.handler(message)
        faults = self._faults
        if faults is not None:
            extra = faults.postcheck(message)
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

    async def try_request(self, message: Message) -> Message | None:
        """Like :meth:`request` but returns ``None`` on offline/lost."""
        try:
            return await self.request(message)
        except (PeerOfflineError, TransportError):
            return None

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
