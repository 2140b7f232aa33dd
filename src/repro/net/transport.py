"""Simulated transport: synchronous message delivery with failure modes.

``LocalTransport`` delivers messages to registered handlers in-process while
modelling the failure characteristics that matter to the paper's claims:

* *offline peers* — the gate consults the grid's online oracle; an offline
  peer is the paper's ``IF online(peer(r))`` guard answering "no";
* *message loss* — an optional independent drop probability;
* *latency* — an optional per-message latency model feeding a simulated
  clock, so experiments can report end-to-end response times, not only
  message counts.

Delivery has two halves.  :meth:`Gated.admit` — the pre-delivery gate,
written once for this transport and
:class:`repro.aio.transport.AsyncTransport` — takes ``(kind, source,
destination)``, needs no message, tallies and reports every refusal and
answers with a :class:`~repro.protocol.effects.ContactStatus` instead of
raising.  ``deliver(message)`` is the rest, for an admitted contact:
``arrive`` (latency sample, ``delivered`` tally; returns the handler), the
handler, then :meth:`Gated.postcheck` (the fault plan's post-delivery
faults).  The node drivers build the message after ``admit``, so a refused
contact (seven in ten at the paper's 30 % availability) costs a liveness
check, and push the destination's operation in place of the handler;
``send`` is ``admit`` and ``deliver`` for a caller holding a message.

A :class:`~repro.faults.FaultPlan` reaches either plane one way:
:meth:`Gated.install_faults`.

All traffic is counted per :class:`~repro.net.message.MessageKind` in a
:class:`TrafficStats`, which is what the networked examples report.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.core.grid import PGrid
from repro.core.peer import Address
from repro.errors import (
    InvalidConfigError,
    NoHandlerError,
    PeerOfflineError,
    TransportError,
)
from repro.net.message import Message, MessageKind
from repro.obs.probe import Probe
from repro.protocol.effects import DROPPED, GONE, OFFLINE, OK, ContactStatus
from repro.sim import rng as rngmod

Handler = Callable[[Message], Message | None]


@dataclass
class TrafficStats:
    """Per-kind message counters plus failure tallies."""

    delivered: Counter = field(default_factory=Counter)
    dropped: int = 0
    offline_failures: int = 0
    simulated_time: float = 0.0

    def total_delivered(self) -> int:
        """Total messages successfully delivered."""
        return sum(self.delivered.values())

    def snapshot(self) -> dict[str, object]:
        """Plain-dict copy for experiment records."""
        return {
            "delivered": {kind.value: n for kind, n in self.delivered.items()},
            "total_delivered": self.total_delivered(),
            "dropped": self.dropped,
            "offline_failures": self.offline_failures,
            "simulated_time": self.simulated_time,
        }


class LatencyModel(Protocol):
    """Maps one message to a simulated delivery delay."""

    def sample(self, message: Message) -> float:
        """Latency in arbitrary simulated time units."""
        ...  # pragma: no cover - protocol


class ConstantLatency:
    """Fixed latency per message hop."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.delay = delay

    def sample(self, message: Message) -> float:  # noqa: ARG002
        return self.delay


class UniformLatency:
    """Uniform latency in ``[low, high]`` per message hop."""

    def __init__(self, low: float, high: float, rng: random.Random) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got {low}, {high}")
        self.low = low
        self.high = high
        self._rng = rng

    def sample(self, message: Message) -> float:  # noqa: ARG002
        return self._rng.uniform(self.low, self.high)


class Gated:
    """What every message plane shares, written once: configuration, the
    registry of who can be reached, the fault plan in front of it
    (:meth:`install_faults`) and the pre-delivery gate (:meth:`admit`).
    Base of :class:`LocalTransport` and :class:`~repro.aio.transport.AsyncTransport`.
    """

    def __init__(
        self,
        grid: PGrid,
        *,
        loss_probability: float = 0.0,
        latency: LatencyModel | None = None,
        rng: random.Random | None = None,
        seed: int | None = None,
        probe: Probe | None = None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(f"loss_probability must be in [0, 1), got {loss_probability}")
        self.grid = grid
        self.loss_probability = loss_probability
        self.latency = latency
        # The loss model draws from its own stream, never from the grid's
        # protocol RNG: transport noise must not perturb the algorithms'
        # randomness (the engine/node equivalence suite depends on this).
        # An explicit ``rng`` wins; otherwise ``seed`` derives a dedicated
        # "transport" stream; a lossy transport with neither is an error.
        if rng is None and seed is not None:
            rng = rngmod.derive(seed, "transport")
        if loss_probability > 0.0 and rng is None:
            raise InvalidConfigError(
                "loss_probability > 0 requires an explicit rng= or seed= "
                "(the transport never draws from the grid's protocol RNG)"
            )
        self._rng = rng
        #: address -> what the plane keeps per registered peer (its handler,
        #: or the mailbox holding it).
        self._handlers: dict[Address, Any] = {}
        self.probe = probe
        self.stats = TrafficStats()
        #: The installed plan's :class:`~repro.faults.FaultInjector`, if any.
        self.faults = None

    def install_faults(self, plan, *, probe: Probe | None = None):
        """Put a :class:`~repro.faults.FaultPlan` in front of this transport.

        Builds the plan's :class:`~repro.faults.FaultInjector` over the
        grid and installs its composed availability oracle there; from
        then on the plan goes first through :meth:`admit` (crash check,
        drop coin) and its post-delivery faults (extra latency, crash
        coin, stale refs) end every ``deliver``.  Returns the injector, to
        crash / restart peers or read ``fault_stats``.  A transport takes
        one plan: a second raises :class:`InvalidConfigError` (it would
        compose over the first, which would keep crashing and drawing).
        """
        if self.faults is not None:
            raise InvalidConfigError("a fault plan is already installed on this transport")
        from repro.faults.inject import FaultInjector

        injector = FaultInjector(self.grid, plan, probe=probe)
        injector.install_oracle()
        self.faults = injector
        return injector

    def _register(self, address: Address, entry: Any) -> None:
        """Record *entry* for *address*, which must name a peer of the grid:
        the protocol could never reach a handler for a nonexistent peer
        (routing only targets grid references) — a configuration error."""
        if not self.grid.has_peer(address):
            raise InvalidConfigError(
                f"cannot register a handler for {address!r}: no such peer in the grid"
            )
        if address in self._handlers:
            raise TransportError(f"handler already registered for {address}")
        self._handlers[address] = entry

    def unregister(self, address: Address) -> None:
        """Detach the handler for *address* (peer leaves the network)."""
        self._handlers.pop(address, None)

    def count(self, kind: MessageKind) -> int:
        """Delivered messages of one kind."""
        return self.stats.delivered[kind]

    def admit(self, kind: MessageKind, source: Address, destination: Address) -> ContactStatus:
        """May a *kind* message from *source* reach *destination*?

        Checks run in a fixed order, each refusal tallied and reported to
        the probe where it is decided, each coin drawn from its own stream:

        1. the installed fault plan, if any: the destination is crashed
           (ticks its downtime) -> ``OFFLINE``; the plan's drop coin ->
           ``DROPPED``;
        2. no handler registered -> ``GONE`` (no tally: nothing was tried);
        3. the grid's online oracle (one availability draw) -> ``OFFLINE``;
        4. the transport's loss coin -> ``DROPPED``;

        otherwise ``OK``: the caller builds the message and hands it to
        ``deliver``.  Nothing is raised and no message is needed.
        """
        stats, faults = self.stats, self.faults
        if faults is not None:
            plan = faults.plan
            if faults._contact_crashed(destination):
                faults.fault_stats.crashed_contacts += 1
                stats.offline_failures += 1
                if faults.probe is not None:
                    faults.probe.on_transport(kind.value, source, destination, "crashed")
                return OFFLINE
            if plan.drop_probability and faults._drop_rng.random() < plan.drop_probability:
                faults.fault_stats.injected_drops += 1
                stats.dropped += 1
                if faults.probe is not None:
                    faults.probe.on_transport(kind.value, source, destination, "dropped")
                return DROPPED
        if destination not in self._handlers:
            return GONE
        if not self.grid.is_online(destination):
            stats.offline_failures += 1
            if self.probe is not None:
                self.probe.on_transport(kind.value, source, destination, "offline")
            return OFFLINE
        if self.loss_probability and self._rng.random() < self.loss_probability:
            stats.dropped += 1
            if self.probe is not None:
                self.probe.on_transport(kind.value, source, destination, "dropped")
            return DROPPED
        return OK

    def postcheck(self, message: Message) -> float:
        """The fault plan's faults after *message* was handled; returns the
        extra latency, already accrued on the simulated clock."""
        extra = 0.0 if self.faults is None else self.faults.postcheck(message)
        self.stats.simulated_time += extra
        return extra


def refusal(status: ContactStatus, message: Message) -> TransportError | PeerOfflineError:
    """The error ``send`` / ``request`` raise when the gate answered *status*."""
    if status is GONE:
        return NoHandlerError(message.destination)
    if status is OFFLINE:
        return PeerOfflineError(message.destination)
    return TransportError(f"message {message.message_id} to {message.destination} lost")


class LocalTransport(Gated):
    """In-process synchronous transport over a :class:`PGrid` population."""

    def register(self, address: Address, handler: Handler) -> None:
        """Attach the message handler for *address* (one per peer of the grid)."""
        self._register(address, handler)

    def arrive(self, message: Message) -> Handler:
        """The pre-handler half of delivering an admitted *message*: latency
        sample, ``delivered`` tally and probe event; returns its handler."""
        handler = self._handlers.get(message.destination)
        if handler is None:
            raise NoHandlerError(message.destination)
        if self.latency is not None:
            self.stats.simulated_time += self.latency.sample(message)
        self.stats.delivered[message.kind] += 1
        if self.probe is not None:
            self.probe.on_transport(
                message.kind.value, message.source, message.destination, "delivered"
            )
        return handler

    def deliver(self, message: Message) -> Message | None:
        """Hand an admitted *message* to its handler; return the reply
        (:meth:`arrive`, the handler, :meth:`postcheck`)."""
        reply = self.arrive(message)(message)
        self.postcheck(message)
        return reply

    def send(self, message: Message) -> Message | None:
        """:meth:`admit`, then :meth:`deliver`; the handler's synchronous reply.

        Raises :class:`PeerOfflineError` if the destination is offline,
        :class:`NoHandlerError` (a :class:`TransportError`) if it has no
        handler, and :class:`TransportError` if the message is dropped by
        the loss model.
        """
        status = self.admit(message.kind, message.source, message.destination)
        if status is not OK:
            raise refusal(status, message)
        return self.deliver(message)
