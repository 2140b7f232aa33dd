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
written once for this transport, :class:`repro.aio.transport.AsyncTransport`
and :class:`repro.faults.FaultInjector` — takes ``(kind, source,
destination)``, needs no message, tallies and reports every refusal and
answers with a :class:`~repro.protocol.effects.ContactStatus` instead of
raising.  ``deliver(message)`` is the rest, for an admitted contact: latency
sample, ``delivered`` tally, handler.  The node drivers build the message in
between, so a refused contact (seven in ten at the paper's 30 %
availability) costs a liveness check; ``send`` is the two in order for a
caller that already holds a message, raising :func:`refusal`'s error.

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
    registry of who can be reached, and the pre-delivery gate (:meth:`admit`).
    Base of :class:`LocalTransport` and :class:`~repro.aio.transport.AsyncTransport`;
    a :class:`repro.faults.FaultInjector` asks the same gate with itself as *faults*.
    """

    #: A fault injector installed on the transport itself
    #: (:meth:`AsyncTransport.install_faults`); its plan goes first.
    _faults = None

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

    def is_reachable(self, address: Address) -> bool:
        """Registered and currently online."""
        return address in self._handlers and self.grid.is_online(address)

    def count(self, kind: MessageKind) -> int:
        """Delivered messages of one kind."""
        return self.stats.delivered[kind]

    def admit(
        self, kind: MessageKind, source: Address, destination: Address, faults=None
    ) -> ContactStatus:
        """May a *kind* message from *source* reach *destination*?

        Checks run in a fixed order, each refusal tallied and reported to
        the probe where it is decided, each coin drawn from its own stream:

        1. the fault plan (*faults*, else the installed injector, if any):
           the destination is crashed (ticks its downtime) -> ``OFFLINE``;
           the plan's drop coin -> ``DROPPED``;
        2. no handler registered -> ``GONE`` (no tally: nothing was tried);
        3. the grid's online oracle (one availability draw) -> ``OFFLINE``;
        4. the transport's loss coin -> ``DROPPED``;

        otherwise ``OK``: the caller builds the message and hands it to
        ``deliver``.  Nothing is raised and no message is needed.
        """
        if faults is None:
            faults = self._faults
        stats = self.stats
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

    def deliver(self, message: Message) -> Message | None:
        """Hand an admitted *message* to its handler; return the reply
        (latency sample, ``delivered`` tally and probe event on the way)."""
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
        return handler(message)

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

    def try_send(self, message: Message) -> Message | None:
        """Like :meth:`send` but returns ``None`` on offline/lost instead of
        raising (the common pattern in the randomized algorithms)."""
        try:
            return self.send(message)
        except (PeerOfflineError, TransportError):
            return None
