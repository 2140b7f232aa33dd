"""Typed effects: the vocabulary the sans-I/O state machines speak.

The protocol machines in :mod:`repro.protocol` never touch a grid, a
socket, or a transport.  They are generators that *yield* effects —
requests for the outside world — and receive the outcome of each effect
via ``send()``.  A driver (the in-process
:mod:`repro.protocol.direct` executor or the message-level
:class:`repro.net.node.PGridNode`) interprets each effect against its
I/O substrate:

``Contact(target, level, payload, delay)``
    Attempt to reach *target* (the paper's ``IF online(peer(r))`` guard
    fused with the delivery of *payload*).  The driver answers with a
    :class:`ContactStatus`: ``OK`` (the target answered; a message
    driver holds the reply for the matching :class:`Resolve`),
    ``OFFLINE`` (temporarily unavailable — retryable under the §2
    per-contact availability model), or ``GONE`` (dangling reference /
    unreachable destination — retrying cannot help).  ``delay`` carries
    the simulated backoff a retry attempt accrued, so message drivers
    can feed it into the transport's simulated clock.

``Resolve(target, payload)``
    Execute the protocol step *payload* at the previously-contacted
    *target* and return its outcome.  The direct driver recurses into
    the machine for the target peer; a message driver returns the reply
    it received for the corresponding :class:`Contact`.  Budget
    bookkeeping happens between ``Contact`` and ``Resolve`` — exactly
    where Fig. 2 consumes a message.

``FetchBuddies(target)``
    Ask for *target*'s buddy list in deterministic (sorted) order
    (update strategy 2 of §3).

``Record(event, args)``
    A probe observation (:class:`repro.obs.probe.Probe` hook name plus
    positional arguments).  Machines only emit ``Record`` when the
    driver declared an observer (``context.observed``), so the
    uninstrumented hot path allocates nothing.

``Deliver(result)``
    Terminal effect of the top-level machines: the typed operation
    result.  Drivers may consume it for delivery to the caller; the
    result is also the generator's return value.

Effect *payloads* (:class:`QueryStep`, :class:`BreadthStep`,
:class:`ExchangeStep`, :data:`BUDDY_PING`) mirror the arguments of the
paper's pseudo-code calls, which is what lets the message driver map
them 1:1 onto :mod:`repro.net.message` kinds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

__all__ = [
    "Address",
    "ContactStatus",
    "OK",
    "OFFLINE",
    "GONE",
    "DROPPED",
    "Contact",
    "Resolve",
    "FetchBuddies",
    "Record",
    "Deliver",
    "QueryStep",
    "BreadthStep",
    "ExchangeStep",
    "BUDDY_PING",
    "dispatch_record",
]

# The protocol layer depends only on pure key-string helpers
# (repro.core.keys) — never on grid, storage, or transport state;
# addresses are plain ints and peer-local state is duck-typed (anything
# with .address / .path / .depth / .routing.refs(level)).
Address = int


class ContactStatus(enum.Enum):
    """Driver's answer to a :class:`Contact` effect.  ``DROPPED`` is only a
    transport gate's word to its caller (so ``send`` can raise the right
    error); drivers answer a machine ``OFFLINE`` for it."""

    OK = "ok"
    OFFLINE = "offline"
    GONE = "gone"
    DROPPED = "dropped"


OK = ContactStatus.OK
OFFLINE = ContactStatus.OFFLINE
GONE = ContactStatus.GONE
DROPPED = ContactStatus.DROPPED


@dataclass(frozen=True, slots=True)
class Contact:
    """Attempt to reach *target* with *payload* at reference level *level*."""

    target: Address
    level: int
    payload: Any
    delay: float = 0.0


@dataclass(frozen=True, slots=True)
class Resolve:
    """Execute *payload* at the contacted *target*; returns its outcome."""

    target: Address
    payload: Any


@dataclass(frozen=True, slots=True)
class FetchBuddies:
    """Request *target*'s buddy list (sorted, deterministic)."""

    target: Address


@dataclass(frozen=True, slots=True)
class Record:
    """One probe observation: hook *event* with positional *args*."""

    event: str
    args: tuple


@dataclass(frozen=True, slots=True)
class Deliver:
    """Terminal effect: the operation's typed result."""

    result: Any


# -- effect payloads (pseudo-code call arguments) -----------------------------


@dataclass(frozen=True, slots=True)
class QueryStep:
    """Fig. 2 recursive call: ``query(peer(r), query, level)``."""

    query: str
    level: int


@dataclass(frozen=True, slots=True)
class BreadthStep:
    """§3 breadth-first step (search, range enumeration, update spread)."""

    query: str
    level: int
    recbreadth: int
    enumerate_subtree: bool = False


@dataclass(frozen=True, slots=True)
class ExchangeStep:
    """Fig. 3 case-4 recursion: ``exchange(partner, peer(r), depth)``."""

    partner: Address
    depth: int


#: Payload of the buddy-forwarding liveness contact (no data rides along:
#: the update itself is installed by the driver once the replica answers).
BUDDY_PING = "buddy-ping"


#: Record event name -> Probe hook name (identical today; kept explicit so
#: the wire vocabulary can evolve independently of the probe API).
_RECORD_HOOKS = {
    "forward": "on_forward",
    "offline_miss": "on_offline_miss",
    "backtrack": "on_backtrack",
    "responsible": "on_responsible",
    "exchange_case": "on_exchange_case",
}


def dispatch_record(probe: Any, record: Record) -> None:
    """Invoke the probe hook a :class:`Record` effect names.

    Shared by every driver so probe event streams are identical no matter
    which substrate executed the machine.
    """
    getattr(probe, _RECORD_HOOKS[record.event])(*record.args)
