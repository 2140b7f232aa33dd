"""Typed messages of the simulated P-Grid protocol.

The paper's algorithms are specified as function calls between peers; to
measure communication cost as a *system* rather than inferring it, the
:mod:`repro.net` substrate executes them as explicit messages.  Each message
carries source/destination addresses and a payload mirroring the pseudo-code
arguments.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core import keys as keyspace
from repro.core.peer import Address

_message_ids = itertools.count(1)


class MessageKind(enum.Enum):
    """Protocol message types."""

    QUERY = "query"
    QUERY_RESPONSE = "query_response"
    BREADTH_QUERY = "breadth_query"
    BREADTH_RESPONSE = "breadth_response"
    RANGE_QUERY = "range_query"
    RANGE_RESPONSE = "range_response"
    EXCHANGE = "exchange"
    UPDATE = "update"
    UPDATE_ACK = "update_ack"
    PROPAGATE = "propagate"
    PROPAGATE_ACK = "propagate_ack"
    PING = "ping"
    PONG = "pong"

    # Members are singletons: hash by identity, in C.  Enum's own hash is a
    # Python call, paid twice per delivered message by the per-kind tally.
    __hash__ = object.__hash__


#: Request kind -> reply kind for the search family.
_RESPONSE_KIND = {
    MessageKind.BREADTH_QUERY: MessageKind.BREADTH_RESPONSE,
    MessageKind.RANGE_QUERY: MessageKind.RANGE_RESPONSE,
}


@dataclass(frozen=True)
class Message:
    """One protocol message.

    ``payload`` carries kind-specific fields (documented per helper below);
    ``message_id`` is unique per process and links responses to requests via
    ``in_reply_to``.
    """

    kind: MessageKind
    source: Address
    destination: Address
    payload: dict[str, Any] = field(default_factory=dict)
    message_id: int = field(default_factory=lambda: next(_message_ids))
    in_reply_to: int | None = None


def query_message(
    source: Address,
    destination: Address,
    query: str,
    level: int,
    *,
    prefix: str = "",
    budget: int | None = None,
    retry_spent: float = 0.0,
) -> Message:
    """Fig. 2 forward: ``query(peer(destination), query, level)``.

    ``prefix``: the ``level + 1`` bits the hop was routed on (none at the start).
    ``budget`` is the message budget remaining for the receiver's subtree
    (``None`` lets the receiver apply its own configured limit);
    ``retry_spent`` seeds the receiver's accumulated retry backoff so one
    :class:`~repro.faults.RetryPolicy` deadline governs the whole
    operation across hops.
    """
    payload: dict[str, Any] = {"query": query, "level": level}
    if prefix:
        payload["prefix"] = prefix
    if budget is not None:
        payload["budget"] = budget
    if retry_spent:
        payload["retry_spent"] = retry_spent
    return Message(
        kind=MessageKind.QUERY,
        source=source,
        destination=destination,
        payload=payload,
    )


def query_response(
    request: Message,
    *,
    found: bool,
    responder: Address | None,
    refs: list[dict] | None = None,
    messages: int = 0,
    failed: int = 0,
    retry_delay: float = 0.0,
    budget: int | None = None,
) -> Message:
    """Answer to a :data:`MessageKind.QUERY` message.

    ``messages`` / ``failed`` are the receiver subtree's *deltas* (the
    sender already accounted the request's own delivery); ``retry_delay``
    is the operation's *cumulative* backoff and ``budget`` the remaining
    message budget after the subtree ran.
    """
    payload: dict[str, Any] = {
        "found": found,
        "responder": responder,
        "refs": refs or [],
        "messages": messages,
        "failed": failed,
        "retry_delay": retry_delay,
    }
    if budget is not None:
        payload["budget"] = budget
    return Message(
        kind=MessageKind.QUERY_RESPONSE,
        source=request.destination,
        destination=request.source,
        payload=payload,
        in_reply_to=request.message_id,
    )


def breadth_message(
    source: Address,
    destination: Address,
    *,
    query: str,
    level: int,
    recbreadth: int,
    enumerate_subtree: bool = False,
    seen: list[Address],
    budget: int,
    retry_spent: float = 0.0,
    collect: str | None = None,
) -> Message:
    """Breadth-first fan-out step (§3 strategy 3 / range enumeration).

    ``seen`` carries the walk's visited set (delivery is synchronous, so
    threading it through payloads is equivalent to the in-process shared
    set).  With ``collect`` the message is a :data:`MessageKind.RANGE_QUERY`:
    responsible peers additionally return their index entries under the
    *collect* prefix, exactly what the in-process range scan reads off
    responder stores.
    """
    payload: dict[str, Any] = {
        "query": query,
        "level": level,
        "recbreadth": recbreadth,
        "enumerate_subtree": enumerate_subtree,
        "seen": seen,
        "budget": budget,
        "retry_spent": retry_spent,
    }
    kind = MessageKind.BREADTH_QUERY
    if collect is not None:
        kind = MessageKind.RANGE_QUERY
        payload["collect"] = collect
    return Message(kind=kind, source=source, destination=destination, payload=payload)


def breadth_response(
    request: Message,
    *,
    responders: list[Address],
    seen: list[Address],
    messages: int,
    failed: int,
    retry_delay: float,
    budget: int,
    entries: dict[Address, list[dict]] | None = None,
) -> Message:
    """Answer to a BREADTH_QUERY / RANGE_QUERY message.

    ``responders`` and ``entries`` are the receiver subtree's additions;
    ``seen`` is the walk's full visited set after the subtree ran.
    """
    payload: dict[str, Any] = {
        "responders": responders,
        "seen": seen,
        "messages": messages,
        "failed": failed,
        "retry_delay": retry_delay,
        "budget": budget,
    }
    if entries is not None:
        payload["entries"] = entries
    return Message(
        kind=_RESPONSE_KIND[request.kind],
        source=request.destination,
        destination=request.source,
        payload=payload,
        in_reply_to=request.message_id,
    )


def update_message(
    source: Address,
    destination: Address,
    key: str,
    holder: Address,
    version: int,
    *,
    deleted: bool = False,
) -> Message:
    """Deliver a (possibly fresher) index entry to a responsible peer.

    ``deleted`` marks a tombstone; it rides along only when set, so the
    frames of live entries are unchanged.
    """
    payload: dict[str, Any] = {"key": key, "holder": holder, "version": version}
    if deleted:
        payload["deleted"] = True
    return Message(
        kind=MessageKind.UPDATE,
        source=source,
        destination=destination,
        payload=payload,
    )


def propagate_message(
    source: Address,
    destination: Address,
    *,
    key: str,
    holder: Address,
    version: int,
    deleted: bool,
    query: str,
    level: int,
    recbreadth: int,
    seen: list[Address] | None = None,
    budget: int | None = None,
    retry_spent: float = 0.0,
) -> Message:
    """Breadth-first update propagation step (§3 strategy 3 over messages).

    ``query``/``level`` carry the routing state exactly like a QUERY; the
    full entry rides along so every responsible peer reached installs it
    immediately.  ``seen``/``budget``/``retry_spent`` thread the walk
    state exactly like :func:`breadth_message` (older senders that omit
    them get an empty visited set and the receiver's own budget).
    """
    payload: dict[str, Any] = {
        "key": key,
        "holder": holder,
        "version": version,
        "deleted": deleted,
        "query": query,
        "level": level,
        "recbreadth": recbreadth,
    }
    if seen is not None:
        payload["seen"] = seen
    if budget is not None:
        payload["budget"] = budget
    if retry_spent:
        payload["retry_spent"] = retry_spent
    return Message(
        kind=MessageKind.PROPAGATE,
        source=source,
        destination=destination,
        payload=payload,
    )


def propagate_ack(
    request: Message,
    reached: list[Address],
    *,
    seen: list[Address] | None = None,
    messages: int = 0,
    failed: int = 0,
    retry_delay: float = 0.0,
    budget: int | None = None,
) -> Message:
    """Aggregated acknowledgement: every replica this subtree installed."""
    payload: dict[str, Any] = {
        "reached": list(reached),
        "messages": messages,
        "failed": failed,
        "retry_delay": retry_delay,
    }
    if seen is not None:
        payload["seen"] = seen
    if budget is not None:
        payload["budget"] = budget
    return Message(
        kind=MessageKind.PROPAGATE_ACK,
        source=request.destination,
        destination=request.source,
        payload=payload,
        in_reply_to=request.message_id,
    )


def ping(source: Address, destination: Address) -> Message:
    """Liveness probe."""
    return Message(kind=MessageKind.PING, source=source, destination=destination)


def pong(request: Message) -> Message:
    """Liveness reply."""
    return Message(
        kind=MessageKind.PONG,
        source=request.destination,
        destination=request.source,
        in_reply_to=request.message_id,
    )


# -- requests from outside the program ------------------------------------------

_WALK_FIELDS = ("query", "level", "recbreadth")

#: Request kinds a node serves -> the payload fields its handler reads
#: unconditionally.
_REQUIRED_FIELDS: dict[MessageKind, tuple[str, ...]] = {
    MessageKind.QUERY: ("query", "level"),
    MessageKind.BREADTH_QUERY: _WALK_FIELDS,
    MessageKind.RANGE_QUERY: _WALK_FIELDS + ("collect",),
    MessageKind.PROPAGATE: _WALK_FIELDS + ("key", "holder", "version", "deleted"),
    MessageKind.UPDATE: ("key", "holder", "version"),
    MessageKind.PING: (),
}

_FIELD_TYPES: dict[str, type | tuple[type, ...]] = {
    "query": str,
    "key": str,
    "collect": str,
    "prefix": str,
    "level": int,
    "recbreadth": int,
    "holder": int,
    "version": int,
    "budget": int,
    "retry_spent": (int, float),
    "deleted": bool,
    "enumerate_subtree": bool,
    "seen": list,
}

_FIELD_MINIMUM = {"level": 0, "recbreadth": 1, "version": 0, "retry_spent": 0}


def validate_request(message: Message, max_budget: int) -> Message:
    """Check a request that came from outside the program; return it.

    The builders above are the only source of hop-to-hop messages, so the
    nodes trust their payloads; a front door (:mod:`repro.aio.tcp`) calls
    this once on what a remote client framed.  Raises :class:`ValueError`
    (:class:`~repro.errors.InvalidKeyError` for a non-binary key) unless
    *message* is a request kind the nodes serve, addressed between two
    addresses, with every field its handler reads present and of the
    right type and range (a ``prefix``: ``level + 1`` bits).  A ``budget``
    above *max_budget* — the server's own limit — is clamped in the returned message.
    """
    required = _REQUIRED_FIELDS.get(message.kind)
    if required is None:
        raise ValueError(f"{message.kind.value} is not a request the nodes serve")
    payload = message.payload
    if type(message.source) is not int or type(message.destination) is not int:
        raise ValueError("source and destination must be peer addresses")
    if not isinstance(payload, dict):
        raise ValueError(f"payload must be an object, got {payload!r}")
    for name in required:
        if name not in payload:
            raise ValueError(f"{message.kind.value} request without {name!r}")
    for name, value in payload.items():
        expected = _FIELD_TYPES.get(name)
        if expected is None:
            continue  # the handlers read only the fields they know
        if not isinstance(value, expected) or (
            expected is not bool and isinstance(value, bool)
        ):
            raise ValueError(f"field {name!r} has the wrong type: {value!r}")
        if expected is str:
            keyspace.validate_key(value)
        elif name in _FIELD_MINIMUM and value < _FIELD_MINIMUM[name]:
            raise ValueError(f"field {name!r} must be >= {_FIELD_MINIMUM[name]}, got {value}")
    if not all(type(address) is int for address in payload.get("seen", ())):
        raise ValueError("'seen' must list peer addresses")
    if (prefix := payload.get("prefix")) is not None and len(prefix) != payload.get("level", 0) + 1:
        raise ValueError(f"'prefix' must hold level + 1 bits, got {prefix!r}")
    if payload.get("budget", 0) > max_budget:
        message = replace(message, payload={**payload, "budget": max_budget})
    return message
