"""Serve an async swarm over real sockets (the multi-process story).

:class:`SwarmServer` exposes the peers of one :class:`AsyncSwarm` on a
TCP endpoint using the :mod:`repro.net.wire` framing: each inbound frame
is one protocol :class:`~repro.net.message.Message`, injected through
the swarm's transport (so mailboxes, fault plans and traffic accounting
all apply), and the reply travels back as one frame on the same
connection.  A process hosting a slice of the keyspace and a process
holding none of it look identical on the wire — which is what lets a
swarm span processes or hosts.

The client side is two small helpers: :func:`remote_request` (one
framed request/response over a fresh connection) and
:func:`remote_search` (issue a Fig. 2 query to a remote node and read
the outcome off the response payload).
"""

from __future__ import annotations

import asyncio

from repro.core.peer import Address
from repro.errors import NoHandlerError, PeerOfflineError, TransportError
from repro.net import wire
from repro.net.message import Message, MessageKind, pong, query_message, validate_request
from repro.net.node import NodeSearchOutcome

from repro.aio.swarm import AsyncSwarm

__all__ = ["SwarmServer", "remote_request", "remote_search"]


class SwarmServer:
    """TCP front door for one (started) :class:`AsyncSwarm`."""

    def __init__(self, swarm: AsyncSwarm, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.swarm = swarm
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "SwarmServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    message = await wire.read_message(reader)
                except wire.WireFormatError:
                    break  # protocol violation: drop the connection
                if message is None:  # clean EOF
                    break
                reply = await self._dispatch(message)
                await wire.write_message(writer, reply)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, message: Message) -> Message:
        """Inject one remote message through the swarm's transport.

        This is the one place a message built by someone else enters the
        swarm, so it is validated here (and its budget clamped to the
        swarm's own limit); hop-to-hop messages come from our builders and
        are not re-checked.  Bad requests and delivery failures become
        PONG-framed error payloads rather than dropped connections: the
        remote caller learns *why* (bad request, offline, dropped, unknown
        peer) and can retry at its own policy.
        """
        try:
            message = validate_request(message, self.swarm.config.max_messages)
        except ValueError:
            return _error_reply(message, "bad-request")
        try:
            reply = await self.swarm.transport.request(message)
        except NoHandlerError:
            return _error_reply(message, "no-such-peer")
        except PeerOfflineError:
            return _error_reply(message, "offline")
        except TransportError:
            return _error_reply(message, "dropped")
        if reply is None:
            return pong(message)
        return reply


def _error_reply(request: Message, reason: str) -> Message:
    return Message(
        kind=MessageKind.PONG,
        source=request.destination,
        destination=request.source,
        payload={"error": reason},
        in_reply_to=request.message_id,
    )


async def remote_request(host: str, port: int, message: Message) -> Message:
    """One framed request/response round-trip over a fresh connection."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await wire.write_message(writer, message)
        reply = await wire.read_message(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if reply is None:
        raise TransportError(f"connection to {host}:{port} closed before reply")
    return reply


async def remote_search(
    host: str, port: int, start: Address, key: str, *, client: Address = -1
) -> NodeSearchOutcome:
    """Issue a Fig. 2 search at remote node *start*; decode the outcome.

    *client* is the source address stamped on the wire (it need not name
    a peer — replies route back over the connection, not the overlay).
    """
    reply = await remote_request(
        host, port, query_message(client, start, key, 0)
    )
    if reply.kind is not MessageKind.QUERY_RESPONSE:
        raise TransportError(
            f"remote search failed: {reply.payload.get('error', reply.kind.value)}"
        )
    return NodeSearchOutcome.from_payload(key, reply.payload)
