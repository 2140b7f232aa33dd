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
framed request/response) and :func:`remote_search` (a Fig. 2 query to a
remote node, the outcome read off the response payload).  They share one
persistent connection per ``(event loop, host, port)``: each caller
writes its frame and one reader task hands every reply to the caller
waiting on its ``in_reply_to``, so no request pays a connect.  The server
answers a connection's frames one at a time, in order, so the callers of
one loop queue behind each other at the server.  When it goes away the
waiting callers get :class:`~repro.errors.TransportError` and the next
request connects anew; :func:`close_connections` closes the running loop's.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from contextlib import suppress

from repro.core.peer import Address
from repro.errors import NoHandlerError, PeerOfflineError, TransportError
from repro.net import wire
from repro.net.message import Message, MessageKind, pong, query_message, validate_request
from repro.net.node import NodeSearchOutcome

from repro.aio.swarm import AsyncSwarm

__all__ = ["SwarmServer", "close_connections", "remote_request", "remote_search"]


class SwarmServer:
    """TCP front door for one (started) :class:`AsyncSwarm`."""

    def __init__(self, swarm: AsyncSwarm, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.swarm = swarm
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self.accepted = 0
        self._connections: set[asyncio.StreamWriter] = set()
        self._idle: set[asyncio.Task] = set()  # connection handlers not inside a request

    @property
    def open_connections(self) -> int:
        return len(self._connections)

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop listening and close every open connection: clients hold
        theirs open, and from Python 3.12.1 ``wait_closed`` waits for them.
        Handlers between frames end with their connection and are waited for
        (before 3.12.1 ``wait_closed`` returns ahead of them); a request in
        flight is not: it completes against the swarm, its reply discarded."""
        if self._server is not None:
            self._server.close()
            for writer in self._connections:
                writer.close()
            idle = list(self._idle)
            await self._server.wait_closed()
            self._server = None
            if idle:
                await asyncio.wait(idle)

    async def __aenter__(self) -> "SwarmServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._server is None or not self._server.is_serving():
            writer.close()  # accepted as stop() ran, which could not see us yet
            return
        self.accepted += 1
        self._connections.add(writer)
        handler = asyncio.current_task()
        self._idle.add(handler)
        handler.add_done_callback(self._idle.discard)
        try:
            while True:  # one frame at a time: replies leave in request order
                try:
                    message = await wire.read_message(reader)
                except (wire.WireFormatError, OSError):
                    break  # protocol violation or reset: drop the connection
                if message is None:  # clean EOF
                    break
                self._idle.remove(handler)
                reply = await self._dispatch(message)
                self._idle.add(handler)
                try:
                    await wire.write_message(writer, reply)
                except OSError:
                    break  # the client left (or stop() closed us): reply discarded
        finally:
            self._connections.discard(writer)
            writer.close()
            with suppress(OSError):  # the peer reset first: closed all the same
                await writer.wait_closed()

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


class _Connection:
    """One socket to one server, shared by every caller on one event loop.

    Callers ``send`` their own frames (into a backlog while the connect is
    still under way); the one reader task resolves ``pending`` by
    ``in_reply_to``.  Whatever ends that task — a refused connect, EOF, a
    reset, an undecodable or unsolicited frame, cancellation — unregisters
    the connection and fails every waiting caller before the task is done.
    """

    def __init__(self, key: tuple[asyncio.AbstractEventLoop, str, int]) -> None:
        self.key = key
        self.pending: dict[int, asyncio.Future[Message]] = {}
        backlog: list[bytes] = []
        self.send: Callable[[bytes], object] = backlog.append
        self.writer: asyncio.StreamWriter | None = None
        self.task = key[0].create_task(self._run(backlog))
        # A task cancelled before its first step never reaches its finally.
        self.task.add_done_callback(lambda task: self._close())
        _connections[key] = self

    async def _run(self, backlog: list[bytes]) -> None:
        try:
            reader, self.writer = await asyncio.open_connection(*self.key[1:])
            self.writer.writelines(backlog)
            backlog.clear()
            self.send = self.writer.write
            while (reply := await wire.read_message(reader)) is not None:
                if not isinstance(reply.in_reply_to, int):
                    raise wire.WireFormatError(f"unsolicited {reply.kind.value} frame")
                # Nobody waiting: a late answer to a cancelled request.
                waiter = self.pending.get(reply.in_reply_to)
                if waiter is not None and not waiter.done():
                    waiter.set_result(reply)
        except Exception as exc:  # WireFormatError, OSError — or a bug: tell the callers
            self._close(f"failed: {exc!r}")
        finally:
            self._close()

    def _close(self, reason: str = "closed before reply") -> None:
        if _connections.get(self.key) is not self:
            return  # closed already: only the first reason counts
        _, host, port = self.key
        del _connections[self.key]
        if self.writer is not None:
            self.writer.close()
        for waiter in self.pending.values():
            if not waiter.done():  # a cancelled caller has yet to remove its own
                waiter.set_exception(TransportError(f"connection to {host}:{port} {reason}"))


#: (running event loop, host, port) -> that loop's live connection.
_connections: dict[tuple[asyncio.AbstractEventLoop, str, int], _Connection] = {}


async def remote_request(host: str, port: int, message: Message) -> Message:
    """One framed request/response round-trip over the loop's connection."""
    key = (asyncio.get_running_loop(), host, port)
    connection = _connections.get(key) or _Connection(key)
    pending, frame = connection.pending, wire.frame_message(message)
    waiter = pending[message.message_id] = key[0].create_future()
    # No drain: a caller has one frame unanswered, so the callers bound what
    # is buffered; a lost connection is the reader task's to report.
    connection.send(frame)
    try:
        return await waiter
    finally:
        del pending[message.message_id]


async def close_connections() -> None:
    """Close the running loop's client connections (``asyncio.run`` does so on exit)."""
    loop = asyncio.get_running_loop()
    for connection in [c for key, c in _connections.items() if key[0] is loop]:
        connection.task.cancel()
        await asyncio.wait([connection.task])
        if connection.writer is not None:
            with suppress(OSError):
                await connection.writer.wait_closed()


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
