"""SwarmServer: the wire framing serving a live swarm over real TCP.

One process, real sockets: a client speaking the length-prefixed JSON
frames of :mod:`repro.net.wire` must get the same answers a co-located
caller gets from the swarm directly, and failures must come back as
framed error replies, never dropped connections.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import struct

import pytest

from repro.core.config import SearchConfig
from repro.errors import NoHandlerError, PeerOfflineError, TransportError
from repro.net import wire
from repro.net.message import (
    _REQUIRED_FIELDS,
    Message,
    MessageKind,
    breadth_message,
    ping,
    pong,
    propagate_message,
    query_message,
    update_message,
)
from tests.conftest import build_grid

from repro.aio import tcp
from repro.aio.swarm import AsyncSwarm, seed_items
from repro.aio.tcp import SwarmServer, close_connections, remote_request, remote_search


def make_served_swarm(n=32, maxl=4, seed=11):
    grid = build_grid(n, maxl=maxl, refmax=2, seed=seed)
    keys = seed_items(grid, seed=1)
    return grid, AsyncSwarm(grid), keys


def test_remote_search_matches_local():
    grid, swarm, keys = make_served_swarm()

    async def scenario():
        async with swarm:
            async with SwarmServer(swarm) as server:
                host, port = server.host, server.port
                for key in keys[:5]:
                    local = await swarm.search(0, key)
                    remote = await remote_search(host, port, 0, key)
                    # routing is randomized per operation, so responders
                    # may differ — but both must hit the replica set and
                    # return the same index entries
                    assert remote.found and local.found
                    assert remote.responder in grid.replicas_for_key(key)
                    assert remote.query == key
                    assert {(r.key, r.holder) for r in remote.data_refs} == {
                        (r.key, r.holder) for r in local.data_refs
                    }

    asyncio.run(scenario())


def test_remote_ping_pong():
    grid, swarm, _ = make_served_swarm(n=16, maxl=3)

    async def scenario():
        async with swarm:
            async with SwarmServer(swarm) as server:
                host, port = server.host, server.port
                reply = await remote_request(host, port, ping(-1, 0))
                assert reply.kind is MessageKind.PONG

    asyncio.run(scenario())


def test_remote_error_comes_back_framed():
    """A query for an unregistered address is answered with a framed
    error reply; the connection survives for the next request."""
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)

    async def scenario():
        async with swarm:
            async with SwarmServer(swarm) as server:
                host, port = server.host, server.port
                with pytest.raises(TransportError, match="remote search"):
                    await remote_search(host, port, 9999, keys[0])
                # server is still healthy afterwards
                outcome = await remote_search(host, port, 0, keys[0])
                assert outcome.found

    asyncio.run(scenario())


def test_many_concurrent_remote_clients():
    grid, swarm, keys = make_served_swarm()

    async def scenario():
        async with swarm:
            async with SwarmServer(swarm) as server:
                host, port = server.host, server.port
                outcomes = await asyncio.gather(
                    *(
                        remote_search(host, port, start % len(grid.addresses()), key)
                        for start, key in enumerate(keys * 3)
                    )
                )
                assert all(o.found for o in outcomes)

    asyncio.run(scenario())


def test_one_connection_many_requests():
    """Frames pipeline over a single connection in order."""
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)

    async def scenario():
        async with swarm:
            async with SwarmServer(swarm) as server:
                host, port = server.host, server.port
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    requests = [
                        query_message(-1, 0, key, 0) for key in keys[:4]
                    ]
                    for request in requests:
                        await wire.write_message(writer, request)
                    for request in requests:
                        reply = await wire.read_message(reader)
                        assert reply is not None
                        assert reply.in_reply_to == request.message_id
                        assert reply.payload["found"] is True
                finally:
                    writer.close()
                    await writer.wait_closed()

    asyncio.run(scenario())


# -- the front door does not trust what a client framed -----------------------------------


def _framed_query(**payload) -> Message:
    """A QUERY frame as a client could hand-roll it (no builder checks)."""
    return Message(MessageKind.QUERY, source=-1, destination=0, payload=payload)


@pytest.mark.parametrize(
    "request_message",
    [
        _framed_query(query="101"),  # no level: used to kill the connection
        _framed_query(query="1x", level=0),  # used to burn the whole budget
        _framed_query(query="101", level=-1),
        _framed_query(query="101", level="0"),
        _framed_query(query="101", level=0, budget="all"),
        Message(MessageKind.BREADTH_QUERY, -1, 0, {"query": "1", "level": 0, "recbreadth": 0}),
        Message(MessageKind.UPDATE, -1, 0, {"key": "1", "holder": 0, "version": -1}),
        Message(MessageKind.QUERY, -1, [0], {"query": "101", "level": 0}),
        Message(MessageKind.QUERY_RESPONSE, -1, 0, {"found": True}),
    ],
    ids=[
        "missing-field", "non-binary-key", "negative-level", "mistyped-level",
        "mistyped-budget", "zero-recbreadth", "negative-version", "bad-destination",
        "not-a-request",
    ],
)
def test_bad_request_is_refused_before_any_work(request_message):
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)

    async def scenario():
        async with swarm:
            async with SwarmServer(swarm) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                try:
                    await wire.write_message(writer, request_message)
                    refusal = await wire.read_message(reader)
                    # ... and the same connection still serves the next request.
                    await wire.write_message(writer, query_message(-1, 0, keys[0], 0))
                    answer = await wire.read_message(reader)
                finally:
                    writer.close()
                    await writer.wait_closed()
                return refusal, answer

    refusal, answer = asyncio.run(scenario())
    assert refusal.kind is MessageKind.PONG
    assert refusal.payload == {"error": "bad-request"}
    assert refusal.in_reply_to == request_message.message_id
    assert answer.payload["found"] is True
    # Only the well-formed query reached the swarm.
    assert swarm.transport.count(MessageKind.QUERY) == 1 + answer.payload["messages"]


def test_client_budget_is_clamped_to_the_servers_limit():
    grid = build_grid(32, maxl=4, refmax=2, seed=11)
    keys = seed_items(grid, seed=1)
    limit = 2
    swarm = AsyncSwarm(grid, config=SearchConfig(max_messages=limit))

    async def scenario():
        async with swarm:
            async with SwarmServer(swarm) as server:
                return [
                    await remote_request(
                        server.host, server.port, query_message(-1, 0, key, 0, budget=10**9)
                    )
                    for key in keys
                ]

    replies = asyncio.run(scenario())
    assert all(reply.kind is MessageKind.QUERY_RESPONSE for reply in replies)
    assert all(0 <= reply.payload["budget"] <= limit for reply in replies)
    assert max(reply.payload["messages"] for reply in replies) == limit  # some hit it
    # Per request: the injected frame itself plus at most `limit` forwards.
    assert swarm.transport.stats.total_delivered() <= len(keys) * (1 + limit)


# -- one persistent connection per (event loop, server) -----------------------------------


def hold_requests(swarm):
    """Park every message entering the swarm's transport until released."""
    deliver = swarm.transport.request
    entered, release = asyncio.Event(), asyncio.Event()

    async def held(message):
        entered.set()
        await release.wait()
        return await deliver(message)

    swarm.transport.request = held
    return entered, release


async def drained(server):
    """Wait (bounded) for the server to notice its clients hung up."""
    for _ in range(200):
        if server.open_connections == 0:
            return True
        await asyncio.sleep(0.01)
    return False


def test_concurrent_searches_share_one_connection():
    grid, swarm, keys = make_served_swarm()
    jobs = [(start % len(grid.addresses()), keys[start % len(keys)]) for start in range(64)]

    async def scenario():
        async with swarm:
            async with SwarmServer(swarm) as server:
                local = [await swarm.search(start, key) for start, key in jobs]
                remote = await asyncio.gather(
                    *(remote_search(server.host, server.port, start, key) for start, key in jobs)
                )
                return local, remote, server.accepted, server.open_connections

    local, remote, accepted, open_connections = asyncio.run(scenario())
    assert accepted == open_connections == 1
    for (_, key), here, there in zip(jobs, local, remote):
        assert there.query == key
        assert there.found and here.found
        assert there.responder in grid.replicas_for_key(key)
        assert {(r.key, r.holder) for r in there.data_refs} == {
            (r.key, r.holder) for r in here.data_refs
        }


def test_server_stop_fails_the_request_in_flight_and_a_restart_is_reached():
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)

    async def scenario():
        async with swarm:
            server = SwarmServer(swarm)
            host, port = await server.start()
            assert (await remote_search(host, port, 0, keys[0])).found
            delivered = swarm.transport.count(MessageKind.QUERY)
            entered, release = hold_requests(swarm)
            caller = asyncio.ensure_future(remote_search(host, port, 0, keys[1]))
            await entered.wait()
            await asyncio.wait_for(server.stop(), 2)
            with pytest.raises(TransportError, match="closed before reply"):
                await caller
            # The request still completes against the swarm; its reply is discarded.
            release.set()
            while swarm.transport.count(MessageKind.QUERY) == delivered:
                await asyncio.sleep(0.01)
            # Nobody listening: the caller is told, and nothing stays registered ...
            with pytest.raises(TransportError, match="failed"):
                await remote_search(host, port, 0, keys[0])
            # ... so a server back on the same port is reached by the very next call.
            async with SwarmServer(swarm, host=host, port=port) as restarted:
                assert (await remote_search(host, port, 0, keys[1])).found
                assert restarted.accepted == 1
            return server.accepted, server.open_connections

    assert asyncio.run(scenario()) == (1, 0)


def test_stop_returns_with_an_idle_client_attached():
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)

    async def scenario():
        async with swarm:
            server = SwarmServer(swarm)
            host, port = await server.start()
            assert (await remote_search(host, port, 0, keys[0])).found
            assert server.open_connections == 1
            await asyncio.wait_for(server.stop(), 2)
            assert await drained(server)

    asyncio.run(scenario())


def test_stop_waits_for_the_handlers_between_frames():
    """Before Python 3.12.1 ``Server.wait_closed()`` returns while idle
    connection handlers are still unwinding; ``stop()`` sees them out, so
    none is left for ``asyncio.run`` to cancel."""
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)

    async def scenario():
        async with swarm:
            server = SwarmServer(swarm)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            await wire.write_message(writer, ping(-1, 0))
            assert (await wire.read_message(reader)).kind is MessageKind.PONG
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            assert len(handlers) == 1
            await server.stop()
            done = [handler.done() for handler in handlers]
            writer.close()
            await writer.wait_closed()
            return done, server.open_connections

    assert asyncio.run(scenario()) == ([True], 0)


def test_connection_accepted_while_stopping_is_closed_not_served():
    """``stop()`` cannot close a connection the loop has accepted but whose
    handler has yet to take its first step; from Python 3.12.1 ``wait_closed``
    waits for it, and a persistent client never hangs up by itself."""
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)

    class StoppedBeforeTheHandlerRuns(SwarmServer):
        async def _serve_connection(self, reader, writer):
            self.stopping = asyncio.ensure_future(self.stop())
            await asyncio.sleep(0)  # stop() is now inside wait_closed()
            await super()._serve_connection(reader, writer)

    async def scenario():
        async with swarm:
            server = StoppedBeforeTheHandlerRuns(swarm)
            host, port = await server.start()
            with pytest.raises(TransportError):
                await asyncio.wait_for(remote_search(host, port, 0, keys[0]), 5)
            await asyncio.wait_for(server.stopping, 2)
            return server.accepted, server.open_connections, len(tcp._connections)

    assert asyncio.run(scenario()) == (0, 0, 0)


def test_stop_gathered_with_the_first_request_returns():
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)

    async def scenario():
        async with swarm:
            server = SwarmServer(swarm)
            host, port = await server.start()
            outcome, _ = await asyncio.wait_for(
                asyncio.gather(
                    remote_search(host, port, 0, keys[0]), server.stop(), return_exceptions=True
                ),
                5,
            )
            assert isinstance(outcome, TransportError) or outcome.found
            assert await drained(server)

    asyncio.run(scenario())


def test_back_to_back_event_loops_never_share_a_connection():
    """Same host and port under two ``asyncio.run`` calls: the second loop
    must connect for itself, not inherit the first loop's dead socket."""

    async def scenario(port):
        grid, swarm, keys = make_served_swarm(n=16, maxl=3)
        async with swarm:
            async with SwarmServer(swarm, port=port) as server:
                for key in keys[:3]:
                    assert (await remote_search(server.host, server.port, 0, key)).found
                return server.port, server.accepted

    port, accepted = asyncio.run(scenario(0))
    assert accepted == 1
    assert not tcp._connections  # asyncio.run closed the loop's connections
    assert asyncio.run(scenario(port)) == (port, 1)
    assert not tcp._connections


def test_timed_out_request_leaves_the_connection_usable():
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)

    async def scenario():
        async with swarm:
            async with SwarmServer(swarm) as server:
                host, port = server.host, server.port
                assert (await remote_search(host, port, 0, keys[0])).found
                entered, release = hold_requests(swarm)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(remote_search(host, port, 0, keys[1]), 0.05)
                assert entered.is_set()
                release.set()
                # The late reply matches nobody and is dropped; the next one is ours.
                outcome = await asyncio.wait_for(remote_search(host, port, 0, keys[2]), 5)
                assert outcome.found and outcome.query == keys[2]
                assert not tcp._connections[asyncio.get_running_loop(), host, port].pending
                return server.accepted

    assert asyncio.run(scenario()) == 1


class FakeServer:
    """Reads one request per connection, answers with *answer(request)* bytes
    and then holds the line (or hangs up at once)."""

    def __init__(self, answer, *, hang_up=False):
        self.answer = answer
        self.hang_up = hang_up
        self.accepted = 0

    async def __aenter__(self):
        self.server = await asyncio.start_server(self.serve, "127.0.0.1", 0)
        self.host, self.port = self.server.sockets[0].getsockname()[:2]
        return self

    async def __aexit__(self, *exc):
        self.server.close()
        await self.server.wait_closed()

    async def serve(self, reader, writer):
        self.accepted += 1
        try:
            request = await wire.read_message(reader)
            writer.write(self.answer(request))
            if not self.hang_up:
                await reader.read()  # until the client does
        finally:
            writer.close()


@pytest.mark.parametrize(
    "answer, hang_up",
    [
        (lambda request: b"\x00\x00\x00\x02{]", False),
        (lambda request: wire.frame_message(ping(0, -1)), False),
        (
            lambda request: wire.frame_message(
                Message(MessageKind.PONG, 0, -1, in_reply_to=[request.message_id])
            ),
            False,
        ),
        (lambda request: wire.frame_message(pong(request))[:-3], True),
        (lambda request: b"", True),
    ],
    ids=["garbage", "unsolicited", "unhashable-reply-id", "truncated", "eof"],
)
def test_broken_server_fails_every_caller_and_is_not_reused(answer, hang_up):
    async def scenario():
        async with FakeServer(answer, hang_up=hang_up) as fake:
            callers = [
                asyncio.ensure_future(remote_request(fake.host, fake.port, ping(-1, 0)))
                for _ in range(3)
            ]
            done, pending = await asyncio.wait(callers, timeout=5)
            assert not pending  # no caller may hang
            assert all(isinstance(c.exception(), TransportError) for c in done)
            assert not tcp._connections
            with pytest.raises(TransportError):
                await asyncio.wait_for(remote_request(fake.host, fake.port, ping(-1, 0)), 5)
            return fake.accepted

    assert asyncio.run(scenario()) == 2  # the second round connected anew


def test_a_request_never_lands_on_a_connection_whose_reader_is_done():
    """The reader unregisters as its last step: a caller that runs between
    that step and the task's done-callbacks must connect anew, not write to
    the closed socket and be told "closed before reply"."""

    async def scenario():
        async with FakeServer(lambda r: wire.frame_message(pong(r)), hang_up=True) as fake:

            async def ask():
                request = ping(-1, 0)
                reply = await asyncio.wait_for(remote_request(fake.host, fake.port, request), 5)
                assert reply.in_reply_to == request.message_id

            key = (asyncio.get_running_loop(), fake.host, fake.port)
            first = asyncio.ensure_future(ask())
            while key not in tcp._connections:
                await asyncio.sleep(0)
            reader = tcp._connections[key].task
            while not reader.done():  # step once per loop iteration, ahead of its callbacks
                await asyncio.sleep(0)
            await ask()
            await first
            await close_connections()
            return fake.accepted

    assert asyncio.run(scenario()) == 2


def test_unexpected_reader_error_reaches_the_callers_and_nobody_else(monkeypatch):
    async def mute(reader, writer):
        await reader.read()  # says nothing until the client hangs up
        writer.close()

    async def boom(reader):
        raise RuntimeError("boom")

    async def scenario():
        complaints = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: complaints.append(context)
        )
        server = await asyncio.start_server(mute, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        monkeypatch.setattr(wire, "read_message", boom)  # only the client reads frames here
        with pytest.raises(TransportError, match="boom"):
            await asyncio.wait_for(remote_request(host, port, ping(-1, 0)), 5)
        assert not tcp._connections
        server.close()
        await server.wait_closed()
        gc.collect()  # a never-retrieved task exception is reported when the task is freed
        return complaints

    assert asyncio.run(scenario()) == []


def test_reply_to_an_unknown_request_is_dropped_not_fatal():
    def answer(request):
        stray = Message(MessageKind.PONG, 0, -1, in_reply_to=request.message_id + 10**6)
        return wire.frame_message(stray) + wire.frame_message(pong(request))

    async def scenario():
        async with FakeServer(answer) as fake:
            request = ping(-1, 0)
            reply = await asyncio.wait_for(remote_request(fake.host, fake.port, request), 5)
            assert reply.in_reply_to == request.message_id
            await close_connections()

    asyncio.run(scenario())


def test_close_connections_hangs_up_and_the_next_request_reconnects():
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)

    async def scenario():
        async with swarm:
            async with SwarmServer(swarm) as server:
                host, port = server.host, server.port
                assert (await remote_search(host, port, 0, keys[0])).found
                await close_connections()
                assert not tcp._connections
                assert await drained(server)
                assert (await remote_search(host, port, 0, keys[1])).found
                return server.accepted

    assert asyncio.run(scenario()) == 2


def test_close_connections_fails_the_callers_still_waiting():
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)

    async def scenario():
        async with swarm:
            async with SwarmServer(swarm) as server:
                entered, release = hold_requests(swarm)
                caller = asyncio.ensure_future(remote_search(server.host, server.port, 0, keys[0]))
                await entered.wait()
                await close_connections()
                with pytest.raises(TransportError):
                    await caller
                release.set()

    asyncio.run(scenario())


def test_close_connections_before_the_reader_task_ran_still_fails_the_caller():
    async def scenario():
        async with FakeServer(lambda request: wire.frame_message(pong(request))) as fake:
            caller = asyncio.ensure_future(remote_request(fake.host, fake.port, ping(-1, 0)))
            await asyncio.sleep(0)  # the caller is registered; its reader has yet to step
            await close_connections()
            assert not tcp._connections
            with pytest.raises(TransportError, match="closed before reply"):
                await asyncio.wait_for(caller, 5)
            request = ping(-1, 0)
            reply = await asyncio.wait_for(remote_request(fake.host, fake.port, request), 5)
            assert reply.in_reply_to == request.message_id
            await close_connections()

    asyncio.run(scenario())


def test_client_reset_with_a_request_in_flight_only_ends_that_connection():
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)

    async def scenario():
        complaints = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: complaints.append(context)
        )
        async with swarm:
            async with SwarmServer(swarm) as server:
                entered, release = hold_requests(swarm)
                reader, writer = await asyncio.open_connection(server.host, server.port)
                await wire.write_message(writer, query_message(-1, 0, keys[0], 0))
                await entered.wait()
                # Linger 0 turns the close into a RST: the reply has nowhere to go.
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                writer.close()
                await writer.wait_closed()
                release.set()
                assert await drained(server)
                # The request itself ran; the server shrugs and keeps serving.
                assert swarm.transport.count(MessageKind.QUERY) >= 1
                assert (await remote_search(server.host, server.port, 0, keys[1])).found
        return complaints

    assert asyncio.run(scenario()) == []


# -- a reply that names the wrong request is now a hung caller, so pin every path ---------


def _every_request_kind(key: str) -> list[Message]:
    walk = dict(query=key, level=0, recbreadth=1, seen=[], budget=50)
    return [
        query_message(-1, 0, key, 0),
        breadth_message(-1, 0, **walk),
        breadth_message(-1, 0, collect=key, **walk),
        propagate_message(
            -1, 0, key=key, holder=0, version=1, deleted=False, query=key, level=0, recbreadth=1
        ),
        update_message(-1, 0, key, 0, 1),
        ping(-1, 0),
    ]


def test_every_reply_names_its_request():
    grid, swarm, keys = make_served_swarm(n=16, maxl=3)
    requests = _every_request_kind(keys[0])
    assert {request.kind for request in requests} == set(_REQUIRED_FIELDS)

    async def raising(error):
        raise error

    async def nothing():
        return None

    failures = {
        "no-such-peer": lambda message: raising(NoHandlerError(message.destination)),
        "offline": lambda message: raising(PeerOfflineError(message.destination)),
        "dropped": lambda message: raising(TransportError("lost")),
        None: lambda message: nothing(),  # delivered, nothing to say: a bare PONG
    }

    async def scenario():
        async with swarm:
            async with SwarmServer(swarm) as server:

                async def ask(request):
                    reply = await asyncio.wait_for(
                        remote_request(server.host, server.port, request), 5
                    )
                    assert reply.in_reply_to == request.message_id
                    return reply

                for request in requests:
                    assert "error" not in (await ask(request)).payload, request.kind
                refused = await ask(Message(MessageKind.QUERY, -1, 0, {"query": "1x"}))
                assert refused.payload == {"error": "bad-request"}
                for reason, outcome in failures.items():
                    swarm.transport.request = outcome
                    reply = await ask(ping(-1, 0))
                    assert reply.kind is MessageKind.PONG
                    assert reply.payload.get("error") == reason
                return server.accepted

    assert asyncio.run(scenario()) == 1
