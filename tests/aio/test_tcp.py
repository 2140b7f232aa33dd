"""SwarmServer: the wire framing serving a live swarm over real TCP.

One process, real sockets: a client speaking the length-prefixed JSON
frames of :mod:`repro.net.wire` must get the same answers a co-located
caller gets from the swarm directly, and failures must come back as
framed error replies, never dropped connections.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import SearchConfig
from repro.errors import TransportError
from repro.net import wire
from repro.net.message import Message, MessageKind, ping, query_message
from tests.conftest import build_grid

from repro.aio.swarm import AsyncSwarm, seed_items
from repro.aio.tcp import SwarmServer, remote_request, remote_search


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
