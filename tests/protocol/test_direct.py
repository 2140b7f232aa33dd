"""Every driver runs a walk of any length up to its budget.

:mod:`repro.protocol.direct` keeps nested machines on an explicit stack,
and so do the two message-driver loops (:mod:`repro.net.node`,
:mod:`repro.aio.node`): a walk is stopped by its message budget, never by
Python's recursion limit — in process, over messages, and behind the TCP
front door.
"""

from __future__ import annotations

import asyncio
import random
import sys

import pytest

from repro.api import DRIVERS, Grid
from repro.core.config import PGridConfig, SearchConfig
from repro.core.grid import PGrid

from repro.aio.swarm import AsyncSwarm
from repro.aio.tcp import SwarmServer, remote_search

BUDGET = SearchConfig().max_messages


def ping_pong_grid() -> PGrid:
    """Two peers on path ``0`` whose level-1 references point at each
    other: a search for ``1`` bounces between them until its budget is
    spent."""
    grid = PGrid(PGridConfig(maxl=2, refmax=1, recmax=0), rng=random.Random(0))
    for address in (0, 1):
        grid.add_peer(address).set_path("0")
    for address in (0, 1):
        grid.peer(address).routing.set_refs(1, [1 - address])
    return grid


def ping_pong(driver: str):
    """The walk served by *driver*: (result, grid-RNG state after it)."""
    grid = ping_pong_grid()
    with Grid(grid).serve(driver) as service:
        result = service.search("1", start=0)
    return result, grid.rng.getstate()


@pytest.mark.parametrize("driver", DRIVERS)
def test_walk_longer_than_the_recursion_limit_stops_at_its_budget(driver):
    assert BUDGET > sys.getrecursionlimit()
    result, _ = ping_pong(driver)
    assert not result.found
    assert result.messages == BUDGET


def test_every_driver_walks_it_with_the_same_draws():
    (engine, engine_rng), *others = (ping_pong(driver) for driver in DRIVERS)
    for result, rng in others:
        assert result.failed_attempts == engine.failed_attempts
        assert rng == engine_rng


def test_a_remote_walk_stops_at_its_budget():
    async def scenario():
        async with AsyncSwarm(ping_pong_grid()) as swarm:
            async with SwarmServer(swarm) as server:
                return await remote_search(server.host, server.port, 0, "1")

    outcome = asyncio.run(scenario())
    assert not outcome.found
    assert outcome.messages == BUDGET
