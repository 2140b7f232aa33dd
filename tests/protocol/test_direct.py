"""Every driver runs a walk of any length up to its budget.

:mod:`repro.protocol.direct` keeps nested machines on an explicit stack,
and so do the two message-driver loops (:mod:`repro.net.node`,
:mod:`repro.aio.node`): a walk is stopped by its message budget, never by
Python's recursion limit — in process, over messages, and behind the TCP
front door.  The long walk runs on a grid that keeps the §2 reference
rule; a grid that breaks it has its stale reference refused at the first
hop, the same way on every driver.
"""

from __future__ import annotations

import asyncio
import random
import sys

import pytest

from repro.api import DRIVERS, Grid
from repro.core.config import PGridConfig, SearchConfig
from repro.core.grid import PGrid
from repro.sim.churn import FixedOnlineSet

from repro.aio.swarm import AsyncSwarm
from repro.aio.tcp import SwarmServer, remote_search

BUDGET = SearchConfig().max_messages
STEPS = 8
REPLICAS = 4
#: The staircase walk: every offline leaf costs four failed contacts.
STAIRCASE_FAILED = 29_992


def staircase_grid() -> PGrid:
    """Paths ``0, 10, 110, ..., 1^7 0`` and ``1^8``, four replicas each;
    every ``1^k 0`` peer references the four ``1^(k+1) 0`` peers (the
    ``1^8`` peers from ``1^7 0``) at level ``k + 1``, and the ``1^8``
    replicas are offline.  A search for ``1^8`` from a ``0`` peer walks
    the whole tree of four-way choices below it, far past its budget."""
    grid = PGrid(
        PGridConfig(maxl=STEPS, refmax=REPLICAS, recmax=0), rng=random.Random(0)
    )
    groups = [
        [grid.add_peer(step * REPLICAS + i) for i in range(REPLICAS)]
        for step in range(STEPS + 1)
    ]
    for step, group in enumerate(groups):
        for peer in group:
            peer.set_path("1" * step + ("0" if step < STEPS else ""))
    for step, group in enumerate(groups[:-1]):
        for peer in group:
            peer.routing.set_refs(step + 1, [ref.address for ref in groups[step + 1]])
    grid.online_oracle = FixedOnlineSet(peer.address for peer in grid.peers())
    for peer in groups[-1]:
        grid.online_oracle.set_online(peer.address, False)
    return grid


def ping_pong_grid() -> PGrid:
    """Two peers on path ``0`` whose level-1 references point at each
    other, against §2 (a level-1 reference of a ``0`` peer must point
    under ``1``)."""
    grid = PGrid(PGridConfig(maxl=2, refmax=1, recmax=0), rng=random.Random(0))
    for address in (0, 1):
        grid.add_peer(address).set_path("0")
    for address in (0, 1):
        grid.peer(address).routing.set_refs(1, [1 - address])
    return grid


def serve(grid: PGrid, driver: str, key: str):
    """The search for *key* from peer 0 served by *driver*: (result,
    grid-RNG state after it)."""
    with Grid(grid).serve(driver) as service:
        result = service.search(key, start=0)
    return result, grid.rng.getstate()


def test_the_staircase_keeps_the_reference_rule():
    assert staircase_grid().audit_routing() == []


@pytest.mark.parametrize("driver", DRIVERS)
def test_walk_longer_than_the_recursion_limit_stops_at_its_budget(driver):
    assert BUDGET > sys.getrecursionlimit()
    result, _ = serve(staircase_grid(), driver, "1" * STEPS)
    assert not result.found
    assert result.messages == BUDGET
    assert result.failed_attempts == STAIRCASE_FAILED


def test_every_driver_walks_it_with_the_same_draws():
    (engine, engine_rng), *others = (
        serve(staircase_grid(), driver, "1" * STEPS) for driver in DRIVERS
    )
    for result, rng in others:
        assert result == engine
        assert rng == engine_rng


def test_every_driver_refuses_the_stale_reference_at_the_first_hop():
    (engine, engine_rng), *others = (
        serve(ping_pong_grid(), driver, "1") for driver in DRIVERS
    )
    assert not engine.found
    assert (engine.messages, engine.failed_attempts) == (1, 0)
    for result, rng in others:
        assert result == engine
        assert rng == engine_rng


def test_a_remote_walk_stops_at_its_budget():
    async def scenario():
        async with AsyncSwarm(staircase_grid()) as swarm:
            async with SwarmServer(swarm) as server:
                return await remote_search(server.host, server.port, 0, "1" * STEPS)

    outcome = asyncio.run(scenario())
    assert not outcome.found
    assert outcome.messages == BUDGET
