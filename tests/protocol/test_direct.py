"""The in-process driver runs a walk of any length up to its budget.

:mod:`repro.protocol.direct` keeps nested machines on an explicit stack,
so a walk is stopped by its message budget, never by Python's recursion
limit.
"""

from __future__ import annotations

import random
import sys

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.search import SearchEngine


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


def test_walk_longer_than_the_recursion_limit_stops_at_its_budget():
    engine = SearchEngine(ping_pong_grid())
    budget = engine.config.max_messages
    assert budget > sys.getrecursionlimit()
    result = engine.query_from(0, "1")
    assert not result.found
    assert result.messages == budget
