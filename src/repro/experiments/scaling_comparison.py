"""D1 (§6 table): P-Grid vs. central server vs. flooding — measured.

The paper's §6 table is asymptotic: P-Grid stores ``O(log D)`` per peer and
answers queries in ``O(log N)`` messages, while a central server stores
``O(D)`` and serves ``O(N)`` query load, and Gnutella-style flooding costs
``O(N)`` messages *per query*.  This experiment measures all three
empirically over a sweep of community sizes and reports the per-node
storage and per-query message costs, making the crossover tangible.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.baselines.central import CentralIndexServer
from repro.baselines.flooding import GnutellaNetwork
from repro.baselines.interface import PGridSearchSystem
from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.search import SearchEngine
from repro.experiments.common import ExperimentResult
from repro.sim import rng as rngmod
from repro.sim.builder import GridBuilder
from repro.sim.workload import UniformKeyWorkload, generate_items

EXPERIMENT_ID = "discussion_scaling"


def _build_pgrid(n_peers: int, maxl: int, seed: int) -> PGrid:
    config = PGridConfig(maxl=maxl, refmax=3, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=rngmod.derive(seed, f"d1-grid-{n_peers}"))
    grid.add_peers(n_peers)
    GridBuilder(grid).build(max_exchanges=3_000_000)
    return grid


def run(
    *,
    peer_counts: Sequence[int] = (128, 256, 512, 1024, 2048),
    items_per_peer: int = 4,
    queries: int = 300,
    seed: int = 6,
) -> ExperimentResult:
    """Measure query messages and per-node storage for all three systems."""
    rows: list[list[object]] = []
    for n_peers in peer_counts:
        maxl = max(2, int(math.log2(max(2, n_peers // 8))))
        key_length = maxl + 2
        item_rng = rngmod.derive(seed, f"d1-items-{n_peers}")
        query_rng = rngmod.derive(seed, f"d1-queries-{n_peers}")
        keys = UniformKeyWorkload(key_length, item_rng).keys(
            n_peers * items_per_peer
        )
        items = generate_items(keys)

        # -- P-Grid -----------------------------------------------------------
        grid = _build_pgrid(n_peers, maxl, seed)
        pgrid = PGridSearchSystem(grid, SearchEngine(grid))
        for index, item in enumerate(items):
            pgrid.publish(item, index % n_peers)

        # -- Central server ----------------------------------------------------
        central = CentralIndexServer()
        for index, item in enumerate(items):
            central.publish(item, index % n_peers)

        # -- Flooding ------------------------------------------------------------
        flood = GnutellaNetwork(
            n_peers,
            extra_edges_per_peer=3,
            rng=rngmod.derive(seed, f"d1-flood-{n_peers}"),
            default_ttl=max(4, maxl + 2),
        )
        for index, item in enumerate(items):
            flood.publish(item, index % n_peers)

        pgrid_messages = 0.0
        pgrid_found = 0
        flood_messages = 0.0
        flood_found = 0
        for _ in range(queries):
            start = query_rng.randrange(n_peers)
            key = query_rng.choice(keys)
            presult = pgrid.search(start, key)
            pgrid_messages += presult.messages
            pgrid_found += int(presult.found)
            fresult = flood.search(start, key)
            flood_messages += fresult.messages
            flood_found += int(fresult.found)

        rows.append(
            [
                n_peers,
                pgrid_messages / queries,
                pgrid_found / queries,
                pgrid.storage_per_node(),
                1,  # central: one message per query (to the server)
                queries,  # central server load for this query batch: O(N rate)
                central.storage_per_node(),
                flood_messages / queries,
                flood_found / queries,
                flood.storage_per_node(),
            ]
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="P-Grid vs. central server vs. flooding (measured, §6)",
        headers=[
            "N",
            "pgrid msgs/query",
            "pgrid hit rate",
            "pgrid storage/peer",
            "central msgs/query",
            "central server load",
            "central storage",
            "flood msgs/query",
            "flood hit rate",
            "flood storage/peer",
        ],
        rows=rows,
        config={
            "peer_counts": list(peer_counts),
            "items_per_peer": items_per_peer,
            "queries": queries,
            "seed": seed,
        },
        notes=(
            "Expected shape: pgrid msgs/query grows ~log N and its per-peer "
            "storage ~log D; flooding msgs/query grows ~linearly with N "
            "(it must reach most peers); central storage grows linearly "
            "with D and its serving load with the query volume (O(N) for "
            "constant per-node query rate)."
        ),
    )
