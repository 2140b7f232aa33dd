#!/usr/bin/env python
"""Quickstart: build a P-Grid, publish a file, search for it.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro.core import (
    DataItem,
    PGrid,
    PGridConfig,
    SearchEngine,
    UpdateEngine,
    UpdateStrategy,
)
from repro.sim import GridBuilder


def main() -> None:
    # 1. A community of 256 peers agrees on the grid parameters: paths up
    #    to 5 bits, 3 routing references per level, recursion bound 2.
    config = PGridConfig(maxl=5, refmax=3, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=random.Random(2002))
    grid.add_peers(256)

    # 2. Peers meet randomly and run the exchange algorithm until the
    #    access structure converges (avg path length ~ maxl).
    report = GridBuilder(grid).build()
    print(
        f"constructed: {report.exchanges} exchanges "
        f"({report.exchanges_per_peer:.1f} per peer), "
        f"average path length {report.average_depth:.2f}"
    )
    print(f"routing invariant violations: {len(grid.audit_routing())}")

    # 3. Peer 42 shares a file. Its index entry is propagated to the peers
    #    responsible for the file's key via breadth-first search.
    updates = UpdateEngine(grid)
    song = DataItem(key="10110", value="yellow-submarine.mp3")
    publish = updates.publish(
        0, song, holder=42, strategy=UpdateStrategy.BFS, recbreadth=3
    )
    print(
        f"published {song.value!r} under key {song.key}: "
        f"{len(publish.reached)} replicas updated "
        f"({publish.messages} messages)"
    )

    # 4. Any peer can now find it — searches route along the trie.
    search = SearchEngine(grid)
    for start in (7, 99, 200):
        result = search.query_from(start, "10110")
        holders = sorted({ref.holder for ref in result.data_refs})
        print(
            f"search from peer {start:>3}: found={result.found} "
            f"responder={result.responder} messages={result.messages} "
            f"holders={holders}"
        )


if __name__ == "__main__":
    main()
