#!/usr/bin/env python
"""Distributed prefix text search (§6's trie extension).

Peers publish the words of their shared documents into a P-Grid via an
order/prefix-preserving binary encoding; autocomplete-style prefix queries
then route over the same access structure.

Run:  python examples/text_prefix_search.py
"""

from __future__ import annotations

import random

from repro.core import PGrid, PGridConfig
from repro.sim import GridBuilder
from repro.text import PrefixTextIndex

CORPUS = {
    0: ["peer", "peers", "peerless"],
    1: ["grid", "gridlock", "graph"],
    2: ["search", "searching", "seated"],
    3: ["random", "randomized", "ranking"],
    4: ["scale", "scalable", "scaling"],
    5: ["route", "routing", "router"],
    6: ["replica", "replication", "reply"],
    7: ["index", "indexing", "indexes"],
}


def main() -> None:
    config = PGridConfig(maxl=6, refmax=4, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=random.Random(42))
    grid.add_peers(256)
    GridBuilder(grid).build()
    print(f"grid ready: avg depth {grid.average_path_length():.2f}")

    index = PrefixTextIndex(grid)
    total_words = sum(len(words) for words in CORPUS.values())
    messages = index.publish_corpus(CORPUS, recbreadth=3)
    print(
        f"indexed {total_words} words from {len(CORPUS)} holders "
        f"({messages} messages)"
    )
    print()

    for word in ("grid", "randomized", "nonexistent"):
        result = index.lookup(word, start=100)
        print(
            f"lookup {word!r:<14} -> found={result.found} "
            f"({result.messages} msgs) {result.words}"
        )
    print()

    for prefix in ("pe", "s", "rep", "ro", "zzz"):
        result = index.prefix_search(prefix, start=50, recbreadth=4)
        print(
            f"prefix {prefix!r:<6} -> {len(result.words):2d} words "
            f"({result.messages:3d} msgs): {', '.join(result.words) or '-'}"
        )


if __name__ == "__main__":
    main()
