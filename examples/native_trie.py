#!/usr/bin/env python
"""Native k-ary trie vs. binary reduction (§6's two roads to text search).

The same small dictionary is indexed twice:

* on a **binary** P-Grid through the order-preserving 5-bit-per-character
  encoding (``repro.text``), and
* on a **native 27-ary** P-Grid where each trie level consumes one whole
  character (``repro.kary``).

The same lookups then run against both, showing the trade §6 leaves
implicit: the native trie needs fewer hops, the binary trie needs far
less routing state.

Run:  python examples/native_trie.py
"""

from __future__ import annotations

import random

from repro.core import DataItem, PGrid, PGridConfig, SearchEngine
from repro.kary import (
    KaryExchangeEngine,
    KaryGrid,
    KaryItem,
    KarySearchEngine,
    KeySpace,
    build_kary_grid,
)
from repro.sim import GridBuilder
from repro.text.encoding import TextEncoder

WORDS = [
    "apple", "apricot", "banana", "berry", "cherry", "citrus", "damson",
    "date", "elder", "fig", "grape", "guava", "kiwi", "lemon", "lime",
    "mango", "melon", "nectar", "olive", "orange", "papaya", "peach",
    "pear", "plum", "quince", "raisin", "sloe", "tomato",
]
N_PEERS = 1800
CHARS_DEEP = 2


def main() -> None:
    encoder = TextEncoder()

    # ---- binary reduction ---------------------------------------------------
    binary_maxl = encoder.bits_per_char * CHARS_DEEP  # 10 binary levels
    grid = PGrid(
        PGridConfig(maxl=binary_maxl, refmax=5, recmax=2, recursion_fanout=2),
        rng=random.Random(1),
    )
    grid.add_peers(N_PEERS)
    GridBuilder(grid).build(threshold_fraction=0.9, max_exchanges=2_000_000)
    grid.seed_index(
        [
            (DataItem(key=encoder.encode_truncated(w, binary_maxl), value=w),
             i % N_PEERS)
            for i, w in enumerate(WORDS)
        ]
    )
    binary_search = SearchEngine(grid)

    # ---- native 27-ary -------------------------------------------------------------
    kary = KaryGrid(
        KeySpace(), maxl=CHARS_DEEP, refmax=3, recmax=1, rng=random.Random(2)
    )
    kary.add_peers(N_PEERS)
    build_kary_grid(kary, threshold_fraction=0.9)
    populate = KaryExchangeEngine(kary)
    addresses = kary.addresses()
    for _ in range(10 * N_PEERS):  # fill the k-1 sibling sets per level
        a, b = kary.rng.sample(addresses, 2)
        populate.meet(a, b)
    kary.seed_index(
        [(KaryItem(key=w[:CHARS_DEEP], value=w), i % N_PEERS)
         for i, w in enumerate(WORDS)]
    )
    kary_search = KarySearchEngine(kary)

    # ---- the same lookups against both ------------------------------------------------
    rng = random.Random(3)
    print(f"{'word':<10} {'binary msgs':>12} {'k-ary msgs':>11}")
    binary_total = kary_total = 0
    binary_hits = kary_hits = 0
    sample = rng.sample(WORDS, 10)
    for word in sample:
        b = binary_search.query_from(
            rng.randrange(N_PEERS), encoder.encode_truncated(word, binary_maxl)
        )
        k = kary_search.query_from(rng.randrange(N_PEERS), word[:CHARS_DEEP])
        binary_total += b.messages
        kary_total += k.messages
        binary_hits += int(b.found)
        kary_hits += int(k.found)
        print(f"{word:<10} {b.messages:>12} {k.messages:>11}")
    print("-" * 35)
    print(
        f"{'average':<10} {binary_total / len(sample):>12.1f} "
        f"{kary_total / len(sample):>11.1f}"
    )
    print(
        f"hits: binary {binary_hits}/{len(sample)}, "
        f"k-ary {kary_hits}/{len(sample)}"
    )
    print()
    print(
        f"routing state per peer: binary "
        f"{grid.total_routing_refs() / N_PEERS:.1f} refs, "
        f"k-ary {kary.total_routing_refs() / N_PEERS:.1f} refs"
    )
    print(
        "the native trie hops once per character; the binary trie pays "
        "~5 levels per character but keeps tables an order of magnitude "
        "smaller."
    )


if __name__ == "__main__":
    main()
