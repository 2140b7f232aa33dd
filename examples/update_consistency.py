#!/usr/bin/env python
"""Update propagation and the repeated-query trick (§5.2, table 6 story).

A data item's index entry is updated.  The update reaches only a fraction
of the replicas (propagation is expensive under churn), and the script
compares three ways of reading afterwards:

* single search        — cheap, but may answer from a stale replica;
* repeated search      — re-query until a fresh replica answers;
* majority vote        — query k times, trust the majority version.

Run:  python examples/update_consistency.py
"""

from __future__ import annotations

import random

from repro.core import (
    DataItem,
    DataRef,
    PGrid,
    PGridConfig,
    ReadEngine,
    UpdateEngine,
    UpdateStrategy,
)
from repro.sim import GridBuilder
from repro.sim.churn import BernoulliChurn

N_PEERS = 512
P_ONLINE = 0.3
KEY = "010110"


def main() -> None:
    config = PGridConfig(maxl=7, refmax=10, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=random.Random(3))
    grid.add_peers(N_PEERS)
    GridBuilder(grid).build()
    print(f"grid ready: avg depth {grid.average_path_length():.2f}")

    # Seed version 0 everywhere (a consistent old state).
    holder = 17
    grid.seed_index([(DataItem(key=KEY, value="v0"), holder)])
    replicas = grid.replicas_for_key(KEY)
    print(f"{len(replicas)} replicas hold version 0 of key {KEY}")

    # Go partially unavailable, then push version 1.
    grid.online_oracle = BernoulliChurn(P_ONLINE, random.Random(5))
    updates = UpdateEngine(grid)
    result = updates.propagate(
        3,
        DataRef(key=KEY, holder=holder, version=1),
        strategy=UpdateStrategy.BFS,
        recbreadth=2,
    )
    print(
        f"update reached {len(result.reached)}/{result.replica_count} "
        f"replicas ({result.coverage:.0%}) for {result.messages} messages"
    )

    # Read back with the three strategies.
    reads = ReadEngine(grid)
    trials = 200
    rng = random.Random(9)

    single_ok = single_cost = 0
    repeated_ok = repeated_cost = 0
    majority_ok = majority_cost = 0
    for _ in range(trials):
        start = rng.randrange(N_PEERS)
        single = reads.read_single(start, KEY, holder, version=1)
        single_ok += int(single.success)
        single_cost += single.messages
        repeated = reads.read_repeated(start, KEY, holder, version=1)
        repeated_ok += int(repeated.success)
        repeated_cost += repeated.messages
        majority = reads.read_majority(start, KEY, holder, version=1, votes=3)
        majority_ok += int(majority.success)
        majority_cost += majority.messages

    print()
    print(f"{trials} reads after the partial update:")
    print(
        f"  single search   : success {single_ok / trials:6.1%}   "
        f"avg messages {single_cost / trials:6.1f}"
    )
    print(
        f"  repeated search : success {repeated_ok / trials:6.1%}   "
        f"avg messages {repeated_cost / trials:6.1f}"
    )
    print(
        f"  majority (k=3)  : success {majority_ok / trials:6.1%}   "
        f"avg messages {majority_cost / trials:6.1f}"
    )
    print()
    print(
        "The paper's punchline: instead of paying for near-complete update "
        "propagation, update a fraction of the replicas and let repeated "
        "queries absorb the inconsistency."
    )


if __name__ == "__main__":
    main()
