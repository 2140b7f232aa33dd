#!/usr/bin/env python
"""Self-organization under membership churn (§6's "continuously adapt").

A constructed grid loses a third of its population to crashes, the same
number of newcomers join through the ordinary exchange protocol, and a
lazy repair sweep heals the dangling references — search reliability is
measured at every stage.

Run:  python examples/self_organization.py
"""

from __future__ import annotations

import random

from repro.core import MembershipEngine, PGrid, PGridConfig, SearchEngine
from repro.sim import GridBuilder
from repro.sim.workload import UniformKeyWorkload

N_PEERS = 512
REPLACE = 170  # about a third


def success_rate(grid, engine, seed, searches=800) -> float:
    keys = UniformKeyWorkload(grid.config.maxl - 1, random.Random(seed))
    starts = random.Random(seed + 1)
    addresses = grid.addresses()
    hits = sum(
        engine.query_from(starts.choice(addresses), keys.next_key()).found
        for _ in range(searches)
    )
    return hits / searches


def main() -> None:
    config = PGridConfig(maxl=6, refmax=2, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=random.Random(8))
    grid.add_peers(N_PEERS)
    report = GridBuilder(grid).build()
    engine = SearchEngine(grid)
    membership = MembershipEngine(grid, search=engine)
    print(
        f"built: {report.exchanges} exchanges, avg depth "
        f"{report.average_depth:.2f}"
    )
    print(f"search success (intact)      : {success_rate(grid, engine, 1):.1%}")

    # --- a third of the population crashes -----------------------------------
    rng = random.Random(9)
    for victim in rng.sample(grid.addresses(), REPLACE):
        membership.fail(victim)
    print(f"search success (after crash) : {success_rate(grid, engine, 2):.1%}")

    # --- newcomers join through the ordinary exchange protocol ----------------
    depths = []
    for _ in range(REPLACE):
        bootstrap = rng.choice(grid.addresses())
        depths.append(membership.join(bootstrap).final_depth)
    print(
        f"{REPLACE} newcomers joined (avg depth {sum(depths) / len(depths):.2f})"
    )
    print(f"search success (after joins) : {success_rate(grid, engine, 3):.1%}")

    # --- lazy repair: drop dead references, refill from buddies or a search ----
    reports = membership.repair_all()
    dropped = sum(r.dead_refs_dropped for r in reports)
    added = sum(r.refs_added for r in reports)
    messages = sum(r.messages for r in reports)
    print(
        f"repair sweep: dropped {dropped} dead refs, added {added} fresh "
        f"({messages} messages)"
    )
    print(f"search success (after repair): {success_rate(grid, engine, 4):.1%}")
    print(f"routing invariant violations : {len(grid.audit_routing())}")


if __name__ == "__main__":
    main()
