"""T6 (§5.2, sixth table): update-cost / query-cost trade-off.

For each configuration (``recbreadth`` ∈ {2, 3} × ``repetition`` ∈ {1, 2, 3})
the experiment performs updates via breadth-first propagation and then
queries each updated item several times, under two read strategies:

* **non-repetitive** — a single Fig. 2 search; success iff the answering
  replica already holds the new version (the paper's lower table half:
  success rates 0.65–0.994 at ~5.5 messages);
* **repetitive** — re-search until a fresh replica answers (upper half:
  success 1.0, query cost falling steeply as updates cover more replicas).

The paper's punchline: partially propagated updates plus repeated queries
beat near-complete propagation by a wide margin (break-even at ~160
queries/update).  The *repetitive* query-cost magnitudes in the paper imply
a costlier retry procedure than the straightforward retry-until-fresh we
implement (the paper does not specify its loop); the trade-off's shape —
monotone falling query cost vs. rising insertion cost, success pinned at
1.0 — is preserved.  See EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.core.grid import PGrid
from repro.core.storage import DataItem
from repro.core.updates import ReadEngine, UpdateEngine, UpdateStrategy
from repro.experiments.common import (
    ExperimentResult,
    Section52Profile,
    build_section52_array_engine,
    build_section52_grid,
    section52_profile,
)
from repro.sim import rng as rngmod
from repro.sim.churn import BernoulliChurn
from repro.sim.workload import UniformKeyWorkload

EXPERIMENT_ID = "table6"

#: Paper rows: (recbreadth, repetition, repetitive?) ->
#: (successrate, query cost, insertion cost).
PAPER_ROWS = {
    (2, 1, True): (1.0, 137, 78),
    (2, 2, True): (1.0, 34, 147),
    (2, 3, True): (1.0, 17, 224),
    (3, 1, True): (1.0, 112, 637),
    (3, 2, True): (1.0, 13, 1434),
    (3, 3, True): (1.0, 13, 2086),
    (2, 1, False): (0.65, 5.5, 72),
    (2, 2, False): (0.85, 5.6, 145),
    (2, 3, False): (0.89, 5.4, 212),
    (3, 1, False): (0.95, 5.5, 734),
    (3, 2, False): (0.98, 5.5, 1363),
    (3, 3, False): (0.994, 5.4, 2080),
}


def run(
    profile: Section52Profile | None = None,
    *,
    grid: PGrid | None = None,
    use_cache: bool = True,
    n_updates: int | None = None,
    queries_per_update: int | None = None,
    recbreadth_values: tuple[int, ...] = (2, 3),
    repetition_values: tuple[int, ...] = (1, 2, 3),
    core: str = "object",
    array_engine=None,
) -> ExperimentResult:
    """Reproduce T6 on the shared §5.2 grid.

    ``core="batch"`` drives the whole update/read matrix through
    :meth:`~repro.fast.BatchQueryEngine.publish_many` /
    :meth:`~repro.fast.BatchQueryEngine.read_many` over gridless flat
    state — required for the 100k-peer ``large`` profile.  Statistically
    equivalent to the object core, not bit-identical (different RNG
    streams; see ``repro.fast.query``).
    """
    if core not in ("object", "batch"):
        raise ValueError(f"unknown core {core!r}: expected 'object' or 'batch'")
    profile = profile or section52_profile()
    n_updates = n_updates if n_updates is not None else profile.n_updates
    queries_per_update = (
        queries_per_update
        if queries_per_update is not None
        else profile.queries_per_update
    )

    batch = None
    if core == "batch":
        batch = array_engine or build_section52_array_engine(profile)
    else:
        grid = grid or build_section52_grid(profile, use_cache=use_cache)
        grid.online_oracle = BernoulliChurn(
            profile.p_online, rngmod.derive(profile.seed, "t6-churn")
        )
        updates = UpdateEngine(grid)
        reads = ReadEngine(grid, search=updates.search)
        addresses = grid.addresses()
    keys = UniformKeyWorkload(
        profile.query_key_length, rngmod.derive(profile.seed, "t6-keys")
    )
    pick = rngmod.derive(profile.seed, "t6-starts")

    rows: list[list[object]] = []
    for repetitive in (True, False):
        for recbreadth in recbreadth_values:
            for repetition in repetition_values:
                if batch is not None:
                    # Same draw order as the object loop below (key,
                    # holder, publish start, then the query starts), so
                    # both cores sweep identical workloads per config.
                    u_keys: list[str] = []
                    holders: list[int] = []
                    pub_starts: list[int] = []
                    read_starts: list[int] = []
                    for _ in range(n_updates):
                        u_keys.append(keys.next_key())
                        holders.append(pick.randrange(batch.n))
                        pub_starts.append(pick.randrange(batch.n))
                        for _ in range(queries_per_update):
                            read_starts.append(pick.randrange(batch.n))
                    versions = [1] * n_updates
                    published = batch.publish_many(
                        u_keys, holders, versions, pub_starts,
                        strategy=UpdateStrategy.BFS,
                        repetition=repetition, recbreadth=recbreadth,
                    )
                    insertion_cost = int(published.messages.sum())
                    tile = queries_per_update
                    read = batch.read_many(
                        [k for k in u_keys for _ in range(tile)],
                        [h for h in holders for _ in range(tile)],
                        [1] * (n_updates * tile),
                        read_starts,
                        repetitive=repetitive,
                    )
                    query_cost = int(read.messages.sum())
                    successes = int(read.success.sum())
                    queries = n_updates * tile
                else:
                    insertion_cost = 0
                    query_cost = 0
                    successes = 0
                    queries = 0
                    for update_index in range(n_updates):
                        key = keys.next_key()
                        holder = pick.choice(addresses)
                        item = DataItem(key=key, value=f"update-{update_index}")
                        version = 1
                        result = updates.publish(
                            pick.choice(addresses),
                            item,
                            holder,
                            strategy=UpdateStrategy.BFS,
                            repetition=repetition,
                            recbreadth=recbreadth,
                            version=version,
                        )
                        insertion_cost += result.messages
                        for _ in range(queries_per_update):
                            start = pick.choice(addresses)
                            if repetitive:
                                read = reads.read_repeated(
                                    start, key, holder, version
                                )
                            else:
                                read = reads.read_single(
                                    start, key, holder, version
                                )
                            query_cost += read.messages
                            successes += int(read.success)
                            queries += 1
                rows.append(
                    [
                        "repetitive" if repetitive else "non-repetitive",
                        recbreadth,
                        repetition,
                        successes / queries if queries else 0.0,
                        query_cost / queries if queries else 0.0,
                        insertion_cost / n_updates if n_updates else 0.0,
                        *(PAPER_ROWS[(recbreadth, repetition, repetitive)]),
                    ]
                )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=(
            f"Update/query trade-off (N={profile.n_peers}, "
            f"{profile.p_online:.0%} online; {n_updates} updates x "
            f"{queries_per_update} queries)"
        ),
        headers=[
            "search",
            "recbreadth",
            "repetition",
            "successrate",
            "query cost",
            "insertion cost",
            "paper successrate",
            "paper query cost",
            "paper insertion cost",
        ],
        rows=rows,
        config={
            "profile": profile.name,
            "core": core,
            "n_updates": n_updates,
            "queries_per_update": queries_per_update,
            "recbreadth_values": list(recbreadth_values),
            "repetition_values": list(repetition_values),
        },
        notes=(
            "Expected shape: repetitive search pins success at 1.0 with "
            "query cost falling as insertion effort rises; non-repetitive "
            "search keeps ~5-message queries but success < 1, rising with "
            "insertion effort. Insertion cost grows steeply with recbreadth."
        ),
    )
