"""F5 (§5.2, Fig. 5): fraction of replicas found vs. messages spent.

The paper repeatedly searches for a random key of length maxl−1 and plots,
for the three update-propagation strategies, the percentage of existing
replicas identified against the number of messages used: breadth-first
search is far superior; repeated depth-first with and without buddy
forwarding perform comparably.
"""

from __future__ import annotations

from repro.core.grid import PGrid
from repro.core.updates import UpdateEngine, UpdateStrategy
from repro.experiments.common import (
    ExperimentResult,
    Section52Profile,
    build_section52_array_engine,
    build_section52_grid,
    section52_profile,
)
from repro.report.hist import render_series
from repro.sim import rng as rngmod
from repro.sim.churn import BernoulliChurn
from repro.sim.workload import UniformKeyWorkload

EXPERIMENT_ID = "fig5"

#: Effort sweep: repetitions for the DFS strategies, recbreadth for BFS.
DFS_REPETITIONS = (1, 2, 4, 8, 16, 32, 64)
BFS_RECBREADTHS = (1, 2, 3, 4)


def run(
    profile: Section52Profile | None = None,
    *,
    grid: PGrid | None = None,
    use_cache: bool = True,
    trials: int | None = None,
    core: str = "object",
    array_engine=None,
) -> ExperimentResult:
    """Reproduce Fig. 5: coverage vs. message cost per strategy.

    ``core="batch"`` runs each strategy sweep through
    :meth:`~repro.fast.BatchQueryEngine.find_replicas_many` over
    gridless flat state — the only way to sweep the 100k-peer ``large``
    profile.  Statistically equivalent to the object core; the batch
    breadth-first frontier visits in wave order (documented in
    ``repro.fast.query``).  On the ``quick`` profile (600 peers, 3 000
    trials per point) its breadth-first coverage read 3–7 % above the
    object core's at each ``recbreadth``, at message costs within 3 %.
    """
    if core not in ("object", "batch"):
        raise ValueError(f"unknown core {core!r}: expected 'object' or 'batch'")
    profile = profile or section52_profile()
    trials = trials if trials is not None else max(10, profile.n_updates // 2)

    keys = UniformKeyWorkload(
        profile.query_key_length, rngmod.derive(profile.seed, "f5-keys")
    )
    start_rng = rngmod.derive(profile.seed, "f5-starts")

    if core == "batch":
        batch = array_engine or build_section52_array_engine(profile)

        def measure(
            strategy: UpdateStrategy, *, repetition: int, recbreadth: int
        ) -> tuple[float, float]:
            trial_keys = [keys.next_key() for _ in range(trials)]
            starts = [start_rng.randrange(batch.n) for _ in range(trials)]
            truth = batch.replicas_for_keys(trial_keys)
            result = batch.find_replicas_many(
                trial_keys, starts, strategy=strategy,
                repetition=repetition, recbreadth=recbreadth,
            )
            total_messages = int(result.messages.sum())
            total_coverage = 0.0
            for i in range(trials):
                replicas = truth.reached(i)
                if not len(replicas):
                    continue
                reached = set(result.reached(i).tolist())
                total_coverage += (
                    len(reached & set(replicas.tolist())) / len(replicas)
                )
            return total_messages / trials, total_coverage / trials

    else:
        grid = grid or build_section52_grid(profile, use_cache=use_cache)
        grid.online_oracle = BernoulliChurn(
            profile.p_online, rngmod.derive(profile.seed, "f5-churn")
        )
        engine = UpdateEngine(grid)
        addresses = grid.addresses()

        def measure(
            strategy: UpdateStrategy, *, repetition: int, recbreadth: int
        ) -> tuple[float, float]:
            total_messages = 0
            total_coverage = 0.0
            for _ in range(trials):
                key = keys.next_key()
                start = start_rng.choice(addresses)
                replicas = grid.replicas_for_key(key)
                if not replicas:
                    continue
                reached, messages, _failed = engine.find_replicas(
                    start, key, strategy=strategy, repetition=repetition,
                    recbreadth=recbreadth,
                )
                total_messages += messages
                total_coverage += len(reached & set(replicas)) / len(replicas)
            return total_messages / trials, total_coverage / trials

    rows: list[list[object]] = []
    series: dict[str, list[tuple[float, float]]] = {}
    sweeps: list[tuple[UpdateStrategy, str, tuple[int, ...]]] = [
        (UpdateStrategy.REPEATED_DFS, "repeated DFS", DFS_REPETITIONS),
        (UpdateStrategy.DFS_BUDDIES, "DFS + buddies", DFS_REPETITIONS),
        (UpdateStrategy.BFS, "breadth-first", BFS_RECBREADTHS),
    ]
    for strategy, label, efforts in sweeps:
        points: list[tuple[float, float]] = []
        for effort in efforts:
            if strategy is UpdateStrategy.BFS:
                messages, coverage = measure(
                    strategy, repetition=1, recbreadth=effort
                )
            else:
                messages, coverage = measure(
                    strategy, repetition=effort, recbreadth=1
                )
            rows.append([label, effort, messages, coverage])
            points.append((messages, coverage))
        series[label] = points

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=(
            f"Replica discovery: coverage vs. messages "
            f"(N={profile.n_peers}, {profile.p_online:.0%} online)"
        ),
        headers=["strategy", "effort", "avg messages", "avg coverage"],
        rows=rows,
        config={
            "profile": profile.name,
            "core": core,
            "trials": trials,
            "dfs_repetitions": list(DFS_REPETITIONS),
            "bfs_recbreadths": list(BFS_RECBREADTHS),
            "query_key_length": profile.query_key_length,
        },
        notes=(
            "Expected shape: at equal message budgets, breadth-first search "
            "reaches a far larger replica fraction; repeated DFS and DFS+"
            "buddies are comparable to each other and much flatter."
        ),
        extra_text=render_series(
            series,
            title="Fig. 5 — replicas found vs. messages",
            x_label="messages",
            y_label="coverage",
        ),
    )
