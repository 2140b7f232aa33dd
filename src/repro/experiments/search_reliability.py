"""S1 (§5.2, text): search reliability under 30% availability.

On the §5.2 grid with every contact succeeding with probability 0.3, the
paper runs 10 000 searches for random keys of length maxl−1 and observes
99.97% success at an average of 5.56 messages per search — confirming the
§4 analysis that ``refmax``-fold referencing makes search reliable despite
mostly-offline peers.
"""

from __future__ import annotations

from repro.core.grid import PGrid
from repro.core.search import SearchEngine
from repro.experiments.common import (
    ExperimentResult,
    Section52Profile,
    build_section52_array_engine,
    build_section52_grid,
    section52_profile,
)
from repro.core.analysis import search_success_probability
from repro.sim import rng as rngmod
from repro.sim.churn import BernoulliChurn
from repro.sim.workload import QueryStream, UniformKeyWorkload

EXPERIMENT_ID = "search_reliability"

PAPER_SUCCESS_RATE = 0.9997
PAPER_AVG_MESSAGES = 5.5576


def run(
    profile: Section52Profile | None = None,
    *,
    grid: PGrid | None = None,
    use_cache: bool = True,
    n_searches: int | None = None,
    core: str = "object",
    array_engine=None,
) -> ExperimentResult:
    """Reproduce the §5.2 search-reliability measurement.

    ``core="batch"`` resolves the whole query set through the vectorized
    :class:`~repro.fast.BatchQueryEngine` over gridless-built flat state
    (required for the 100k-peer ``large`` profile, where no object grid
    is ever materialized; statistically equivalent to the object core —
    see ``repro.fast.query``).  *array_engine* injects a pre-built
    engine, mirroring the *grid* parameter.
    """
    if core not in ("object", "batch"):
        raise ValueError(f"unknown core {core!r}: expected 'object' or 'batch'")
    profile = profile or section52_profile()
    n_searches = n_searches if n_searches is not None else profile.n_searches

    if core == "batch":
        engine = array_engine or build_section52_array_engine(profile)
        key_rng = rngmod.derive(profile.seed, "s1-keys")
        keys_stream = UniformKeyWorkload(profile.query_key_length, key_rng)
        start_rng = rngmod.derive(profile.seed, "s1-starts")
        keys = [keys_stream.next_key() for _ in range(n_searches)]
        starts = [start_rng.randrange(engine.n) for _ in range(n_searches)]
        result = engine.search_many(keys, starts)
        message_counts = result.messages[result.found].tolist()
    else:
        grid = grid or build_section52_grid(profile, use_cache=use_cache)
        churn_rng = rngmod.derive(profile.seed, "s1-churn")
        grid.online_oracle = BernoulliChurn(profile.p_online, churn_rng)
        engine = SearchEngine(grid)
        stream = QueryStream(
            grid.addresses(),
            UniformKeyWorkload(
                profile.query_key_length, rngmod.derive(profile.seed, "s1-keys")
            ),
            rngmod.derive(profile.seed, "s1-starts"),
        )
        message_counts = []
        for start, key in stream.queries(n_searches):
            result = engine.query_from(start, key)
            if result.found:
                message_counts.append(result.messages)

    predicted = search_success_probability(
        profile.p_online, profile.refmax, profile.query_key_length
    )
    rows = [
        [
            n_searches,
            len(message_counts) / n_searches if n_searches else 0.0,
            PAPER_SUCCESS_RATE,
            predicted,
            sum(message_counts) / len(message_counts) if message_counts else None,
            PAPER_AVG_MESSAGES,
            float(max(message_counts)) if message_counts else None,
        ]
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=(
            f"Search reliability at {profile.p_online:.0%} availability "
            f"(N={profile.n_peers}, key length {profile.query_key_length})"
        ),
        headers=[
            "searches",
            "success rate",
            "paper success",
            "eq.(3) lower bound",
            "avg messages",
            "paper avg messages",
            "max messages",
        ],
        rows=rows,
        config={
            "profile": profile.name,
            "core": core,
            "n_searches": n_searches,
            "p_online": profile.p_online,
            "query_key_length": profile.query_key_length,
            "refmax": profile.refmax,
        },
        notes=(
            "Expected shape: success rate at or above the eq.(3) analytical "
            "bound (backtracking helps) and close to 100%; a handful of "
            "messages per search."
        ),
    )
