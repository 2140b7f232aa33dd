"""Shared infrastructure for the paper-reproduction experiments.

Scale profiles
--------------
The §5.1 construction tables run at the paper's exact sizes — they are cheap
in this implementation.  The §5.2 experiments (Fig. 4, Fig. 5, table 6,
search reliability) use one shared grid that at the paper's size (N=20 000,
maxl=10, refmax=20) takes the authors ~10 h and us ~1–2 min to build; the
default profile scales it down (~4 000 peers) with the *shape-relevant
ratios preserved* (mean replication ≈ N/2^maxl, refmax=20 so eq. (3) gives
the same per-level survival).  Select a profile with::

    REPRO_SCALE=quick|scaled|paper pytest benchmarks/ --ignore=benchmarks/e2e --benchmark-only

Constructed §5.2 grids are cached as JSON snapshots under
``benchmarks/.cache`` and reused across benchmark runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.obs.metrics import MetricsRegistry
from repro.perf.parallel import merge_registries, parallel_starmap
from repro.report.csvout import write_csv, write_json
from repro.report.tables import render_table
from repro.sim import rng as rngmod
from repro.sim.builder import GridBuilder
from repro.sim.persistence import load_grid, save_grid
from repro.sim.scenario import ScenarioMetrics, ScenarioSpec, run_scenario

SCALE_ENV_VAR = "REPRO_SCALE"

__all__ = [
    "SCALE_ENV_VAR",
    "Section52Profile",
    "ExperimentResult",
    "active_scale",
    "section52_profile",
    "build_section52_grid",
    "build_section52_array_engine",
    "build_section52_snapshot",
    "default_cache_dir",
    "gridship_state",
    "run_scenario_trials",
    "run_snapshot_search_sweep",
]


@dataclass(frozen=True)
class Section52Profile:
    """Sizing of the shared §5.2 experiment grid."""

    name: str
    n_peers: int
    maxl: int
    refmax: int
    recmax: int
    recursion_fanout: int
    p_online: float
    n_searches: int
    n_updates: int
    queries_per_update: int
    threshold_fraction: float
    max_exchanges: int
    seed: int = 20020101  # the paper's year, for flavour

    @property
    def config(self) -> PGridConfig:
        """The grid configuration for this profile."""
        return PGridConfig(
            maxl=self.maxl,
            refmax=self.refmax,
            recmax=self.recmax,
            recursion_fanout=self.recursion_fanout,
        )

    @property
    def query_key_length(self) -> int:
        """§5.2 queries use keys one shorter than ``maxl`` (length 9 there)."""
        return self.maxl - 1

    def cache_key(self) -> str:
        """Stable identifier for snapshot caching."""
        return (
            f"s52-{self.name}-n{self.n_peers}-l{self.maxl}-r{self.refmax}"
            f"-c{self.recmax}-f{self.recursion_fanout}"
            f"-t{self.threshold_fraction}-s{self.seed}"
        )


_PROFILES: dict[str, Section52Profile] = {
    # Fast enough for a laptop test loop; shape only roughly preserved.
    "quick": Section52Profile(
        name="quick",
        n_peers=600,
        maxl=5,
        refmax=10,
        recmax=2,
        recursion_fanout=2,
        p_online=0.3,
        n_searches=1_000,
        n_updates=20,
        queries_per_update=5,
        threshold_fraction=0.985,
        max_exchanges=1_000_000,
    ),
    # Default: every ratio that drives the paper's §5.2 claims preserved:
    # mean replication ~ N / 2^maxl ≈ 15.6 (paper ≈ 19.5), refmax = 20 so
    # eq. (3)'s per-level survival matches, queries one bit short of maxl.
    "scaled": Section52Profile(
        name="scaled",
        n_peers=4_000,
        maxl=8,
        refmax=20,
        recmax=2,
        recursion_fanout=2,
        p_online=0.3,
        n_searches=10_000,
        n_updates=50,
        queries_per_update=10,
        threshold_fraction=0.985,
        max_exchanges=2_000_000,
    ),
    # The paper's exact §5.2 sizing.
    "paper": Section52Profile(
        name="paper",
        n_peers=20_000,
        maxl=10,
        refmax=20,
        recmax=2,
        recursion_fanout=2,
        p_online=0.3,
        n_searches=10_000,
        n_updates=100,
        queries_per_update=10,
        threshold_fraction=0.985,
        max_exchanges=8_000_000,
    ),
    # Beyond the paper: 5x its population, for the batch core only —
    # building 100k peers as Python objects is infeasible in a test
    # loop, so use ``core="batch"`` (gridless batch construction + the
    # vectorized query plane; requires numpy).
    "large": Section52Profile(
        name="large",
        n_peers=100_000,
        maxl=12,
        refmax=20,
        recmax=2,
        recursion_fanout=2,
        p_online=0.3,
        n_searches=10_000,
        n_updates=50,
        queries_per_update=10,
        threshold_fraction=0.985,
        max_exchanges=60_000_000,
    ),
}


def active_scale(default: str = "scaled") -> str:
    """The profile selected via ``REPRO_SCALE`` (validated)."""
    scale = os.environ.get(SCALE_ENV_VAR, default).strip().lower()
    if scale not in _PROFILES:
        raise ValueError(
            f"unknown {SCALE_ENV_VAR}={scale!r}; choose one of "
            f"{sorted(_PROFILES)}"
        )
    return scale


def section52_profile(scale: str | None = None) -> Section52Profile:
    """The §5.2 profile for *scale* (or the environment's choice)."""
    return _PROFILES[scale if scale is not None else active_scale()]


def default_cache_dir() -> Path:
    """Snapshot cache location (override with ``REPRO_CACHE_DIR``)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "benchmarks" / ".cache"


def build_section52_grid(
    profile: Section52Profile | None = None,
    *,
    cache_dir: Path | None = None,
    use_cache: bool = True,
) -> PGrid:
    """Build (or load from cache) the shared §5.2 grid for *profile*.

    Construction runs failure-free (the paper's 30% availability governs
    the *search/update* phases; during construction the two meeting peers
    are by definition both online, and availability of third parties only
    throttles case-4 recursion — see EXPERIMENTS.md).  The returned grid has
    a fresh RNG stream derived from the profile seed; attach a churn oracle
    before running availability experiments.
    """
    profile = profile or section52_profile()
    cache_dir = cache_dir or default_cache_dir()
    cache_path = cache_dir / f"{profile.cache_key()}.json.gz"
    if use_cache and cache_path.exists():
        return load_grid(cache_path, rng=rngmod.derive(profile.seed, "post-build"))

    grid = PGrid(profile.config, rng=rngmod.derive(profile.seed, "construction"))
    grid.add_peers(profile.n_peers)
    GridBuilder(grid).build(
        threshold_fraction=profile.threshold_fraction,
        max_exchanges=profile.max_exchanges,
    )
    if use_cache:
        save_grid(grid, cache_path)
    grid.rng = rngmod.derive(profile.seed, "post-build")
    return grid


def build_section52_array_engine(
    profile: Section52Profile | None = None,
    *,
    p_online: float | None = None,
    probe: Any = None,
    chunk: int = 8192,
):
    """Build the §5.2 state gridless and wrap it in the batch query plane.

    The batch-core twin of :func:`build_section52_grid`: a
    :class:`~repro.fast.BatchGridBuilder` constructs the routing tables
    as flat numpy arrays (no Python object per peer — this is what makes
    the ``large`` 100k-peer profile tractable) and the returned
    :class:`~repro.fast.BatchQueryEngine` resolves batched searches,
    updates and reads over them with the profile's availability baked in
    as ``p_online``.

    No snapshot cache: at 100k peers the gridless build takes about as
    long as loading a compressed snapshot would, and the flat state has
    no JSON persistence format.  Requires numpy (raises otherwise).
    The engine draws from its own numpy streams: results are
    deterministic per profile seed and statistically equivalent to the
    object core, not bit-identical (see ``repro.fast.query``).
    """
    from repro.fast import BatchQueryEngine

    profile = profile or section52_profile()
    return BatchQueryEngine.from_arraygrid(
        _section52_batch_grid(profile),
        seed=rngmod.derive_seed(profile.seed, "post-build"),
        p_online=p_online if p_online is not None else profile.p_online,
        probe=probe,
        chunk=chunk,
    )


def build_section52_snapshot(
    profile: Section52Profile | None = None,
    *,
    p_online: float | None = None,
):
    """Build the §5.2 state once and export it as a shared-memory snapshot.

    Same construction seeds as :func:`build_section52_array_engine` (the
    two produce identical routing state), but instead of wrapping the
    arrays in a process-local engine the state is published as a
    :class:`~repro.fast.GridSnapshot`: sweeps hand its picklable
    :meth:`~repro.fast.GridSnapshot.ref` to worker trials, which attach
    the segment zero-copy instead of each unpickling a grid.  The caller
    owns the snapshot (``close()``/``unlink()`` or context manager).
    Requires numpy.
    """
    from repro.fast import GridSnapshot

    profile = profile or section52_profile()
    return GridSnapshot.from_arraygrid(
        _section52_batch_grid(profile),
        p_online=p_online if p_online is not None else profile.p_online,
    )


def _section52_batch_grid(profile: Section52Profile):
    """The §5.2 state built gridless by the batch builder, as an
    :class:`~repro.fast.ArrayGrid` (raises ``RuntimeError`` without
    numpy)."""
    from repro.fast import BatchGridBuilder

    builder = BatchGridBuilder(
        n=profile.n_peers,
        config=profile.config,
        seed=rngmod.derive_seed(profile.seed, "construction-batch"),
    )
    builder.build(
        threshold_fraction=profile.threshold_fraction,
        # The object profiles size max_exchanges for the object builder's
        # meeting schedule; the batched rounds need ~250/peer to converge.
        max_exchanges=max(profile.max_exchanges, 600 * profile.n_peers),
    )
    return builder.grid


def _run_snapshot_queries(
    engine: Any, seed: int, n_queries: int, key_length: int
) -> dict[str, Any]:
    """Resolve one batch of uniform random queries; pure numbers out.

    Shared by the snapshot-ref and grid-ship trial functions so their
    ``"results"`` payloads are bit-identical when the underlying arrays
    are — the sweep's equivalence gate compares exactly this dict.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    queries = rng.integers(0, 1 << key_length, size=n_queries, dtype=np.int64)
    lengths = np.full(n_queries, key_length, dtype=np.int64)
    starts = rng.integers(0, engine.n, size=n_queries, dtype=np.int64)
    result = engine.search_many((queries, lengths), starts)
    return {
        "found": int(result.found.sum()),
        "messages": int(result.messages.sum()),
        "failed": int(result.failed_attempts.sum()),
        "responder_checksum": int(result.responder[result.found].sum()),
    }


def _snapshot_search_trial(
    snapshot: Any, seed: int, n_queries: int, key_length: int
) -> dict[str, Any]:
    """One search trial against an attached snapshot (module-level for
    pickling; *snapshot* arrives as a resolved :class:`GridSnapshot` when
    the spec carried a :class:`~repro.fast.SnapshotRef`)."""
    from repro.fast.snapshot import fresh_attach_count

    engine = snapshot.batch_query_engine(seed=seed)
    results = _run_snapshot_queries(engine, seed, n_queries, key_length)
    return {
        "results": results,
        "worker": {"pid": os.getpid(), "fresh_attaches": fresh_attach_count()},
    }


def gridship_state(snapshot: Any) -> dict[str, Any]:
    """The pre-snapshot trial payload: the packed grid, copied out of the
    segment so the pickled spec ships it to every worker — the baseline
    :func:`run_snapshot_search_sweep` is benchmarked against."""
    import numpy as np

    from repro.fast.arraygrid import FIELDS, ArrayGrid

    return {
        "grid": ArrayGrid(
            snapshot.config, {field: np.array(snapshot.view(field)) for field in FIELDS}
        ),
        "p_online": snapshot.p_online,
    }


def _gridship_search_trial(
    state: dict[str, Any], seed: int, n_queries: int, key_length: int
) -> dict[str, Any]:
    """The pre-snapshot baseline: the full grid state rides inside the
    pickled trial spec.  Kept for the benchmark's bytes/speedup
    comparison; produces bit-identical ``"results"``."""
    from repro.fast.query import BatchQueryEngine

    engine = BatchQueryEngine(state["grid"], seed=seed, p_online=state["p_online"])
    results = _run_snapshot_queries(engine, seed, n_queries, key_length)
    return {
        "results": results,
        "worker": {"pid": os.getpid(), "fresh_attaches": 0},
    }


def run_snapshot_search_sweep(
    snapshot: Any,
    *,
    trials: int,
    n_queries: int,
    jobs: int | None = 1,
    master_seed: int | None = None,
    key_length: int | None = None,
) -> list[dict[str, Any]]:
    """Fan *trials* independent search batches over the perf pool, shipping
    only the snapshot's handle.

    Each trial spec carries a :class:`~repro.fast.SnapshotRef` (a few
    hundred bytes) instead of the grid; workers attach the shared segment
    once per process and reuse it across trials.  Trial ``i`` uses seed
    ``derive_seed(master, "trial-i")``, so the ``"results"`` sections are
    bit-identical for any ``jobs`` (the ``"worker"`` sections — pid,
    attach counts — legitimately differ between serial and pooled runs).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    master = snapshot.config.maxl if master_seed is None else master_seed
    key_length = snapshot.config.maxl - 1 if key_length is None else key_length
    ref = snapshot.ref()
    specs = [
        {
            "snapshot": ref,
            "seed": rngmod.derive_seed(master, f"trial-{index}"),
            "n_queries": n_queries,
            "key_length": key_length,
        }
        for index in range(trials)
    ]
    return parallel_starmap(_snapshot_search_trial, specs, jobs=jobs)


# -- parallel trial execution -------------------------------------------------
#
# Every §5 sweep evaluates independent (parameter point, derived seed)
# trials through repro.perf.parallel.parallel_starmap, bit-identical to a
# serial run (each point derives all randomness from its own arguments —
# see the determinism contract in that module).


def _scenario_trial(spec: ScenarioSpec) -> tuple[ScenarioMetrics, MetricsRegistry]:
    """One instrumented scenario run (module-level for pickling)."""
    from repro.obs.metrics import MetricsProbe

    probe = MetricsProbe()
    metrics = run_scenario(spec, probe=probe)
    return metrics, probe.registry


def run_scenario_trials(
    spec: ScenarioSpec,
    trials: int,
    *,
    jobs: int | None = 1,
    master_seed: int | None = None,
) -> tuple[list[ScenarioMetrics], MetricsRegistry]:
    """Run *trials* independent replays of *spec*, merging their metrics.

    Trial ``i`` runs with the seed ``derive_seed(master, "trial-i")``
    (*master* defaults to ``spec.seed``), so the trial set is a pure
    function of the master seed and the per-trial registries merge to the
    same snapshot whatever ``jobs`` is.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    master = spec.seed if master_seed is None else master_seed
    specs = [
        replace(spec, seed=rngmod.derive_seed(master, f"trial-{index}"))
        for index in range(trials)
    ]
    outcomes = parallel_starmap(
        _scenario_trial, [{"spec": trial_spec} for trial_spec in specs], jobs=jobs
    )
    metrics = [metrics for metrics, _registry in outcomes]
    merged = merge_registries(registry for _metrics, registry in outcomes)
    return metrics, merged


@dataclass
class ExperimentResult:
    """A reproduced table/figure: rows plus provenance."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: list[list[Any]]
    config: dict[str, Any]
    notes: str = ""
    extra_text: str = ""

    def to_text(self, *, float_digits: int = 2) -> str:
        """Human-readable rendering (table + optional figure text)."""
        parts = [
            render_table(
                self.headers,
                self.rows,
                title=f"[{self.experiment_id}] {self.title}",
                float_digits=float_digits,
            )
        ]
        if self.extra_text:
            parts.append(self.extra_text)
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n\n".join(parts)

    def save(self, directory: str | Path) -> None:
        """Persist as CSV (rows) + JSON (rows and provenance)."""
        directory = Path(directory)
        write_csv(directory / f"{self.experiment_id}.csv", self.headers, self.rows)
        write_json(
            directory / f"{self.experiment_id}.json",
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "headers": list(self.headers),
                "rows": self.rows,
                "config": self.config,
                "notes": self.notes,
            },
        )
