"""Tests for the parallel trial executor (repro.perf.parallel).

The load-bearing property: for the same master seed, running trials with
``jobs >= 2`` (process pool) is bit-identical to running them serially —
both the per-trial results and the merged metrics snapshots.  This is what
lets every experiment expose ``--jobs`` without a reproducibility caveat.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import PGridConfig
from repro.experiments import table1_construction_scaling, table3_recmax
from repro.experiments.common import run_scenario_trials
from repro.obs.metrics import MetricsRegistry
from repro.perf import parallel
from repro.perf.parallel import (
    TrialSpec,
    merge_registries,
    parallel_starmap,
    resolve_jobs,
    run_trials,
    warm_pool,
)
from repro.sim import rng as rngmod
from repro.sim.scenario import ScenarioSpec


def _square(value: int) -> int:
    return value * value


def _seeded_draw(seed: int) -> int:
    return rngmod.derive(seed, "draw").getrandbits(32)


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_cpu_count(self):
        expected = os.cpu_count() or 1
        assert resolve_jobs(0) == expected
        assert resolve_jobs(None) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestRunTrials:
    def test_serial_preserves_order(self):
        specs = [TrialSpec(kwargs={"value": v}) for v in (3, 1, 2)]
        assert run_trials(_square, specs, jobs=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        specs = [TrialSpec(kwargs={"value": v}) for v in range(8)]
        assert run_trials(_square, specs, jobs=2) == [v * v for v in range(8)]

    def test_parallel_starmap(self):
        kwargs = [{"value": v} for v in (5, 6)]
        assert parallel_starmap(_square, kwargs, jobs=2) == [25, 36]

    def test_parallel_matches_serial_for_seeded_randomness(self):
        kwargs = [{"seed": s} for s in range(6)]
        serial = parallel_starmap(_seeded_draw, kwargs, jobs=1)
        parallel = parallel_starmap(_seeded_draw, kwargs, jobs=3)
        assert serial == parallel


class TestChunkedSubmission:
    """Trials are packed into chunked pool tasks; chunking is pure
    batching — results stay bit-identical to serial for every jobs
    value and every batch size around the chunk boundaries."""

    def test_chunks_partition_payloads_in_order(self):
        payloads = [(_square, {"value": v}) for v in range(11)]
        chunks = parallel._chunk_payloads(payloads, workers=2)
        # ~_CHUNKS_PER_WORKER chunks per worker, never empty
        assert 1 <= len(chunks) <= 2 * parallel._CHUNKS_PER_WORKER
        assert all(chunk for chunk in chunks)
        flattened = [payload for chunk in chunks for payload in chunk]
        assert flattened == payloads

    def test_single_trial_single_chunk(self):
        payloads = [(_square, {"value": 7})]
        assert parallel._chunk_payloads(payloads, workers=4) == [payloads]

    @pytest.mark.parametrize("count", [2, 7, 8, 9, 17])
    def test_bit_identical_across_jobs_at_chunk_boundaries(self, count):
        specs = [TrialSpec(kwargs={"seed": s}) for s in range(count)]
        serial = run_trials(_seeded_draw, specs, jobs=1)
        for jobs in (2, 3):
            assert run_trials(_seeded_draw, specs, jobs=jobs) == serial


class TestMergeRegistries:
    def test_counters_add_and_order_independent_totals(self):
        shards = []
        for amount in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter("x").inc(amount)
            registry.histogram("h").observe(amount)
            shards.append(registry)
        merged = merge_registries(shards)
        snap = merged.snapshot()
        assert snap["counters"]["x"] == 6
        assert snap["histograms"]["h"]["count"] == 3

    def test_empty(self):
        assert merge_registries([]).snapshot()["counters"] == {}


class TestParallelExperimentsBitIdentical:
    """Satellite: serial vs --jobs 2+ identity across >= 2 experiments."""

    def test_table1_identical(self):
        kwargs = dict(
            peer_counts=(40, 64), recmax_values=(0, 2), maxl=4, seed=11
        )
        serial = table1_construction_scaling.run(jobs=1, **kwargs)
        parallel = table1_construction_scaling.run(jobs=2, **kwargs)
        assert serial.rows == parallel.rows
        assert serial.headers == parallel.headers
        assert serial.config == parallel.config

    def test_table3_identical(self):
        kwargs = dict(n_peers=48, maxl=4, recmax_values=(0, 1, 2), seed=7)
        serial = table3_recmax.run(jobs=1, **kwargs)
        parallel = table3_recmax.run(jobs=2, **kwargs)
        assert serial.rows == parallel.rows
        assert serial.config == parallel.config

    def test_raw_points_identical(self):
        points = [
            {"n_peers": n, "maxl": 4, "refmax": 1, "recmax": 2, "seed": 5}
            for n in (32, 48, 64)
        ]
        fn = table1_construction_scaling.construction_cost
        assert parallel_starmap(fn, points, jobs=1) == parallel_starmap(fn, points, jobs=2)


class TestScenarioTrialsBitIdentical:
    """Results *and* merged metrics snapshots match across jobs values."""

    @pytest.fixture
    def spec(self):
        return ScenarioSpec(
            n_peers=96,
            config=PGridConfig(maxl=4, refmax=3, recmax=2, recursion_fanout=2),
            items_per_peer=2,
            key_length=6,
            operations=120,
            update_fraction=0.1,
            seed=23,
        )

    def test_metrics_and_results_identical(self, spec):
        serial_metrics, serial_registry = run_scenario_trials(spec, 3, jobs=1)
        parallel_metrics, parallel_registry = run_scenario_trials(
            spec, 3, jobs=2
        )
        assert serial_metrics == parallel_metrics
        assert serial_registry.snapshot() == parallel_registry.snapshot()

    def test_trials_are_independent_of_each_other(self, spec):
        # Trial seeds derive from (master, index) alone: a superset run
        # reproduces the prefix trials exactly.
        two, _ = run_scenario_trials(spec, 2, jobs=1)
        three, _ = run_scenario_trials(spec, 3, jobs=1)
        assert three[:2] == two

    def test_trials_validated(self, spec):
        with pytest.raises(ValueError):
            run_scenario_trials(spec, 0)


class TestSharedPool:
    """The executor is process-global: calls reuse it instead of paying
    worker spawn per sweep point (the BENCH_search 0.74x regression)."""

    def setup_method(self):
        parallel.shutdown_pool()

    def teardown_method(self):
        parallel.shutdown_pool()

    def test_pool_reused_across_calls(self):
        specs = [TrialSpec(kwargs={"value": v}) for v in range(4)]
        run_trials(_square, specs, jobs=2)
        first = parallel._pool
        assert first is not None
        run_trials(_square, specs, jobs=2)
        assert parallel._pool is first

    def test_pool_grows_but_never_shrinks(self):
        specs = [TrialSpec(kwargs={"value": v}) for v in range(4)]
        run_trials(_square, specs, jobs=2)
        small = parallel._pool
        run_trials(_square, specs, jobs=3)
        grown = parallel._pool
        assert grown is not small
        assert parallel._pool_workers == 3
        # a smaller request reuses the bigger pool
        run_trials(_square, specs, jobs=2)
        assert parallel._pool is grown

    def test_warm_pool_prespawns_workers(self):
        assert parallel._pool is None
        assert warm_pool(2) == 2
        assert parallel._pool is not None
        assert parallel._pool_workers == 2
        # the warmed pool is the one run_trials picks up
        pool = parallel._pool
        specs = [TrialSpec(kwargs={"value": v}) for v in range(4)]
        assert run_trials(_square, specs, jobs=2) == [0, 1, 4, 9]
        assert parallel._pool is pool

    def test_warm_pool_serial_is_noop(self):
        assert warm_pool(1) == 1
        assert parallel._pool is None

    def test_shutdown_is_idempotent(self):
        parallel.shutdown_pool()
        parallel.shutdown_pool()
        assert parallel._pool is None

    def test_results_identical_through_shared_pool(self):
        specs = [TrialSpec(kwargs={"seed": s}) for s in range(6)]
        serial = run_trials(_seeded_draw, specs, jobs=1)
        # two parallel batches over the same pool instance
        first = run_trials(_seeded_draw, specs, jobs=2)
        second = run_trials(_seeded_draw, specs, jobs=2)
        assert first == serial
        assert second == serial
