"""Tests for the vectorized batch query plane (repro.fast.query).

Contract under test (module docstring of ``repro.fast.query``): routing
and accounting semantics identical to the object core, RNG discipline
different — so runs are *deterministic per seed* and *statistically
equivalent* to ``SearchEngine``/``UpdateEngine``/``ReadEngine``, never
bit-identical.  The all-online case is special: success there is purely
structural, which lets several properties be asserted exactly.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.config import PGridConfig
from repro.core.grid import AlwaysOnline, PGrid
from repro.core.search import SearchEngine
from repro.core.storage import DataItem
from repro.fast import HAVE_NUMPY, ArrayGrid
from repro.fast.batch import BatchGridBuilder
from repro.fast.query import BatchQueryEngine, _pack_keys
from repro.protocol.update import UpdateStrategy
from repro.sim.builder import GridBuilder
from repro.sim.churn import BernoulliChurn

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="requires numpy")

if HAVE_NUMPY:
    import numpy as np


def build_grid(seed: int, n: int = 60, maxl: int = 5, refmax: int = 3) -> PGrid:
    config = PGridConfig(maxl=maxl, refmax=refmax, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=random.Random(seed))
    grid.add_peers(n)
    GridBuilder(grid).build(max_exchanges=40_000)
    data_rng = random.Random(seed + 1)
    grid.seed_index(
        [
            (
                DataItem(
                    key=format(data_rng.getrandbits(maxl), f"0{maxl}b"),
                    value=f"value-{address}",
                ),
                address,
            )
            for address in grid.addresses()
        ]
    )
    return grid


def engine_for(
    grid: PGrid, *, seed: int = 42, p_online: float | None = None, **kwargs
) -> BatchQueryEngine:
    return BatchQueryEngine.from_arraygrid(
        ArrayGrid.from_pgrid(grid), seed=seed, p_online=p_online, **kwargs
    )


def workload(grid: PGrid, seed: int, count: int, length: int):
    rng = random.Random(seed)
    keys = [format(rng.getrandbits(length), f"0{length}b") for _ in range(count)]
    starts = [rng.randrange(len(grid)) for _ in range(count)]
    return keys, starts


class TestDeterminismAndStructure:
    def test_same_seed_bit_identical(self):
        grid = build_grid(3)
        keys, starts = workload(grid, 7, 200, 4)
        first = engine_for(grid, seed=9).search_many(keys, starts)
        second = engine_for(grid, seed=9).search_many(keys, starts)
        assert np.array_equal(first.found, second.found)
        assert np.array_equal(first.responder, second.responder)
        assert np.array_equal(first.messages, second.messages)
        assert np.array_equal(first.failed_attempts, second.failed_attempts)

    def test_all_online_success_is_structural(self):
        # With p=1 every contact succeeds, so *whether* a query is found
        # does not depend on the seed or on chunking — only cost does.
        grid = build_grid(5)
        keys, starts = workload(grid, 11, 200, 4)
        baseline = engine_for(grid, seed=1).search_many(keys, starts)
        other_seed = engine_for(grid, seed=2).search_many(keys, starts)
        chunked = engine_for(grid, seed=3, chunk=17).search_many(keys, starts)
        assert np.array_equal(baseline.found, other_seed.found)
        assert np.array_equal(baseline.found, chunked.found)

    def test_responders_are_responsible(self):
        grid = build_grid(13)
        engine = engine_for(grid, seed=4)
        keys, starts = workload(grid, 17, 200, 4)
        result = engine.search_many(keys, starts)
        assert result.found.any()
        for i in np.flatnonzero(result.found):
            path = grid.peer(engine.addresses[int(result.responder[i])]).path
            key = keys[int(i)]
            assert key.startswith(path) or path.startswith(key)

    def test_start_peer_answers_locally(self):
        # A start peer responsible for the query answers without any
        # message — same accounting as the object engine.
        grid = build_grid(19)
        engine = engine_for(grid, seed=5)
        start = 0
        key = grid.peer(engine.addresses[start]).path or "0"
        result = engine.search_many([key], [start])
        assert bool(result.found[0])
        assert int(result.responder[0]) == start
        assert int(result.messages[0]) == 0
        assert int(result.failed_attempts[0]) == 0


class TestObjectCoreEquivalence:
    def test_all_online_found_set_matches_object_core(self):
        grid = build_grid(23)
        keys, starts = workload(grid, 29, 300, 4)
        engine = engine_for(grid, seed=6)
        batch = engine.search_many(keys, starts)
        addresses = grid.addresses()
        search = SearchEngine(grid)
        object_found = [
            search.query_from(addresses[start], key).found
            for key, start in zip(keys, starts)
        ]
        assert batch.found.tolist() == object_found

    def test_all_online_messages_statistically_close(self):
        grid = build_grid(31)
        keys, starts = workload(grid, 37, 400, 4)
        engine = engine_for(grid, seed=7)
        batch = engine.search_many(keys, starts)
        addresses = grid.addresses()
        search = SearchEngine(grid)
        object_messages = [
            search.query_from(addresses[start], key).messages
            for key, start in zip(keys, starts)
        ]
        object_mean = sum(object_messages) / len(object_messages)
        assert batch.mean_messages == pytest.approx(object_mean, rel=0.10)

    def test_under_churn_found_rate_close(self):
        grid = build_grid(41)
        keys, starts = workload(grid, 43, 600, 4)
        engine = engine_for(grid, seed=8, p_online=0.3)
        batch = engine.search_many(keys, starts)
        addresses = grid.addresses()
        grid.online_oracle = BernoulliChurn(0.3, random.Random(99))
        search = SearchEngine(grid)
        object_rate = sum(
            search.query_from(addresses[start], key).found
            for key, start in zip(keys, starts)
        ) / len(keys)
        assert batch.found_rate == pytest.approx(object_rate, abs=0.05)
        assert batch.failed_attempts.sum() > 0


class TestBreadthAndStrategies:
    def test_breadth_reaches_only_replicas(self):
        grid = build_grid(47)
        engine = engine_for(grid, seed=9)
        keys, starts = workload(grid, 53, 100, 4)
        truth = engine.replicas_for_keys(keys)
        reach = engine.find_replicas_many(
            keys, starts, strategy=UpdateStrategy.BFS, recbreadth=2
        )
        for i in range(len(keys)):
            reached = reach.reached(i).tolist()
            assert len(set(reached)) == len(reached)  # no peer reached twice
            assert set(reached) <= set(truth.reached(i).tolist())

    def test_breadth_coverage_monotone_in_recbreadth(self):
        grid = build_grid(59)
        keys, starts = workload(grid, 61, 150, 4)
        truth = engine_for(grid, seed=0).replicas_for_keys(keys)

        def coverage(recbreadth: int) -> float:
            reach = engine_for(grid, seed=10).find_replicas_many(
                keys, starts, strategy=UpdateStrategy.BFS, recbreadth=recbreadth
            )
            total = count = 0.0
            for i in range(len(keys)):
                expected = set(truth.reached(i).tolist())
                if not expected:
                    continue
                got = set(reach.reached(i).tolist())
                total += len(got & expected) / len(expected)
                count += 1
            return total / count

        narrow, wide = coverage(1), coverage(3)
        assert wide >= narrow
        assert wide > 0.5

    def test_buddy_forwarding_extends_dfs_reach(self):
        grid = build_grid(67)
        keys, starts = workload(grid, 71, 100, 4)
        plain = engine_for(grid, seed=11).find_replicas_many(
            keys, starts, strategy=UpdateStrategy.REPEATED_DFS, repetition=4
        )
        buddies = engine_for(grid, seed=11).find_replicas_many(
            keys, starts, strategy=UpdateStrategy.DFS_BUDDIES, repetition=4
        )
        # Same seed, same DFS draws: buddy forwarding can only add peers.
        for i in range(len(keys)):
            assert set(plain.reached(i).tolist()) <= set(
                buddies.reached(i).tolist()
            )
        assert buddies.values.size >= plain.values.size

    def test_repetition_unions_reach(self):
        grid = build_grid(73)
        keys, starts = workload(grid, 79, 100, 4)
        once = engine_for(grid, seed=12).find_replicas_many(
            keys, starts, strategy=UpdateStrategy.REPEATED_DFS, repetition=1
        )
        many = engine_for(grid, seed=12).find_replicas_many(
            keys, starts, strategy=UpdateStrategy.REPEATED_DFS, repetition=8
        )
        assert many.values.size >= once.values.size
        assert int(many.messages.sum()) >= int(once.messages.sum())
        for i in range(len(keys)):
            reached = many.reached(i).tolist()
            assert len(set(reached)) == len(reached)  # unique per query


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


class TestReplicaFoldPinned:
    """``find_replicas_many`` for the DFS strategies, pinned to the values
    the per-query Python fold produced: reach, costs and both engine RNG
    states after the call (digests of the ``tolist()`` forms)."""

    @pytest.mark.parametrize(
        "strategy, repetition, totals, reach_digest, cost_digest, rng_digest",
        [
            (UpdateStrategy.REPEATED_DFS, 1, (34, 72, 58),
             "abc31d03a10054dc", "e07543e1534231b0", "88e5e759854c9ecb"),
            (UpdateStrategy.REPEATED_DFS, 3, (70, 203, 148),
             "06d4266b5fafe896", "e8f368744bc8d575", "54bc5f5bf60b072a"),
            (UpdateStrategy.DFS_BUDDIES, 1, (47, 85, 69),
             "e5bc315399a50908", "e9e27bf4eb27226b", "d6bab12d5925ef6d"),
            (UpdateStrategy.DFS_BUDDIES, 3, (90, 223, 160),
             "c578efc34b303790", "9817da5cd7cad36e", "5f9b61bbd76f7a3d"),
        ],
    )
    def test_dfs_strategies_are_bit_identical(
        self, strategy, repetition, totals, reach_digest, cost_digest, rng_digest
    ):
        grid = build_grid(83)
        keys, starts = workload(grid, 89, 40, 4)
        engine = engine_for(grid, seed=13, p_online=0.6)
        reach = engine.find_replicas_many(
            keys, starts, strategy=strategy, repetition=repetition
        )
        mt = engine._rng.bit_generator.state["state"]
        assert (
            len(reach.values),
            int(reach.messages.sum()),
            int(reach.failed_attempts.sum()),
        ) == totals
        assert _digest(reach.offsets.tolist(), reach.values.tolist()) == reach_digest
        assert (
            _digest(reach.messages.tolist(), reach.failed_attempts.tolist())
            == cost_digest
        )
        assert (
            _digest(mt["key"].tolist(), mt["pos"], engine._pyrng.getstate())
            == rng_digest
        )


def _kernel_digest(engine, probe, *results) -> str:
    """One digest of batch outcomes, both engine RNG states after them and
    every wave's ``(kind, wave, active, contacts, offline)`` and batch
    summary the probe saw."""
    mt = engine._rng.bit_generator.state["state"]
    fields = [getattr(result, name) for result in results for name in result.__slots__]
    arrays = [field.tolist() if hasattr(field, "tolist") else field for field in fields]
    return _digest(
        arrays, mt["key"].tolist(), mt["pos"], engine._pyrng.getstate(),
        probe.waves, probe.batches,
    )


def _gridless_engine(probe):
    """An all-online gridless batch build shaped like the snapshot sweeps:
    keys longer than ``maxl``, many references per level."""
    config = PGridConfig(maxl=6, refmax=6, recmax=2, recursion_fanout=2)
    builder = BatchGridBuilder(n=1024, config=config, seed=31)
    builder.build()
    return BatchQueryEngine.from_arraygrid(builder.grid, seed=32, chunk=512, probe=probe)


def _moved_engine(probe):
    from tests.protocol.test_routed_prefix import moved_grid

    grid = moved_grid().pgrid
    return BatchQueryEngine.from_arraygrid(ArrayGrid.from_pgrid(grid), seed=33, probe=probe)


def _churned_engine(probe):
    grid = build_grid(137, n=200, maxl=6, refmax=4)
    grid.online_oracle = BernoulliChurn(0.3, random.Random(0))
    return engine_for(grid, seed=34, probe=probe), grid


class TestKernelPinned:
    """The depth-first kernel pinned to the values it produced with frames
    held as ``(query, depth)`` rows and the routed-on prefix checked at
    forward time: outcomes, MT19937 state and per-wave counts."""

    @pytest.mark.parametrize(
        "make, key_bits, count, digest",
        [
            (_gridless_engine, 12, 3000, "18b99fb8f17cbd20"),
            (lambda probe: _churned_engine(probe)[0], 6, 1500, "57d2d292308e330d"),
            (_moved_engine, 4, 1200, "67af40c070064b5f"),
        ],
        ids=["gridless", "churned", "moved"],
    )
    def test_search_many(self, make, key_bits, count, digest):
        probe = _RecordingProbe()
        engine = make(probe)
        rng = random.Random(key_bits)
        keys = [format(rng.getrandbits(key_bits), f"0{key_bits}b") for _ in range(count)]
        starts = [rng.randrange(engine.n) for _ in range(count)]
        result = engine.search_many(keys, starts)
        assert _kernel_digest(engine, probe, result) == digest

    def test_read_many(self):
        probe = _RecordingProbe()
        engine, grid = _churned_engine(probe)
        # Indexed (key, holder) pairs; the odd ones ask for a version
        # nobody holds, so a repetitive read retries them to the cap.
        rows = engine._store[:, 1:4].tolist() * 3
        keys = [format(bits, f"0{length}b") for bits, length, _ in rows]
        holders = [holder for _, _, holder in rows]
        versions = [i % 2 for i in range(len(rows))]
        starts = [random.Random(139 + i).randrange(engine.n) for i in range(len(rows))]
        single = engine.read_many(keys, holders, versions, starts, repetitive=False)
        repeated = engine.read_many(
            keys, holders, versions, starts, repetitive=True, max_repetitions=6
        )
        assert _kernel_digest(engine, probe, single, repeated) == "408fb121c5923559"

    @pytest.mark.parametrize(
        "strategy, digest",
        [
            (UpdateStrategy.REPEATED_DFS, "8d98dba36d658c41"),
            (UpdateStrategy.DFS_BUDDIES, "f73f067466a19a17"),
            (UpdateStrategy.BFS, "d4a810b706fd9a09"),
        ],
    )
    def test_find_replicas_many(self, strategy, digest):
        probe = _RecordingProbe()
        engine, grid = _churned_engine(probe)
        keys, starts = workload(grid, 149, 500, 5)
        reach = engine.find_replicas_many(keys, starts, strategy=strategy, repetition=3)
        assert _kernel_digest(engine, probe, reach) == digest

    def test_search_range_many(self):
        # The breadth kernel, with subtree enumeration, on the same grid.
        probe = _RecordingProbe()
        engine, grid = _churned_engine(probe)
        lows, starts = workload(grid, 151, 300, 6)
        highs = [format(min(int(low, 2) + 5, 63), "06b") for low in lows]
        ranged = engine.search_range_many(lows, highs, starts)
        assert _kernel_digest(engine, probe, ranged) == "4caabf7561751fea"


class TestPublishAndRead:
    def test_publish_then_repetitive_read_succeeds(self):
        grid = build_grid(83)
        engine = engine_for(grid, seed=13)
        keys, starts = workload(grid, 89, 40, 4)
        holders = [h % engine.n for h in range(len(keys))]
        versions = [1] * len(keys)
        published = engine.publish_many(
            keys,
            holders,
            versions,
            starts,
            strategy=UpdateStrategy.BFS,
            recbreadth=engine.refmax,
        )
        assert all(
            published.offsets[i + 1] > published.offsets[i]
            for i in range(len(keys))
        )
        read = engine.read_many(
            keys, holders, versions, starts, repetitive=True
        )
        assert read.success_rate == 1.0
        assert (read.repetitions >= 1).all()

    def test_non_repetitive_read_can_miss_stale_replicas(self):
        grid = build_grid(97)
        engine = engine_for(grid, seed=14)
        keys, starts = workload(grid, 101, 60, 4)
        holders = [h % engine.n for h in range(len(keys))]
        versions = [1] * len(keys)
        engine.publish_many(
            keys,
            holders,
            versions,
            starts,
            strategy=UpdateStrategy.BFS,
            repetition=1,
            recbreadth=1,
        )
        single = engine.read_many(
            keys, holders, versions, starts, repetitive=False
        )
        repeated = engine.read_many(
            keys, holders, versions, starts, repetitive=True
        )
        assert (single.repetitions == 1).all()
        assert repeated.success_rate >= single.success_rate

    def test_read_unknown_version_fails(self):
        grid = build_grid(103)
        engine = engine_for(grid, seed=15)
        keys, starts = workload(grid, 107, 20, 4)
        holders = [0] * len(keys)
        read = engine.read_many(
            keys, holders, [5] * len(keys), starts, repetitive=False
        )
        assert read.success_rate == 0.0


class _RecordingProbe:
    def __init__(self) -> None:
        self.waves: list[tuple] = []
        self.batches: list[tuple] = []

    def on_batch_wave(self, kind, *, wave, active, contacts, offline):
        self.waves.append((kind, wave, active, contacts, offline))

    def on_batch_search(self, kind, *, queries, found, messages, failed_attempts):
        self.batches.append((kind, queries, found, messages, failed_attempts))


class TestObservability:
    def test_probe_sees_waves_and_summary(self):
        grid = build_grid(109)
        probe = _RecordingProbe()
        engine = engine_for(grid, seed=16, p_online=0.5, probe=probe)
        keys, starts = workload(grid, 113, 120, 4)
        result = engine.search_many(keys, starts)
        assert probe.waves and probe.waves[0][0] == "batch_dfs"
        kind, queries, found, messages, failed = probe.batches[-1]
        assert kind == "batch_dfs"
        assert queries == len(keys)
        assert found == int(result.found.sum())
        assert messages == int(result.messages.sum())
        assert failed == int(result.failed_attempts.sum())
        # Per-wave contacts partition into delivered + offline exactly.
        contacts = sum(w[3] for w in probe.waves)
        offline = sum(w[4] for w in probe.waves)
        assert contacts == messages + failed
        assert offline == failed


class TestConstructionPaths:
    def test_from_batch_builder_gridless(self):
        config = PGridConfig(maxl=5, refmax=3, recmax=2, recursion_fanout=2)
        builder = BatchGridBuilder(n=500, config=config, seed=21)
        report = builder.build(threshold_fraction=0.95, max_exchanges=500_000)
        assert report.converged
        engine = BatchQueryEngine.from_arraygrid(builder.grid, seed=22)
        rng = random.Random(23)
        keys = [format(rng.getrandbits(4), "04b") for _ in range(200)]
        starts = [rng.randrange(engine.n) for _ in range(200)]
        result = engine.search_many(keys, starts)
        assert result.found_rate > 0.95
        assert result.mean_messages > 0

    def test_from_arraygrid_infers_p_online(self):
        grid = build_grid(127)
        grid.online_oracle = AlwaysOnline()
        assert engine_for(grid, seed=24).p_online == 1.0
        grid.online_oracle = BernoulliChurn(0.3, random.Random(0))
        assert engine_for(grid, seed=25).p_online == pytest.approx(0.3)

    def test_from_arraygrid_rejects_unknown_oracle(self):
        grid = build_grid(131)
        grid.online_oracle = object()
        with pytest.raises(ValueError, match="p_online"):
            engine_for(grid, seed=26)


class TestValidation:
    @pytest.fixture(scope="class")
    def engine(self):
        return engine_for(build_grid(137), seed=27)

    def test_empty_query_rejected(self, engine):
        with pytest.raises(ValueError, match="non-empty"):
            engine.search_many([""], [0])

    def test_length_mismatch_rejected(self, engine):
        with pytest.raises(ValueError, match="starts"):
            engine.search_many(["01", "10"], [0])

    def test_start_out_of_range_rejected(self, engine):
        with pytest.raises(ValueError, match="out of range"):
            engine.search_many(["01"], [engine.n])
        with pytest.raises(ValueError, match="out of range"):
            engine.find_replicas_many(["01"], [-1], strategy=UpdateStrategy.BFS)

    def test_bad_parameters_rejected(self, engine):
        with pytest.raises(ValueError, match="recbreadth"):
            engine.find_replicas_many(
                ["01"], [0], strategy=UpdateStrategy.BFS, recbreadth=0
            )
        with pytest.raises(ValueError, match="repetition"):
            engine.find_replicas_many(
                ["01"], [0], strategy=UpdateStrategy.BFS, repetition=0
            )
        with pytest.raises(ValueError, match="max_repetitions"):
            engine.read_many(["01"], [0], [1], [0], repetitive=True, max_repetitions=0)

    def test_update_columns_match_the_keys(self, engine):
        with pytest.raises(ValueError, match="2 queries but 3 holders"):
            engine.publish_many(["01", "10"], [0, 1, 2], [1, 1], [0, 0])
        with pytest.raises(ValueError, match="2 queries but 3 versions"):
            engine.publish_many(["01", "10"], [0, 1], [1, 1, 1], [0, 0])
        with pytest.raises(ValueError, match="2 queries but 3 holders"):
            engine.read_many(["01", "10"], [0, 1, 2], [1, 1], [0, 0], repetitive=False)
        with pytest.raises(ValueError, match="2 queries but 1 versions"):
            engine.read_many(["01", "10"], [0, 1], [1], [0, 0], repetitive=False)

    def test_bad_construction_parameters_rejected(self):
        grid = build_grid(139)
        with pytest.raises(ValueError, match="p_online"):
            engine_for(grid, seed=28, p_online=1.5)
        with pytest.raises(ValueError, match="chunk"):
            engine_for(grid, seed=29, chunk=0)

    def test_pack_keys_round_trip(self):
        kb, kl = _pack_keys(["0101", "1", "001"])
        assert kb.tolist() == [0b0101, 1, 0b001]
        assert kl.tolist() == [4, 1, 3]


class TestGroundTruth:
    def test_replicas_for_keys_matches_object_oracle(self):
        grid = build_grid(149)
        engine = engine_for(grid, seed=30)
        rng = random.Random(151)
        keys = [format(rng.getrandbits(4), "04b") for _ in range(50)]
        truth = engine.replicas_for_keys(keys)
        addresses = grid.addresses()
        for i, key in enumerate(keys):
            expected = set(grid.replicas_for_key(key))
            got = {addresses[j] for j in truth.reached(i).tolist()}
            assert got == expected
