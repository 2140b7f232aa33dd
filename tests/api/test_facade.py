"""The ``repro.api.Grid`` facade: one surface, three drivers.

Covers the facade's construction and direct-operation paths, the
driver-equality guarantee of :meth:`Grid.serve` (field-for-field equal
results and cost counters on equal grids) and service lifecycle (close
releases the transport so a grid can be re-served).
"""

from __future__ import annotations

import random

import pytest

from repro.api import DRIVERS, Grid
from repro.core import keys as keyspace
from repro.core.config import PGridConfig
from repro.errors import InvalidConfigError
from repro.faults import RetryPolicy


def build_twins(count: int, *, peers=48, maxl=4, seed=21, **kwargs):
    return [
        Grid.build(peers=peers, maxl=maxl, seed=seed, **kwargs)
        for _ in range(count)
    ]


class TestBuild:
    def test_build_converges_and_reports(self):
        grid = Grid.build(peers=32, maxl=4, seed=7)
        assert len(grid) == 32
        assert grid.report is not None
        assert grid.report.converged
        assert len(grid.addresses()) == 32

    def test_build_with_explicit_config(self):
        config = PGridConfig(maxl=3, refmax=2, recmax=1, recursion_fanout=2)
        grid = Grid.build(peers=16, maxl=9, seed=7, config=config)
        assert grid.pgrid.config.maxl == 3  # config wins over maxl kwarg

    def test_same_seed_same_grid(self):
        a, b = build_twins(2)
        assert a.pgrid.rng.getstate() == b.pgrid.rng.getstate()
        for addr in a.addresses():
            assert a.pgrid.peer(addr).path == b.pgrid.peer(addr).path

    def test_wrap_existing_pgrid(self):
        built = Grid.build(peers=16, maxl=3, seed=5)
        rewrapped = Grid(built.pgrid)
        assert len(rewrapped) == 16
        assert rewrapped.report is None


class TestDirectOperations:
    def test_search_update_roundtrip(self):
        grid = Grid.build(peers=32, maxl=4, seed=9)
        result = grid.update("1011", holder=3, version=1, value="doc")
        assert result.reached
        assert set(result.reached) <= set(grid.replicas_for("1011"))
        found = grid.search("1011")
        assert found.found
        assert any(r.holder == 3 and r.version == 1 for r in found.data_refs)

    def test_search_range(self):
        grid = Grid.build(peers=32, maxl=4, seed=9)
        grid.update("0010", holder=1)
        grid.update("0111", holder=2)
        outcome = grid.search_range("0000", "0111", start=4)
        assert outcome.found
        keys_found = {ref.key for ref in outcome.data_refs}
        assert {"0010", "0111"} <= keys_found


class TestArrayQueryPlane:
    """``Grid.search(core=...)``/``search_many`` route through the
    cached batch engine; all-online success is structural, so the found
    sets must match the object core exactly."""

    @pytest.fixture(scope="class")
    def grid(self):
        pytest.importorskip("numpy")
        return Grid.build(peers=48, maxl=4, seed=31)

    def test_search_many_found_matches_object_core(self, grid):
        rng = random.Random(5)
        keys = [format(rng.getrandbits(3), "03b") for _ in range(100)]
        starts = [rng.choice(grid.addresses()) for _ in range(100)]
        object_results = grid.search_many(keys, starts, core="object")
        batch = grid.search_many(keys, starts, core="array")
        assert len(batch) == 100
        assert batch.found.tolist() == [r.found for r in object_results]

    def test_single_search_array_core(self, grid):
        mirrored = grid.search("010", start=3, core="array")
        reference = grid.search("010", start=3)
        assert mirrored.found == reference.found
        assert mirrored.query == "010"
        assert mirrored.start == 3
        if mirrored.found:
            path = grid.pgrid.peer(mirrored.responder).path
            assert "010".startswith(path) or path.startswith("010")

    def test_engine_cached_until_refresh(self, grid):
        engine = grid.batch_query_engine()
        assert grid.batch_query_engine() is engine
        assert grid.batch_query_engine(refresh=True) is not engine

    def test_unknown_core_rejected(self, grid):
        with pytest.raises(InvalidConfigError, match="unknown core"):
            grid.search("010", core="simd")
        with pytest.raises(InvalidConfigError, match="unknown core"):
            grid.search_many(["010"], [0], core="simd")


class TestServe:
    def test_unknown_driver_rejected(self):
        grid = Grid.build(peers=16, maxl=3, seed=5)
        with pytest.raises(InvalidConfigError, match="unknown driver"):
            grid.serve(driver="carrier-pigeon")

    def test_three_drivers_identical_results_and_costs(self):
        """The facade's core guarantee: on equal grids the same sequential
        workload returns field-for-field identical SearchResults and
        UpdateResults from every driver, and leaves the grid RNGs in
        bit-identical states."""
        grids = build_twins(len(DRIVERS))
        picker = random.Random(13)
        workload = []
        for i in range(12):
            key = keyspace.random_key(4, picker)
            start = picker.choice(grids[0].addresses())
            holder = picker.choice(grids[0].addresses())
            workload.append((key, start, holder, i % 3 == 0))

        per_driver = []
        for driver, grid in zip(DRIVERS, grids):
            results = []
            with grid.serve(driver=driver) as svc:
                assert svc.driver == driver
                for key, start, holder, is_update in workload:
                    if is_update:
                        results.append(svc.update(key, holder, start=start, version=1))
                    else:
                        results.append(svc.search(key, start=start))
            per_driver.append(results)

        engine_results = per_driver[0]
        for results in per_driver[1:]:
            assert results == engine_results  # dataclass equality, all fields
        states = [g.pgrid.rng.getstate() for g in grids]
        assert states.count(states[0]) == len(states)

    def test_three_drivers_identical_under_retry(self):
        retry = RetryPolicy(attempts=2, base_delay=0.5)
        grids = build_twins(len(DRIVERS), retry=retry)
        outcomes = []
        for driver, grid in zip(DRIVERS, grids):
            with grid.serve(driver=driver) as svc:
                outcomes.append(svc.search("1010", start=2))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_serve_close_allows_reserving(self, driver):
        grid = Grid.build(peers=16, maxl=3, seed=5)
        for _ in range(2):  # second round fails if close() leaks handlers
            with grid.serve(driver=driver) as svc:
                assert svc.search("101", start=1).found in (True, False)

    def test_async_service_exposes_loop_runner(self):
        grid = Grid.build(peers=16, maxl=3, seed=5)
        with grid.serve(driver="async") as svc:
            outcome = svc.run(svc.swarm.search(0, "101"))
            assert outcome.query == "101"
