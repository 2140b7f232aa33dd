"""The ``repro.api.Grid`` facade: one surface, three drivers.

Covers the facade's construction and direct-operation paths, the
driver-equality guarantee of :meth:`Grid.serve` (field-for-field equal
results and cost counters on equal grids) and service lifecycle (close
releases the transport so a grid can be re-served).
"""

from __future__ import annotations

import inspect
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api
import repro.cli
from repro.api import DRIVERS, Grid
from repro.core import keys as keyspace
from repro.core.config import PGridConfig
from repro.core.membership import MembershipEngine
from repro.core.search import SearchResult
from repro.core.updates import UpdateResult
from repro.errors import InvalidConfigError, UnknownPeerError
from repro.faults import FaultInjector, FaultPlan, RefHealer, RetryPolicy
from repro.sim import rng as rngmod
from repro.sim.churn import BernoulliChurn


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
    """``search_many`` routes through the cached batch engine; all-online
    success is structural, so its found set must match a loop of
    ``Grid.search`` on the object engine exactly."""

    @pytest.fixture(scope="class")
    def grid(self):
        pytest.importorskip("numpy")
        return Grid.build(peers=48, maxl=4, seed=31)

    def test_search_many_found_matches_object_core(self, grid):
        rng = random.Random(5)
        keys = [format(rng.getrandbits(3), "03b") for _ in range(100)]
        starts = [rng.choice(grid.addresses()) for _ in range(100)]
        object_results = [grid.search(key, start=start)
                          for key, start in zip(keys, starts)]
        batch = grid.search_many(keys, starts)
        assert len(batch) == 100
        assert batch.found.tolist() == [r.found for r in object_results]
        addresses = grid.batch_query_engine().addresses
        for i, key in enumerate(keys):
            assert object_results[i].query == key
            if batch.found[i]:
                path = grid.pgrid.peer(addresses[int(batch.responder[i])]).path
                assert key.startswith(path) or path.startswith(key)

    def test_engine_cached_until_refresh(self, grid):
        engine = grid.batch_query_engine()
        assert grid.batch_query_engine() is engine
        assert grid.batch_query_engine(refresh=True) is not engine

    def test_unknown_start_raises_unknown_peer(self, grid):
        for start in (99, -1):
            with pytest.raises(UnknownPeerError, match=f"address {start}"):
                grid.search_many(["0101", "0101"], [0, start])
            with pytest.raises(UnknownPeerError):
                grid.search("0101", start=start)


class TestOneShortcutCache:
    """``Grid.search`` and ``Grid.search_many`` share one address-keyed
    shortcut cache, which survives membership changes."""

    @staticmethod
    def _grid():
        pytest.importorskip("numpy")
        grid = Grid.build(48, maxl=4, refmax=2, seed=9, shortcut_capacity=16)
        return grid, grid.shortcut_engine.cache

    def test_departure_and_refresh_keep_hitting(self):
        grid, cache = self._grid()
        key = grid.pgrid.peer(47).path
        first = grid.search_many([key], [30])
        assert bool(first.found[0]) and cache.stats.misses == 1
        membership = MembershipEngine(grid.pgrid, search=grid.engine)
        membership.leave(0)
        membership.repair_all()
        engine = grid.batch_query_engine(refresh=True)
        assert 0 not in engine.addresses
        again = grid.search_many([key, key], [30, 31])
        assert cache.stats.hits == 1  # address 30 hits its own entry...
        assert int(again.messages[0]) <= 1
        assert engine.addresses[int(again.responder[0])] == cache.get(30, key)
        assert cache.stats.misses == 2  # ...and address 31 never searched
        assert cache.stats.invalidations == 0

    def test_search_warms_what_search_many_hits(self):
        grid, cache = self._grid()
        key = grid.pgrid.peer(47).path
        single = grid.search(key, start=30)
        assert single.found and cache.get(30, key) == single.responder
        batch = grid.search_many([key], [30])
        assert cache.stats.hits == 1
        engine = grid.batch_query_engine()
        assert engine.addresses[int(batch.responder[0])] == single.responder
        assert int(batch.messages[0]) == (0 if single.responder == 30 else 1)

    def test_single_queries_leave_the_array_plane_unimported(self):
        code = (
            "import sys\n"
            "from repro.api import Grid\n"
            "grid = Grid.build(32, maxl=3, seed=1, shortcut_capacity=8)\n"
            "grid.search('010', start=3)\n"
            "grid.search('010', start=3)\n"
            "assert grid.shortcut_engine.stats.hits == 1\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.fast')))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, check=False,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestOneFrontDoor:
    """Single queries have one plane and the CLI one way in."""

    def test_query_calls_take_no_core(self):
        for name in ("search", "search_range", "search_many"):
            assert "core" not in inspect.signature(getattr(Grid, name)).parameters
        assert not hasattr(repro.api, "QUERY_CORES")

    def test_cli_builds_no_driver_by_hand(self):
        source = inspect.getsource(repro.cli)
        for name in ("attach_nodes", "attach_async_nodes",
                     "LocalTransport(", "AsyncTransport("):
            assert name not in source


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
            # one result type per operation on every driver, then all fields
            assert list(map(type, results)) == list(map(type, engine_results))
            assert results == engine_results
        assert {type(result) for result in engine_results} == {SearchResult, UpdateResult}
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

    def test_three_drivers_identical_under_the_grids_healer(self):
        """The grid's own healer is the one a served driver runs: on twin
        grids with stale references and churn, the same searches give the
        same results and the same evictions and refills on every driver."""
        outcomes, heals, states = [], [], []
        for driver, built in zip(DRIVERS, build_twins(len(DRIVERS))):
            pgrid = built.pgrid
            FaultInjector(pgrid, FaultPlan(seed=5)).inject_stale_refs(0.3)
            pgrid.online_oracle = BernoulliChurn(0.6, rngmod.derive(5, "churn"))
            healer = RefHealer(pgrid, evict_after=1)
            grid = Grid(pgrid, healer=healer)
            picker = random.Random(17)
            with grid.serve(driver=driver) as svc:
                outcomes.append(
                    [
                        svc.search(
                            keyspace.random_key(4, picker),
                            start=picker.choice(grid.addresses()),
                        )
                        for _ in range(40)
                    ]
                )
            heals.append(healer.stats.snapshot())
            states.append(pgrid.rng.getstate())
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert heals[0] == heals[1] == heals[2]
        assert heals[0]["evictions"] > 0
        assert states[0] == states[1] == states[2]

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
