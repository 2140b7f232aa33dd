"""Tests for the construction driver (GridBuilder)."""

from __future__ import annotations

import random

import pytest

from repro.core.config import PGridConfig
from repro.core.exchange import ExchangeEngine
from repro.core.grid import PGrid
from repro.sim.builder import GridBuilder


def fresh_grid(n: int = 32, **config_kwargs) -> PGrid:
    defaults = {"maxl": 3, "refmax": 2, "recmax": 2, "recursion_fanout": 2}
    defaults.update(config_kwargs)
    grid = PGrid(PGridConfig(**defaults), rng=random.Random(5))
    grid.add_peers(n)
    return grid


class TestBuild:
    def test_converges_small_grid(self):
        grid = fresh_grid()
        report = GridBuilder(grid).build()
        assert report.converged
        assert report.average_depth >= report.threshold
        assert report.peer_count == 32
        assert report.exchanges > 0
        assert report.exchanges_per_peer == pytest.approx(
            report.exchanges / 32
        )

    def test_threshold_semantics(self):
        grid = fresh_grid()
        report = GridBuilder(grid).build(threshold_fraction=0.5)
        assert report.threshold == pytest.approx(0.5 * 3)
        assert grid.average_path_length() >= 1.5

    def test_incremental_average_matches_rescan(self):
        grid = fresh_grid()
        builder = GridBuilder(grid)
        builder.build(max_meetings=200, threshold_fraction=1.0)
        assert builder._average_depth() == pytest.approx(
            grid.average_path_length()
        )

    def test_depth_offset_for_preloaded_grid(self):
        grid = fresh_grid(8)
        for peer in grid.peers():
            peer.set_path("0")  # pre-deepened outside any engine
        builder = GridBuilder(grid)
        assert builder._average_depth() == pytest.approx(1.0)

    def test_incremental_average_survives_membership_churn(self):
        grid = fresh_grid(48, maxl=4)
        builder = GridBuilder(grid)
        builder.build(max_meetings=150, threshold_fraction=1.0)

        # Leave: drop a third of the population, including deep peers.
        for address in list(grid.addresses())[::3]:
            grid.remove_peer(address)
        assert builder._average_depth() == pytest.approx(
            grid.average_path_length()
        )

        # Join: fresh root-path peers drag the average back down.
        grid.add_peers(16)
        assert builder._average_depth() == pytest.approx(
            grid.average_path_length()
        )

        # Continue building after churn: the incremental count must keep
        # matching the from-scratch rescan at the end.
        builder.build(max_meetings=150, threshold_fraction=1.0)
        assert builder._average_depth() == pytest.approx(
            grid.average_path_length()
        )

    def test_budget_stops_without_convergence(self):
        grid = fresh_grid(64, maxl=6)
        report = GridBuilder(grid).build(max_exchanges=10)
        assert not report.converged
        assert report.exchanges >= 10  # the final meeting may overshoot

    def test_zero_meeting_budget(self):
        grid = fresh_grid()
        report = GridBuilder(grid).build(max_meetings=0)
        assert not report.converged
        assert report.meetings == 0

    def test_trajectory_sampling(self):
        grid = fresh_grid(64, maxl=4)
        report = GridBuilder(grid).build(sample_every=50)
        assert report.trajectory
        meetings = [sample.meetings for sample in report.trajectory]
        assert meetings == sorted(meetings)
        depths = [sample.average_depth for sample in report.trajectory]
        assert depths == sorted(depths)  # depth only ever grows

    def test_already_converged_runs_no_meetings(self):
        grid = fresh_grid(8, maxl=1)
        for address, peer in enumerate(grid.peers()):
            peer.set_path(str(address % 2))
        report = GridBuilder(grid).build()
        assert report.converged
        assert report.meetings == 0

    def test_stats_snapshot_included(self):
        grid = fresh_grid()
        report = GridBuilder(grid).build()
        assert report.stats["calls"] == report.exchanges


class TestValidation:
    def test_needs_two_peers(self):
        grid = PGrid(PGridConfig(), rng=random.Random(0))
        grid.add_peer()
        with pytest.raises(ValueError):
            GridBuilder(grid)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold_fraction": 0.0},
            {"threshold_fraction": 1.5},
            {"max_meetings": -1},
            {"max_exchanges": -1},
            {"sample_every": 0},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        builder = GridBuilder(fresh_grid())
        with pytest.raises(ValueError):
            builder.build(**kwargs)

    def test_external_engine_reused(self):
        grid = fresh_grid()
        engine = ExchangeEngine(grid)
        builder = GridBuilder(grid, engine=engine)
        report = builder.build()
        assert report.exchanges == engine.stats.calls
