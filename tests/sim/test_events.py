"""Tests for time-driven construction (:func:`run_timed_construction`)."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.sim.builder import run_timed_construction
from repro.sim.churn import SessionChurn


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


class TestTimedConstruction:
    def _grid(self, n=64, maxl=4):
        grid = PGrid(
            PGridConfig(maxl=maxl, refmax=2, recmax=2, recursion_fanout=2),
            rng=random.Random(6),
        )
        grid.add_peers(n)
        return grid

    def test_converges_given_enough_time(self):
        grid = self._grid()
        report = run_timed_construction(
            grid, meeting_rate=64.0, duration=100.0, rng=random.Random(7)
        )
        assert report.converged
        assert report.average_depth >= 0.99 * 4
        assert report.meetings > 0
        assert report.duration == 100.0

    def test_short_duration_incomplete(self):
        grid = self._grid()
        report = run_timed_construction(
            grid, meeting_rate=64.0, duration=0.5, rng=random.Random(8)
        )
        assert report.average_depth < 4

    def test_meetings_near_rate_times_duration(self):
        report = run_timed_construction(
            self._grid(16, maxl=2),
            meeting_rate=10.0,
            duration=100.0,
            rng=random.Random(1),
        )
        # every peer online: each of the ~1000 arrivals is a meeting
        assert 850 < report.meetings < 1150

    def test_trajectory_sampled_over_time(self):
        grid = self._grid()
        report = run_timed_construction(
            grid,
            meeting_rate=64.0,
            duration=20.0,
            sample_every=2.0,
            rng=random.Random(9),
        )
        times = [sample.time for sample in report.trajectory]
        assert times == sorted(times)
        assert len(times) >= 9
        depths = [sample.average_depth for sample in report.trajectory]
        assert depths == sorted(depths)

    def test_epochs_advance(self):
        grid = self._grid(16, maxl=2)
        churn = SessionChurn(0.5, random.Random(4), grid.addresses())
        run_timed_construction(
            grid,
            meeting_rate=16.0,
            duration=5.5,
            churn=churn,
            rng=random.Random(5),
        )
        assert churn.epoch == 5
        assert grid.online_oracle is churn

    def test_churn_slows_construction(self):
        fast = run_timed_construction(
            self._grid(128, maxl=5),
            meeting_rate=128.0,
            duration=30.0,
            rng=random.Random(10),
        )
        churned_grid = self._grid(128, maxl=5)
        churn = SessionChurn(0.3, random.Random(11), churned_grid.addresses())
        slow = run_timed_construction(
            churned_grid,
            meeting_rate=128.0,
            duration=30.0,
            churn=churn,
            rng=random.Random(10),
        )
        assert slow.average_depth < fast.average_depth or not slow.converged

    def test_offline_meetings_skipped(self):
        grid = self._grid(32, maxl=3)
        churn = SessionChurn(0.2, random.Random(12), grid.addresses())
        report = run_timed_construction(
            grid,
            meeting_rate=32.0,
            duration=20.0,
            churn=churn,
            rng=random.Random(13),
        )
        # ~640 arrivals, of which only ~p^2 = 4% find both endpoints up
        assert 0 < report.meetings < 0.2 * 32.0 * 20.0

    def test_validation(self):
        grid = self._grid()
        with pytest.raises(ValueError):
            run_timed_construction(grid, meeting_rate=1.0, duration=0.0)
        with pytest.raises(ValueError):
            run_timed_construction(
                grid, meeting_rate=1.0, duration=1.0, sample_every=0.0
            )

    def test_rate_validated(self):
        grid = self._grid()
        with pytest.raises(ValueError):
            run_timed_construction(grid, meeting_rate=0.0, duration=1.0)

    def test_epoch_length_validated(self):
        grid = self._grid()
        with pytest.raises(ValueError):
            run_timed_construction(
                grid,
                meeting_rate=1.0,
                duration=1.0,
                churn=SessionChurn(0.5, random.Random(0), grid.addresses()),
                epoch_length=0.0,
            )


class TestTimedConstructionPinned:
    """Digests captured from the event-heap simulator this loop replaced:
    the report with its trajectory, every peer's path, refs and buddies,
    and the grid, meeting and churn RNG states must stay bit-identical."""

    @pytest.mark.parametrize(
        "p_online, epoch_length, sample_every, own_rng, expected",
        [
            (None, 1.0, 2.0, True, ("40425b95529cd133", "873e78c32b5969d0", "19b3bb791f209c14")),
            (0.4, 1.0, 2.0, True, ("4deae31e2c685051", "e966793123293634", "bb3be4389c4dfa65")),
            (0.4, 0.25, 0.5, True, ("6be2b9fb153bf13a", "2d89ff1cfb38b11d", "097f9d8f3b3daa4b")),
            (0.5, 1.5, 3.0, True, ("afe6a88380015a4c", "075b172473474059", "9410d835d6e03b3d")),
            (0.3, 1.0, 0.7, False, ("0977575a9c554715", "b4b25d413e1f5e1f", "e9826b5fcb4feea7")),
        ],
    )
    def test_bit_identical(
        self, p_online, epoch_length, sample_every, own_rng, expected
    ):
        grid = PGrid(
            PGridConfig(maxl=4, refmax=2, recmax=2, recursion_fanout=2),
            rng=random.Random(6),
        )
        grid.add_peers(64)
        churn_rng = random.Random(7)
        churn = (
            None
            if p_online is None
            else SessionChurn(p_online, churn_rng, grid.addresses())
        )
        meet_rng = random.Random(8) if own_rng else None
        report = run_timed_construction(
            grid,
            meeting_rate=64.0,
            duration=20.0,
            sample_every=sample_every,
            churn=churn,
            epoch_length=epoch_length,
            rng=meet_rng,
        )
        state = [
            (peer.address, peer.path, peer.routing.to_lists(), sorted(peer.buddies))
            for peer in grid.peers()
        ]
        rngs = (
            grid.rng.getstate(),
            meet_rng and meet_rng.getstate(),
            churn_rng.getstate(),
            churn and churn.epoch,
        )
        assert (_digest(report), _digest(state), _digest(rngs)) == expected
