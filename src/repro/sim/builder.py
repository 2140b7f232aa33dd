"""Driving construction to convergence (paper §5.1).

The paper's convergence criterion: the grid is *constructed* when the
average path length reaches a threshold ``t`` (they use 99% of ``maxl``);
the reported cost ``e`` is the number of ``exchange`` calls consumed up to
that point.  :class:`GridBuilder` runs a meeting scheduler against the
:class:`~repro.core.exchange.ExchangeEngine` until the threshold or a
budget is hit.

The average depth is tracked incrementally: every case-1 split deepens two
peers by one bit and every case-2/3 specialization deepens one, so the total
depth is a linear function of the engine's case counters — no O(N) rescan
per meeting.  Membership changes (churn joining/removing peers mid-build)
invalidate the tracked total; the builder detects them through
:attr:`~repro.core.grid.PGrid.membership_version` and rebases its offset
with one O(N) rescan per membership event instead of per meeting.

:func:`run_timed_construction` is the same meeting process over *virtual
time*: Poisson meeting arrivals, optionally under epoch-based session
churn, with the trajectory sampled at fixed time steps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Protocol

from repro.core.exchange import ExchangeEngine
from repro.core.grid import PGrid
from repro.core.peer import Address
from repro.sim.churn import SessionChurn
from repro.sim.meetings import UniformMeetings


class MeetingScheduler(Protocol):
    """Anything that yields pairs of peers to run ``exchange`` on."""

    def next_pair(self) -> tuple[Address, Address]:
        """Return the next meeting pair."""
        ...  # pragma: no cover - protocol


@dataclass
class ConstructionSample:
    """One point of the convergence trajectory."""

    meetings: int
    exchanges: int
    average_depth: float


@dataclass
class ConstructionReport:
    """Result of one construction run."""

    converged: bool
    exchanges: int
    meetings: int
    average_depth: float
    threshold: float
    exchanges_per_peer: float
    peer_count: int
    stats: dict[str, int]
    trajectory: list[ConstructionSample] = field(default_factory=list)


class GridBuilder:
    """Runs random meetings until the grid converges or a budget runs out."""

    def __init__(
        self,
        grid: PGrid,
        *,
        scheduler: MeetingScheduler | None = None,
        engine: ExchangeEngine | None = None,
    ) -> None:
        if len(grid) < 2:
            raise ValueError("construction needs at least two peers")
        self.grid = grid
        self.scheduler = scheduler or UniformMeetings(grid)
        self.engine = engine or ExchangeEngine(grid)
        self._rebase_depth_offset()

    def _rebase_depth_offset(self) -> None:
        """One O(N) rescan anchoring the counters to the current population.

        Accounts for depth the engine's counters do not know about:
        snapshot-loaded grids, reused engines, and peers added or removed by
        churn since the last rebase.
        """
        self._membership_version = self.grid.membership_version
        self._depth_offset = sum(peer.depth for peer in self.grid.peers()) - (
            self._counter_depth()
        )

    def _counter_depth(self) -> int:
        stats = self.engine.stats
        return (
            2 * stats.case1_splits
            + stats.case2_specializations
            + stats.case3_specializations
        )

    def _average_depth(self) -> float:
        """Incremental average depth from the engine's case counters.

        Valid because construction only ever *extends* paths: case 1 adds
        one bit to each of two peers, cases 2/3 add one bit to one peer.
        Membership changes are caught via the grid's version counter and
        trigger a rebase.  Verified against a full rescan by the test suite.
        """
        if self.grid.membership_version != self._membership_version:
            self._rebase_depth_offset()
        return (self._depth_offset + self._counter_depth()) / len(self.grid)

    def build(
        self,
        *,
        threshold_fraction: float = 0.99,
        max_meetings: int | None = None,
        max_exchanges: int | None = None,
        sample_every: int | None = None,
    ) -> ConstructionReport:
        """Run meetings until ``avg depth >= threshold_fraction * maxl``.

        ``max_meetings`` / ``max_exchanges`` bound the run (the paper's
        Fig. 4 grid hit a wall-clock budget before full convergence — pass a
        budget to reproduce that regime); a budget stop returns a report
        with ``converged=False``.  ``sample_every`` records the convergence
        trajectory every that-many meetings.
        """
        if not 0.0 < threshold_fraction <= 1.0:
            raise ValueError(
                f"threshold_fraction must be in (0, 1], got {threshold_fraction}"
            )
        if max_meetings is not None and max_meetings < 0:
            raise ValueError(f"max_meetings must be >= 0, got {max_meetings}")
        if max_exchanges is not None and max_exchanges < 0:
            raise ValueError(f"max_exchanges must be >= 0, got {max_exchanges}")
        if sample_every is not None and sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")

        threshold = threshold_fraction * self.grid.config.maxl
        trajectory: list[ConstructionSample] = []
        meetings_run = 0
        converged = self._average_depth() >= threshold

        while not converged:
            if max_meetings is not None and meetings_run >= max_meetings:
                break
            if max_exchanges is not None and self.engine.stats.calls >= max_exchanges:
                break
            first, second = self.scheduler.next_pair()
            self.engine.meet(first, second)
            meetings_run += 1
            current_depth = self._average_depth()
            if sample_every is not None and meetings_run % sample_every == 0:
                trajectory.append(
                    ConstructionSample(
                        meetings=meetings_run,
                        exchanges=self.engine.stats.calls,
                        average_depth=current_depth,
                    )
                )
            converged = current_depth >= threshold

        return ConstructionReport(
            converged=converged,
            exchanges=self.engine.stats.calls,
            meetings=self.engine.stats.meetings,
            average_depth=self.grid.average_path_length(),
            threshold=threshold,
            exchanges_per_peer=self.engine.stats.calls / len(self.grid),
            peer_count=len(self.grid),
            stats=self.engine.stats.snapshot(),
            trajectory=trajectory,
        )


@dataclass
class TimedSample:
    """One (time, exchanges, average depth) point."""

    time: float
    exchanges: int
    average_depth: float


@dataclass
class TimedConstructionReport:
    """Result of a time-driven construction run."""

    duration: float
    meetings: int
    exchanges: int
    average_depth: float
    converged: bool
    trajectory: list[TimedSample] = field(default_factory=list)


def run_timed_construction(
    grid: PGrid,
    *,
    meeting_rate: float,
    duration: float,
    sample_every: float | None = None,
    churn: SessionChurn | None = None,
    epoch_length: float = 1.0,
    rng: random.Random | None = None,
) -> TimedConstructionReport:
    """Build a grid under a Poisson meeting process for *duration* time.

    Meetings arrive with exponential gaps at *meeting_rate*; each draws a
    uniform pair from *rng* (default ``grid.rng``) and runs ``exchange``
    only when both endpoints are online — two peers must both be up to
    talk.  With *churn*, the online population re-samples every
    *epoch_length*, which the paper's round-based runs cannot express.
    With *sample_every*, the average depth is recorded every that-many
    time units.  Every event at or before *duration* runs.
    """
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if meeting_rate <= 0:
        raise ValueError(f"meeting_rate must be > 0, got {meeting_rate}")
    if sample_every is not None and sample_every <= 0:
        raise ValueError(f"sample_every must be > 0, got {sample_every}")
    if churn is not None and epoch_length <= 0:
        raise ValueError(f"epoch_length must be > 0, got {epoch_length}")
    rng = rng or grid.rng
    scheduler = UniformMeetings(grid, rng)
    engine = ExchangeEngine(grid)
    if churn is not None:
        grid.online_oracle = churn

    # The next time of each clock; a clock that is off never fires.
    arrival = rng.expovariate(meeting_rate)
    tick = epoch_length if churn is not None else math.inf
    sample = sample_every if sample_every is not None else math.inf
    trajectory: list[TimedSample] = []
    while min(arrival, tick, sample) <= duration:
        if arrival <= tick and arrival <= sample:
            first, second = scheduler.next_pair()
            if grid.is_online(first) and grid.is_online(second):
                engine.meet(first, second)
            arrival += rng.expovariate(meeting_rate)
        elif tick <= sample:
            churn.advance_epoch()
            tick += epoch_length
        else:
            trajectory.append(
                TimedSample(
                    time=sample,
                    exchanges=engine.stats.calls,
                    average_depth=grid.average_path_length(),
                )
            )
            sample += sample_every

    average_depth = grid.average_path_length()
    return TimedConstructionReport(
        duration=duration,
        meetings=engine.stats.meetings,
        exchanges=engine.stats.calls,
        average_depth=average_depth,
        converged=average_depth >= 0.99 * grid.config.maxl,
        trajectory=trajectory,
    )


def construct_grid(grid: PGrid, *, engine: str = "object", **build_kwargs) -> ConstructionReport:
    """Build *grid* to convergence with the selected construction engine.

    ``engine`` selects the core (single wiring point for the facade, the
    CLI and the benchmarks):

    * ``"object"`` — :class:`GridBuilder` on the object core, the
      reference implementation of Fig. 3.
    * ``"batch"`` — the vectorized batched-round engine
      (:class:`repro.fast.batch.BatchGridBuilder`, requires numpy):
      deterministic and statistically equivalent but not bit-identical;
      an order of magnitude faster.  It builds from scratch, so *grid*
      must be fresh — no peer with a path, a routing reference, a buddy
      or a store entry.  The seed is one ``grid.rng.getrandbits(64)``
      draw; the result is written back into *grid*.

    The batch core is imported lazily so the object core keeps working
    on numpy-less installs.
    """
    if engine == "object":
        return GridBuilder(grid).build(**build_kwargs)
    if engine == "batch":
        from repro.fast.batch import BatchGridBuilder

        for peer in grid.peers():
            if (
                peer.path
                or peer.routing.total_refs()
                or peer.buddies
                or peer.store.ref_count
                or peer.store.item_count
            ):
                raise ValueError(
                    f"peer {peer.address} is not fresh; the batch engine builds "
                    "from scratch — use engine='object' to continue a grid"
                )
        builder = BatchGridBuilder(
            n=len(grid), config=grid.config, seed=grid.rng.getrandbits(64)
        )
        report = builder.build(**build_kwargs)
        builder.grid.addresses[:] = grid.addresses()
        builder.grid.write_back(grid)
        return report
    raise ValueError(
        f"unknown construction engine {engine!r}; expected 'object' or 'batch'"
    )


def construct_snapshot(
    config,
    n_peers: int,
    *,
    seed: int = 0,
    p_online: float = 1.0,
    **build_kwargs,
):
    """Build a grid and export it as a shared-memory ``GridSnapshot``.

    The build-once/fan-out entry point for parallel sweeps: construct the
    routing state a single time with a :class:`~repro.fast.BatchGridBuilder`
    — no per-peer Python objects, so 100k+ peer grids are tractable —
    publish it into a named shared-memory segment, and let every worker
    process attach the segment instead of unpickling its own copy (see
    :mod:`repro.fast.snapshot`).  An object grid exports through
    ``GridSnapshot.from_arraygrid(ArrayGrid.from_pgrid(pgrid))`` instead.

    Returns ``(snapshot, report)``.  The caller owns the snapshot and
    must ``close()``/``unlink()`` it (or use it as a context manager).
    Requires numpy.
    """
    from repro.fast import HAVE_NUMPY

    if not HAVE_NUMPY:
        raise RuntimeError("construct_snapshot requires numpy")
    from repro.fast.batch import BatchGridBuilder
    from repro.fast.snapshot import GridSnapshot

    builder = BatchGridBuilder(n=n_peers, config=config, seed=seed)
    report = builder.build(**build_kwargs)
    snapshot = GridSnapshot.from_batch_builder(builder, p_online=p_online)
    return snapshot, report
