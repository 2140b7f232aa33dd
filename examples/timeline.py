#!/usr/bin/env python
"""Construction over time.

The paper counts exchanges; a deployment cares about wall-clock time.  This
example runs construction as a Poisson meeting process over virtual time
— once failure-free, once with only 40% of peers online per epoch — and
plots average trie depth against that time.

Run:  python examples/timeline.py
"""

from __future__ import annotations

import random

from repro import PGrid, PGridConfig
from repro.report import render_plot
from repro.sim import SessionChurn, run_timed_construction

N_PEERS = 400
DURATION = 60.0


def build(p_online: float | None, seed: int):
    config = PGridConfig(maxl=6, refmax=3, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=random.Random(seed))
    grid.add_peers(N_PEERS)
    churn = (
        None
        if p_online is None
        else SessionChurn(p_online, random.Random(seed + 1), grid.addresses())
    )
    return run_timed_construction(
        grid,
        meeting_rate=N_PEERS,  # one meeting per peer per time unit
        duration=DURATION,
        sample_every=2.0,
        churn=churn,
        rng=random.Random(seed + 2),
    )


def main() -> None:
    healthy = build(None, seed=31)
    churned = build(0.4, seed=41)

    print(
        f"failure-free: {healthy.meetings} meetings, "
        f"avg depth {healthy.average_depth:.2f}, converged={healthy.converged}"
    )
    print(
        f"40% online  : {churned.meetings} meetings "
        f"(offline arrivals wasted), avg depth {churned.average_depth:.2f}, "
        f"converged={churned.converged}"
    )
    print()
    print(
        render_plot(
            {
                "all online": [
                    (s.time, s.average_depth) for s in healthy.trajectory
                ],
                "40% online": [
                    (s.time, s.average_depth) for s in churned.trajectory
                ],
            },
            title="Average trie depth over virtual time",
            x_label="time",
            y_label="depth",
        )
    )


if __name__ == "__main__":
    main()
