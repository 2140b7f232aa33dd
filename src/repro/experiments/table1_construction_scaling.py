"""T1 (§5.1, first table): construction cost vs. number of peers.

The paper varies N from 200 to 1000 (maxl = 6, refmax = 1, threshold 99% of
maxl) and reports the number of exchange calls ``e`` for recursion bounds 0
and 2: ``e`` grows linearly in N, i.e. ``e/N`` is roughly constant
(≈ 70–80 for recmax = 0, ≈ 25 for recmax = 2).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.experiments.common import ExperimentResult
from repro.perf.parallel import parallel_starmap
from repro.sim import rng as rngmod
from repro.sim.builder import GridBuilder

EXPERIMENT_ID = "table1"

#: The paper's reported values, for side-by-side comparison.
PAPER_ROWS = {
    (200, 0): 15942,
    (400, 0): 27632,
    (600, 0): 43435,
    (800, 0): 59212,
    (1000, 0): 74619,
    (200, 2): 4937,
    (400, 2): 10383,
    (600, 2): 15228,
    (800, 2): 18580,
    (1000, 2): 25162,
}


def construction_cost(
    n_peers: int,
    *,
    maxl: int = 6,
    refmax: int = 1,
    recmax: int = 0,
    recursion_fanout: int | None = None,
    threshold_fraction: float = 0.99,
    seed: int = 0,
    max_exchanges: int = 5_000_000,
) -> tuple[int, bool]:
    """Build one grid to threshold; return (exchange calls, converged)."""
    config = PGridConfig(
        maxl=maxl, refmax=refmax, recmax=recmax, recursion_fanout=recursion_fanout
    )
    grid = PGrid(
        config,
        rng=rngmod.derive(seed, f"t1-n{n_peers}-rec{recmax}-ref{refmax}-l{maxl}"),
    )
    grid.add_peers(n_peers)
    report = GridBuilder(grid).build(
        threshold_fraction=threshold_fraction, max_exchanges=max_exchanges
    )
    return report.exchanges, report.converged


def run(
    *,
    peer_counts: Sequence[int] = (200, 400, 600, 800, 1000),
    recmax_values: Sequence[int] = (0, 2),
    maxl: int = 6,
    refmax: int = 1,
    seed: int = 1,
    jobs: int | None = 1,
) -> ExperimentResult:
    """Reproduce T1: rows ``N | e, e/N`` per recursion bound.

    Each (N, recmax) point is an independent trial with its own derived
    RNG stream; ``jobs`` > 1 evaluates the points on a process pool with
    bit-identical results.
    """
    headers = ["N"]
    for recmax in recmax_values:
        headers += [
            f"e (recmax={recmax})",
            f"e/N (recmax={recmax})",
            f"paper e (recmax={recmax})",
        ]
    points = [
        {"n_peers": n_peers, "maxl": maxl, "refmax": refmax,
         "recmax": recmax, "seed": seed}
        for n_peers in peer_counts
        for recmax in recmax_values
    ]
    outcomes = parallel_starmap(construction_cost, points, jobs=jobs)
    exchanges_at = {
        (point["n_peers"], point["recmax"]): exchanges
        for point, (exchanges, _converged) in zip(points, outcomes)
    }
    rows: list[list[object]] = []
    for n_peers in peer_counts:
        row: list[object] = [n_peers]
        for recmax in recmax_values:
            exchanges = exchanges_at[(n_peers, recmax)]
            row += [
                exchanges,
                exchanges / n_peers,
                PAPER_ROWS.get((n_peers, recmax)),
            ]
        rows.append(row)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Construction cost vs. community size (maxl=6, refmax=1)",
        headers=headers,
        rows=rows,
        config={
            "peer_counts": list(peer_counts),
            "recmax_values": list(recmax_values),
            "maxl": maxl,
            "refmax": refmax,
            "seed": seed,
        },
        notes=(
            "e counts calls to the exchange function until average path "
            "length reaches 99% of maxl; expected shape: e/N roughly "
            "constant in N, recmax=2 about 3x cheaper than recmax=0."
        ),
    )
