"""T3 (§5.1, third table): effect of the recursion bound ``recmax``.

N = 500, maxl = 6, refmax = 1.  Recursive exchanges raise the probability
that a meeting yields a successful specialization — but unbounded recursion
over-specializes subregions, so the cost curve is U-shaped with the optimum
near recmax = 2 (paper: e/N of 70.9 at recmax=0, 25.5 at recmax=2, rising
again beyond).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult
from repro.experiments.table1_construction_scaling import construction_cost
from repro.perf.parallel import parallel_starmap

EXPERIMENT_ID = "table3"

#: Paper values: recmax -> e.
PAPER_ROWS = {0: 35436, 1: 15377, 2: 12735, 3: 16595, 4: 18956, 5: 22426, 6: 25130}


def run(
    *,
    n_peers: int = 500,
    maxl: int = 6,
    refmax: int = 1,
    recmax_values: Sequence[int] = (0, 1, 2, 3, 4, 5, 6),
    seed: int = 3,
    jobs: int | None = 1,
) -> ExperimentResult:
    """Reproduce T3: ``e`` and ``e/N`` per recursion bound."""
    points = [
        {"n_peers": n_peers, "maxl": maxl, "refmax": refmax,
         "recmax": recmax, "seed": seed}
        for recmax in recmax_values
    ]
    outcomes = parallel_starmap(construction_cost, points, jobs=jobs)
    rows: list[list[object]] = []
    best: tuple[int, int] | None = None
    for recmax, (exchanges, _converged) in zip(recmax_values, outcomes):
        rows.append(
            [recmax, exchanges, exchanges / n_peers, PAPER_ROWS.get(recmax)]
        )
        if best is None or exchanges < best[1]:
            best = (recmax, exchanges)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=f"Construction cost vs. recmax (N={n_peers}, maxl={maxl})",
        headers=["recmax", "e", "e/N", "paper e"],
        rows=rows,
        config={
            "n_peers": n_peers,
            "maxl": maxl,
            "refmax": refmax,
            "recmax_values": list(recmax_values),
            "seed": seed,
            "optimal_recmax": best[0] if best else None,
        },
        notes=(
            "Expected shape: U-shaped cost with the optimum at a small "
            f"recursion bound (paper: 2; this run: {best[0] if best else '?'})."
        ),
    )
