"""T2 (§5.1, second table): construction cost vs. maximal path length.

N = 500 peers, maxl swept 2..7.  Without recursion the cost roughly doubles
per extra level (ratio ``e_maxl / e_{maxl-1}`` ≈ 2); with recmax = 2 the
growth is much flatter.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult
from repro.experiments.table1_construction_scaling import construction_cost
from repro.perf.parallel import parallel_starmap

EXPERIMENT_ID = "table2"

#: Paper values: maxl -> (e at recmax=0, e at recmax=2).
PAPER_ROWS = {
    2: (4893, 5590),
    3: (9780, 7289),
    4: (18071, 8215),
    5: (35526, 13298),
    6: (72657, 17797),
    7: (171770, 27998),
}


def run(
    *,
    n_peers: int = 500,
    maxl_values: Sequence[int] = (2, 3, 4, 5, 6, 7),
    recmax_values: Sequence[int] = (0, 2),
    refmax: int = 1,
    seed: int = 2,
    jobs: int | None = 1,
) -> ExperimentResult:
    """Reproduce T2: ``e``, ``e/N`` and the level-to-level growth ratio."""
    headers = ["maxl"]
    for recmax in recmax_values:
        headers += [
            f"e (recmax={recmax})",
            f"e/N (recmax={recmax})",
            f"ratio (recmax={recmax})",
            f"paper e (recmax={recmax})",
        ]
    points = [
        {"n_peers": n_peers, "maxl": maxl, "refmax": refmax,
         "recmax": recmax, "seed": seed}
        for maxl in maxl_values
        for recmax in recmax_values
    ]
    outcomes = parallel_starmap(construction_cost, points, jobs=jobs)
    exchanges_at = {
        (point["maxl"], point["recmax"]): exchanges
        for point, (exchanges, _converged) in zip(points, outcomes)
    }
    rows: list[list[object]] = []
    previous: dict[int, int] = {}
    for maxl in maxl_values:
        row: list[object] = [maxl]
        for recmax in recmax_values:
            exchanges = exchanges_at[(maxl, recmax)]
            ratio = (
                exchanges / previous[recmax] if recmax in previous and previous[recmax]
                else None
            )
            paper = PAPER_ROWS.get(maxl)
            row += [
                exchanges,
                exchanges / n_peers,
                ratio,
                paper[0 if recmax == 0 else 1] if paper else None,
            ]
            previous[recmax] = exchanges
        rows.append(row)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=f"Construction cost vs. maxl (N={n_peers}, refmax={refmax})",
        headers=headers,
        rows=rows,
        config={
            "n_peers": n_peers,
            "maxl_values": list(maxl_values),
            "recmax_values": list(recmax_values),
            "refmax": refmax,
            "seed": seed,
        },
        notes=(
            "Expected shape: ratio ~2 per level at recmax=0 (exponential in "
            "maxl), substantially flatter at recmax=2."
        ),
    )
