"""C1 (supplementary): convergence trajectory of the construction process.

§5.1 reports only the final exchange counts; this experiment records the
whole trajectory — average path length as a function of exchanges spent —
for recursion bounds 0 and 2.  Expected shape: both curves are monotone
with diminishing returns (the last level dominates the cost), and the
recursive variant reaches every depth with fewer exchanges.
"""

from __future__ import annotations

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.experiments.common import ExperimentResult
from repro.perf.parallel import parallel_starmap
from repro.report.hist import render_plot, render_series
from repro.sim import rng as rngmod
from repro.sim.builder import GridBuilder

EXPERIMENT_ID = "convergence"


def trajectory_curve(
    *,
    n_peers: int,
    maxl: int,
    refmax: int,
    recmax: int,
    sample_every: int,
    seed: int,
) -> tuple[int, list[tuple[float, float]]]:
    """One construction run: final exchange count + (exchanges, depth) curve."""
    config = PGridConfig(
        maxl=maxl, refmax=refmax, recmax=recmax,
        recursion_fanout=2 if recmax else None,
    )
    grid = PGrid(config, rng=rngmod.derive(seed, f"conv-{recmax}"))
    grid.add_peers(n_peers)
    report = GridBuilder(grid).build(
        sample_every=sample_every, max_exchanges=5_000_000
    )
    points = [
        (float(sample.exchanges), sample.average_depth)
        for sample in report.trajectory
    ]
    points.append((float(report.exchanges), report.average_depth))
    return report.exchanges, points


def run(
    *,
    n_peers: int = 500,
    maxl: int = 6,
    refmax: int = 1,
    recmax_values: tuple[int, ...] = (0, 2),
    sample_every: int | None = None,
    seed: int = 17,
    jobs: int | None = 1,
) -> ExperimentResult:
    """Record (exchanges, average depth) curves per recursion bound."""
    sample_every = sample_every or max(1, n_peers // 4)
    rows: list[list[object]] = []
    series: dict[str, list[tuple[float, float]]] = {}
    finals: dict[int, int] = {}
    outcomes = parallel_starmap(
        trajectory_curve,
        [
            {"n_peers": n_peers, "maxl": maxl, "refmax": refmax,
             "recmax": recmax, "sample_every": sample_every, "seed": seed}
            for recmax in recmax_values
        ],
        jobs=jobs,
    )
    for recmax, (final_exchanges, points) in zip(recmax_values, outcomes):
        finals[recmax] = final_exchanges
        series[f"recmax={recmax}"] = points
        for exchanges, depth in points:
            rows.append([recmax, exchanges, depth])
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=f"Convergence trajectory (N={n_peers}, maxl={maxl})",
        headers=["recmax", "exchanges", "avg depth"],
        rows=rows,
        config={
            "n_peers": n_peers,
            "maxl": maxl,
            "refmax": refmax,
            "recmax_values": list(recmax_values),
            "sample_every": sample_every,
            "seed": seed,
            "final_exchanges": finals,
        },
        notes=(
            "Expected shape: monotone depth growth with diminishing "
            "returns; the recursive variant reaches every depth level with "
            "fewer exchanges than recmax=0."
        ),
        extra_text="\n\n".join(
            [
                render_plot(
                    series,
                    title="Convergence: average depth vs. exchanges",
                    x_label="exchanges",
                    y_label="avg depth",
                ),
                render_series(
                    series,
                    title="Raw trajectory points",
                    x_label="exchanges",
                    y_label="avg depth",
                ),
            ]
        ),
    )
