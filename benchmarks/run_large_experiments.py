"""Run the §5.2 experiments at the 100k-peer ``large`` profile.

The ``large`` profile is batch-core only: no object grid is ever
materialized (100k peer objects would not fit the memory budget), so
every experiment runs through the vectorized batch query plane over
gridless-built flat state.  Committed outputs live in
``benchmarks/results_large_scale/`` next to the 20k-peer
``results_paper_scale/`` record.

The expensive step is the gridless construction (~25M exchanges), so
this driver builds the flat state once and wraps a *fresh*
:class:`~repro.fast.BatchQueryEngine` per experiment from the same
derived seed — each result is identical to what a standalone
``REPRO_SCALE=large pgrid experiment <name> --core batch`` run
produces, while construction is paid once instead of three times.

Usage::

    PYTHONPATH=src python benchmarks/run_large_experiments.py \
        [--out-dir benchmarks/results_large_scale] [--scale large]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import (
    fig5_update_strategies,
    search_reliability,
    table6_tradeoff,
)
from repro.experiments.common import section52_profile
from repro.sim import rng as rngmod

_ROOT = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir", default=str(_ROOT / "results_large_scale")
    )
    parser.add_argument(
        "--scale", default="large", help="§5.2 profile name (default: large)"
    )
    args = parser.parse_args(argv)

    from repro.fast import HAVE_NUMPY, BatchGridBuilder, BatchQueryEngine

    if not HAVE_NUMPY:
        print("numpy unavailable: the large profile needs the array core")
        return 1

    profile = section52_profile(args.scale)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(
        f"[large] constructing N={profile.n_peers} maxl={profile.maxl} "
        f"refmax={profile.refmax} (gridless batch engine)"
    )
    began = time.perf_counter()
    builder = BatchGridBuilder(
        n=profile.n_peers,
        config=profile.config,
        seed=rngmod.derive_seed(profile.seed, "construction-batch"),
    )
    report = builder.build(
        threshold_fraction=profile.threshold_fraction,
        max_exchanges=max(profile.max_exchanges, 600 * profile.n_peers),
    )
    elapsed = time.perf_counter() - began
    print(
        f"[large] construction: {report.exchanges} exchanges in "
        f"{elapsed:.1f}s (converged={report.converged})"
    )
    if not report.converged:
        print("[large] construction did not converge; aborting")
        return 1

    def fresh_engine() -> "BatchQueryEngine":
        # Same seed every time: each experiment sees the engine state a
        # standalone `pgrid experiment --core batch` run would see.
        return BatchQueryEngine.from_arraygrid(
            builder.grid,
            seed=rngmod.derive_seed(profile.seed, "post-build"),
            p_online=profile.p_online,
        )

    for module in (search_reliability, fig5_update_strategies, table6_tradeoff):
        name = module.EXPERIMENT_ID
        print(f"[large] running {name} ...")
        began = time.perf_counter()
        result = module.run(profile, core="batch", array_engine=fresh_engine())
        elapsed = time.perf_counter() - began
        result.save(out_dir)
        text = result.to_text(float_digits=3)
        (out_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(text)
        print(f"[large] {name} done in {elapsed:.1f}s -> {out_dir}/{name}.*")
    return 0


if __name__ == "__main__":
    sys.exit(main())
