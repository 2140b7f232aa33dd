"""R1: §4 search-success formula under injected faults (measured vs analytic).

Eq. (3) predicts search success ``(1 - (1 - p)^refmax)^k`` for per-contact
availability *p*, ``refmax`` references per level and key length *k*.  This
sweep validates the formula empirically over a ``p × refmax`` grid, per
point:

``model`` / ``model+repair`` / ``model+retry``
    A Monte Carlo sampler of the formula's own probability model over the
    *real* routing tables: each trial draws *k* independent level-survival
    events (does any of the level's ``refmax`` references answer?) against
    the live churn oracle.  This isolates exactly what eq. (3) computes —
    the full Fig. 2 search is *better* than the formula (backtracking
    re-enters subtrees through other branches; routing also skips levels
    it never diverges at), so only the level model can match it within a
    tight tolerance.  The ``repair`` variant feeds every contact outcome
    to a :class:`repro.faults.RefHealer` (evictions must be repaired back
    to the analytic curve); the ``retry`` variant re-contacts each
    reference under a :class:`repro.faults.RetryPolicy` of ``attempts``
    tries, which eq. (3) absorbs as ``refmax -> attempts * refmax``.
    Every contact runs through :func:`repro.protocol.direct.run_contact`,
    the retry-and-evict rule of the search machines.

``crash`` / ``crash+repair``
    The same sampler after a :class:`repro.faults.FaultInjector` crashes a
    fraction of peers permanently: without repair, success falls below the
    analytic curve (dead references burn contact attempts); with the
    healer plus a warm-up phase, dead references are evicted and refilled
    from live replicas, recovering most of the gap.

``dfs``
    End-to-end Fig. 2 searches under the same churn, reported against the
    formula's *lower bound* property (measured >= analytic - tolerance).

Deviation checks (``check_deviations`` / ``--check``) enforce the
acceptance tolerances; the sweep is deterministic for a given profile at
any ``--jobs`` (every trial derives its randomness from per-point seeds).

Run: ``PYTHONPATH=src python -m repro.experiments.resilience --scale smoke --check``
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analysis import search_success_probability
from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.search import SearchEngine
from repro.experiments.common import ExperimentResult
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.repair import RefHealer
from repro.faults.retry import RetryPolicy
from repro.perf.parallel import parallel_starmap
from repro.protocol.contact import Context
from repro.protocol.direct import run_contact
from repro.sim import rng as rngmod
from repro.sim.builder import GridBuilder
from repro.sim.churn import BernoulliChurn
from repro.sim.persistence import grid_from_dict, grid_to_dict

EXPERIMENT_ID = "resilience"

__all__ = [
    "EXPERIMENT_ID",
    "ResilienceProfile",
    "resilience_profile",
    "run",
    "check_deviations",
]


@dataclass(frozen=True)
class ResilienceProfile:
    """Sizing of one resilience sweep."""

    name: str
    maxl: int
    p_values: tuple[float, ...]
    refmax_values: tuple[int, ...]
    trials: int
    dfs_searches: int
    crash_fraction: float
    tolerance: float
    evict_after: int = 3
    retry_attempts: int = 2
    warmup_trials: int = 600
    seed: int = 20020104

    @property
    def key_length(self) -> int:
        """Eq. (3)'s *k*: one bit short of ``maxl`` (as in §5.2)."""
        return self.maxl - 1

    def n_peers(self, refmax: int) -> int:
        """Population sized so every level can hold ``refmax`` references."""
        return 2**self.maxl * max(4, refmax)


_PROFILES: dict[str, ResilienceProfile] = {
    # Unit-test sizing: seconds, loose tolerance.
    "tiny": ResilienceProfile(
        name="tiny",
        maxl=3,
        p_values=(0.5,),
        refmax_values=(2, 3),
        trials=400,
        dfs_searches=150,
        crash_fraction=0.3,
        tolerance=0.10,
        warmup_trials=300,
    ),
    # CI smoke: the acceptance gate at 5% tolerance.
    "smoke": ResilienceProfile(
        name="smoke",
        maxl=4,
        p_values=(0.3, 0.6),
        refmax_values=(3, 6),
        trials=1_500,
        dfs_searches=400,
        crash_fraction=0.25,
        tolerance=0.05,
    ),
    # The full curve at the 2% acceptance tolerance.
    "full": ResilienceProfile(
        name="full",
        maxl=5,
        p_values=(0.3, 0.5, 0.7),
        refmax_values=(3, 5, 8),
        trials=8_000,
        dfs_searches=1_500,
        crash_fraction=0.25,
        tolerance=0.02,
        warmup_trials=2_000,
    ),
}


def resilience_profile(scale: str = "smoke") -> ResilienceProfile:
    """The sweep profile for *scale* (``tiny`` / ``smoke`` / ``full``)."""
    if scale not in _PROFILES:
        raise ValueError(
            f"unknown resilience scale {scale!r}; choose one of {sorted(_PROFILES)}"
        )
    return _PROFILES[scale]


# -- grid preparation ---------------------------------------------------------


def _saturate_refs(grid: PGrid) -> None:
    """Top every materialized routing level up to ``refmax`` references.

    Eq. (3) presumes ``refmax`` references per level; construction leaves
    some levels short (recursion budget).  Candidates come from the replica
    directory in deterministic order, respecting the §2 invariant.
    """
    refmax = grid.config.refmax
    for peer in grid.peers():
        for level in range(1, peer.depth + 1):
            current = peer.routing.refs(level)
            if len(current) >= refmax:
                continue
            target = peer.ref_prefix(level)
            have = set(current)
            for candidate in grid.replicas_for_key(target):
                if candidate == peer.address or candidate in have:
                    continue
                if not grid.peer(candidate).path.startswith(target):
                    continue
                if not peer.routing.add_ref(level, candidate):
                    break


def _build_point_grid(
    *, maxl: int, refmax: int, n_peers: int, seed: int
) -> dict:
    """Build + saturate one converged grid; return its snapshot dict."""
    config = PGridConfig(maxl=maxl, refmax=refmax, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=rngmod.derive(seed, "construction"))
    grid.add_peers(n_peers)
    GridBuilder(grid).build(threshold_fraction=0.985, max_exchanges=4_000_000)
    _saturate_refs(grid)
    return grid_to_dict(grid)


# -- the level-model Monte Carlo sampler --------------------------------------


def _measure_level_model(
    grid_data: dict,
    *,
    key_length: int,
    refmax: int,
    p_online: float,
    trials: int,
    seed: int,
    stream: str,
    repair: bool,
    evict_after: int,
    attempts: int = 1,
    crash_fraction: float = 0.0,
    warmup_trials: int = 0,
) -> float:
    """Fraction of trials in which all *key_length* levels survived.

    One trial draws, for each level ``1..k``, a random requester and asks
    whether any of its ``refmax`` references at that level answers a
    contact (each contact an independent availability coin, re-tried
    ``attempts`` times by a :class:`RetryPolicy`).  This samples exactly
    the product eq. (3) computes, over the real routing tables.
    """
    grid = grid_from_dict(grid_data, rng=rngmod.derive(seed, f"{stream}-grid"))
    grid.online_oracle = BernoulliChurn(p_online, rngmod.derive(seed, f"{stream}-churn"))
    crashed: frozenset[int] = frozenset()
    if crash_fraction > 0.0:
        injector = FaultInjector(
            grid, FaultPlan(seed=rngmod.derive_seed(seed, f"{stream}-faults"))
        )
        injector.crash_random(crash_fraction)
        injector.install_oracle()
        crashed = injector.crashed
    healer = RefHealer(grid, evict_after=evict_after) if repair else None
    retry = RetryPolicy(attempts=attempts) if attempts > 1 else None
    ctx = Context(grid.rng, retry=retry, healer=healer)
    rng = rngmod.derive(seed, f"{stream}-trials")
    eligible = [
        address
        for address in grid.addresses()
        if address not in crashed and grid.peer(address).depth >= key_length
    ]

    def one_trial() -> bool:
        survived_all = True
        for level in range(1, key_length + 1):
            owner = eligible[rng.randrange(len(eligible))]
            peer = grid.peer(owner)
            refs = peer.routing.refs(level)[:refmax]
            rng.shuffle(refs)
            level_ok = False
            for ref in refs:
                if run_contact(grid, ctx, owner, ref, level):
                    if healer is not None:
                        healer.record_success(owner, level, ref)
                    level_ok = True
                    break
            if not level_ok:
                survived_all = False
                # Keep contacting the remaining levels so the healer sees
                # the same contact pressure on every level regardless of
                # where earlier levels failed (and eq. (3)'s independent-
                # levels product is sampled without early-exit bias).
        return survived_all

    for _ in range(warmup_trials):
        one_trial()
    successes = sum(one_trial() for _ in range(trials))
    return successes / trials


def _measure_dfs(
    grid_data: dict,
    *,
    key_length: int,
    p_online: float,
    searches: int,
    seed: int,
) -> float:
    """End-to-end Fig. 2 success rate under per-contact churn."""
    grid = grid_from_dict(grid_data, rng=rngmod.derive(seed, "dfs-grid"))
    grid.online_oracle = BernoulliChurn(
        p_online, rngmod.derive(seed, "dfs-churn")
    )
    engine = SearchEngine(grid)
    rng = rngmod.derive(seed, "dfs-queries")
    addresses = grid.addresses()
    hits = 0
    for _ in range(searches):
        start = addresses[rng.randrange(len(addresses))]
        key = "".join(rng.choice("01") for _ in range(key_length))
        hits += engine.query_from(start, key).found
    return hits / searches


# -- one sweep point (module-level: picklable for --jobs) ---------------------


def _resilience_point(
    *,
    maxl: int,
    p_online: float,
    refmax: int,
    n_peers: int,
    trials: int,
    dfs_searches: int,
    crash_fraction: float,
    evict_after: int,
    retry_attempts: int,
    warmup_trials: int,
    seed: int,
) -> list:
    """Measure every mode at one (p, refmax) point; returns the table row."""
    key_length = maxl - 1
    grid_data = _build_point_grid(
        maxl=maxl, refmax=refmax, n_peers=n_peers, seed=seed
    )
    common = dict(
        key_length=key_length,
        refmax=refmax,
        p_online=p_online,
        trials=trials,
        seed=seed,
        evict_after=evict_after,
    )
    analytic = search_success_probability(p_online, refmax, key_length)
    analytic_retry = search_success_probability(
        p_online, retry_attempts * refmax, key_length
    )
    model = _measure_level_model(grid_data, stream="model", repair=False, **common)
    model_repair = _measure_level_model(
        grid_data, stream="repair", repair=True, **common
    )
    model_retry = _measure_level_model(
        grid_data, stream="retry", repair=False, attempts=retry_attempts, **common
    )
    crash = _measure_level_model(
        grid_data,
        stream="crash",
        repair=False,
        crash_fraction=crash_fraction,
        **common,
    )
    crash_repair = _measure_level_model(
        grid_data,
        stream="crash-repair",
        repair=True,
        crash_fraction=crash_fraction,
        warmup_trials=warmup_trials,
        **common,
    )
    dfs = _measure_dfs(
        grid_data,
        key_length=key_length,
        p_online=p_online,
        searches=dfs_searches,
        seed=seed,
    )
    return [
        p_online,
        refmax,
        analytic,
        model,
        model_repair,
        analytic_retry,
        model_retry,
        crash,
        crash_repair,
        dfs,
    ]


HEADERS = [
    "p",
    "refmax",
    "eq.(3)",
    "model",
    "model+repair",
    "eq.(3) retry",
    "model+retry",
    "crash",
    "crash+repair",
    "dfs",
]


def run(
    profile: ResilienceProfile | None = None,
    *,
    scale: str = "smoke",
    jobs: int | None = 1,
) -> ExperimentResult:
    """Run the resilience sweep; bit-identical rows at any *jobs*."""
    profile = profile or resilience_profile(scale)
    points = [
        {
            "maxl": profile.maxl,
            "p_online": p,
            "refmax": refmax,
            "n_peers": profile.n_peers(refmax),
            "trials": profile.trials,
            "dfs_searches": profile.dfs_searches,
            "crash_fraction": profile.crash_fraction,
            "evict_after": profile.evict_after,
            "retry_attempts": profile.retry_attempts,
            "warmup_trials": profile.warmup_trials,
            "seed": rngmod.derive_seed(profile.seed, f"point-{p}-{refmax}"),
        }
        for p in profile.p_values
        for refmax in profile.refmax_values
    ]
    rows = parallel_starmap(_resilience_point, points, jobs=jobs)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=(
            f"§4 success formula under injected faults "
            f"(k={profile.key_length}, {profile.trials} trials/point, "
            f"crash fraction {profile.crash_fraction:.0%})"
        ),
        headers=HEADERS,
        rows=rows,
        config={
            "profile": profile.name,
            "maxl": profile.maxl,
            "key_length": profile.key_length,
            "p_values": list(profile.p_values),
            "refmax_values": list(profile.refmax_values),
            "trials": profile.trials,
            "dfs_searches": profile.dfs_searches,
            "crash_fraction": profile.crash_fraction,
            "tolerance": profile.tolerance,
            "evict_after": profile.evict_after,
            "retry_attempts": profile.retry_attempts,
            "warmup_trials": profile.warmup_trials,
            "seed": profile.seed,
        },
        notes=(
            "model/model+repair/model+retry must match their analytic "
            "columns within the profile tolerance; crash+repair must beat "
            "crash; dfs is bounded below by eq.(3) (backtracking helps)."
        ),
    )


def check_deviations(result: ExperimentResult) -> list[str]:
    """Tolerance violations in *result* (empty list = sweep passes).

    Enforces the acceptance criteria: the level-model columns (plain,
    repair, retry) within ``tolerance`` of their analytic values, repair
    no worse than no-repair under crashes, and end-to-end DFS at or above
    the analytic lower bound (minus tolerance for sampling noise).
    """
    tol = result.config["tolerance"]
    violations: list[str] = []
    for row in result.rows:
        (p, refmax, analytic, model, model_repair, analytic_retry,
         model_retry, crash, crash_repair, dfs) = row
        where = f"(p={p}, refmax={refmax})"
        for label, measured, expected in (
            ("model", model, analytic),
            ("model+repair", model_repair, analytic),
            ("model+retry", model_retry, analytic_retry),
        ):
            if abs(measured - expected) > tol:
                violations.append(
                    f"{where} {label}={measured:.4f} deviates from "
                    f"analytic {expected:.4f} by more than {tol}"
                )
        if crash_repair + tol < crash:
            violations.append(
                f"{where} crash+repair={crash_repair:.4f} worse than "
                f"crash={crash:.4f}"
            )
        if dfs < analytic - tol:
            violations.append(
                f"{where} dfs={dfs:.4f} below the eq.(3) lower bound "
                f"{analytic:.4f} - {tol}"
            )
    return violations


def main(argv: list[str] | None = None) -> int:
    """CLI: run the sweep, optionally save and enforce tolerances."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Validate the §4 success formula under injected faults."
    )
    parser.add_argument(
        "--scale", choices=sorted(_PROFILES), default="smoke",
        help="sweep profile (default: smoke)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="parallel point workers (results identical at any value)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any tolerance is violated",
    )
    parser.add_argument(
        "--save", metavar="DIR", default=None,
        help="write CSV/JSON results into DIR",
    )
    args = parser.parse_args(argv)
    result = run(scale=args.scale, jobs=args.jobs)
    print(result.to_text(float_digits=4))
    if args.save:
        result.save(args.save)
    if args.check:
        violations = check_deviations(result)
        if violations:
            for violation in violations:
                print(f"TOLERANCE VIOLATION: {violation}")
            return 1
        print("all tolerance checks passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    raise SystemExit(main())
