"""Ablations beyond the paper's tables (DESIGN.md §3).

Each probes a design choice §3/§6 discusses but does not evaluate.  AB1
(case-4 mutual references) and AB4 (reference exchange at every shared
level) are records under ``results/ablations/``; their knobs are gone.

AB2 — search success vs. availability, validating eq. (3) against
      simulation across the whole availability range;
AB3 — Zipf-skewed workloads: where the §6 uniformity assumption breaks
      (query-load and index-storage imbalance);
AB5 — data-driven splitting (§3's threshold hint): letting the data
      volume, not a global ``maxl``, decide how deep each region splits —
      the fix for AB3's imbalance;
AB6 — membership churn: peers failing and joining after construction,
      with and without reference repair;
AB7 — construction under availability: a time-driven meeting process with
      session churn;
AB8 — query-adaptive shortcut caching (§6 "knowledge on query
      distribution"): initiator-local LRU of recent responders;
AB10 — proximity-aware reference retention and routing (§6 "knowledge on
      the network topology");
AB11 — meeting schedulers: the paper's uniform random pairs vs.
      prefix-biased and round-robin meeting processes.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.core.analysis import search_success_probability
from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.membership import MembershipEngine
from repro.core.search import SearchEngine
from repro.core.storage import DataRef
from repro.experiments.common import ExperimentResult
from repro.sim import rng as rngmod
from repro.sim.builder import GridBuilder, run_timed_construction
from repro.sim.churn import BernoulliChurn, SessionChurn
from repro.sim.workload import UniformKeyWorkload, ZipfKeyWorkload, generate_items


def _build(config: PGridConfig, n_peers: int, seed: int, tag: str) -> tuple[PGrid, int]:
    grid = PGrid(config, rng=rngmod.derive(seed, f"ab-{tag}"))
    grid.add_peers(n_peers)
    report = GridBuilder(grid).build(max_exchanges=4_000_000)
    return grid, report.exchanges


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, ->1 = skewed).

    The load-balance measure of AB3 and AB5: per-peer query/storage load
    under uniform vs. Zipf workloads.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("gini of an empty sample is undefined")
    if any(v < 0 for v in data):
        raise ValueError("gini requires non-negative values")
    total = sum(data)
    if total == 0:
        return 0.0
    n = len(data)
    weighted = sum((index + 1) * value for index, value in enumerate(data))
    return max(0.0, (2 * weighted) / (n * total) - (n + 1) / n)


# -- AB2: availability sweep vs. eq. (3) -----------------------------------------------


def run_online_prob(
    *,
    n_peers: int = 1024,
    maxl: int = 7,
    refmax: int = 5,
    recmax: int = 2,
    fanout: int = 2,
    probabilities: Sequence[float] = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9),
    n_searches: int = 2000,
    seed: int = 12,
) -> ExperimentResult:
    """AB2: measured search success vs. the eq. (3) analytical bound."""
    config = PGridConfig(
        maxl=maxl, refmax=refmax, recmax=recmax, recursion_fanout=fanout
    )
    grid, _exchanges = _build(config, n_peers, seed, "ab2")
    addresses = grid.addresses()
    key_length = maxl - 1
    rows: list[list[object]] = []
    for p_online in probabilities:
        tag = f"ab2-{p_online}"
        grid.online_oracle = BernoulliChurn(
            p_online, rngmod.derive(seed, f"ab-churn-{tag}")
        )
        engine = SearchEngine(grid)
        keys = UniformKeyWorkload(key_length, rngmod.derive(seed, f"ab-keys-{tag}"))
        starts = rngmod.derive(seed, f"ab-starts-{tag}")
        messages = hits = 0
        for _ in range(n_searches):
            result = engine.query_from(starts.choice(addresses), keys.next_key())
            if result.found:
                messages += result.messages
                hits += 1
        success = hits / n_searches if n_searches else 0.0
        predicted = search_success_probability(p_online, refmax, key_length)
        rows.append(
            [p_online, success, predicted, success - predicted,
             messages / hits if hits else 0.0]
        )
    return ExperimentResult(
        experiment_id="ablation_online_prob",
        title="AB2: search success vs. availability (simulation vs. eq. 3)",
        headers=[
            "p_online",
            "measured success",
            "eq.(3) bound",
            "delta",
            "avg messages",
        ],
        rows=rows,
        config={
            "n_peers": n_peers,
            "maxl": maxl,
            "refmax": refmax,
            "probabilities": list(probabilities),
            "n_searches": n_searches,
            "seed": seed,
        },
        notes=(
            "Expected shape: measured success tracks and dominates the "
            "eq.(3) bound (the bound ignores depth-first backtracking), "
            "with the gap largest at low availability."
        ),
    )


# -- AB3: skewed workloads ------------------------------------------------------------


def run_skew(
    *,
    n_peers: int = 1024,
    maxl: int = 7,
    refmax: int = 5,
    recmax: int = 2,
    fanout: int = 2,
    n_items: int = 4096,
    n_queries: int = 4000,
    zipf_exponent: float = 1.0,
    seed: int = 13,
) -> ExperimentResult:
    """AB3: load imbalance under uniform vs. Zipf-skewed workloads."""
    config = PGridConfig(
        maxl=maxl, refmax=refmax, recmax=recmax, recursion_fanout=fanout
    )
    key_length = maxl + 2
    rows: list[list[object]] = []
    for label, exponent in (("uniform", 0.0), (f"zipf({zipf_exponent})", zipf_exponent)):
        work_rng = rngmod.derive(seed, f"ab3-work-{label}")
        if exponent:
            workload = ZipfKeyWorkload(key_length, work_rng, exponent=exponent)
        else:
            workload = UniformKeyWorkload(key_length, work_rng)
        # Index storage imbalance: publish items, count leaf refs per peer.
        items = generate_items(workload.keys(n_items))
        fresh = PGrid(config, rng=rngmod.derive(seed, f"ab3-grid-{label}"))
        fresh.add_peers(n_peers)
        GridBuilder(fresh).build(max_exchanges=4_000_000)
        fresh.seed_index(
            [(item, index % n_peers) for index, item in enumerate(items)]
        )
        storage = [peer.store.ref_count for peer in fresh.peers()]
        # Query load imbalance: count answering-responder hits per peer.
        engine = SearchEngine(fresh)
        starts = rngmod.derive(seed, f"ab3-starts-{label}")
        addresses = fresh.addresses()
        load: Counter[int] = Counter()
        query_keys = workload.keys(n_queries)
        for key in query_keys:
            result = engine.query_from(starts.choice(addresses), key)
            if result.found and result.responder is not None:
                load[result.responder] += 1
        load_values = [load.get(address, 0) for address in addresses]
        rows.append(
            [
                label,
                gini(storage),
                max(storage),
                sum(storage) / len(storage),
                gini(load_values),
                max(load_values),
                sum(load_values) / len(load_values),
            ]
        )
    return ExperimentResult(
        experiment_id="ablation_skew",
        title="AB3: storage & query-load balance, uniform vs. Zipf keys",
        headers=[
            "workload",
            "storage gini",
            "max refs/peer",
            "mean refs/peer",
            "query-load gini",
            "max hits/peer",
            "mean hits/peer",
        ],
        rows=rows,
        config={
            "n_peers": n_peers,
            "maxl": maxl,
            "n_items": n_items,
            "n_queries": n_queries,
            "zipf_exponent": zipf_exponent,
            "seed": seed,
        },
        notes=(
            "Expected shape: this P-Grid variant splits the key space "
            "data-agnostically, so Zipf keys concentrate index entries and "
            "query hits on the peers owning popular prefixes — higher gini "
            "and max/mean ratios than uniform (the §6 future-work gap)."
        ),
    )


# -- AB5: data-driven splitting ---------------------------------------------------------


def run_adaptive_split(
    *,
    n_peers: int = 1024,
    items_per_peer: int = 8,
    key_length: int = 16,
    zipf_exponent: float = 1.0,
    uniform_maxl: int = 7,
    adaptive_maxl: int = 16,
    split_min_items: int = 4,
    meetings_per_peer: int = 80,
    seed: int = 15,
) -> ExperimentResult:
    """AB5: fixed-depth vs. data-driven splitting under Zipf-skewed data.

    Every peer starts holding the index entries for its own items; during
    construction the exchange algorithm redistributes them along with the
    responsibility splits.  The fixed-depth baseline splits every region
    to ``uniform_maxl``; the adaptive variant splits only while a region
    holds at least ``split_min_items`` entries (safety bound
    ``adaptive_maxl``), as §3 hints.
    """
    rows: list[list[object]] = []
    for label, config in (
        (
            "fixed depth",
            PGridConfig(
                maxl=uniform_maxl, refmax=3, recmax=2, recursion_fanout=2
            ),
        ),
        (
            "data-driven",
            PGridConfig(
                maxl=adaptive_maxl,
                refmax=3,
                recmax=2,
                recursion_fanout=2,
                split_min_items=split_min_items,
            ),
        ),
    ):
        grid = PGrid(config, rng=rngmod.derive(seed, f"ab5-{label}"))
        grid.add_peers(n_peers)
        workload = ZipfKeyWorkload(
            key_length,
            rngmod.derive(seed, "ab5-items"),
            exponent=zipf_exponent,
        )
        for peer in grid.peers():
            for key in workload.keys(items_per_peer):
                peer.store.add_ref(DataRef(key=key, holder=peer.address))
        GridBuilder(grid).build(
            threshold_fraction=1.0,
            max_meetings=meetings_per_peer * n_peers,
        )
        storage = [peer.store.ref_count for peer in grid.peers()]
        depths = [peer.depth for peer in grid.peers()]
        # How well does depth track data density?  Split peers by whether
        # their region is in the popular half of the key space (first bit
        # 0 under Zipf ranking).
        dense = [p.depth for p in grid.peers() if p.path.startswith("0")]
        sparse = [p.depth for p in grid.peers() if p.path.startswith("1")]
        rows.append(
            [
                label,
                sum(depths) / len(depths),
                (sum(dense) / len(dense)) if dense else 0.0,
                (sum(sparse) / len(sparse)) if sparse else 0.0,
                gini(storage),
                max(storage),
                sum(storage) / len(storage),
            ]
        )
    return ExperimentResult(
        experiment_id="ablation_adaptive_split",
        title="AB5: fixed-depth vs. data-driven splitting under Zipf keys",
        headers=[
            "variant",
            "avg depth",
            "avg depth (dense half)",
            "avg depth (sparse half)",
            "storage gini",
            "max refs/peer",
            "mean refs/peer",
        ],
        rows=rows,
        config={
            "n_peers": n_peers,
            "items_per_peer": items_per_peer,
            "key_length": key_length,
            "zipf_exponent": zipf_exponent,
            "uniform_maxl": uniform_maxl,
            "adaptive_maxl": adaptive_maxl,
            "split_min_items": split_min_items,
            "meetings_per_peer": meetings_per_peer,
            "seed": seed,
        },
        notes=(
            "Expected shape: the data-driven variant splits the dense half "
            "of the key space deeper than the sparse half and yields a "
            "more balanced per-peer index load (lower gini / max) than the "
            "fixed-depth baseline."
        ),
    )


# -- AB6: membership churn with and without repair ----------------------------------------


def run_membership_churn(
    *,
    n_peers: int = 512,
    maxl: int = 6,
    refmax: int = 2,
    replace_fraction: float = 0.5,
    n_searches: int = 1500,
    seed: int = 16,
) -> ExperimentResult:
    """AB6: search success before/after replacing peers, with repair.

    After building, ``replace_fraction`` of the population crash-fails and
    the same number of newcomers join through random bootstraps.  Success
    is measured (everyone online, so losses are purely structural:
    references left dangling by the crashed peers), then a repair sweep
    runs and success is measured again.  The joins' cost is counted in
    exchange calls, the sweep's in probe and search messages: two units,
    two columns.
    """
    if not 0.0 < replace_fraction < 1.0:
        raise ValueError(
            f"replace_fraction must be in (0, 1), got {replace_fraction}"
        )
    config = PGridConfig(maxl=maxl, refmax=refmax, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=rngmod.derive(seed, "ab6"))
    grid.add_peers(n_peers)
    GridBuilder(grid).build(max_exchanges=4_000_000)
    membership = MembershipEngine(grid)
    engine = membership.search

    def success_rate(tag: str) -> float:
        keys = UniformKeyWorkload(maxl - 1, rngmod.derive(seed, f"ab6-k-{tag}"))
        starts = rngmod.derive(seed, f"ab6-s-{tag}")
        addresses = grid.addresses()
        hits = 0
        for _ in range(n_searches):
            result = engine.query_from(starts.choice(addresses), keys.next_key())
            hits += int(result.found)
        return hits / n_searches

    rows: list[list[object]] = []
    rows.append(["intact grid", len(grid), success_rate("before"), 0, 0])

    churn_rng = rngmod.derive(seed, "ab6-churn")
    victims = churn_rng.sample(grid.addresses(), int(replace_fraction * n_peers))
    for victim in victims:
        membership.fail(victim)
    join_exchanges = sum(
        membership.join(churn_rng.choice(grid.addresses())).exchanges
        for _ in victims
    )
    rows.append(
        [
            f"after replacing {replace_fraction:.0%}",
            len(grid),
            success_rate("after-churn"),
            join_exchanges,
            0,
        ]
    )

    repair_messages = sum(r.messages for r in membership.repair_all())
    rows.append(
        ["after repair sweep", len(grid), success_rate("after-repair"), 0, repair_messages]
    )
    return ExperimentResult(
        experiment_id="ablation_membership_churn",
        title="AB6: membership churn and reference repair",
        headers=[
            "state", "peers", "search success", "join exchanges", "repair messages",
        ],
        rows=rows,
        config={
            "n_peers": n_peers,
            "maxl": maxl,
            "refmax": refmax,
            "replace_fraction": replace_fraction,
            "n_searches": n_searches,
            "seed": seed,
        },
        notes=(
            "Expected shape: success dips after mass replacement (dangling "
            "references) and recovers after the repair sweep, approaching "
            "the intact grid's level, for fewer repair messages than the "
            "joins' exchanges."
        ),
    )


# -- AB7: construction under availability (time-driven) ----------------------------------


def run_construction_under_churn(
    *,
    n_peers: int = 400,
    maxl: int = 5,
    refmax: int = 2,
    probabilities: Sequence[float] = (1.0, 0.7, 0.5, 0.3),
    meeting_rate_per_peer: float = 1.0,
    duration: float = 120.0,
    epoch_length: float = 1.0,
    seed: int = 18,
) -> ExperimentResult:
    """AB7: how availability slows self-organization.

    Construction runs as a Poisson meeting process over virtual time while
    a session-churn model keeps only a fraction of the population online;
    meetings with an offline endpoint never happen.  The paper's
    round-based simulations cannot express this —
    :func:`~repro.sim.builder.run_timed_construction` can.
    """
    rows: list[list[object]] = []
    for p_online in probabilities:
        config = PGridConfig(
            maxl=maxl, refmax=refmax, recmax=2, recursion_fanout=2
        )
        grid = PGrid(config, rng=rngmod.derive(seed, f"ab7-{p_online}"))
        grid.add_peers(n_peers)
        churn = (
            None
            if p_online >= 1.0
            else SessionChurn(
                p_online,
                rngmod.derive(seed, f"ab7-churn-{p_online}"),
                grid.addresses(),
            )
        )
        report = run_timed_construction(
            grid,
            meeting_rate=meeting_rate_per_peer * n_peers,
            duration=duration,
            churn=churn,
            epoch_length=epoch_length,
            rng=rngmod.derive(seed, f"ab7-meet-{p_online}"),
        )
        rows.append(
            [
                p_online,
                report.meetings,
                report.exchanges,
                report.average_depth,
                report.average_depth / maxl,
                report.converged,
            ]
        )
    return ExperimentResult(
        experiment_id="ablation_construction_churn",
        title=(
            f"AB7: construction progress vs. availability "
            f"(N={n_peers}, maxl={maxl}, duration={duration:g})"
        ),
        headers=[
            "p_online",
            "meetings",
            "exchanges",
            "avg depth",
            "depth fraction",
            "converged",
        ],
        rows=rows,
        config={
            "n_peers": n_peers,
            "maxl": maxl,
            "refmax": refmax,
            "probabilities": list(probabilities),
            "meeting_rate_per_peer": meeting_rate_per_peer,
            "duration": duration,
            "epoch_length": epoch_length,
            "seed": seed,
        },
        notes=(
            "Measured shape: offline endpoints waste meeting arrivals, so "
            "executed meetings thin as p^2 (defaults: 48301 / 23871 / "
            "11791 / 4230 at p = 1.0 / 0.7 / 0.5 / 0.3, i.e. 1 : 0.49 : "
            "0.24 : 0.09).  Depth lags only when the duration is short: at "
            "the defaults every p converges (average depth 5.00 / 5.00 / "
            "5.00 / 4.995 of maxl 5), while 120 peers run for 40 time "
            "units stop at 3.58 of maxl 4 at p = 0.3."
        ),
    )


# -- AB8: query-adaptive shortcut cache -----------------------------------------------


def run_shortcut_cache(
    *,
    n_peers: int = 1024,
    maxl: int = 7,
    refmax: int = 5,
    p_online: float = 0.5,
    n_queries: int = 6000,
    query_key_length: int | None = None,
    zipf_exponent: float = 1.2,
    cache_capacity: int = 64,
    n_initiators: int = 16,
    seed: int = 19,
) -> ExperimentResult:
    """AB8: does remembering responders pay off on skewed query streams?

    Each peer keeps a small LRU of (query -> last responder).  On a Zipf
    query stream the popular keys repeat at the same initiators often
    enough that most searches collapse to a single direct contact; on a
    uniform stream the cache barely hits.  Message counts include failed
    contact attempts being retried by the fallback search.
    """
    from repro.core.shortcuts import ShortcutSearchEngine

    config = PGridConfig(maxl=maxl, refmax=refmax, recmax=2, recursion_fanout=2)
    grid, _exchanges = _build(config, n_peers, seed, "ab8")
    # Query keys deeper than the trie so the *key space* is much larger
    # than the cache: a uniform stream then almost never repeats, while a
    # Zipf stream hammers the same popular keys.
    key_length = query_key_length if query_key_length is not None else maxl + 3
    rows: list[list[object]] = []
    for workload_label, exponent in (("uniform", 0.0), (f"zipf({zipf_exponent})", zipf_exponent)):
        for cached in (False, True):
            grid.online_oracle = BernoulliChurn(
                p_online, rngmod.derive(seed, f"ab8-churn-{workload_label}-{cached}")
            )
            plain = SearchEngine(grid)
            engine = (
                ShortcutSearchEngine(grid, search=plain, capacity=cache_capacity)
                if cached
                else plain
            )
            work_rng = rngmod.derive(seed, f"ab8-work-{workload_label}")
            workload = (
                ZipfKeyWorkload(key_length, work_rng, exponent=exponent)
                if exponent
                else UniformKeyWorkload(key_length, work_rng)
            )
            starts = rngmod.derive(seed, f"ab8-starts-{workload_label}")
            # a handful of hot initiators, as in real client populations
            initiators = starts.sample(grid.addresses(), n_initiators)
            messages = 0
            hits = 0
            for _ in range(n_queries):
                result = engine.query_from(
                    starts.choice(initiators), workload.next_key()
                )
                messages += result.messages
                hits += int(result.found)
            hit_rate = (
                engine.stats.hit_rate if cached else 0.0  # type: ignore[union-attr]
            )
            rows.append(
                [
                    workload_label,
                    "shortcut cache" if cached else "plain",
                    hits / n_queries,
                    messages / n_queries,
                    hit_rate,
                ]
            )
    return ExperimentResult(
        experiment_id="ablation_shortcut_cache",
        title=(
            f"AB8: shortcut caching under skewed queries "
            f"(N={n_peers}, {p_online:.0%} online)"
        ),
        headers=[
            "query workload",
            "engine",
            "success rate",
            "avg messages",
            "cache hit rate",
        ],
        rows=rows,
        config={
            "n_peers": n_peers,
            "maxl": maxl,
            "refmax": refmax,
            "p_online": p_online,
            "n_queries": n_queries,
            "zipf_exponent": zipf_exponent,
            "cache_capacity": cache_capacity,
            "n_initiators": n_initiators,
            "query_key_length": key_length,
            "seed": seed,
        },
        notes=(
            "Expected shape: on Zipf queries the cache converts most "
            "searches into one direct contact (high hit rate, much lower "
            "average messages) without hurting success; on uniform queries "
            "the cache is nearly useless."
        ),
    )


# -- AB10: proximity-aware routing and reference selection ----------------------------------


def run_proximity(
    *,
    n_peers: int = 1024,
    maxl: int = 7,
    refmax: int = 5,
    p_online: float = 0.7,
    n_searches: int = 3000,
    seed: int = 21,
) -> ExperimentResult:
    """AB10: does topology knowledge (§6) cut search latency?

    Peers get coordinates in the unit square (Euclidean latency).  Four
    configurations: random vs. proximity reference *retention* during
    construction, crossed with random vs. nearest-first *routing* during
    search.  Message counts should barely move (the trie depth fixes the
    hop count); end-to-end latency should drop substantially once both
    levers are on.
    """
    from repro.sim.topology import (
        ProximityExchangeEngine,
        ProximitySearchEngine,
        Topology,
    )
    from repro.core.exchange import ExchangeEngine
    from repro.sim.meetings import UniformMeetings

    config = PGridConfig(maxl=maxl, refmax=refmax, recmax=2, recursion_fanout=2)
    rows: list[list[object]] = []
    for retention in ("random", "proximity"):
        grid = PGrid(config, rng=rngmod.derive(seed, f"ab10-{retention}"))
        grid.add_peers(n_peers)
        topology = Topology(rngmod.derive(seed, "ab10-coords"))
        topology.place_all(grid.addresses())
        engine = (
            ProximityExchangeEngine(grid, topology)
            if retention == "proximity"
            else ExchangeEngine(grid)
        )
        GridBuilder(grid, engine=engine).build(max_exchanges=4_000_000)

        for routing in ("random", "proximity"):
            grid.online_oracle = BernoulliChurn(
                p_online,
                rngmod.derive(seed, f"ab10-churn-{retention}-{routing}"),
            )
            search = (
                ProximitySearchEngine(grid, topology)
                if routing == "proximity"
                else SearchEngine(grid, topology=topology)
            )
            keys = UniformKeyWorkload(
                maxl - 1, rngmod.derive(seed, f"ab10-keys-{retention}-{routing}")
            )
            starts = rngmod.derive(seed, f"ab10-starts-{retention}-{routing}")
            addresses = grid.addresses()
            hits = 0
            messages = 0
            latency = 0.0
            for _ in range(n_searches):
                result = search.query_from(
                    starts.choice(addresses), keys.next_key()
                )
                if result.found:
                    hits += 1
                    messages += result.messages
                    latency += result.latency
            rows.append(
                [
                    retention,
                    routing,
                    hits / n_searches,
                    messages / max(1, hits),
                    latency / max(1, hits),
                ]
            )
    return ExperimentResult(
        experiment_id="ablation_proximity",
        title=(
            f"AB10: proximity reference selection & routing "
            f"(N={n_peers}, {p_online:.0%} online)"
        ),
        headers=[
            "ref retention",
            "routing",
            "search success",
            "avg messages",
            "avg latency",
        ],
        rows=rows,
        config={
            "n_peers": n_peers,
            "maxl": maxl,
            "refmax": refmax,
            "p_online": p_online,
            "n_searches": n_searches,
            "seed": seed,
        },
        notes=(
            "Expected shape: hop counts stay put (the trie fixes them) and "
            "success is unaffected, while end-to-end latency falls once "
            "references are retained and chosen by proximity — §6's "
            "'knowledge on the network topology' lever."
        ),
    )


# -- AB11: meeting schedulers -------------------------------------------------------------


def run_meeting_schedulers(
    *,
    n_peers: int = 500,
    maxl: int = 6,
    refmax: int = 2,
    bias: float = 0.8,
    seed: int = 22,
) -> ExperimentResult:
    """AB11: does *who meets whom* change the construction bill?

    The paper deliberately leaves the meeting process open ("they may meet
    randomly, because they are involved in other operations...").  This
    ablation compares three schedulers: the paper's uniform random pairs, a
    prefix-biased scheduler (meetings triggered by search traffic
    concentrate on related peers), and a round-robin sweep (every peer
    initiates once per round — bounded meeting skew).
    """
    from repro.sim.meetings import (
        BiasedMeetings,
        RoundRobinMeetings,
        UniformMeetings,
    )

    config = PGridConfig(maxl=maxl, refmax=refmax, recmax=2, recursion_fanout=2)
    rows: list[list[object]] = []
    schedulers = (
        ("uniform (paper)", lambda grid: UniformMeetings(grid)),
        (f"prefix-biased ({bias:.0%})", lambda grid: BiasedMeetings(grid, bias=bias)),
        ("round-robin", lambda grid: RoundRobinMeetings(grid)),
    )
    for label, factory in schedulers:
        grid = PGrid(config, rng=rngmod.derive(seed, f"ab11-{label}"))
        grid.add_peers(n_peers)
        report = GridBuilder(grid, scheduler=factory(grid)).build(
            max_exchanges=4_000_000
        )
        rows.append(
            [
                label,
                report.converged,
                report.meetings,
                report.exchanges,
                report.exchanges / n_peers,
                len(grid.audit_routing()),
            ]
        )
    return ExperimentResult(
        experiment_id="ablation_meeting_schedulers",
        title=f"AB11: meeting schedulers (N={n_peers}, maxl={maxl})",
        headers=[
            "scheduler",
            "converged",
            "meetings",
            "e",
            "e/N",
            "audit violations",
        ],
        rows=rows,
        config={
            "n_peers": n_peers,
            "maxl": maxl,
            "refmax": refmax,
            "bias": bias,
            "seed": seed,
        },
        notes=(
            "Measured shape (stable across seeds): round-robin converges "
            "with ~30% fewer exchanges than uniform — fairness of meeting "
            "opportunities matters, because convergence is gated by the "
            "laggards that uniform sampling keeps missing.  Prefix-biased "
            "meetings are ~20-40% *worse* than uniform: already-related "
            "peers mostly trigger case-4 recursion rather than fresh "
            "splits.  The invariant holds under every scheduler."
        ),
    )
