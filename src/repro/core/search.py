"""Randomized P-Grid search (paper Fig. 2) and its breadth-first variant.

The routing decisions live in the sans-I/O machines of
:mod:`repro.protocol.search`; this module is their *direct driver*
facade: it validates inputs, wires the grid/probe/retry/healer
collaborators into a :class:`repro.protocol.Context`, executes the
machines in-process via :mod:`repro.protocol.direct` and packages the
tallies into the result dataclasses.  The networked
:class:`repro.net.node.PGridNode` drives the very same machines over
messages, so both execution paths share one implementation of Fig. 2.

Two deviations from the literal pseudo-code, both documented in DESIGN.md:

* the recursive call passes level ``l + length(compath)`` — the paper prints
  ``1 + length(compath)``, which breaks the "level = consumed bits" invariant
  its own variable definitions imply (an off-by-typo, see DESIGN.md §4);
* a configurable message budget guards against unbounded wandering when
  nearly all peers are offline.

Cost accounting matches §5.2: a *message* is a successful ``query`` call to
another peer; contact attempts that hit an offline peer are tallied
separately (``failed_attempts``).

The breadth-first search (``query_breadth``) is the §3/§5.2 update-support
primitive: instead of trying references one by one until a single responsible
peer answers, it forwards to up to ``recbreadth`` references *at every
divergence level in parallel*, collecting the full set of responsible peers
it reaches.

Observability: the engine accepts a keyword-only ``probe``
(:class:`repro.obs.Probe`) and reports every forward, offline miss,
backtrack and termination.  With the default ``probe=None`` the machines
skip event emission entirely; probes must not draw from the grid's RNG
(observation is asserted to be bit-identical to an uninstrumented run).

Resilience: keyword-only ``retry`` (a :class:`repro.faults.RetryPolicy`,
duck-typed so this module stays import-free of ``repro.faults``) re-contacts
an offline reference up to ``attempts`` times before backtracking,
accounting the simulated backoff in ``retry_delay``; ``healer`` (a
:class:`repro.faults.RefHealer`) receives every per-reference contact
outcome and evicts/refills references that keep failing.  Both default to
``None`` — the bare Fig. 2 protocol — and are asserted transparent in that
configuration (``tests/faults/test_transparency.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core import keys as keyspace
from repro.core.config import SearchConfig
from repro.core.grid import PGrid
from repro.core.peer import Address, Peer
from repro.core.results import ContactAccounting
from repro.core.storage import DataRef
from repro.obs.probe import Probe
from repro.protocol.contact import Budget, Context, StepStats
from repro.protocol.direct import run_breadth, run_dfs
from repro.protocol.search import Traversal, run_range

__all__ = [
    "SearchResult",
    "RangeSearchResult",
    "BreadthSearchResult",
    "SearchEngine",
]


@dataclass
class SearchResult(ContactAccounting):
    """Outcome of one depth-first search.

    ``latency`` is the simulated end-to-end latency along the contact
    chain; it is populated only when the engine has a topology attached
    (see :mod:`repro.sim.topology`), otherwise 0.
    """

    query: str
    start: Address
    found: bool
    responder: Address | None
    messages: int
    failed_attempts: int
    data_refs: list[DataRef] = field(default_factory=list)
    latency: float = 0.0
    retry_delay: float = 0.0


@dataclass
class RangeSearchResult(ContactAccounting):
    """Outcome of one range query."""

    low: str
    high: str
    cover: list[str]
    responders: list[Address]
    data_refs: list[DataRef]
    messages: int
    failed_attempts: int
    retry_delay: float = 0.0

    @property
    def found(self) -> bool:
        """Whether at least one responsible peer was reached."""
        return bool(self.responders)


@dataclass
class BreadthSearchResult(ContactAccounting):
    """Outcome of one breadth-first (multi-replica) search."""

    query: str
    start: Address
    responders: list[Address]
    messages: int
    failed_attempts: int
    retry_delay: float = 0.0

    @property
    def found(self) -> bool:
        """Whether at least one responsible peer was reached."""
        return bool(self.responders)


class SearchEngine:
    """Executes searches against a :class:`PGrid`.

    ``topology`` is an optional latency model (anything with a
    ``latency(a, b) -> float`` method); when set, results carry the
    simulated end-to-end latency of the contact chain.  It does not
    influence routing here — :class:`repro.sim.topology` provides the
    proximity-aware engine variants that do.

    ``probe`` receives the hop-level observability hooks; ``None`` (the
    default) disables observation entirely.

    ``retry`` / ``healer`` are the resilience collaborators (duck-typed
    :class:`repro.faults.RetryPolicy` / :class:`repro.faults.RefHealer`);
    ``None`` disables them with zero overhead on the hot path.
    """

    def __init__(
        self,
        grid: PGrid,
        *,
        config: SearchConfig | None = None,
        probe: Probe | None = None,
        topology=None,
        retry=None,
        healer=None,
    ) -> None:
        self.grid = grid
        self.config = config or SearchConfig()
        self.probe = probe
        self.topology = topology
        self.retry = retry
        self.healer = healer
        # Subclasses that override _attempt_order (proximity routing)
        # plug it in as the machine's attempt-order hook; the base engine
        # leaves it None to select the machine's inline uniform draws.
        order = (
            None
            if type(self)._attempt_order is SearchEngine._attempt_order
            else self._attempt_order
        )
        self._ctx = Context(
            grid.rng,
            retry=retry,
            healer=healer,
            topology=topology,
            order=order,
            observed=probe is not None,
        )

    def _context(self) -> Context:
        """The machine context, with observation state refreshed."""
        ctx = self._ctx
        ctx.observed = self.probe is not None
        return ctx

    # -- depth-first search (Fig. 2) -------------------------------------------

    def query_from(self, start: Address, query: str) -> SearchResult:
        """Issue *query* at the peer *start* (the paper's ``query(a, p, 0)``).

        The starting peer acts as the requester and is contacted locally
        (no message, no online check — a user searches from their own node).
        """
        keyspace.validate_key(query)
        peer = self.grid.peer(start)
        probe = self.probe
        if probe is not None:
            probe.on_search_start("dfs", start, query)
        budget = Budget(self.config.max_messages)
        stats = StepStats()
        found, responder = run_dfs(
            self.grid, self._context(), probe, peer, query, 0, budget, stats
        )
        data_refs: list[DataRef] = []
        if found and responder is not None:
            data_refs = self.grid.peer(responder).store.lookup(query)
        if probe is not None:
            probe.on_search_end(
                "dfs",
                start,
                query,
                found=found,
                messages=stats.messages,
                failed_attempts=stats.failed,
                latency=stats.latency,
            )
        return SearchResult(
            query=query,
            start=start,
            found=found,
            responder=responder,
            messages=stats.messages,
            failed_attempts=stats.failed,
            data_refs=data_refs,
            latency=stats.latency,
            retry_delay=stats.retry_delay,
        )

    def _attempt_order(
        self, peer: Peer, refs: list[Address]
    ) -> Iterator[Address]:
        """Yield forwarding candidates in attempt order.

        The base engine draws uniformly without replacement — *lazily*,
        so the RNG is consulted only for attempts actually made (this
        preserves the paper's random-reference semantics and keeps the
        RNG stream identical whether or not later candidates are
        needed).  :class:`repro.sim.topology.ProximitySearchEngine`
        overrides this with a nearest-first ordering, which the machine
        context picks up as its attempt-order hook.
        """
        rng = self.grid.rng
        while refs:
            yield refs.pop(rng.randrange(len(refs)))

    # -- breadth-first search (§3 update strategy 3) -------------------------------

    def query_breadth(
        self,
        start: Address,
        query: str,
        recbreadth: int,
        *,
        enumerate_subtree: bool = False,
    ) -> BreadthSearchResult:
        """Collect responsible peers by fanning out *recbreadth*-wide.

        At each peer the query either terminates (prefix agreement — the
        peer is responsible and is collected) or diverges, in which case up
        to *recbreadth* randomly chosen references at the divergence level
        are all followed.  Every reached responsible peer additionally
        contributes its *buddies*' responsibility transitively through the
        returned set only if they were contacted (buddy forwarding is a
        separate strategy implemented in :mod:`repro.core.updates`).

        With *enumerate_subtree*, a responsible peer whose path extends
        past the query additionally forwards into its references at every
        level *below* the match — those references cover the sibling
        subtrees under the query prefix, so the walk visits every leaf
        region of the queried interval (used by range queries, where the
        cover prefixes are much shorter than peer paths).
        """
        if recbreadth < 1:
            raise ValueError(f"recbreadth must be >= 1, got {recbreadth}")
        keyspace.validate_key(query)
        probe = self.probe
        if probe is not None:
            probe.on_search_start("bfs", start, query)
        trav = Traversal(
            Budget(self.config.max_messages),
            StepStats(),
            recbreadth,
            enumerate_subtree=enumerate_subtree,
        )
        run_breadth(
            self.grid, self._context(), probe, self.grid.peer(start), query, 0, trav
        )
        stats = trav.stats
        if probe is not None:
            probe.on_search_end(
                "bfs",
                start,
                query,
                found=bool(trav.responders),
                messages=stats.messages,
                failed_attempts=stats.failed,
            )
        return BreadthSearchResult(
            query=query,
            start=start,
            responders=trav.responders,
            messages=stats.messages,
            failed_attempts=stats.failed,
            retry_delay=stats.retry_delay,
        )

    # -- range queries over the order-preserving key space ------------------------

    def query_range(
        self, start: Address, low: str, high: str, *, recbreadth: int = 2
    ) -> RangeSearchResult:
        """Find index entries with keys in ``[low, high]`` (equal lengths).

        P-Grid keys are order-preserving (``val(k)`` intervals, §2), so a
        range decomposes into the canonical cover prefixes
        (:func:`repro.core.keys.range_cover`); each cover prefix is then
        resolved with a breadth-first search and the responders' leaf
        entries are filtered to the range.  Duplicate entries returned by
        several replicas are deduplicated.

        The probe sees one ``range`` search wrapping the per-prefix
        ``bfs`` sub-searches (nested start/end events).
        """
        cover = keyspace.range_cover(low, high)
        probe = self.probe
        if probe is not None:
            probe.on_search_start("range", start, f"{low}..{high}")
        responders, data_refs, messages, failed, retry_delay = run_range(
            low,
            high,
            cover=cover,
            search=lambda prefix: self.query_breadth(
                start, prefix, recbreadth, enumerate_subtree=True
            ),
            fetch=lambda responder, prefix: self.grid.peer(
                responder
            ).store.lookup(prefix),
        )
        if probe is not None:
            probe.on_search_end(
                "range",
                start,
                f"{low}..{high}",
                found=bool(responders),
                messages=messages,
                failed_attempts=failed,
            )
        return RangeSearchResult(
            low=low,
            high=high,
            cover=cover,
            responders=responders,
            data_refs=data_refs,
            messages=messages,
            failed_attempts=failed,
            retry_delay=retry_delay,
        )
