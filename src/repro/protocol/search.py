"""Sans-I/O state machines for the Fig. 2 search family.

One implementation of the paper's routing decisions, executed by two
drivers: :mod:`repro.protocol.direct` (in-process, powering
:class:`repro.core.search.SearchEngine`) and the message driver
(:class:`repro.net.node.PGridNode`, which maps the same effects onto
``QUERY``/``BREADTH_QUERY`` messages).

The machines cover:

* :func:`dfs_step` — the depth-first ``query(a, p, l)`` recursion with
  backtracking (Fig. 2, including the level off-by-typo fix documented
  in DESIGN.md §4);
* :func:`breadth_step` / :func:`fanout_step` — the §3 breadth-first
  variant (``recbreadth``-wide fan-out with a shared visited set, plus
  the subtree enumeration mode range queries need);
* :func:`run_range` / :func:`key_in_range` — the order-preserving range
  scan over the canonical cover prefixes (pure orchestration: the
  per-prefix breadth searches and the responder store lookups are
  injected by the driver);
* :func:`repeated_queries` — §5.2 update strategy 1's repetition loop.

Every RNG draw happens inside the machines, in exactly the order the
in-process engines historically made them — the probe-transparency and
protocol-equivalence test suites pin this bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable

from repro.core import keys as keyspace
from repro.protocol.contact import Budget, Context, StepStats, contact_step
from repro.protocol.effects import (
    Address,
    BreadthStep,
    QueryStep,
    Record,
    Resolve,
)

__all__ = [
    "dfs_step",
    "Traversal",
    "breadth_step",
    "fanout_step",
    "key_in_range",
    "run_range",
    "repeated_queries",
]


def _uniform_order(rng: random.Random, refs: list[Address]):
    """The paper's attempt order: uniform draws without replacement.

    Lazy — the RNG is consulted only for attempts actually made, which
    keeps the stream identical whether or not later candidates are
    needed.
    """
    while refs:
        yield refs.pop(rng.randrange(len(refs)))


def dfs_step(
    view: Any,
    p: str,
    level: int,
    ctx: Context,
    budget: Budget,
    stats: StepStats,
    prefix: str = "",
):
    """Fig. 2 body at one peer; *level* = bits of ``path(view)`` consumed.

    Returns ``(found, responder)``.  Forwards are two effects: a
    :class:`Contact` (liveness + delivery attempt, budget is consumed on
    success) followed by a :class:`Resolve` whose answer is the remote
    step's ``(found, responder)``.  A receiver whose path is not in prefix
    relation with the *prefix* the hop was routed on (a stale reference,
    §2) refuses it with ``(False, itself)``, and the sender tries its next
    reference.
    """
    path = view.path
    if not (path.startswith(prefix) or prefix.startswith(path)):
        return False, view.address
    rempath = path[level:]
    compath = keyspace.common_prefix(p, rempath)
    lc = len(compath)
    if lc == len(p) or lc == len(rempath):
        if ctx.observed:
            yield Record("responsible", (view.address, level + lc))
        return True, view.address
    # Divergence: forward the unmatched suffix sideways.
    ref_level = level + lc + 1
    refs = list(view.routing.refs(ref_level))
    payload = QueryStep(p[lc:], level + lc, path[: level + lc] + p[lc])
    if ctx.order is not None:
        candidates = ctx.order(view, refs)
    else:
        candidates = _uniform_order(ctx.rng, refs)
    for address in candidates:
        ok = yield from contact_step(
            ctx, stats, view.address, address, ref_level, payload
        )
        if not ok:
            continue
        if not budget.consume():
            return False, None
        stats.messages += 1
        if ctx.observed:
            yield Record("forward", (view.address, address, ref_level))
        if ctx.topology is not None:
            stats.latency += ctx.topology.latency(view.address, address)
        found, responder = yield Resolve(address, payload)
        if ctx.healer is not None:
            refused = not found and responder == address
            report = ctx.healer.record_failure if refused else ctx.healer.record_success
            report(view.address, ref_level, address)
        if found:
            return True, responder
        if ctx.observed:
            yield Record("backtrack", (view.address, ref_level))
    return False, None


# -- breadth-first search (§3 update strategy 3 / range enumeration) -----------


class Traversal:
    """Mutable state one breadth-first walk shares across its recursion.

    The direct driver shares one instance across every visited peer; the
    message driver serializes ``seen``/``responders`` into each
    ``BREADTH_QUERY`` payload and merges the reply back, which is
    equivalent because delivery is synchronous.
    """

    __slots__ = (
        "budget",
        "stats",
        "recbreadth",
        "enumerate_subtree",
        "responders",
        "seen",
    )

    def __init__(
        self,
        budget: Budget,
        stats: StepStats,
        recbreadth: int,
        *,
        enumerate_subtree: bool = False,
        responders: list[Address] | None = None,
        seen: set[Address] | None = None,
    ) -> None:
        self.budget = budget
        self.stats = stats
        self.recbreadth = recbreadth
        self.enumerate_subtree = enumerate_subtree
        self.responders = responders if responders is not None else []
        self.seen = seen if seen is not None else set()


def breadth_step(view: Any, p: str, level: int, ctx: Context, trav: Traversal):
    """One breadth-first visit: collect if responsible, else fan out."""
    if view.address in trav.seen:
        return
    trav.seen.add(view.address)
    rempath = view.path[level:]
    compath = keyspace.common_prefix(p, rempath)
    lc = len(compath)
    if lc == len(p) or lc == len(rempath):
        trav.responders.append(view.address)
        if ctx.observed:
            yield Record("responsible", (view.address, level + lc))
        if trav.enumerate_subtree and lc == len(p):
            # The peer's path extends past the query: its references at
            # every level below the match point into the *other* halves
            # of the query's subtree.  Forwarding the empty remaining
            # query there enumerates all leaf regions of the interval.
            for sublevel in range(level + lc + 1, view.depth + 1):
                yield from fanout_step(view, "", sublevel, sublevel, ctx, trav)
        return
    yield from fanout_step(view, p[lc:], level + lc, level + lc + 1, ctx, trav)


def fanout_step(
    view: Any,
    querypath: str,
    next_level: int,
    ref_level: int,
    ctx: Context,
    trav: Traversal,
):
    """Forward to up to ``recbreadth`` online references at *ref_level*.

    Offline contacts are skipped and replaced by further candidates
    (the depth-first search retries the same way, one at a time), after
    any configured retry attempts.
    """
    refs = list(view.routing.refs(ref_level))
    ctx.rng.shuffle(refs)
    payload = BreadthStep(
        querypath, next_level, trav.recbreadth, trav.enumerate_subtree
    )
    forwarded = 0
    for address in refs:
        if forwarded >= trav.recbreadth:
            break
        if address in trav.seen:
            continue
        ok = yield from contact_step(
            ctx, trav.stats, view.address, address, ref_level, payload
        )
        if not ok:
            continue
        if ctx.healer is not None:
            ctx.healer.record_success(view.address, ref_level, address)
        if not trav.budget.consume():
            return
        trav.stats.messages += 1
        if ctx.observed:
            yield Record("forward", (view.address, address, ref_level))
        forwarded += 1
        yield Resolve(address, payload)


# -- range queries over the order-preserving key space -------------------------


def key_in_range(key: str, low: str, high: str) -> bool:
    """Whether *key*'s interval intersects the ``[low, high]`` range.

    Entries may be indexed under keys longer or shorter than the range
    bounds; compare by padding to the bound length (a shorter key covers
    the whole subtree, so it matches if any leaf under it does).
    """
    width = len(low)
    if len(key) >= width:
        truncated = key[:width]
        return low <= truncated <= high
    first = key + "0" * (width - len(key))
    last = key + "1" * (width - len(key))
    return not (last < low or first > high)


def run_range(
    low: str,
    high: str,
    *,
    cover: list[str],
    search: Callable[[str], Any],
    fetch: Callable[[Address, str], Iterable[Any]],
) -> tuple[list[Address], list[Any], int, int, float]:
    """Range-scan orchestration shared by both drivers.

    *search* runs one subtree-enumerating breadth search for a cover
    prefix (returning anything with ``responders`` / ``messages`` /
    ``failed_attempts`` / ``retry_delay``); *fetch* returns a responder's
    index entries for a prefix.  Responders are deduplicated across
    cover prefixes in first-seen order; entries are deduplicated by
    ``(key, holder)`` keeping the highest version, filtered to the range
    and returned sorted.

    Returns ``(responders, data_refs, messages, failed, retry_delay)``.
    """
    responders: list[Address] = []
    seen_responders: set[Address] = set()
    refs: dict[tuple[str, Address], Any] = {}
    messages = 0
    failed = 0
    retry_delay = 0.0
    for prefix in cover:
        result = search(prefix)
        messages += result.messages
        failed += result.failed_attempts
        retry_delay += result.retry_delay
        for responder in result.responders:
            if responder not in seen_responders:
                seen_responders.add(responder)
                responders.append(responder)
            for ref in fetch(responder, prefix):
                if key_in_range(ref.key, low, high):
                    key = (ref.key, ref.holder)
                    existing = refs.get(key)
                    if existing is None or ref.version > existing.version:
                        refs[key] = ref
    data_refs = sorted(refs.values(), key=lambda r: (r.key, r.holder))
    return responders, data_refs, messages, failed, retry_delay


# -- repeated depth-first search (§5.2 update strategy 1) ----------------------


def repeated_queries(
    run_one: Callable[[], Any], times: int
) -> tuple[set[Address], int, int]:
    """Run *times* independent searches; return (responders, messages,
    failed attempts).

    Random reference choice makes repetitions land on different replicas,
    which is what update strategy (1) of §3 exploits.  *run_one* returns
    anything with ``found`` / ``responder`` / ``messages`` /
    ``failed_attempts`` (a core or networked search outcome).
    """
    if times < 1:
        raise ValueError(f"times must be >= 1, got {times}")
    responders: set[Address] = set()
    messages = 0
    failed = 0
    for _ in range(times):
        result = run_one()
        messages += result.messages
        failed += result.failed_attempts
        if result.found and result.responder is not None:
            responders.add(result.responder)
    return responders, messages, failed
