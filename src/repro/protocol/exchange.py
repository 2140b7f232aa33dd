"""Sans-I/O Fig. 3 ``exchange``: the randomized construction protocol.

The pairwise CASE analysis (split / specialize / recurse) operates on the
two *local* peer states the meeting brings together — mutating paths,
routing tables and stores is peer-local work, not I/O — while the case-4
recursion, the only step that reaches *other* peers, is expressed as
:class:`Contact` (liveness check of the referenced peer) +
:class:`Resolve` (run the sub-exchange there) effects, so a driver
decides how referenced peers are reached.

Pseudo-code fidelity notes (see DESIGN.md §4):

* ``IF lc > 0`` guards only the reference-exchange block — the CASE
  analysis must run for ``lc = 0`` too, otherwise the initial
  all-empty-path population could never bootstrap.
* §5.1's counter ``e`` counts *calls to the exchange function*,
  including recursive ones; ``stats.calls`` matches.
* The table-5 fix bounds case-4 recursion to ``recursion_fanout`` random
  references per side (``None`` = the original table-4 behaviour).
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.core import keys as keyspace
from repro.protocol.effects import OK, Contact, ExchangeStep, Record, Resolve

__all__ = [
    "ExchangeContext",
    "exchange_step",
    "exchange_refs_default",
    "may_specialize",
    "case1_split",
    "case23_specialize",
    "case4_candidates",
    "record_replicas",
    "handover_refs",
]


class ExchangeContext:
    """Collaborators one exchange run consults.

    ``stats`` is a duck-typed :class:`repro.core.exchange.ExchangeStats`;
    ``exchange_refs(a1, a2, lc)`` is the shared-level reference-exchange
    hook (overridable — proximity construction retains nearest references
    instead of a uniform re-sample); ``split_gate(peer)`` the data-driven
    split threshold.
    """

    __slots__ = ("config", "rng", "stats", "exchange_refs", "split_gate", "observed")

    def __init__(
        self,
        config: Any,
        rng: random.Random,
        stats: Any,
        *,
        exchange_refs: Callable[[Any, Any, int], None],
        split_gate: Callable[[Any], bool],
        observed: bool = False,
    ) -> None:
        self.config = config
        self.rng = rng
        self.stats = stats
        self.exchange_refs = exchange_refs
        self.split_gate = split_gate
        self.observed = observed


def exchange_step(a1: Any, a2: Any, depth: int, ctx: ExchangeContext):
    """One ``exchange(a1, a2, depth)`` call (Fig. 3)."""
    stats = ctx.stats
    stats.calls += 1
    config = ctx.config
    commonpath = keyspace.common_prefix(a1.path, a2.path)
    lc = len(commonpath)

    if lc > 0:
        ctx.exchange_refs(a1, a2, lc)

    l1 = a1.depth - lc
    l2 = a2.depth - lc

    if l1 == 0 and l2 == 0:
        if lc < config.maxl and ctx.split_gate(a1) and ctx.split_gate(a2):
            case1_split(a1, a2, lc, stats)
            if ctx.observed:
                yield Record(
                    "exchange_case", ("case1", a1.address, a2.address, lc, depth)
                )
        else:
            # Identical paths that will not split further (depth or
            # data threshold reached): the peers are replicas.
            record_replicas(a1, a2, stats)
            if ctx.observed:
                yield Record(
                    "exchange_case", ("replicas", a1.address, a2.address, lc, depth)
                )
    elif l1 == 0 and l2 > 0:
        if lc < config.maxl and ctx.split_gate(a1):
            case23_specialize(shorter=a1, longer=a2, lc=lc, rng=ctx.rng, stats=stats)
            stats.case2_specializations += 1
            if ctx.observed:
                yield Record(
                    "exchange_case", ("case2", a1.address, a2.address, lc, depth)
                )
    elif l1 > 0 and l2 == 0:
        if lc < config.maxl and ctx.split_gate(a2):
            case23_specialize(shorter=a2, longer=a1, lc=lc, rng=ctx.rng, stats=stats)
            stats.case3_specializations += 1
            if ctx.observed:
                yield Record(
                    "exchange_case", ("case3", a1.address, a2.address, lc, depth)
                )
    else:  # l1 > 0 and l2 > 0: paths diverge at bit lc + 1
        if depth < config.recmax:
            if ctx.observed:
                yield Record(
                    "exchange_case", ("case4", a1.address, a2.address, lc, depth)
                )
            refs1, refs2 = case4_candidates(a1, a2, lc, ctx)
            stats.case4_recursions += 1
            for address in refs1:
                if address != a2.address:
                    step = ExchangeStep(a2.address, depth + 1)
                    status = yield Contact(address, lc + 1, step)
                    if status is OK:
                        yield Resolve(address, step)
            for address in refs2:
                if address != a1.address:
                    step = ExchangeStep(a1.address, depth + 1)
                    status = yield Contact(address, lc + 1, step)
                    if status is OK:
                        yield Resolve(address, step)


# -- reference exchange at shared levels ---------------------------------------


def exchange_refs_default(a1: Any, a2: Any, lc: int, rng: random.Random) -> None:
    """Union + re-sample the reference sets at the deepest shared level ``lc``."""
    combined = [
        address
        for address in (*a1.routing.refs(lc), *a2.routing.refs(lc))
        if address not in (a1.address, a2.address)
    ]
    if combined:
        a1.routing.merge_refs(lc, combined, rng)
        a2.routing.merge_refs(lc, combined, rng)


def may_specialize(peer: Any, config: Any) -> bool:
    """Data-driven split gate (§3's threshold hint).

    With ``split_min_items`` unset every split is allowed (the paper's
    default).  Otherwise a peer only deepens its path while it is
    responsible for at least that many index entries — splitting a
    near-empty region buys nothing and costs references.
    """
    threshold = config.split_min_items
    if threshold is None:
        return True
    return peer.store.ref_count >= threshold


# -- case 1: both remaining paths empty — introduce a new level ----------------


def case1_split(a1: Any, a2: Any, lc: int, stats: Any) -> None:
    a1.extend_path("0")
    a2.extend_path("1")
    a1.routing.set_refs(lc + 1, [a2.address])
    a2.routing.set_refs(lc + 1, [a1.address])
    handover_refs(a1, a2, stats)
    handover_refs(a2, a1, stats)
    stats.case1_splits += 1


# -- cases 2/3: one path is a prefix of the other — specialize the shorter -----


def case23_specialize(
    *, shorter: Any, longer: Any, lc: int, rng: random.Random, stats: Any
) -> None:
    """The shorter peer takes the branch *opposite* the longer peer's.

    This opposite choice is the paper's balancing mechanism: imbalances
    in bit popularity are compensated because newcomers fill the less
    covered side.
    """
    opposite = keyspace.complement_bit(longer.path[lc])
    shorter.extend_path(opposite)
    shorter.routing.set_refs(lc + 1, [longer.address])
    longer.routing.merge_refs(lc + 1, [shorter.address], rng)
    handover_refs(shorter, longer, stats)


# -- case 4: already diverged — forward to referenced peers --------------------


def case4_candidates(a1: Any, a2: Any, lc: int, ctx: ExchangeContext):
    """The (possibly fanout-bounded) sets the pair is forwarded to (Fig. 3)."""
    refs1 = [r for r in a1.routing.refs(lc + 1) if r != a2.address]
    refs2 = [r for r in a2.routing.refs(lc + 1) if r != a1.address]
    fanout = ctx.config.recursion_fanout
    if fanout is not None:
        rng = ctx.rng
        if len(refs1) > fanout:
            refs1 = rng.sample(refs1, fanout)
        if len(refs2) > fanout:
            refs2 = rng.sample(refs2, fanout)
    return refs1, refs2


# -- replicas: identical complete paths ----------------------------------------


def record_replicas(a1: Any, a2: Any, stats: Any) -> None:
    """Identical paths at ``maxl``: buddy links + index anti-entropy."""
    a1.add_buddy(a2.address)
    a2.add_buddy(a1.address)
    a1.merge_buddies(a2.buddies)
    a2.merge_buddies(a1.buddies)
    a1.buddies.discard(a1.address)
    a2.buddies.discard(a2.address)
    stats.buddy_links += 1
    for ref in list(a1.store.iter_refs()):
        a2.store.add_ref(ref)
    for ref in list(a2.store.iter_refs()):
        a1.store.add_ref(ref)


# -- index hand-over on specialization -----------------------------------------


def handover_refs(specialized: Any, partner: Any, stats: Any) -> None:
    """Move index entries that left *specialized*'s responsibility.

    Entries covered by the partner's (possibly deeper) path move there;
    entries the partner does not cover are counted as lost — in a
    deployed system they would be re-inserted via a search, which the
    update engine models explicitly.
    """
    dropped = specialized.store.drop_refs_outside(specialized.path)
    for ref in dropped:
        if keyspace.in_prefix_relation(ref.key, partner.path):
            partner.store.add_ref(ref)
            stats.ref_handover_entries += 1
        else:
            stats.ref_handover_lost += 1
