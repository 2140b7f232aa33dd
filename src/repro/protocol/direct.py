"""Direct driver: execute protocol machines against an in-process grid.

This is the thin I/O layer behind the classic engines
(:class:`repro.core.search.SearchEngine`,
:class:`repro.core.updates.UpdateEngine`,
:class:`repro.core.exchange.ExchangeEngine`): one loop, :func:`_run`,
that answers

* :class:`Contact` from the grid's membership + online oracle (``GONE``
  for a departed peer — no RNG draw; one availability draw otherwise),
* :class:`Resolve` by running the machine for the target peer to
  completion, sharing the operation's budget/stats/traversal state (a
  direct call *is* synchronous message delivery) — the nested machines
  live on an explicit stack, so a walk is bounded by its message budget,
  not by Python's recursion limit,
* :class:`FetchBuddies` from the peer's buddy set (sorted),
* :class:`Record` via the shared probe dispatch.

The networked twin lives in :class:`repro.net.node.PGridNode`, which
answers the same effects over the transport.
"""

from __future__ import annotations

from typing import Any

from repro.protocol.contact import Budget, Context, StepStats, contact_step
from repro.protocol.effects import (
    GONE,
    OFFLINE,
    OK,
    Contact,
    FetchBuddies,
    Record,
    Resolve,
    dispatch_record,
)
from repro.protocol.exchange import ExchangeContext, exchange_step
from repro.protocol.search import Traversal, breadth_step, dfs_step
from repro.protocol.update import buddy_forward_step

__all__ = [
    "contact_status", "run_contact", "run_dfs", "run_breadth", "run_exchange", "run_buddies"
]


def contact_status(grid, target):
    """The grid's answer to a Contact (the node loops' on a spent budget)."""
    if not grid.has_peer(target):
        return GONE
    if not grid.is_online(target):
        return OFFLINE
    return OK


def _run(grid: Any, probe: Any, machine, resolve=None):
    """Run *machine* to completion; returns its result.

    The walk is kept on an explicit stack of machines, not on the Python
    call stack: a :class:`Resolve` pushes ``resolve(effect)`` — the
    target's step — and that step's return value answers the
    ``Resolve``.  Effects are answered in the order a recursive driver
    would answer them, so RNG streams and counts are the same; only the
    walk's length is no longer bounded by the interpreter's recursion
    limit.
    """
    stack = [machine]
    response = None
    while True:
        try:
            effect = stack[-1].send(response)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                return stop.value
            response = stop.value
            continue
        cls = type(effect)
        if cls is Contact:
            response = contact_status(grid, effect.target)
        elif cls is Resolve:
            stack.append(resolve(effect))
            response = None
        elif cls is Record:
            dispatch_record(probe, effect)
            response = None
        elif cls is FetchBuddies:
            response = sorted(grid.peer(effect.target).buddies)
        else:
            raise TypeError(f"unexpected effect: {effect!r}")


def run_contact(grid: Any, ctx: Context, owner: Any, target: Any, level: int) -> bool:
    """Contact *owner*'s level-*level* reference *target* under
    :func:`contact_step`'s retry and eviction rule; returns whether it
    answered (the caller reports a success to the healer)."""
    return _run(grid, None, contact_step(ctx, StepStats(), owner, target, level, None))


def run_dfs(
    grid: Any,
    ctx: Context,
    probe: Any,
    view: Any,
    query: str,
    level: int,
    budget: Budget,
    stats: StepStats,
):
    """Execute the Fig. 2 machine from *view*; returns (found, responder)."""

    def resolve(effect):
        step = effect.payload
        return dfs_step(
            grid.peer(effect.target), step.query, step.level, ctx, budget, stats, step.prefix
        )

    return _run(grid, probe, dfs_step(view, query, level, ctx, budget, stats), resolve)


def run_breadth(
    grid: Any,
    ctx: Context,
    probe: Any,
    view: Any,
    query: str,
    level: int,
    trav: Traversal,
) -> None:
    """Execute the breadth-first machine from *view* (mutates *trav*)."""

    def resolve(effect):
        payload = effect.payload
        return breadth_step(
            grid.peer(effect.target), payload.query, payload.level, ctx, trav
        )

    _run(grid, probe, breadth_step(view, query, level, ctx, trav), resolve)


def run_exchange(
    grid: Any,
    ctx: ExchangeContext,
    probe: Any,
    a1: Any,
    a2: Any,
    depth: int,
) -> None:
    """Execute one Fig. 3 exchange (including case-4 recursion)."""

    def resolve(effect):
        # exchange(partner, peer(r), depth): the *contacted* peer is the
        # second argument of the recursive call.
        payload = effect.payload
        return exchange_step(
            grid.peer(payload.partner), grid.peer(effect.target), payload.depth, ctx
        )

    _run(grid, probe, exchange_step(a1, a2, depth, ctx), resolve)


def run_buddies(
    grid: Any,
    reached: set[int],
    messages: int,
    failed: int,
    attempts: int,
) -> tuple[set[int], int, int]:
    """Execute the buddy-forwarding hop (§3 update strategy 2)."""
    return _run(grid, None, buddy_forward_step(reached, messages, failed, attempts))
