"""Routing self-repair: evict repeatedly-dead references, refill from replicas.

The paper's routing tables are only ever *grown* (exchange, Fig. 3); nothing
removes a reference once its target departs for good.  Under churn that is
fine — §2 models absence as temporary — but under crashes and stale
references (GeoP2P's departure scenario, see PAPERS.md) a dead reference
costs a failed contact on every traversal forever.

:class:`RefHealer` is the contact-driven repair loop: the search and update
engines report each per-reference contact outcome
(:meth:`~RefHealer.record_failure` / :meth:`~RefHealer.record_success`); a
reference that fails ``evict_after`` times *consecutively* is evicted from
the owner's table and the slot refilled with a live peer from the same
complementary subtree, found via the dead peer's buddy list, the buddy
lists of surviving same-level references, or the grid's replica directory.
Repairs are instrumented through the standard
:meth:`repro.obs.probe.Probe.on_repair` hook, so the PR 1 metrics
vocabulary (``repair.*``) covers healer activity with no new plumbing.

The healer is deliberately *pessimistic about transients*: a single success
resets the failure counter, so ordinary churn (peer offline for one
contact) never triggers eviction at the default threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.probe import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.grid import PGrid

__all__ = ["RefHealer", "HealStats"]

Address = int


@dataclass
class HealStats:
    """Tally of healer activity (also exported via ``repair.*`` metrics)."""

    failures_recorded: int = 0
    successes_recorded: int = 0
    evictions: int = 0
    refills: int = 0
    offline_refills: int = 0
    refill_failures: int = 0
    probes_sent: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy for experiment records."""
        return {
            "failures_recorded": self.failures_recorded,
            "successes_recorded": self.successes_recorded,
            "evictions": self.evictions,
            "refills": self.refills,
            "offline_refills": self.offline_refills,
            "refill_failures": self.refill_failures,
            "probes_sent": self.probes_sent,
        }


class RefHealer:
    """Evict a reference after ``evict_after`` consecutive contact failures.

    ``refill=False`` degrades to pure eviction (useful to isolate the two
    effects in experiments).  When no buddy-list candidate survives, the
    refill falls back on :meth:`repro.core.grid.PGrid.replicas_for_key` —
    the simulator's global view; a deployment would instead issue a
    search, but the candidate *set* is identical, so the resilience curves
    are unaffected.
    """

    def __init__(
        self,
        grid: "PGrid",
        *,
        evict_after: int = 3,
        refill: bool = True,
        probe: Probe | None = None,
    ) -> None:
        if evict_after < 1:
            raise ValueError(f"evict_after must be >= 1, got {evict_after}")
        self.grid = grid
        self.evict_after = evict_after
        self.refill = refill
        self.probe = probe
        self.stats = HealStats()
        self._failures: dict[tuple[Address, int, Address], int] = {}

    # -- contact outcome reporting ------------------------------------------------

    def record_success(self, owner: Address, level: int, ref: Address) -> None:
        """A contact through (*owner*, *level*, *ref*) got an answer."""
        self.stats.successes_recorded += 1
        self._failures.pop((owner, level, ref), None)

    def record_failure(self, owner: Address, level: int, ref: Address) -> bool:
        """A contact through (*owner*, *level*, *ref*) failed.

        Returns ``True`` if the failure crossed the threshold and the
        reference was evicted (callers should stop retrying it).
        """
        self.stats.failures_recorded += 1
        key = (owner, level, ref)
        count = self._failures.get(key, 0) + 1
        if count < self.evict_after:
            self._failures[key] = count
            return False
        self._failures.pop(key, None)
        self._evict(owner, level, ref)
        return True

    def pending_failures(self, owner: Address, level: int, ref: Address) -> int:
        """Current consecutive-failure count for one reference (tests)."""
        return self._failures.get((owner, level, ref), 0)

    # -- eviction + refill -----------------------------------------------------------

    def _evict(self, owner: Address, level: int, dead: Address) -> None:
        if not self.grid.has_peer(owner):
            return
        peer = self.grid.peer(owner)
        if not peer.routing.remove_ref(level, dead):
            return  # already gone (e.g. evicted via another owner's sweep)
        self.stats.evictions += 1
        added = 0
        probes = 0
        if self.refill:
            added, probes = self._refill(peer, level, dead)
        if self.probe is not None:
            self.probe.on_repair(
                owner, dead_refs_dropped=1, refs_added=added, messages=probes
            )

    def _refill(self, peer, level: int, dead: Address) -> tuple[int, int]:
        """Find a live replacement for the complementary subtree at *level*.

        Returns ``(refs_added, liveness_probes_sent)``.
        """
        if level > peer.depth:
            # A stale level deeper than the current path: nothing routes
            # through it, dropping was repair enough.
            return 0, 0
        target = peer.ref_prefix(level)
        current = set(peer.routing.refs(level))
        probes = 0
        fallback: Address | None = None
        for candidate in self._candidates(peer, level, dead, target):
            if candidate == peer.address or candidate in current:
                continue
            if not self.grid.has_peer(candidate):
                continue
            if not self.grid.peer(candidate).path.startswith(target):
                continue
            probes += 1
            self.stats.probes_sent += 1
            if not self.grid.is_online(candidate):
                if fallback is None:
                    fallback = candidate
                continue
            if peer.routing.add_ref(level, candidate):
                self.stats.refills += 1
                return 1, probes
            break  # table full — the evicted slot was already re-taken
        else:
            # No candidate answered the liveness probe.  Under the §2
            # availability model "offline now" is transient, so install a
            # structurally valid replica anyway rather than permanently
            # shrinking the table (it will be re-evicted if truly dead).
            if fallback is not None and peer.routing.add_ref(level, fallback):
                self.stats.refills += 1
                self.stats.offline_refills += 1
                return 1, probes
        self.stats.refill_failures += 1
        return 0, probes

    def _candidates(self, peer, level: int, dead: Address, target: str):
        """Replacement candidates, cheapest source first, deterministic order.

        1. the dead peer's own buddies (co-replicas of the lost subtree),
        2. buddies of surviving same-level references,
        3. the replica directory for the target prefix (global fallback).
        Duplicates are yielded once, in first-seen order.
        """
        seen: set[Address] = set()
        if self.grid.has_peer(dead):
            for buddy in sorted(self.grid.peer(dead).buddies):
                if buddy not in seen:
                    seen.add(buddy)
                    yield buddy
        for ref in peer.routing.refs(level):
            if not self.grid.has_peer(ref):
                continue
            for buddy in sorted(self.grid.peer(ref).buddies):
                if buddy not in seen:
                    seen.add(buddy)
                    yield buddy
        for address in self.grid.replicas_for_key(target):
            if address not in seen:
                seen.add(address)
                yield address
