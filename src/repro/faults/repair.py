"""Routing self-repair: evict references that keep failing, refill the slot.

The paper's routing tables are only ever *grown* (exchange, Fig. 3); nothing
removes a reference once its target departs for good.  Under churn that is
fine — §2 models absence as temporary — but under crashes and stale
references (GeoP2P's departure scenario, see PAPERS.md) a dead reference
costs a failed contact on every traversal forever.

:class:`RefHealer` is the contact-driven eviction policy: the search and
update machines report each per-reference contact outcome
(:meth:`~RefHealer.record_failure` / :meth:`~RefHealer.record_success`),
and a Fig. 2 hop whose receiver refuses the prefix it was routed on
reports a failure too.  A reference that fails ``evict_after`` times
*consecutively* is evicted from the owner's table, and the slot is refilled
by :func:`repro.core.membership.refill_slot` — the same refill the eager
:meth:`~repro.core.membership.MembershipEngine.repair` sweep and the
replica balancer's conversions use: buddies first, then a Fig. 2 search
for the level's §2 prefix, every liveness probe and search message
counted in :attr:`HealStats.messages`.  The refill
search runs on a plain :class:`~repro.core.search.SearchEngine`, so a
refill never heals recursively.  Repairs are instrumented through the
standard :meth:`repro.obs.probe.Probe.on_repair` hook, so the metrics
vocabulary (``repair.*``) covers healer activity with no new plumbing.

The healer is deliberately *pessimistic about transients*: a single success
resets the failure counter, so ordinary churn (peer offline for one
contact) never triggers eviction at the default threshold.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.core import membership
from repro.core.search import SearchEngine
from repro.obs.probe import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.grid import PGrid

__all__ = ["RefHealer", "HealStats"]

Address = int


@dataclass
class HealStats:
    """Tally of healer activity (also exported via ``repair.*`` metrics).

    ``messages`` is what the refills cost: liveness probes plus search
    messages, the unit :attr:`repro.core.membership.RepairReport.messages`
    counts in.
    """

    failures_recorded: int = 0
    successes_recorded: int = 0
    evictions: int = 0
    refills: int = 0
    refill_failures: int = 0
    messages: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy for experiment records."""
        return asdict(self)


class RefHealer:
    """Evict a reference after ``evict_after`` consecutive contact failures
    and refill its slot."""

    def __init__(
        self,
        grid: "PGrid",
        *,
        evict_after: int = 3,
        probe: Probe | None = None,
    ) -> None:
        if evict_after < 1:
            raise ValueError(f"evict_after must be >= 1, got {evict_after}")
        self.grid = grid
        self.evict_after = evict_after
        self.probe = probe
        self.stats = HealStats()
        self.search = SearchEngine(grid)
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
        added, messages = membership.refill_slot(self.grid, self.search, peer, level, dead)
        self.stats.messages += messages
        if added:
            self.stats.refills += 1
        else:
            self.stats.refill_failures += 1
        if self.probe is not None:
            self.probe.on_repair(
                owner, dead_refs_dropped=1, refs_added=added, messages=messages
            )
