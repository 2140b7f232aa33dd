"""The randomized P-Grid construction algorithm (paper §3, Fig. 3).

Whenever two peers meet they execute ``exchange``: depending on the relation
between their paths they either split the search space (case 1), specialize
the shorter path against the longer one (cases 2/3), or — having already
diverged — forward each other to their own references for recursive
exchanges (case 4).  Meetings are driven by :mod:`repro.sim.meetings`; the
pairwise protocol itself lives in the sans-I/O machine
:func:`repro.protocol.exchange.exchange_step` — this module is its direct
driver facade and keeps the statistics.

Pseudo-code fidelity notes (see DESIGN.md §4):

* ``IF lc > 0`` guards only the reference-exchange block — the CASE analysis
  must run for ``lc = 0`` too, otherwise the initial all-empty-path
  population could never bootstrap (case 1 with ``lc = 0`` is the very first
  split any pair performs).
* The counter ``e`` reported by §5.1 counts *calls to the exchange
  function*, including recursive ones; :attr:`ExchangeStats.calls` matches.
* Table 4 vs. table 5: the original algorithm recurses into *every*
  reference at the divergence level, which makes ``e`` explode with
  ``refmax``; the paper's fix limits recursion to a bounded random subset.
  ``PGridConfig.recursion_fanout`` selects between the two.
* When both peers already hold the same *complete* path (``lc == maxl``)
  no case fires, but the peers are replicas: they record each other as
  *buddies* (update strategy 2 of §3 relies on these lists) and
  anti-entropy their leaf-level index entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.grid import PGrid
from repro.core.peer import Address, Peer
from repro.obs.probe import Probe
from repro.protocol.direct import run_exchange
from repro.protocol.exchange import (
    ExchangeContext,
    exchange_refs_default,
    may_specialize,
)

__all__ = ["ExchangeStats", "ExchangeEngine"]


@dataclass
class ExchangeStats:
    """Counters accumulated across ``exchange`` executions."""

    calls: int = 0
    meetings: int = 0
    case1_splits: int = 0
    case2_specializations: int = 0
    case3_specializations: int = 0
    case4_recursions: int = 0
    buddy_links: int = 0
    ref_handover_entries: int = 0
    ref_handover_lost: int = 0
    case_counts: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy for experiment records."""
        return {
            "calls": self.calls,
            "meetings": self.meetings,
            "case1_splits": self.case1_splits,
            "case2_specializations": self.case2_specializations,
            "case3_specializations": self.case3_specializations,
            "case4_recursions": self.case4_recursions,
            "buddy_links": self.buddy_links,
            "ref_handover_entries": self.ref_handover_entries,
            "ref_handover_lost": self.ref_handover_lost,
        }


class ExchangeEngine:
    """Executes the Fig. 3 protocol on a :class:`PGrid`.

    ``probe`` receives one ``on_meeting`` per top-level meeting and one
    ``on_exchange_case`` per CASE action fired (including recursive
    exchanges); ``None`` disables observation.

    ``balancer`` (a :class:`repro.replication.ReplicaBalancer`) is given
    each finished meeting as a replication opportunity — the Spiral-Walk
    idea of replicating along contacts the protocol makes anyway.
    ``None``, or a balancer whose strategy/thresholds never fire, leaves
    every run bit-identical to an unbalanced one (the balancer draws no
    RNG; property-tested like probes and fault plans).
    """

    def __init__(
        self,
        grid: PGrid,
        *,
        probe: Probe | None = None,
        balancer=None,
    ) -> None:
        self.grid = grid
        self.config = grid.config
        self.probe = probe
        self.balancer = balancer
        self.stats = ExchangeStats()
        self._ctx = ExchangeContext(
            self.config,
            grid.rng,
            self.stats,
            exchange_refs=self._exchange_refs,
            split_gate=self._may_specialize,
            observed=probe is not None,
        )

    # -- public entry point ------------------------------------------------------

    def meet(self, address1: Address, address2: Address) -> int:
        """One random meeting: run ``exchange(a1, a2, 0)``.

        Returns the number of ``exchange`` calls the meeting triggered
        (1 plus any case-4 recursion).
        """
        if address1 == address2:
            raise ValueError("a peer cannot meet itself")
        before = self.stats.calls
        self.stats.meetings += 1
        if self.probe is not None:
            self.probe.on_meeting(address1, address2)
        ctx = self._ctx
        ctx.observed = self.probe is not None
        run_exchange(
            self.grid,
            ctx,
            self.probe,
            self.grid.peer(address1),
            self.grid.peer(address2),
            0,
        )
        if self.balancer is not None:
            self.balancer.after_meeting(address1, address2)
        return self.stats.calls - before

    # -- subclass hooks -----------------------------------------------------------

    def _may_specialize(self, peer: Peer) -> bool:
        """Data-driven split gate (§3's threshold hint); see
        :func:`repro.protocol.exchange.may_specialize`."""
        return may_specialize(peer, self.config)

    def _exchange_refs(self, a1: Peer, a2: Peer, lc: int) -> None:
        """Union + re-sample the reference sets at the shared level ``lc``.

        :class:`repro.sim.topology.ProximityExchangeEngine` overrides this
        to retain nearest references instead of a uniform re-sample.
        """
        exchange_refs_default(a1, a2, lc, self.grid.rng)
