"""The probe interface: runtime visibility hooks for every engine.

All engines (:class:`~repro.core.search.SearchEngine`,
:class:`~repro.core.exchange.ExchangeEngine`,
:class:`~repro.core.updates.UpdateEngine` / ``ReadEngine``,
:class:`~repro.core.membership.MembershipEngine`,
:class:`~repro.core.shortcuts.ShortcutSearchEngine`) and the simulated
transport (:class:`~repro.net.transport.LocalTransport`) accept a
keyword-only ``probe``.  Since the sans-I/O refactor the decision points
live in the :mod:`repro.protocol` machines, which emit
:class:`~repro.protocol.effects.Record` effects (only when the driver's
``Context.observed`` flag is set); the direct driver translates each
``Record`` into the matching hook call here — every successful contact
(a *message* in the §5.2 cost model), every offline miss, every
backtrack of the depth-first search, every CASE action of the exchange
protocol — while the engines themselves fire the operation-level
start/end hooks.

Design constraints:

* **Zero overhead when disabled.**  With ``probe=None`` the machines run
  with ``observed=False`` and never construct a ``Record``; an
  uninstrumented run pays one flag check per decision point, nothing
  more.
* **Observation must not perturb the simulation.**  Probes receive plain
  values (addresses, levels, counters), never mutable engine state, and
  must not draw from the grid's RNG.  The property tests assert that an
  instrumented run is bit-identical (results *and* RNG stream) to an
  uninstrumented one.

:class:`Probe` is a base class whose hooks are all no-ops; implementations
override only what they need (see :class:`~repro.obs.metrics.MetricsProbe`
and :class:`~repro.obs.trace.TraceRecorder`).  :class:`CompositeProbe`
fans every hook out to several probes (e.g. metrics + trace in one run).
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["Probe", "CompositeProbe"]

# ``Address`` is ``int`` in repro.core.peer; obs stays dependency-light and
# does not import the core layer.
Address = int


class Probe:
    """No-op observability hooks; subclass and override selectively."""

    # -- search (Fig. 2 depth-first, breadth-first, range) --------------------

    def on_search_start(self, kind: str, start: Address, query: str) -> None:
        """A search of *kind* (``dfs``/``bfs``/``range``) begins at *start*."""

    def on_search_end(
        self,
        kind: str,
        start: Address,
        query: str,
        *,
        found: bool,
        messages: int,
        failed_attempts: int,
        latency: float = 0.0,
    ) -> None:
        """The search finished with the given aggregate cost."""

    def on_forward(self, source: Address, target: Address, level: int) -> None:
        """A successful contact: *source* forwarded the query to *target*.

        One ``on_forward`` is one *message* in the paper's cost model.
        """

    def on_offline_miss(self, source: Address, target: Address, level: int) -> None:
        """A contact attempt hit an offline (or departed) peer."""

    def on_backtrack(self, peer: Address, level: int) -> None:
        """A forwarded subtree returned empty; *peer* tries the next ref."""

    def on_responsible(self, peer: Address, level: int) -> None:
        """The query terminated: *peer* is responsible for the suffix."""

    # -- shortcut cache --------------------------------------------------------

    def on_shortcut(self, event: str, start: Address, query: str) -> None:
        """Shortcut cache activity: ``hit``, ``miss`` or ``invalidate``."""

    # -- exchange (Fig. 3 construction) ---------------------------------------

    def on_meeting(self, peer1: Address, peer2: Address) -> None:
        """A random meeting starts (top-level ``exchange`` call)."""

    def on_exchange_case(
        self, case: str, peer1: Address, peer2: Address, lc: int, depth: int
    ) -> None:
        """One CASE action fired: ``case1``/``case2``/``case3``/``case4``
        or ``replicas`` (identical complete paths, buddy linking)."""

    # -- updates / reads -------------------------------------------------------

    def on_update(
        self,
        key: str,
        strategy: str,
        *,
        reached: int,
        messages: int,
        failed_attempts: int,
    ) -> None:
        """An update propagation finished, reaching *reached* replicas."""

    def on_read(
        self,
        key: str,
        *,
        success: bool,
        messages: int,
        failed_attempts: int,
        repetitions: int,
    ) -> None:
        """A read strategy finished."""

    # -- replication (query-load-driven balancing) -----------------------------

    def on_replication(
        self, event: str, address: Address, old_path: str, new_path: str
    ) -> None:
        """The replica balancer changed *address*'s position.

        *event* is currently always ``convert``: the peer retracted from
        its ``old_path`` replica group and became a replica of
        ``new_path`` (see :mod:`repro.replication`).
        """

    # -- membership -----------------------------------------------------------

    def on_join(self, address: Address, *, meetings: int, exchanges: int) -> None:
        """A newcomer finished bootstrapping."""

    def on_leave(self, address: Address, *, entries_handed_over: int) -> None:
        """A peer departed gracefully."""

    def on_repair(
        self,
        address: Address,
        *,
        dead_refs_dropped: int,
        refs_added: int,
        messages: int,
    ) -> None:
        """A repair pass over one peer's routing table finished."""

    # -- transport ------------------------------------------------------------

    def on_transport(
        self, kind: str, source: Address, target: Address, status: str
    ) -> None:
        """A transport-level send: *status* is ``delivered``, ``dropped``
        or ``offline``; *kind* is the message kind's wire name."""

    # -- async runtime (per-node mailboxes) -----------------------------------

    def on_mailbox(
        self, event: str, address: Address, *, depth: int, wait: float = 0.0
    ) -> None:
        """A mailbox event on the async transport.

        *event* is ``enqueue`` (a message entered *address*'s mailbox;
        *depth* is the number of messages waiting there, this one
        included) or ``dequeue`` (the message left the mailbox for its
        handler, which runs in the sender's task; *depth* is what is
        still waiting and *wait* how long it was parked, in wall
        seconds).  Only a closed gate
        (:meth:`~repro.aio.transport.AsyncTransport.stop`) parks a
        sender: on a started transport depth is 1 and wait 0.
        """

    # -- batch query plane (aggregate, per wave) -------------------------------

    def on_batch_wave(
        self, kind: str, *, wave: int, active: int, contacts: int, offline: int
    ) -> None:
        """One vectorized wave of the batch query engine advanced.

        Fidelity note: the batch plane reports aggregate wave counters
        (*contacts* attempted, *offline* misses, *active* queries still
        in flight) instead of the object core's per-hop
        ``on_forward``/``on_backtrack``/``on_offline_miss`` stream —
        per-hop events for 10^5 concurrent queries would serialize the
        kernels back into Python.  Use the object core for hop traces.
        """

    def on_batch_search(
        self,
        kind: str,
        *,
        queries: int,
        found: int,
        messages: int,
        failed_attempts: int,
    ) -> None:
        """A whole batch of searches completed (aggregate totals)."""


class CompositeProbe(Probe):
    """Fans every hook out to an ordered sequence of probes."""

    def __init__(self, probes: Iterable[Probe]) -> None:
        self.probes: Sequence[Probe] = tuple(probes)

    def on_search_start(self, kind: str, start: Address, query: str) -> None:
        for probe in self.probes:
            probe.on_search_start(kind, start, query)

    def on_search_end(
        self,
        kind: str,
        start: Address,
        query: str,
        *,
        found: bool,
        messages: int,
        failed_attempts: int,
        latency: float = 0.0,
    ) -> None:
        for probe in self.probes:
            probe.on_search_end(
                kind,
                start,
                query,
                found=found,
                messages=messages,
                failed_attempts=failed_attempts,
                latency=latency,
            )

    def on_forward(self, source: Address, target: Address, level: int) -> None:
        for probe in self.probes:
            probe.on_forward(source, target, level)

    def on_offline_miss(self, source: Address, target: Address, level: int) -> None:
        for probe in self.probes:
            probe.on_offline_miss(source, target, level)

    def on_backtrack(self, peer: Address, level: int) -> None:
        for probe in self.probes:
            probe.on_backtrack(peer, level)

    def on_responsible(self, peer: Address, level: int) -> None:
        for probe in self.probes:
            probe.on_responsible(peer, level)

    def on_shortcut(self, event: str, start: Address, query: str) -> None:
        for probe in self.probes:
            probe.on_shortcut(event, start, query)

    def on_meeting(self, peer1: Address, peer2: Address) -> None:
        for probe in self.probes:
            probe.on_meeting(peer1, peer2)

    def on_exchange_case(
        self, case: str, peer1: Address, peer2: Address, lc: int, depth: int
    ) -> None:
        for probe in self.probes:
            probe.on_exchange_case(case, peer1, peer2, lc, depth)

    def on_update(
        self,
        key: str,
        strategy: str,
        *,
        reached: int,
        messages: int,
        failed_attempts: int,
    ) -> None:
        for probe in self.probes:
            probe.on_update(
                key,
                strategy,
                reached=reached,
                messages=messages,
                failed_attempts=failed_attempts,
            )

    def on_read(
        self,
        key: str,
        *,
        success: bool,
        messages: int,
        failed_attempts: int,
        repetitions: int,
    ) -> None:
        for probe in self.probes:
            probe.on_read(
                key,
                success=success,
                messages=messages,
                failed_attempts=failed_attempts,
                repetitions=repetitions,
            )

    def on_replication(
        self, event: str, address: Address, old_path: str, new_path: str
    ) -> None:
        for probe in self.probes:
            probe.on_replication(event, address, old_path, new_path)

    def on_join(self, address: Address, *, meetings: int, exchanges: int) -> None:
        for probe in self.probes:
            probe.on_join(address, meetings=meetings, exchanges=exchanges)

    def on_leave(self, address: Address, *, entries_handed_over: int) -> None:
        for probe in self.probes:
            probe.on_leave(address, entries_handed_over=entries_handed_over)

    def on_repair(
        self,
        address: Address,
        *,
        dead_refs_dropped: int,
        refs_added: int,
        messages: int,
    ) -> None:
        for probe in self.probes:
            probe.on_repair(
                address,
                dead_refs_dropped=dead_refs_dropped,
                refs_added=refs_added,
                messages=messages,
            )

    def on_transport(
        self, kind: str, source: Address, target: Address, status: str
    ) -> None:
        for probe in self.probes:
            probe.on_transport(kind, source, target, status)

    def on_mailbox(
        self, event: str, address: Address, *, depth: int, wait: float = 0.0
    ) -> None:
        for probe in self.probes:
            probe.on_mailbox(event, address, depth=depth, wait=wait)

    def on_batch_wave(
        self, kind: str, *, wave: int, active: int, contacts: int, offline: int
    ) -> None:
        for probe in self.probes:
            probe.on_batch_wave(
                kind, wave=wave, active=active, contacts=contacts, offline=offline
            )

    def on_batch_search(
        self,
        kind: str,
        *,
        queries: int,
        found: int,
        messages: int,
        failed_attempts: int,
    ) -> None:
        for probe in self.probes:
            probe.on_batch_search(
                kind,
                queries=queries,
                found=found,
                messages=messages,
                failed_attempts=failed_attempts,
            )
