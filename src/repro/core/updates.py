"""Update propagation and read strategies over replicas (paper §3 and §5.2).

An update must reach *all* peers responsible for a key — not just one, as a
search does.  The paper compares three propagation strategies:

1. **Repeated depth-first search** — run the Fig. 2 search several times;
   random reference choice scatters the repetitions over different replicas.
2. **Depth-first + buddies** — every replica reached additionally forwards
   the update to the buddies it learned during construction.
3. **Breadth-first search** — fan out ``recbreadth``-wide at every routing
   level, reaching many replicas in one pass (the clear winner in Fig. 5).

§5.2's second insight is the *repeated-query* trick: instead of paying for
near-complete update coverage, update a modest fraction of replicas and
repeat queries until a fresh replica answers (or take a majority vote) —
trading a small per-query overhead for a drastic insertion-cost reduction
(table 6).  :class:`ReadEngine` implements single, repeated-until-fresh and
majority reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import keys as keyspace
from repro.core.config import UpdateConfig
from repro.core.grid import PGrid
from repro.core.peer import Address
from repro.core.results import ContactAccounting
from repro.core.search import SearchEngine
from repro.core.storage import DataItem, DataRef
from repro.obs.probe import Probe
from repro.protocol import read as protocol_read
from repro.protocol.direct import run_buddies
from repro.protocol.update import UpdateStrategy, discover_replicas

__all__ = ["UpdateStrategy", "UpdateResult", "ReadResult", "UpdateEngine", "ReadEngine"]


@dataclass
class UpdateResult(ContactAccounting):
    """Outcome of one update propagation."""

    key: str
    version: int
    reached: set[Address]
    messages: int
    failed_attempts: int
    replica_count: int

    @property
    def found(self) -> bool:
        """Whether the update reached at least one replica."""
        return bool(self.reached)

    @property
    def coverage(self) -> float:
        """Fraction of existing replicas that received the update."""
        if self.replica_count == 0:
            return 0.0
        return len(self.reached) / self.replica_count


@dataclass
class ReadResult(ContactAccounting):
    """Outcome of one read (query for an index entry)."""

    key: str
    success: bool
    messages: int
    failed_attempts: int
    repetitions: int

    @property
    def found(self) -> bool:
        """Alias of ``success`` (the shared result protocol's name)."""
        return self.success


class UpdateEngine:
    """Propagates index-entry updates through a :class:`PGrid`.

    ``config`` supplies the default ``recbreadth``/``repetition`` for calls
    that do not override them explicitly (experiments sweep them per call;
    applications typically fix them once here).

    ``retry`` (a duck-typed :class:`repro.faults.RetryPolicy`) is
    forwarded to the default-built search engine and also governs the
    buddy-forwarding hop: an offline buddy is re-contacted per the policy
    before being counted as missed.  When an explicit ``search`` engine
    is supplied it keeps its own retry/healer configuration; only the
    buddy hop uses ``retry`` here.

    ``balancer`` (a :class:`repro.replication.ReplicaBalancer`) is
    offered the replica set each propagation reached — update traffic
    walks the same trie as searches, so the peers it contacts are
    replication opportunities too.  ``None``, or a balancer that never
    fires, changes nothing (no RNG, no state).
    """

    def __init__(
        self,
        grid: PGrid,
        *,
        search: SearchEngine | None = None,
        config: UpdateConfig | None = None,
        probe: Probe | None = None,
        retry=None,
        balancer=None,
    ) -> None:
        self.grid = grid
        self.search = search or SearchEngine(grid, probe=probe, retry=retry)
        self.config = config or UpdateConfig()
        self.probe = probe
        self.retry = retry
        self.balancer = balancer

    # -- insertion / update ------------------------------------------------------

    def publish(
        self,
        start: Address,
        item: DataItem,
        holder: Address,
        *,
        strategy: UpdateStrategy = UpdateStrategy.BFS,
        repetition: int | None = None,
        recbreadth: int | None = None,
        version: int = 0,
    ) -> UpdateResult:
        """Insert (or re-publish) the index entry for *item* stored at
        *holder*, starting the propagation search at peer *start*.
        """
        self.grid.peer(holder).store.store_item(item)
        ref = DataRef(key=item.key, holder=holder, version=version)
        return self.propagate(
            start, ref, strategy=strategy, repetition=repetition, recbreadth=recbreadth
        )

    def propagate(
        self,
        start: Address,
        ref: DataRef,
        *,
        strategy: UpdateStrategy = UpdateStrategy.BFS,
        repetition: int | None = None,
        recbreadth: int | None = None,
    ) -> UpdateResult:
        """Deliver *ref* to as many responsible peers as the strategy finds.

        Message accounting follows §5.2: every successful contact of another
        peer counts one message (the update rides on the search contact;
        buddy forwards are additional contacts).
        """
        repetition = (
            self.config.repetition if repetition is None else repetition
        )
        recbreadth = (
            self.config.recbreadth if recbreadth is None else recbreadth
        )
        if repetition < 1:
            raise ValueError(f"repetition must be >= 1, got {repetition}")
        keyspace.validate_key(ref.key)
        reached, messages, failed = self._find_replicas(
            start, ref.key, strategy=strategy, repetition=repetition,
            recbreadth=recbreadth,
        )
        for address in reached:
            self.grid.peer(address).store.add_ref(ref)
        if self.balancer is not None and reached:
            self.balancer.after_update(reached)
        if self.probe is not None:
            self.probe.on_update(
                ref.key,
                strategy.value,
                reached=len(reached),
                messages=messages,
                failed_attempts=failed,
            )
        return UpdateResult(
            key=ref.key,
            version=ref.version,
            reached=reached,
            messages=messages,
            failed_attempts=failed,
            replica_count=self.grid.replica_count(ref.key),
        )

    def retract(
        self,
        start: Address,
        key: str,
        holder: Address,
        *,
        version: int,
        strategy: UpdateStrategy = UpdateStrategy.BFS,
        repetition: int | None = None,
        recbreadth: int | None = None,
    ) -> UpdateResult:
        """Delete an index entry by propagating its tombstone.

        The tombstone carries ``version`` (which must supersede the live
        entry's version); replicas that receive it stop answering lookups
        for the (key, holder) pair while keeping the marker so stale
        re-publishes cannot resurrect it.
        """
        tombstone = DataRef(key=key, holder=holder, version=version, deleted=True)
        return self.propagate(
            start,
            tombstone,
            strategy=strategy,
            repetition=repetition,
            recbreadth=recbreadth,
        )

    # -- replica discovery (Fig. 5 measurement core) -------------------------------

    def _find_replicas(
        self,
        start: Address,
        key: str,
        *,
        strategy: UpdateStrategy,
        repetition: int,
        recbreadth: int,
    ) -> tuple[set[Address], int, int]:
        return discover_replicas(
            key,
            strategy=strategy,
            repetition=repetition,
            recbreadth=recbreadth,
            run_query=lambda: self.search.query_from(start, key),
            run_breadth=lambda rb: self.search.query_breadth(start, key, rb),
            forward_to_buddies=self._forward_to_buddies,
        )

    def find_replicas(
        self,
        start: Address,
        key: str,
        *,
        strategy: UpdateStrategy,
        repetition: int | None = None,
        recbreadth: int | None = None,
    ) -> tuple[set[Address], int, int]:
        """Public replica-discovery probe: (reached, messages, failures).

        Used directly by the Fig. 5 experiment, which measures coverage
        without actually writing.
        """
        repetition = (
            self.config.repetition if repetition is None else repetition
        )
        recbreadth = (
            self.config.recbreadth if recbreadth is None else recbreadth
        )
        if repetition < 1:
            raise ValueError(f"repetition must be >= 1, got {repetition}")
        keyspace.validate_key(key)
        return self._find_replicas(
            start, key, strategy=strategy, repetition=repetition,
            recbreadth=recbreadth,
        )

    def _forward_to_buddies(
        self, reached: set[Address], messages: int, failed: int
    ) -> tuple[set[Address], int, int]:
        """Strategy 2's second hop: replicas forward to their buddy lists
        (the :func:`repro.protocol.update.buddy_forward_step` machine,
        driven in-process)."""
        attempts = self.retry.attempts if self.retry is not None else 1
        return run_buddies(self.grid, reached, messages, failed, attempts)


class ReadEngine:
    """Query strategies for reading possibly partially-updated entries."""

    def __init__(
        self,
        grid: PGrid,
        *,
        search: SearchEngine | None = None,
        probe: Probe | None = None,
    ) -> None:
        self.grid = grid
        self.search = search or SearchEngine(grid, probe=probe)
        self.probe = probe

    def _finish(self, result: ReadResult) -> ReadResult:
        if self.probe is not None:
            self.probe.on_read(
                result.key,
                success=result.success,
                messages=result.messages,
                failed_attempts=result.failed_attempts,
                repetitions=result.repetitions,
            )
        return result

    def _responder_is_fresh(
        self, responder: Address, key: str, holder: Address, version: int
    ) -> bool:
        stored = self.grid.peer(responder).store.version_of(key, holder)
        return stored is not None and stored >= version

    def _strategies(self, start: Address, key: str, holder: Address, version: int):
        """The injected callables the sans-I/O read strategies consume."""
        query = lambda: self.search.query_from(start, key)  # noqa: E731
        is_fresh = lambda responder: self._responder_is_fresh(  # noqa: E731
            responder, key, holder, version
        )
        return query, is_fresh

    def read_single(
        self, start: Address, key: str, holder: Address, version: int
    ) -> ReadResult:
        """Non-repetitive search: one Fig. 2 query; success iff the replica
        that answers already holds *version* of the entry (table 6, lower
        half)."""
        query, is_fresh = self._strategies(start, key, holder, version)
        success, messages, failed, repetitions = protocol_read.read_single(
            query, is_fresh
        )
        return self._finish(
            ReadResult(
                key=key,
                success=success,
                messages=messages,
                failed_attempts=failed,
                repetitions=repetitions,
            )
        )

    def read_repeated(
        self,
        start: Address,
        key: str,
        holder: Address,
        version: int,
        *,
        max_repetitions: int = 200,
    ) -> ReadResult:
        """Repetitive search (table 6, upper half): re-query until a fresh
        replica answers, accumulating message cost.

        The paper repeats until success; we bound the loop defensively and
        report failure if the bound is hit (which the experiments never do
        once at least one replica was updated).
        """
        query, is_fresh = self._strategies(start, key, holder, version)
        success, messages, failed, repetitions = protocol_read.read_repeated(
            query, is_fresh, max_repetitions=max_repetitions
        )
        return self._finish(
            ReadResult(
                key=key,
                success=success,
                messages=messages,
                failed_attempts=failed,
                repetitions=repetitions,
            )
        )

    def read_majority(
        self, start: Address, key: str, holder: Address, version: int, *, votes: int = 3
    ) -> ReadResult:
        """Majority read (§5.2 discussion): query *votes* times and succeed
        if strictly more than half of the answering replicas are fresh."""
        query, is_fresh = self._strategies(start, key, holder, version)
        success, messages, failed, repetitions = protocol_read.read_majority(
            query, is_fresh, votes=votes
        )
        return self._finish(
            ReadResult(
                key=key,
                success=success,
                messages=messages,
                failed_attempts=failed,
                repetitions=repetitions,
            )
        )
