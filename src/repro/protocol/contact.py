"""The per-reference contact machine and the shared protocol runtime state.

:func:`contact_step` is the one place in the codebase that encodes the
"can I reach this reference?" decision: the paper's ``IF online(peer(r))``
guard extended with PR 4's retry policy (bounded attempts, exponential
backoff, accumulated-delay deadline) and routing self-repair reporting.
Both the depth-first and breadth-first search machines and the update
strategies delegate every contact to it, so the direct engines and the
networked node cannot drift on retry semantics again.

:class:`Budget`, :class:`StepStats` and :class:`Context` are the mutable
runtime threaded through one protocol operation (one search, one update
propagation); drivers create them per call and read the tallies off
afterwards.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterator

from repro.protocol.effects import GONE, OK, Address, Contact, Record

__all__ = ["Budget", "StepStats", "Context", "contact_step"]


class Budget:
    """Mutable message budget shared across one recursive operation."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int) -> None:
        self.remaining = limit

    def consume(self) -> bool:
        """Take one message from the budget; False when exhausted."""
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


class StepStats:
    """Contact-accounting tallies of one protocol operation (§5.2).

    ``messages`` counts successful contacts, ``failed`` the offline /
    dangling attempts, ``latency`` the simulated end-to-end chain latency
    (topology-aware engines only) and ``retry_delay`` the accumulated
    simulated backoff.  Over the message driver ``retry_delay`` is
    *cumulative across hops* — remote steps are seeded with the value
    spent so far, so one deadline governs the whole operation exactly as
    it does in-process.
    """

    __slots__ = ("messages", "failed", "latency", "retry_delay")

    def __init__(self) -> None:
        self.messages = 0
        self.failed = 0
        self.latency = 0.0
        self.retry_delay = 0.0


class Context:
    """Per-engine collaborators the machines consult (never I/O).

    ``rng``
        The grid's RNG — the *only* randomness source of the protocol,
        consumed in exactly the order the paper's pseudo-code implies.
    ``retry`` / ``healer``
        Duck-typed :class:`repro.faults.RetryPolicy` /
        :class:`repro.faults.RefHealer`; ``None`` disables each.
    ``topology``
        Optional latency model (``latency(a, b) -> float``) accumulated
        into :attr:`StepStats.latency`.
    ``order``
        Optional attempt-order hook ``(view, refs) -> Iterator[Address]``
        (:class:`repro.sim.topology.ProximitySearchEngine`); ``None``
        selects the paper's lazy uniform draws.
    ``observed``
        Whether a probe is attached; machines emit :class:`Record`
        effects only when True, keeping the unobserved path free of
        per-event allocations.
    """

    __slots__ = ("rng", "retry", "healer", "topology", "order", "observed")

    def __init__(
        self,
        rng: random.Random,
        *,
        retry: Any = None,
        healer: Any = None,
        topology: Any = None,
        order: Callable[[Any, list[Address]], Iterator[Address]] | None = None,
        observed: bool = False,
    ) -> None:
        self.rng = rng
        self.retry = retry
        self.healer = healer
        self.topology = topology
        self.order = order
        self.observed = observed


def contact_step(
    ctx: Context,
    stats: StepStats,
    owner: Address,
    target: Address,
    ref_level: int,
    payload: Any,
):
    """Try to reach *target* once per the retry policy; returns success.

    A ``GONE`` answer (dangling reference — the peer departed for good),
    first or mid-retry, ends the loop: re-contacting a peer that no
    longer exists cannot help.  ``OFFLINE`` answers are re-tried up to
    ``retry.attempts`` times — each an independent availability coin
    under the §2 model — accruing the backoff schedule in
    ``stats.retry_delay`` and respecting the policy's deadline.  Every
    failure is reported to the healer, which may evict the reference
    mid-retry (the loop then stops — the slot no longer exists); the
    caller reports the success (a Fig. 2 hop once the receiver accepts it).
    """
    status = yield Contact(target, ref_level, payload)
    retry = ctx.retry
    attempts = retry.attempts if retry is not None else 1
    attempt = 1
    while True:
        if status is OK:
            return True
        stats.failed += 1
        if ctx.observed:
            yield Record("offline_miss", (owner, target, ref_level))
        if ctx.healer is not None and ctx.healer.record_failure(
            owner, ref_level, target
        ):
            return False
        if status is GONE:
            return False
        attempt += 1
        if attempt > attempts:
            return False
        delay = retry.delay_before(attempt)
        if (
            retry.deadline is not None
            and stats.retry_delay + delay > retry.deadline
        ):
            return False
        stats.retry_delay += delay
        status = yield Contact(target, ref_level, payload, delay)
