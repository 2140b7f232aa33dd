"""Retry policy: bounded attempts, exponential backoff, per-operation deadline.

The paper's reliability story (§4) is *redundancy in space* — ``refmax``
references per level so that one offline peer never dooms a search.
:class:`RetryPolicy` adds the complementary *redundancy in time*: under the
per-contact availability model (§2), re-contacting the same peer is an
independent coin flip, so ``attempts`` tries lift the effective per-contact
success from ``p`` to ``1 - (1 - p)^attempts`` and eq. (3) becomes
``(1 - (1 - p)^(attempts * refmax))^k`` — validated empirically by
``experiments/resilience.py``.

The policy is pure data, consulted in one place: the shared contact
machine (:func:`repro.protocol.contact.contact_step`) reads
:meth:`delay_before` / ``deadline`` for the engines and for both node
drivers alike.  Backoff delays are *simulated* time — accounted on the
transport's clock, and slept only by the async driver's virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidConfigError

__all__ = ["RetryPolicy", "NO_RETRY"]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try one failing contact before giving up.

    ``attempts``
        Total contact attempts per target (1 = the bare protocol, no retry).
    ``base_delay`` / ``backoff_factor`` / ``max_delay``
        Backoff before retry *n* (n >= 2) is
        ``min(base_delay * backoff_factor^(n-2), max_delay)`` simulated
        time units.
    ``deadline``
        Optional cap on the *accumulated* backoff per operation (one
        search / one update propagation); once spent, remaining retries
        are forfeited and the operation degrades gracefully instead of
        stalling.
    """

    attempts: int = 3
    base_delay: float = 1.0
    backoff_factor: float = 2.0
    max_delay: float = 60.0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise InvalidConfigError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0:
            raise InvalidConfigError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )
        if self.backoff_factor < 1.0:
            raise InvalidConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_delay < self.base_delay:
            raise InvalidConfigError(
                f"max_delay {self.max_delay} must be >= base_delay {self.base_delay}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise InvalidConfigError(
                f"deadline must be > 0 or None, got {self.deadline}"
            )

    def delay_before(self, attempt: int) -> float:
        """Backoff before making *attempt* (2-based; attempt 1 is free)."""
        if attempt < 2:
            raise ValueError(f"attempt must be >= 2, got {attempt}")
        return min(
            self.base_delay * self.backoff_factor ** (attempt - 2), self.max_delay
        )

    def schedule(self) -> list[float]:
        """The full backoff schedule: one delay per retry after the first try."""
        return [self.delay_before(attempt) for attempt in range(2, self.attempts + 1)]

    def total_backoff(self) -> float:
        """Worst-case backoff one fully-failing target costs (pre-deadline)."""
        return sum(self.schedule())

    def effective_availability(self, p_online: float) -> float:
        """Per-contact success probability after retries: ``1-(1-p)^attempts``.

        Under the §2 per-contact availability model each retry is an
        independent coin; this is what the resilience experiment plugs
        into eq. (3) as the retry-adjusted ``p``.
        """
        if not 0.0 <= p_online <= 1.0:
            raise ValueError(f"p_online must be in [0, 1], got {p_online}")
        return 1.0 - (1.0 - p_online) ** self.attempts


#: The bare protocol: one attempt, no backoff (used as an explicit default).
NO_RETRY = RetryPolicy(attempts=1, base_delay=0.0, backoff_factor=1.0, max_delay=0.0)
