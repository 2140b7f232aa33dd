"""Shared protocol for engine result objects.

Every engine result that carries the §5.2 cost model — ``messages``
(successful contacts) and ``failed_attempts`` (offline misses) — mixes in
:class:`ContactAccounting`, which derives ``total_contacts`` once instead
of each result class (or each experiment script) recomputing it.

:class:`SearchOutcome` is the structural protocol experiments should
program against: any object exposing ``found`` / ``messages`` /
``failed_attempts`` / ``total_contacts`` qualifies, so code that tallies
costs works across :class:`~repro.core.search.SearchResult`,
:class:`~repro.core.search.RangeSearchResult`,
:class:`~repro.core.search.BreadthSearchResult`,
:class:`~repro.core.updates.UpdateResult` and
:class:`~repro.core.updates.ReadResult` without isinstance ladders.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = ["ContactAccounting", "SearchOutcome"]


class ContactAccounting:
    """Mixin deriving aggregate cost from ``messages``/``failed_attempts``.

    Deliberately carries *no annotated fields*: the concrete result
    dataclasses declare ``messages`` and ``failed_attempts`` themselves,
    so mixing this in never alters their dataclass field order.
    """

    __slots__ = ()

    @property
    def total_contacts(self) -> int:
        """Messages plus failed contact attempts (total network activity)."""
        return self.messages + self.failed_attempts  # type: ignore[attr-defined]


@runtime_checkable
class SearchOutcome(Protocol):
    """Structural type of every cost-accounted engine result."""

    messages: int
    failed_attempts: int

    @property
    def found(self) -> bool:
        """Whether the operation reached at least one responsible peer."""
        ...  # pragma: no cover - protocol

    @property
    def total_contacts(self) -> int:
        """Messages plus failed contact attempts."""
        ...  # pragma: no cover - protocol
