"""Per-level routing references of a peer (paper §2).

A peer with path ``p_1 ... p_n`` keeps, for every level ``i`` in ``1..n``, a
bounded set ``R_i`` of addresses of peers whose paths share
``prefix(i - 1)`` and carry the *complement* bit at position ``i``.  These
references route a query sideways whenever its next bit diverges from the
local path.

The table is deliberately a thin, well-tested container: the exchange and
search algorithms own all protocol logic, the table owns bounds, uniqueness
and deterministic sampling.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

Address = int


class RoutingTable:
    """Level-indexed reference sets with a per-level capacity ``refmax``.

    Levels are 1-based to match the paper.  Internally each level stores an
    insertion-ordered list without duplicates, which keeps random sampling
    reproducible under a seeded :class:`random.Random`.
    """

    def __init__(self, refmax: int) -> None:
        if refmax < 1:
            raise ValueError(f"refmax must be >= 1, got {refmax}")
        self._refmax = refmax
        self._levels: list[list[Address]] = []

    @property
    def refmax(self) -> int:
        """Per-level capacity."""
        return self._refmax

    @property
    def depth(self) -> int:
        """Number of levels currently materialized."""
        return len(self._levels)

    def _level_slot(self, level: int) -> list[Address]:
        if level < 1:
            raise IndexError(f"routing levels are 1-based, got {level}")
        while len(self._levels) < level:
            self._levels.append([])
        return self._levels[level - 1]

    def refs(self, level: int) -> list[Address]:
        """Copy of the reference list at *level* (empty if unmaterialized)."""
        if level < 1:
            raise IndexError(f"routing levels are 1-based, got {level}")
        if level > len(self._levels):
            return []
        return list(self._levels[level - 1])

    def set_refs(self, level: int, refs: Iterable[Address]) -> None:
        """Replace the references at *level* (deduplicated, order kept).

        Raises :class:`ValueError` if more than ``refmax`` distinct
        references are supplied.
        """
        unique = list(dict.fromkeys(refs))
        if len(unique) > self._refmax:
            raise ValueError(
                f"{len(unique)} refs exceed refmax={self._refmax} at level {level}"
            )
        slot = self._level_slot(level)
        slot.clear()
        slot.extend(unique)

    def add_ref(self, level: int, address: Address) -> bool:
        """Insert *address* at *level* if absent and capacity allows.

        Returns ``True`` if the table changed.
        """
        slot = self._level_slot(level)
        if address in slot or len(slot) >= self._refmax:
            return False
        slot.append(address)
        return True

    def merge_refs(
        self, level: int, candidates: Iterable[Address], rng: random.Random
    ) -> None:
        """The paper's ``random_select(refmax, union(...))`` step.

        Union the current references with *candidates*; if the union exceeds
        ``refmax``, keep a uniform random subset of size ``refmax``.
        """
        slot = self._level_slot(level)
        union = list(dict.fromkeys([*slot, *candidates]))
        if len(union) > self._refmax:
            union = rng.sample(union, self._refmax)
        slot.clear()
        slot.extend(union)

    def remove_ref(self, level: int, address: Address) -> bool:
        """Drop *address* from *level*; return whether it was present."""
        if level < 1 or level > len(self._levels):
            return False
        slot = self._levels[level - 1]
        if address not in slot:
            return False
        slot.remove(address)
        return True

    def truncate(self, depth: int) -> None:
        """Discard levels deeper than *depth* (used when a path shortens)."""
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        del self._levels[depth:]

    def total_refs(self) -> int:
        """Total reference count across levels (storage-cost metric, §4/§6)."""
        return sum(len(slot) for slot in self._levels)

    def iter_levels(self) -> Iterator[tuple[int, list[Address]]]:
        """Yield ``(level, refs)`` pairs for materialized levels, 1-based."""
        for index, slot in enumerate(self._levels, start=1):
            yield index, list(slot)

    def to_lists(self) -> list[list[Address]]:
        """Snapshot form: one list per level."""
        return [list(slot) for slot in self._levels]

    @classmethod
    def from_lists(cls, refmax: int, levels: Iterable[Iterable[Address]]) -> "RoutingTable":
        """Rebuild a table from :meth:`to_lists` output."""
        table = cls(refmax)
        for level, refs in enumerate(levels, start=1):
            table.set_refs(level, refs)
        return table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingTable):
            return NotImplemented
        return self._refmax == other._refmax and self.to_lists() == other.to_lists()

    def __repr__(self) -> str:
        levels = ", ".join(f"L{i}:{refs}" for i, refs in self.iter_levels())
        return f"RoutingTable(refmax={self._refmax}, {levels or 'empty'})"
