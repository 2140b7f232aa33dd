"""Configuration objects for P-Grid construction and search.

The paper's free parameters (§3–§5):

``maxl``
    Maximum path length a peer may specialize to.  Bounds the trie depth and
    therefore controls the replication factor at the leaves.
``refmax``
    Maximum number of routing references kept per level ("multiplicity of
    references", §4) — more references make search robust to offline peers.
``recmax``
    Maximum recursion depth of the ``exchange`` algorithm (case 4).  §5.1
    table 3 finds the optimum near 2.
``recursion_fanout``
    The paper's fix for the exponential blow-up of table 4: during a
    recursive case-4 step only this many randomly chosen referenced peers are
    forwarded to.  ``None`` reproduces the unbounded behaviour of table 4;
    ``2`` reproduces table 5.

``split_min_items``
    Data-driven specialization (§3's hint: "one possible indication that a
    path has reached maxl could be that the number of data items belonging
    to the key is falling below a certain threshold").  When set, a peer
    only specializes further while it is responsible for at least this
    many index entries; ``maxl`` remains a hard safety bound.  This makes
    the trie depth adapt to the data distribution — the §6 skewed-data
    future work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import InvalidConfigError


@dataclass(frozen=True)
class PGridConfig:
    """Parameters of the P-Grid construction algorithm (paper Fig. 3)."""

    maxl: int = 6
    refmax: int = 1
    recmax: int = 2
    recursion_fanout: int | None = None
    split_min_items: int | None = None

    def __post_init__(self) -> None:
        if self.maxl < 1:
            raise InvalidConfigError(f"maxl must be >= 1, got {self.maxl}")
        if self.refmax < 1:
            raise InvalidConfigError(f"refmax must be >= 1, got {self.refmax}")
        if self.recmax < 0:
            raise InvalidConfigError(f"recmax must be >= 0, got {self.recmax}")
        if self.recursion_fanout is not None and self.recursion_fanout < 1:
            raise InvalidConfigError(
                f"recursion_fanout must be >= 1 or None, got {self.recursion_fanout}"
            )
        if self.split_min_items is not None and self.split_min_items < 1:
            raise InvalidConfigError(
                f"split_min_items must be >= 1 or None, got {self.split_min_items}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form used by snapshots and experiment records."""
        return {
            "maxl": self.maxl,
            "refmax": self.refmax,
            "recmax": self.recmax,
            "recursion_fanout": self.recursion_fanout,
            "split_min_items": self.split_min_items,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PGridConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**dict(data))


#: Configuration of the paper's §5.2 experiments (Fig. 4, Fig. 5, table 6):
#: 20 000 peers, keys of maximal length 10, 20 references per level,
#: recursion bound 2 with fan-out bound 2 (the fixed variant).
PAPER_SECTION52_CONFIG = PGridConfig(
    maxl=10, refmax=20, recmax=2, recursion_fanout=2
)

#: Configuration of the §5.1 construction-cost tables (before sweeps).
PAPER_SECTION51_CONFIG = PGridConfig(maxl=6, refmax=1, recmax=2)


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of search execution (paper Fig. 2 plus §5.2 variants).

    ``max_messages`` bounds a single depth-first search, guarding against
    pathological routing states (the paper's algorithm can in principle
    revisit long chains when most peers are offline).
    """

    max_messages: int = 10_000

    def __post_init__(self) -> None:
        if self.max_messages < 1:
            raise InvalidConfigError(
                f"max_messages must be >= 1, got {self.max_messages}"
            )


@dataclass(frozen=True)
class UpdateConfig:
    """Parameters of update propagation (paper §5.2).

    ``recbreadth``
        Number of references followed per level by the breadth-first update
        search.
    ``repetition``
        Number of times the propagation search is repeated per update.
    """

    recbreadth: int = 2
    repetition: int = 1

    def __post_init__(self) -> None:
        if self.recbreadth < 1:
            raise InvalidConfigError(
                f"recbreadth must be >= 1, got {self.recbreadth}"
            )
        if self.repetition < 1:
            raise InvalidConfigError(
                f"repetition must be >= 1, got {self.repetition}"
            )
