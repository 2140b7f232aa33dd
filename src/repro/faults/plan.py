"""Declarative fault plans.

A :class:`FaultPlan` says *what* to break — message drops, added latency,
peer crashes/restarts, stale routing references, per-contact availability —
without saying *how*; :class:`~repro.faults.inject.FaultInjector` executes
the plan deterministically from ``seed``-derived RNG streams, so a faulty
run is exactly replayable and composable with the churn models in
:mod:`repro.sim.churn` (the plan's ``availability`` multiplies on top of
whatever oracle the grid already has).

The empty plan (all defaults) is a strict no-op: an injector driving it
never consults its RNG streams and never perturbs the wrapped transport or
the grid — property-tested bit-identical in
``tests/faults/test_transparency.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import InvalidConfigError

__all__ = ["FaultPlan"]


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative specification of injected faults.

    ``seed``
        Master seed for every fault decision; independent named streams are
        derived per fault type (see :mod:`repro.sim.rng`), so e.g. enabling
        drops does not reshuffle which peers crash.
    ``drop_probability``
        Independent per-message drop probability applied *before*
        delivery; the only source of message loss on either plane.
    ``extra_latency``
        Fixed simulated latency added to every delivered message.
    ``availability``
        Per-contact online probability applied by the injector's oracle on
        top of the grid's existing oracle (``None`` = leave availability to
        the grid).  This is the paper's §2 ``online: P -> [0, 1]`` model,
        expressed as a composable fault.
    ``crash_probability``
        Per-delivery probability that the *destination* peer crashes right
        after handling the message.
    ``crash_downtime``
        How many subsequent contact attempts a crashed peer misses before
        it restarts; ``0`` means it stays down until an explicit
        :meth:`~repro.faults.inject.FaultInjector.restart`.
    ``stale_ref_probability``
        Per-delivery probability that one routing reference of the *source*
        peer is silently corrupted to a dangling address — the "peer moved
        and nobody updated the reference" fault that routing self-repair
        (:class:`~repro.faults.repair.RefHealer`) exists to fix.
    """

    seed: int = 0
    drop_probability: float = 0.0
    extra_latency: float = 0.0
    availability: float | None = None
    crash_probability: float = 0.0
    crash_downtime: int = 0
    stale_ref_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_probability", "crash_probability", "stale_ref_probability"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise InvalidConfigError(f"{name} must be in [0, 1), got {value}")
        if self.availability is not None and not 0.0 < self.availability <= 1.0:
            raise InvalidConfigError(
                f"availability must be in (0, 1] or None, got {self.availability}"
            )
        if self.extra_latency < 0:
            raise InvalidConfigError(
                f"extra_latency must be >= 0, got {self.extra_latency}"
            )
        if self.crash_downtime < 0:
            raise InvalidConfigError(
                f"crash_downtime must be >= 0, got {self.crash_downtime}"
            )

    def is_empty(self) -> bool:
        """Whether the plan injects nothing (the guaranteed no-op plan)."""
        return (
            self.drop_probability == 0.0
            and self.extra_latency == 0.0
            and self.availability is None
            and self.crash_probability == 0.0
            and self.stale_ref_probability == 0.0
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for experiment records and CLI echo."""
        return {
            "seed": self.seed,
            "drop_probability": self.drop_probability,
            "extra_latency": self.extra_latency,
            "availability": self.availability,
            "crash_probability": self.crash_probability,
            "crash_downtime": self.crash_downtime,
            "stale_ref_probability": self.stale_ref_probability,
        }
