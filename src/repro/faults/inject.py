"""Deterministic fault injection over a grid's oracle and message planes.

:class:`FaultInjector` executes one :class:`~repro.faults.plan.FaultPlan`
over a grid: message drops, added latency, peer crashes with bounded
downtime, and stale-routing-reference corruption.  It is not a transport.
A message plane takes a plan through
:meth:`repro.net.transport.Gated.install_faults`, which builds the
injector: the transport's gate asks it first (crash check, drop coin) and
reports its refusals to the transport's probe, and
:meth:`FaultInjector.postcheck` ends every delivery.  The injector
also exposes the crash state as an :class:`~repro.core.grid.OnlineOracle`
via :meth:`install_oracle`, so the engine-level algorithms — which consult
``grid.is_online`` rather than the transport — see exactly the same fault
world as the message-driven nodes.  The injector's oracle *composes* with
whatever oracle the grid already has (the one availability model,
:class:`~repro.sim.churn.BernoulliChurn`, is set there first): a peer is
online iff it is not crashed, and the inner model agrees.

Every random decision draws from a named stream derived from the plan seed
(:mod:`repro.sim.rng`), never from the grid's RNG: injecting faults cannot
perturb the algorithms' own randomness, and an empty plan draws nothing at
all (bit-identical to no injector — see ``tests/faults/test_transparency.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidConfigError, UnknownPeerError
from repro.faults.plan import FaultPlan
from repro.sim import rng as rngmod

__all__ = ["FaultInjector", "FaultOracle", "FaultStats"]

Address = int

#: Offset added to the largest live address when fabricating dangling
#: (stale) reference targets — guaranteed never to collide with a peer.
_STALE_ADDRESS_OFFSET = 1_000_000


@dataclass
class FaultStats:
    """Tally of every fault the injector actually fired."""

    injected_drops: int = 0
    injected_latency: float = 0.0
    crashes: int = 0
    restarts: int = 0
    stale_refs_injected: int = 0
    crashed_contacts: int = 0
    stale_log: list[tuple[Address, int, Address]] = field(default_factory=list)

    def snapshot(self) -> dict[str, object]:
        """Plain-dict copy for experiment records."""
        return {
            "injected_drops": self.injected_drops,
            "injected_latency": self.injected_latency,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "stale_refs_injected": self.stale_refs_injected,
            "crashed_contacts": self.crashed_contacts,
        }


class FaultInjector:
    """The executor of one fault plan over *grid*.

    Holds the crash state, the plan's four derived streams (drop, crash,
    stale, select), the post-delivery faults (:meth:`postcheck`) and the
    composed availability oracle (:meth:`install_oracle`).  A transport gets one
    from :meth:`~repro.net.transport.Gated.install_faults`; the CLI and
    the resilience experiment build one directly and use its oracle only.
    """

    def __init__(self, grid, plan: FaultPlan | None = None) -> None:
        self.grid = grid
        self.plan = plan or FaultPlan()
        self.fault_stats = FaultStats()
        # Crashed peers -> remaining downtime in contact attempts
        # (None = down until an explicit restart()).
        self._crashed: dict[Address, int | None] = {}
        seed = self.plan.seed
        self._drop_rng = rngmod.derive(seed, "faults-drop")
        self._crash_rng = rngmod.derive(seed, "faults-crash")
        self._stale_rng = rngmod.derive(seed, "faults-stale")
        self._select_rng = rngmod.derive(seed, "faults-select")

    def postcheck(self, message) -> float:
        """Faults after a delivered *message*: the plan may add latency,
        crash the destination, or go back and corrupt one of the *source's*
        routing references (a stale ref the sender will trip over later).

        Returns the latency injected (the plan's ``extra_latency``); the
        transport adds it to its simulated clock (and the async one awaits
        it on its loop clock).
        """
        plan = self.plan
        if plan.extra_latency:
            self.fault_stats.injected_latency += plan.extra_latency
        if plan.crash_probability and self._crash_rng.random() < plan.crash_probability:
            self.crash(message.destination, downtime=plan.crash_downtime)
        if (
            plan.stale_ref_probability
            and self._stale_rng.random() < plan.stale_ref_probability
        ):
            self._inject_stale_ref(message.source)
        return plan.extra_latency

    # -- crash / restart ----------------------------------------------------------

    @property
    def crashed(self) -> frozenset[Address]:
        """Peers currently down."""
        return frozenset(self._crashed)

    def crash(self, address: Address, *, downtime: int | None = None) -> None:
        """Take *address* down for *downtime* contact attempts (0/None = until
        :meth:`restart`).

        Raises :class:`~repro.errors.InvalidConfigError` if *address* is
        not a peer of the grid: a fault plan naming a nonexistent peer is
        a configuration bug, and silently no-opping it would let a typo'd
        plan report a fault-free run as resilience.
        """
        self._require_peer(address, "crash")
        if address in self._crashed:
            return
        self._crashed[address] = downtime if downtime else None
        self.fault_stats.crashes += 1

    def restart(self, address: Address) -> None:
        """Bring *address* back up (no-op if it was not crashed).

        Like :meth:`crash`, an *address* outside the grid raises
        :class:`~repro.errors.InvalidConfigError` instead of silently
        doing nothing.
        """
        self._require_peer(address, "restart")
        if self._crashed.pop(address, _MISSING) is not _MISSING:
            self.fault_stats.restarts += 1

    def _require_peer(self, address: Address, action: str) -> None:
        if not self.grid.has_peer(address):
            raise InvalidConfigError(
                f"fault plan cannot {action} peer {address!r}: "
                "no such peer in the grid"
            )

    def crash_random(self, fraction: float, *, downtime: int | None = None) -> list[Address]:
        """Crash a seeded random *fraction* of registered peers; returns them.

        The sample is drawn from the injector's own selection stream, so
        which peers die is a pure function of the plan seed.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        population = self.grid.addresses()
        count = round(len(population) * fraction)
        victims = sorted(self._select_rng.sample(population, count))
        for address in victims:
            self.crash(address, downtime=downtime)
        return victims

    def _contact_crashed(self, address: Address) -> bool:
        """Whether a contact to *address* fails due to a crash (ticks downtime)."""
        remaining = self._crashed.get(address, _MISSING)
        if remaining is _MISSING:
            return False
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                del self._crashed[address]
                self.fault_stats.restarts += 1
            else:
                self._crashed[address] = remaining
        return True

    # -- stale routing references ----------------------------------------------------

    def inject_stale_refs(self, fraction: float) -> int:
        """Corrupt one routing reference on a random *fraction* of peers.

        Each victim gets one randomly chosen (level, slot) reference
        replaced by a dangling address, simulating a peer that moved or
        vanished while others still point at it.  Returns the number of
        references corrupted.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        population = self.grid.addresses()
        count = round(len(population) * fraction)
        corrupted = 0
        for address in sorted(self._select_rng.sample(population, count)):
            if self._inject_stale_ref(address):
                corrupted += 1
        return corrupted

    def _inject_stale_ref(self, address: Address) -> bool:
        """Replace one reference of *address* with a dangling target."""
        try:
            peer = self.grid.peer(address)
        except UnknownPeerError:
            return False
        slots = [
            (level, index)
            for level, refs in peer.routing.iter_levels()
            for index in range(len(refs))
        ]
        if not slots:
            return False
        level, index = slots[self._stale_rng.randrange(len(slots))]
        refs = peer.routing.refs(level)
        dead = max(self.grid.addresses(), default=0) + _STALE_ADDRESS_OFFSET
        dead += self._stale_rng.randrange(_STALE_ADDRESS_OFFSET)
        old = refs[index]
        refs[index] = dead
        peer.routing.set_refs(level, refs)
        self.fault_stats.stale_refs_injected += 1
        self.fault_stats.stale_log.append((address, level, old))
        return True

    # -- oracle composition -----------------------------------------------------------

    def install_oracle(self) -> "FaultOracle":
        """Install an oracle composing this injector's crashes over the
        grid's current oracle, so a churn model configured before the
        injector keeps working underneath it."""
        composed = FaultOracle(self, self.grid.online_oracle)
        self.grid.online_oracle = composed
        return composed


_MISSING = object()


class FaultOracle:
    """Availability oracle: crashes, then the inner model.

    With no crashed peers this is a transparent pass-through that draws
    nothing — attaching it cannot change an experiment (property-tested).
    """

    def __init__(self, injector: FaultInjector, inner) -> None:
        self._injector = injector
        self._inner = inner

    def is_online(self, address: Address) -> bool:
        if self._injector._contact_crashed(address):
            self._injector.fault_stats.crashed_contacts += 1
            return False
        return self._inner.is_online(address)
