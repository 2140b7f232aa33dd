"""Twin worlds for the ``send ≡ admit ∘ deliver`` differential tests.

One :class:`World` is a Fig. 1 grid under seeded churn with a lossy,
latent transport of the chosen *plane* in front of it — a bare
:class:`LocalTransport` (``"local"``), a :class:`FaultInjector` wrapping
one (``"injector"``) or an :class:`AsyncTransport` with the plan
installed (``"async"``) — plus a probe that records every transport
event.  Two worlds built from the same arguments are twins: whatever
differs after driving them came from *how* they were driven.  Used by
``tests/net``, ``tests/faults`` and ``tests/aio`` (``test_gate.py`` each).
"""

from __future__ import annotations

import asyncio
import inspect
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio.transport import AsyncTransport
from repro.errors import NoHandlerError, PeerOfflineError, TransportError
from repro.faults import FaultInjector, FaultPlan
from repro.net.message import MessageKind, ping, pong
from repro.net.transport import ConstantLatency, LocalTransport
from repro.obs.probe import Probe
from repro.protocol.effects import DROPPED, GONE, OFFLINE, OK
from repro.sim.churn import BernoulliChurn
from tests.conftest import make_fig1_grid

#: A peer of the grid nobody registered (left the network): always ``GONE``.
DEPARTED = 5

#: The exception ``send`` / ``request`` raise <-> the status ``admit`` returns.
STATUS_OF = {NoHandlerError: GONE, PeerOfflineError: OFFLINE, TransportError: DROPPED}

seeds = st.integers(0, 10**6)
availabilities = st.sampled_from([0.3, 0.7, 1.0])
losses = st.sampled_from([0.0, 0.3])
plans = st.builds(
    FaultPlan,
    seed=seeds,
    drop_probability=st.sampled_from([0.0, 0.3]),
    crash_probability=st.sampled_from([0.0, 0.3]),
    crash_downtime=st.integers(0, 3),
    extra_latency=st.sampled_from([0.0, 0.5]),
    stale_ref_probability=st.sampled_from([0.0, 0.2]),
)
#: (source, destination) pairs; destinations include the departed peer.
contacts = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)), min_size=1, max_size=40)


def cases(*, plan: bool):
    """``@given`` a world (seed, availability, loss, fault plan if *plan*)
    and a contact list."""
    world = dict(seed=seeds, p_online=availabilities, loss=losses, pairs=contacts)
    if plan:
        world["plan"] = plans
    return lambda test: settings(max_examples=40, deadline=None)(given(**world)(test))


async def _settled(result):
    """*result*, awaited if the plane is asynchronous."""
    return await result if inspect.isawaitable(result) else result


class _TransportEvents(Probe):
    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_transport(self, kind, source, target, status) -> None:
        self.events.append((kind, source, target, status))


class World:
    """One grid, one transport of *plane*, everything seeded (see module docs)."""

    def __init__(self, plane, *, seed, p_online, loss, plan=None) -> None:
        self.plane = plane
        grid = make_fig1_grid()
        self.churn = random.Random(seed)
        grid.online_oracle = BernoulliChurn(p_online, self.churn)
        self.probe = _TransportEvents()
        options = dict(
            loss_probability=loss, seed=seed, latency=ConstantLatency(0.25), probe=self.probe
        )
        if plane == "async":
            self.transport = AsyncTransport(grid, **options)

            async def handler(message):
                return pong(message)
        else:
            self.transport = LocalTransport(grid, **options)
            handler = pong
        for address in grid.addresses():
            if address != DEPARTED:
                self.transport.register(address, handler)
        self.injector = None
        self.front = self.transport
        if plane == "async" and plan is not None:
            self.injector = self.transport.install_faults(plan, probe=self.probe)
        elif plane == "injector":
            self.injector = self.front = FaultInjector(self.transport, plan, probe=self.probe)
            self.injector.install_oracle()

    async def drive(self, pairs, *, halves: bool) -> list:
        """One PING per pair: whole (``send`` / ``request``) or as
        ``admit`` then ``deliver``.  Outcome per contact: the reply's kind
        for a delivered message, else the gate's status (for the whole
        call, the status its exception stands for)."""
        front, outcomes = self.front, []
        whole = front.request if self.plane == "async" else front.send
        if self.plane == "async":
            await front.start()
        for source, destination in pairs:
            if halves:
                status = front.admit(MessageKind.PING, source, destination)
                if status is not OK:
                    outcomes.append(status)
                    continue
                reply = await _settled(front.deliver(ping(source, destination)))
            else:
                try:
                    reply = await _settled(whole(ping(source, destination)))
                except (PeerOfflineError, TransportError) as error:
                    outcomes.append(STATUS_OF[type(error)])
                    continue
            outcomes.append(reply.kind)
        return outcomes

    def fingerprint(self) -> dict:
        """Everything a contact may touch besides its outcome."""
        injector = self.injector
        return {
            "traffic": self.transport.stats.snapshot(),
            "events": self.probe.events,
            "loss stream": self.transport._rng.getstate(),
            "churn stream": self.churn.getstate(),
            "faults": injector and injector.fault_stats.snapshot(),
            "crashed": injector and injector.crashed,
            "fault streams": injector
            and [
                stream.getstate()
                for stream in (injector._drop_rng, injector._crash_rng, injector._stale_rng)
            ],
        }


def run(plane, pairs, *, halves, **world):
    """Build a world, drive it, return ``(outcomes, fingerprint)``."""

    async def scenario():
        twin = World(plane, **world)
        return await twin.drive(pairs, halves=halves), twin.fingerprint()

    return asyncio.run(scenario())


def assert_send_is_admit_then_deliver(plane, pairs, **world) -> None:
    whole, whole_print = run(plane, pairs, halves=False, **world)
    halves, halves_print = run(plane, pairs, halves=True, **world)
    assert whole == halves
    assert whole_print == halves_print
