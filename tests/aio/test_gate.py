"""``AsyncTransport.request`` is ``admit`` then ``deliver``, and the gate
in front of it is the sync stack's — differentially."""

from __future__ import annotations

import asyncio
import inspect

import pytest

from repro.aio.transport import AsyncTransport
from repro.faults import FaultInjector, FaultPlan
from repro.net.message import ping, pong
from repro.net.transport import Gated, LocalTransport
from tests import gate_twins as twins
from tests.conftest import make_fig1_grid


@twins.cases(plan=True)
def test_request_is_admit_then_deliver(seed, p_online, loss, plan, pairs):
    twins.assert_send_is_admit_then_deliver(
        "async", pairs, seed=seed, p_online=p_online, loss=loss, plan=plan
    )


@twins.cases(plan=True)
def test_every_plane_gives_the_same_status_sequence(seed, p_online, loss, plan, pairs):
    """The test that says the gate exists once: same seeds, same answers —
    and the same tallies, events and streams — whichever plane asks."""
    world = dict(seed=seed, p_online=p_online, loss=loss)
    local = twins.run("local", pairs, halves=True, plan=plan, **world)
    assert twins.run("async", pairs, halves=True, plan=plan, **world) == local
    # An empty plan draws nothing, so the bare transport joins the comparison.
    empty = FaultPlan(seed=seed)
    bare, bare_print = twins.run("local", pairs, halves=True, **world)
    for plane in ("local", "async"):
        outcomes, fingerprint = twins.run(plane, pairs, halves=True, plan=empty, **world)
        assert outcomes == bare
        for shared in ("traffic", "events", "loss stream", "churn stream"):
            assert fingerprint[shared] == bare_print[shared]


def test_the_gate_is_inherited_not_rewritten():
    for transport in (LocalTransport, AsyncTransport):
        assert "admit" not in vars(transport)
        assert transport.admit is Gated.admit


@pytest.mark.parametrize("plane", [LocalTransport, AsyncTransport])
def test_a_plan_is_installed_not_wrapped(plane):
    """One way in front of a transport: the injector is no transport, the
    gate takes no injector, the install is the base class's, and the
    plan's post-delivery faults follow the handler on either plane."""
    assert not any(
        hasattr(FaultInjector, name) for name in ("admit", "deliver", "send", "register")
    )
    assert list(inspect.signature(Gated.admit).parameters) == [
        "self", "kind", "source", "destination"
    ]
    assert "install_faults" not in vars(AsyncTransport)
    assert plane.install_faults is Gated.install_faults

    order = []
    transport = plane(make_fig1_grid())

    def handler(message):
        order.append("handle")
        return pong(message)

    async def async_handler(message):
        return handler(message)

    transport.register(1, async_handler if plane is AsyncTransport else handler)
    injector = transport.install_faults(FaultPlan(seed=3, extra_latency=0.5))
    postcheck = injector.postcheck
    injector.postcheck = lambda message: (order.append("post"), postcheck(message))[1]
    if plane is AsyncTransport:
        async def request():
            await transport.start()
            return await transport.request(ping(0, 1))

        asyncio.run(request())
    else:
        transport.send(ping(0, 1))
    assert order == ["handle", "post"]
    assert transport.stats.simulated_time == 0.5
