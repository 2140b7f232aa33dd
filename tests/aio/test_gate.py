"""``AsyncTransport.request`` is ``admit`` then ``deliver``, and the gate
in front of it is the sync stack's — differentially."""

from __future__ import annotations

from repro.aio.transport import AsyncTransport
from repro.faults import FaultPlan
from repro.net.transport import Gated, LocalTransport
from tests import gate_twins as twins


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
    injector = twins.run("injector", pairs, halves=True, plan=plan, **world)
    assert twins.run("async", pairs, halves=True, plan=plan, **world) == injector
    # An empty plan draws nothing, so the bare transport joins the comparison.
    empty = FaultPlan(seed=seed)
    bare, bare_print = twins.run("local", pairs, halves=True, **world)
    for plane in ("injector", "async"):
        outcomes, fingerprint = twins.run(plane, pairs, halves=True, plan=empty, **world)
        assert outcomes == bare
        for shared in ("traffic", "events", "loss stream", "churn stream"):
            assert fingerprint[shared] == bare_print[shared]


def test_the_gate_is_inherited_not_rewritten():
    for transport in (LocalTransport, AsyncTransport):
        assert "admit" not in vars(transport)
        assert transport.admit is Gated.admit
