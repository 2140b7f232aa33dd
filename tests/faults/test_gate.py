"""``FaultInjector.send`` is ``admit`` then ``deliver`` — differentially."""

from __future__ import annotations

from tests import gate_twins as twins


@twins.cases(plan=True)
def test_send_is_admit_then_deliver_under_a_fault_plan(seed, p_online, loss, plan, pairs):
    """Drops, crashes with downtime, extra latency and stale references
    on top of churn and loss: same outcomes, ``TrafficStats`` /
    ``FaultStats``, probe events, crash set and stream states."""
    twins.assert_send_is_admit_then_deliver(
        "injector", pairs, seed=seed, p_online=p_online, loss=loss, plan=plan
    )
