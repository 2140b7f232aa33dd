"""``LocalTransport.send`` is ``admit`` then ``deliver`` — differentially."""

from __future__ import annotations

from tests import gate_twins as twins


@twins.cases(plan=False)
def test_send_is_admit_then_deliver(seed, p_online, loss, pairs):
    """Same outcome per contact, same tallies, probe events and stream
    states under churn, loss, latency and a departed peer."""
    twins.assert_send_is_admit_then_deliver(
        "local", pairs, seed=seed, p_online=p_online, loss=loss
    )
