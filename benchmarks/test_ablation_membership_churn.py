"""AB6 — extension: membership churn and reference repair.

§6's "continuously adapt" agenda, measured: after half the population is
replaced (crash-fail + protocol joins), search success dips — dangling
references — and a repair sweep (reference probing + search-based refill)
restores it.
"""

from __future__ import annotations

from repro.experiments import ablations

from conftest import publish_result


def test_ablation_membership_churn(benchmark):
    result = benchmark.pedantic(
        ablations.run_membership_churn, rounds=1, iterations=1
    )
    publish_result(result, float_digits=3)

    intact, churned, repaired = result.rows

    # Shape 1: population size is restored by the joins.
    assert churned[1] == intact[1]

    # Shape 2: churn hurts, repair recovers most of the loss.
    assert churned[2] < intact[2]
    assert repaired[2] > churned[2]
    assert repaired[2] > 0.95

    # Shape 3: the sweep's repair messages are fewer than the joins'
    # exchanges that caused the damage (lazy maintenance, not
    # reconstruction).
    assert repaired[4] < churned[3]
