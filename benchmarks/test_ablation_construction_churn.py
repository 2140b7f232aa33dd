"""AB7 — extension: construction under availability (time-driven).

The paper's construction simulations run failure-free rounds; this
benchmark rebuilds construction as a Poisson meeting process over virtual
time with session churn.  Measured shape: offline endpoints thin the
executed meetings as ~p^2 (48301 / 23871 / 11791 / 4230 at p = 1.0 / 0.7
/ 0.5 / 0.3).  At these defaults every availability level still converges
within the duration (average depth 5.00 / 5.00 / 5.00 / 4.995 of maxl 5),
so achieved depth is flat rather than falling; the asserts below check
the meeting thinning and that depth does not rise as availability drops.
"""

from __future__ import annotations

from repro.experiments import ablations

from conftest import publish_result


def test_ablation_construction_churn(benchmark):
    result = benchmark.pedantic(
        ablations.run_construction_under_churn, rounds=1, iterations=1
    )
    publish_result(result, float_digits=3)

    rows = sorted(result.rows, key=lambda row: row[0])  # by p_online asc

    # Shape 1: executed meetings grow with availability (the ~p^2 thinning).
    meetings = [row[1] for row in rows]
    assert meetings == sorted(meetings), meetings
    assert rows[-1][1] > 3 * rows[0][1]

    # Shape 2: achieved depth is monotone (weakly) in availability.
    depths = [row[3] for row in rows]
    for earlier, later in zip(depths, depths[1:]):
        assert later >= earlier - 0.05, depths

    # Shape 3: full availability converges within the duration.
    assert rows[-1][5] is True or rows[-1][4] > 0.99
