"""Fault injection, retry policies, and routing self-repair.

The resilience layer for the §4 robustness claims: declarative seeded
:class:`FaultPlan`\\ s executed by a :class:`FaultInjector` (installed on a
transport, or over the grid's oracle alone), :class:`RetryPolicy`
redundancy-in-time threaded through the engines and nodes, and
contact-driven :class:`RefHealer` repair of dead routing references.
``experiments/resilience.py`` ties the three together against the analytic
curve ``(1 - (1 - p)^refmax)^k``.
"""

from repro.faults.inject import FaultInjector, FaultOracle, FaultStats
from repro.faults.plan import FaultPlan
from repro.faults.repair import HealStats, RefHealer
from repro.faults.retry import NO_RETRY, RetryPolicy

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultOracle",
    "FaultStats",
    "RetryPolicy",
    "NO_RETRY",
    "RefHealer",
    "HealStats",
]
