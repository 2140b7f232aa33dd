"""Simulation substrate: randomness, meetings, churn, construction drivers
(round-based and over virtual time), workloads and grid snapshots."""

from repro.sim.builder import (
    ConstructionReport,
    ConstructionSample,
    GridBuilder,
    TimedConstructionReport,
    TimedSample,
    run_timed_construction,
)
from repro.sim.churn import BernoulliChurn, FixedOnlineSet, SessionChurn
from repro.sim.meetings import BiasedMeetings, RoundRobinMeetings, UniformMeetings
from repro.sim.scenario import (
    KeyDistribution,
    ScenarioMetrics,
    ScenarioSpec,
    run_scenario,
)
from repro.sim.persistence import grid_from_dict, grid_to_dict, load_grid, save_grid
from repro.sim.rng import derive, spawn
from repro.sim.topology import (
    ProximityExchangeEngine,
    ProximitySearchEngine,
    Topology,
)
from repro.sim.workload import (
    QueryStream,
    UniformKeyWorkload,
    ZipfKeyWorkload,
    generate_items,
    zipf_weights,
)

__all__ = [
    "BernoulliChurn",
    "BiasedMeetings",
    "ConstructionReport",
    "ConstructionSample",
    "FixedOnlineSet",
    "GridBuilder",
    "KeyDistribution",
    "ProximityExchangeEngine",
    "ProximitySearchEngine",
    "QueryStream",
    "RoundRobinMeetings",
    "ScenarioMetrics",
    "ScenarioSpec",
    "SessionChurn",
    "TimedConstructionReport",
    "TimedSample",
    "Topology",
    "UniformKeyWorkload",
    "UniformMeetings",
    "ZipfKeyWorkload",
    "derive",
    "generate_items",
    "grid_from_dict",
    "grid_to_dict",
    "load_grid",
    "run_scenario",
    "run_timed_construction",
    "save_grid",
    "spawn",
    "zipf_weights",
]
