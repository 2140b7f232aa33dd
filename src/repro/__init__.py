"""repro — a full reproduction of *P-Grid: A Self-organizing Access
Structure for P2P Information Systems* (Karl Aberer, 2002).

Quickstart
----------
>>> from repro import Grid
>>> grid = Grid.build(peers=64, maxl=4, refmax=2, seed=7)
>>> grid.search("1010").found
True
>>> with grid.serve(driver="node") as svc:   # or "engine" / "async"
...     svc.search("1010", start=5).found
True

:class:`Grid` (see :mod:`repro.api`) is the facade over construction,
search, update and the three interchangeable drivers of the sans-I/O
protocol core.  The engine-level constructors (``GridBuilder``,
``SearchEngine``, ``UpdateEngine``, ``ReadEngine``) live in their home
modules (``repro.sim``, ``repro.core``).

Package layout
--------------
``repro.core``
    The paper's contribution: key space, peer state, search (Fig. 2),
    construction (Fig. 3), update strategies, §4 analysis.
``repro.sim``
    Simulation substrate: seeded RNG, meeting schedulers, churn models,
    grid builder, workloads, snapshots.
``repro.net``
    Simulated message transport with traffic accounting.
``repro.baselines``
    Gnutella-style flooding and central/replicated index servers (§1, §6).
``repro.faults``
    Fault injection (seeded fault plans over the transport), retry
    policies, and routing self-repair (see docs/RESILIENCE.md).
``repro.text``
    Prefix text search over P-Grid (§6 trie extension).
``repro.experiments``
    One runner per paper table/figure (see DESIGN.md experiment index).
``repro.report``
    ASCII tables/histograms and CSV output.
"""

from repro.api import Grid
from repro.core import (
    Address,
    AlwaysOnline,
    BreadthSearchResult,
    DataItem,
    DataRef,
    DataStore,
    ExchangeEngine,
    ExchangeStats,
    GridPlan,
    JoinReport,
    LeaveReport,
    MembershipEngine,
    PAPER_SECTION51_CONFIG,
    PAPER_SECTION52_CONFIG,
    Peer,
    PGrid,
    PGridConfig,
    RangeSearchResult,
    ReadResult,
    RepairReport,
    RoutingTable,
    SearchConfig,
    SearchResult,
    ShortcutCache,
    ShortcutSearchEngine,
    ShortcutStats,
    UpdateConfig,
    UpdateResult,
    UpdateStrategy,
    min_peers_for_replication,
    plan_grid,
    required_key_length,
    search_success_probability,
)
from repro.errors import (
    DuplicatePeerError,
    InvalidConfigError,
    InvalidKeyError,
    PGridError,
    PeerOfflineError,
    RoutingInvariantError,
    SnapshotFormatError,
    TransportError,
    UnknownPeerError,
)
from repro.faults import (
    NO_RETRY,
    FaultInjector,
    FaultPlan,
    RefHealer,
    RetryPolicy,
)
from repro.sim import (
    BernoulliChurn,
    ConstructionReport,
    SessionChurn,
    UniformMeetings,
)

__version__ = "1.0.0"

__all__ = [
    "Address",
    "AlwaysOnline",
    "BernoulliChurn",
    "BreadthSearchResult",
    "ConstructionReport",
    "DataItem",
    "DataRef",
    "DataStore",
    "DuplicatePeerError",
    "ExchangeEngine",
    "ExchangeStats",
    "FaultInjector",
    "FaultPlan",
    "Grid",
    "GridPlan",
    "InvalidConfigError",
    "InvalidKeyError",
    "JoinReport",
    "LeaveReport",
    "MembershipEngine",
    "NO_RETRY",
    "PAPER_SECTION51_CONFIG",
    "PAPER_SECTION52_CONFIG",
    "PGrid",
    "PGridConfig",
    "PGridError",
    "Peer",
    "PeerOfflineError",
    "RangeSearchResult",
    "ReadResult",
    "RefHealer",
    "RepairReport",
    "RetryPolicy",
    "RoutingInvariantError",
    "RoutingTable",
    "SearchConfig",
    "SearchResult",
    "SessionChurn",
    "ShortcutCache",
    "ShortcutSearchEngine",
    "ShortcutStats",
    "SnapshotFormatError",
    "TransportError",
    "UniformMeetings",
    "UnknownPeerError",
    "UpdateConfig",
    "UpdateResult",
    "UpdateStrategy",
    "min_peers_for_replication",
    "plan_grid",
    "required_key_length",
    "search_success_probability",
    "__version__",
]
