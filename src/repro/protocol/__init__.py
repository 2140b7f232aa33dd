"""``repro.protocol`` — sans-I/O state machines for the P-Grid protocols.

The paper's algorithms (Fig. 2 search family, §3/§5.2 update strategies,
Fig. 3 ``exchange``) are implemented exactly once, as pure, RNG-explicit
generator machines that *yield* typed effects (:class:`Contact`,
:class:`Resolve`, :class:`FetchBuddies`, :class:`Record`,
:class:`Deliver`) instead of performing calls.  Two kinds of driver execute the
effect streams:

* the **direct driver** (:mod:`repro.protocol.direct`) answers effects
  from an in-process :class:`repro.core.grid.PGrid` — this is what the
  classic ``SearchEngine`` / ``UpdateEngine`` / ``ReadEngine`` /
  ``ExchangeEngine`` now run on;
* the **message driver** (:mod:`repro.net.node`, written once as
  prepare → drive → finish) maps the same effects onto
  :mod:`repro.net.message` kinds, giving the networked path — called
  (:class:`repro.net.node.PGridNode`) or awaited
  (:class:`repro.aio.node.AsyncPGridNode`) — the identical routing
  decisions, retry semantics and RNG stream.

See ``docs/paper_mapping.md`` for the effect-vocabulary → pseudo-code
line mapping and ``docs/API.md`` for driver contracts.
"""

from repro.protocol.contact import Budget, Context, StepStats, contact_step
from repro.protocol.driver import drive
from repro.protocol.effects import (
    BUDDY_PING,
    GONE,
    OFFLINE,
    OK,
    Address,
    BreadthStep,
    Contact,
    ContactStatus,
    Deliver,
    ExchangeStep,
    FetchBuddies,
    QueryStep,
    Record,
    Resolve,
    dispatch_record,
)
from repro.protocol.exchange import ExchangeContext, exchange_step
from repro.protocol.read import read_majority, read_repeated, read_single
from repro.protocol.search import (
    Traversal,
    breadth_machine,
    breadth_step,
    dfs_step,
    fanout_step,
    key_in_range,
    repeated_queries,
    run_range,
    search_machine,
)
from repro.protocol.update import UpdateStrategy, buddy_forward_step, discover_replicas

__all__ = [
    # effects
    "Address",
    "ContactStatus",
    "OK",
    "OFFLINE",
    "GONE",
    "Contact",
    "Resolve",
    "FetchBuddies",
    "Record",
    "Deliver",
    "QueryStep",
    "BreadthStep",
    "ExchangeStep",
    "BUDDY_PING",
    "dispatch_record",
    # runtime
    "Budget",
    "StepStats",
    "Context",
    "Traversal",
    "ExchangeContext",
    # machines
    "contact_step",
    "dfs_step",
    "search_machine",
    "breadth_step",
    "breadth_machine",
    "fanout_step",
    "exchange_step",
    "buddy_forward_step",
    # driver contract
    "drive",
    # orchestration
    "key_in_range",
    "run_range",
    "repeated_queries",
    "discover_replicas",
    "UpdateStrategy",
    "read_single",
    "read_repeated",
    "read_majority",
]
