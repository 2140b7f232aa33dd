"""``repro.aio`` — asyncio runtime over the sans-I/O protocol core.

The third driver of the protocol machines (after the in-process engines
and the synchronous message node): many
:class:`~repro.aio.node.AsyncPGridNode`\\ s serve concurrent callers over
an :class:`~repro.aio.transport.AsyncTransport` with per-node bounded
mailboxes.  Because *all* protocol randomness stays inside the
RNG-explicit machines, a sequential workload over this runtime is
bit-identical to the engines and the sync node (the three-way
equivalence suite in ``tests/aio/``), while a concurrent workload is
merely reordered — every individual operation still routes correctly.

Entry points:

* :class:`AsyncSwarm` — build-and-serve a whole population
  (``pgrid swarm`` and the 1k-node smoke run on it);
* :func:`attach_async_nodes` — one node per peer over a transport you
  configure yourself;
* :mod:`repro.aio.tcp` — the same nodes served over real sockets using
  the :mod:`repro.net.wire` framing.

See ``docs/ASYNC.md`` for the operator guide.
"""

from repro.aio.clock import RealtimeClock, VirtualClock
from repro.aio.node import AsyncPGridNode, attach_async_nodes
from repro.aio.swarm import AsyncSwarm, SwarmReport, seed_items
from repro.aio.transport import AsyncTransport, MailboxStats

__all__ = [
    "AsyncPGridNode",
    "AsyncSwarm",
    "AsyncTransport",
    "MailboxStats",
    "RealtimeClock",
    "SwarmReport",
    "VirtualClock",
    "attach_async_nodes",
    "seed_items",
]
