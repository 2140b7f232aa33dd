"""The driver contract: how an I/O layer executes a protocol machine.

A *driver* runs one sans-I/O machine — a generator yielding
:mod:`repro.protocol.effects` — to completion, answering every effect
from its substrate and sending the outcome back in.  Two kinds ship with
this repository, both running the very same machines:

* the **direct driver** (:mod:`repro.protocol.direct`) answers effects
  synchronously from an in-process :class:`repro.core.grid.PGrid`,
  through :func:`drive` below;
* the **message driver** (:mod:`repro.net.node`) is split into *prepare*
  (one uncoloured :class:`~repro.net.node.NodeCore` decides everything:
  the machine, its budget, ``build(effect) -> Message``,
  ``resolve(reply)`` and ``finish(result)``), *drive* (the effect loop,
  the only code written per transport: both loops answer a
  :class:`~repro.protocol.effects.Contact` by asking the transport's gate
  — ``transport.admit(kind, me, target)``, no message yet — and only on
  ``OK`` build the message and ``transport.deliver`` it;
  :class:`repro.net.node.PGridNode` calls, :class:`repro.aio.node.AsyncPGridNode`
  awaits, retry backoff slept on the event-loop clock) and *finish*.
  Both loops are :func:`drive` written out — inlined because a contact
  attempt is their unit of cost (most attempts at the paper's 30 %
  availability find the peer offline, and cost a liveness check).

The contract is the same everywhere: the answer to an effect must be
exactly the value the machine expects for that effect kind — a
:class:`~repro.protocol.effects.ContactStatus` for ``Contact``, the
remote step's outcome for ``Resolve``, the sorted buddy list for
``FetchBuddies``, ``None`` for ``Record`` / ``Deliver``.  Machines never
observe *how* an effect was executed (they stay synchronous generators
even when the loop around them awaits: all protocol randomness happens
inside them, in deterministic order), which is what makes the
engine ≡ node ≡ async equivalence suite possible: on twin grids the
drivers consume the grid RNG bit-identically.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

__all__ = ["drive"]

#: A protocol machine: yields effects, receives their outcomes, returns
#: the operation result via ``StopIteration.value``.
Machine = Generator[Any, Any, Any]


def drive(gen: Machine, execute: Callable[[Any], Any]) -> Any:
    """Run *gen* to completion, answering effects via *execute*."""
    response = None
    while True:
        try:
            effect = gen.send(response)
        except StopIteration as stop:
            return stop.value
        response = execute(effect)
