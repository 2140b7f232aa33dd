"""The driver contract: how an I/O layer executes a protocol machine.

A *driver* runs one sans-I/O machine — a generator yielding
:mod:`repro.protocol.effects` — to completion, answering every effect
from its substrate and sending the outcome back in.  Two kinds ship with
this repository, both running the very same machines:

* the **direct driver** (:mod:`repro.protocol.direct`) answers effects
  synchronously from an in-process :class:`repro.core.grid.PGrid`, in
  one loop that keeps nested machines on an explicit stack;
* the **message driver** (:mod:`repro.net.node`) is split into *prepare*
  (one uncoloured :class:`~repro.net.node.NodeCore` decides everything:
  the machine, its budget, ``build(effect) -> Message``,
  ``resolve(reply)`` and ``finish(result)``), *drive* (the effect loop,
  the only code written per transport: both loops answer a
  :class:`~repro.protocol.effects.Contact` by asking the transport's gate
  — ``transport.admit(kind, me, target)``, no message yet — and only on
  ``OK`` build the message, ``transport.arrive`` it and push the
  destination node's operation onto the loop's own stack, as the direct
  driver does, its result the reply;
  :class:`repro.net.node.PGridNode` calls, :class:`repro.aio.node.AsyncPGridNode`
  awaits, retry backoff slept on the event-loop clock) and *finish*.
  Both loops are written out per transport because a contact attempt
  is their unit of cost (most attempts at the paper's 30 %
  availability find the peer offline, and cost a liveness check).

The contract is the same everywhere: the answer to an effect must be
exactly the value the machine expects for that effect kind — a
:class:`~repro.protocol.effects.ContactStatus` for ``Contact``, the
remote step's outcome for ``Resolve``, the sorted buddy list for
``FetchBuddies``, ``None`` for ``Record``.  Machines never
observe *how* an effect was executed (they stay synchronous generators
even when the loop around them awaits: all protocol randomness happens
inside them, in deterministic order), which is what makes the
engine ≡ node ≡ async equivalence suite possible: on twin grids the
drivers consume the grid RNG bit-identically.
"""
