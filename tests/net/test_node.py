"""Tests for the message-driven P-Grid node."""

from __future__ import annotations

import random

from repro.core import keys as keyspace
from repro.core.search import SearchEngine
from repro.core.storage import DataRef
from repro.net.message import MessageKind, ping
from repro.net.node import attach_nodes
from repro.net.transport import LocalTransport
from repro.protocol.effects import OK
from repro.sim.churn import FixedOnlineSet
from tests.conftest import build_grid, make_fig1_grid


class TestNetworkedSearch:
    def test_fig1_examples_over_messages(self):
        grid = make_fig1_grid()
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)

        local = nodes[0].search("00")
        assert local.found and local.responder == 0
        assert local.messages == 0

        routed = nodes[5].search("10")
        assert routed.found and routed.responder in (2, 3)
        assert 1 <= routed.messages <= 2
        assert transport.count(MessageKind.QUERY) == routed.messages

    def test_networked_matches_core_engine_on_built_grid(self):
        grid = build_grid(128, maxl=5, refmax=2, seed=31)
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        core = SearchEngine(grid)
        rng = random.Random(1)
        for _ in range(50):
            key = keyspace.random_key(5, rng)
            start = rng.choice(grid.addresses())
            assert nodes[start].search(key).found == core.query_from(
                start, key
            ).found

    def test_query_message_count_matches_outcome(self):
        grid = build_grid(64, maxl=4, refmax=2, seed=32)
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        before = transport.stats.total_delivered()
        outcome = nodes[0].search("1100")
        assert transport.stats.total_delivered() - before == outcome.messages

    def test_search_respects_churn(self):
        grid = make_fig1_grid()
        grid.online_oracle = FixedOnlineSet({0, 1})
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        outcome = nodes[0].search("11")
        assert not outcome.found
        assert transport.stats.offline_failures >= 1

    def test_responder_refs_travel_in_reply(self):
        grid = make_fig1_grid()
        grid.peer(2).store.add_ref(DataRef(key="100", holder=4, version=1))
        grid.peer(3).store.add_ref(DataRef(key="100", holder=4, version=1))
        transport = LocalTransport(grid)
        attach_nodes(grid, transport)
        # send a query message directly and inspect the response payload
        from repro.net.message import query_message

        # After one routing hop the first query bit is consumed: the suffix
        # "0" arrives at level 1; the node reconstructs the full key "10".
        reply = transport.send(query_message(5, 2, "0", 1))
        assert reply.payload["found"]
        assert reply.payload["refs"] == [
            {"key": "100", "holder": 4, "version": 1}
        ]


class TestUpdates:
    def test_push_update_installs_ref(self):
        grid = make_fig1_grid()
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        ref = DataRef(key="001", holder=8, version=3)
        assert nodes[0].push_update(1, ref)
        assert grid.peer(1).store.version_of("001", 8) == 3
        assert transport.count(MessageKind.UPDATE) == 1

    def test_push_update_to_offline_peer_fails(self):
        grid = make_fig1_grid()
        grid.online_oracle = FixedOnlineSet({0})
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        assert not nodes[0].push_update(1, DataRef(key="0", holder=1))
        assert grid.peer(1).store.version_of("0", 1) is None


class TestMisc:
    def test_ping_answered(self):
        grid = make_fig1_grid()
        transport = LocalTransport(grid)
        attach_nodes(grid, transport)
        reply = transport.send(ping(0, 1))
        assert reply.kind is MessageKind.PONG

    def test_unknown_kind_ignored(self):
        from repro.net.message import Message

        grid = make_fig1_grid()
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        bogus = Message(kind=MessageKind.UPDATE_ACK, source=0, destination=1)
        assert nodes[1].handle(bogus) is None

    def test_attach_nodes_registers_everyone(self):
        grid = make_fig1_grid()
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        assert set(nodes) == set(grid.addresses())
        for address in grid.addresses():
            assert transport.admit(MessageKind.PING, 0, address) is OK


class TestMessagePropagation:
    def test_propagate_reaches_multiple_replicas(self):
        grid = build_grid(256, maxl=5, refmax=3, seed=33)
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        ref = DataRef(key="10110", holder=4, version=1)
        # pick a non-replica initiator (a BFS launched at a replica
        # terminates at itself)
        replicas = set(grid.replicas_for_key("10110"))
        initiator = next(a for a in grid.addresses() if a not in replicas)
        reached = nodes[initiator].publish(ref, recbreadth=3).reached
        assert len(reached) >= 2
        for address in reached:
            assert grid.peer(address).store.version_of("10110", 4) == 1
        assert transport.count(MessageKind.PROPAGATE) >= len(reached) - 1

    def test_propagate_matches_core_engine_reach_class(self):
        from repro.core.updates import UpdateEngine, UpdateStrategy

        grid = build_grid(256, maxl=5, refmax=3, seed=34)
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        key = "01011"
        replicas = set(grid.replicas_for_key(key))
        initiator = next(a for a in grid.addresses() if a not in replicas)
        networked = nodes[initiator].publish(
            DataRef(key=key, holder=1, version=1), recbreadth=3
        ).reached
        core, _, _ = UpdateEngine(grid).find_replicas(
            initiator, key, strategy=UpdateStrategy.BFS, recbreadth=3
        )
        # both must be non-trivial subsets of the true replica set
        assert networked <= replicas
        assert core <= replicas
        assert len(networked) >= max(1, len(core) // 3)

    def test_propagate_respects_churn(self):
        grid = build_grid(128, maxl=4, refmax=2, seed=35)
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        grid.online_oracle = FixedOnlineSet({0})  # only the initiator is up
        reached = nodes[0].publish(
            DataRef(key="1111", holder=2, version=1), recbreadth=2
        ).reached
        # nothing beyond the initiator itself (if responsible) is reachable
        assert reached <= {0}

    def test_propagate_tombstone(self):
        grid = build_grid(128, maxl=4, refmax=3, seed=36)
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        key = "0101"
        replicas = set(grid.replicas_for_key(key))
        initiator = next(a for a in grid.addresses() if a not in replicas)
        live = DataRef(key=key, holder=7, version=0)
        nodes[initiator].publish(live, recbreadth=3)
        reached = nodes[initiator].publish(
            live.tombstone(), recbreadth=3
        ).reached
        for address in reached:
            assert grid.peer(address).store.is_deleted(key, 7)

    def test_propagate_validates(self):
        grid = build_grid(32, maxl=3, seed=37)
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        import pytest as _pytest

        with _pytest.raises(ValueError):
            nodes[0].publish(DataRef(key="1", holder=0), recbreadth=0)
