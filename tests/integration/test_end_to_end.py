"""End-to-end integration: construct → publish → search → update → read,
both through the in-process engines and over the message substrate."""

from __future__ import annotations

import random

from repro.core.search import SearchEngine
from repro.core.storage import DataItem, DataRef
from repro.core.updates import ReadEngine, UpdateEngine, UpdateStrategy
from repro.net.node import attach_nodes
from repro.net.transport import LocalTransport
from repro.sim.churn import BernoulliChurn
from repro.sim.persistence import load_grid, save_grid
from tests.conftest import assert_routing_consistent, build_grid


class TestFullLifecycle:
    def test_publish_search_update_read(self):
        grid = build_grid(256, maxl=5, refmax=3, seed=61)
        assert_routing_consistent(grid)

        # 1. publish a file's index entry
        updates = UpdateEngine(grid)
        item = DataItem(key="10110", value="song.mp3")
        publish = updates.publish(
            4, item, holder=17, strategy=UpdateStrategy.BFS, recbreadth=3
        )
        assert publish.reached

        # 2. any peer can find it
        search = SearchEngine(grid)
        hit = False
        for start in (0, 50, 100, 200):
            result = search.query_from(start, "10110")
            assert result.found
            if any(ref.holder == 17 for ref in result.data_refs):
                hit = True
        assert hit

        # 3. update to version 1 and read it back repeatedly until fresh.
        # Start the update at a non-replica peer: a breadth-first search
        # launched *at* a replica terminates immediately at itself (the
        # paper's "not all replicas are as likely to be found" effect).
        replicas = set(grid.replicas_for_key("10110"))
        start = next(a for a in grid.addresses() if a not in replicas)
        update = updates.propagate(
            start,
            DataRef(key="10110", holder=17, version=1),
            strategy=UpdateStrategy.BFS,
            recbreadth=3,
        )
        assert len(update.reached) >= 2
        reads = ReadEngine(grid, search=search)
        read = reads.read_repeated(120, "10110", holder=17, version=1)
        assert read.success

    def test_lifecycle_under_churn(self):
        grid = build_grid(256, maxl=5, refmax=4, seed=62)
        updates = UpdateEngine(grid)
        item = DataItem(key="01011", value="doc.pdf")
        updates.publish(
            1, item, holder=3, strategy=UpdateStrategy.BFS, recbreadth=3
        )
        grid.online_oracle = BernoulliChurn(0.5, random.Random(99))
        search = SearchEngine(grid)
        successes = sum(
            search.query_from(start, "01011").found
            for start in range(0, 250, 10)
        )
        assert successes >= 15  # churn-tolerant: most searches still succeed

    def test_snapshot_preserves_searchability_and_data(self, tmp_path):
        grid = build_grid(128, maxl=4, refmax=2, seed=63)
        UpdateEngine(grid).publish(
            0, DataItem(key="1100", value="x"), holder=5,
            strategy=UpdateStrategy.BFS, recbreadth=3,
        )
        save_grid(grid, tmp_path / "grid.json")
        clone = load_grid(tmp_path / "grid.json", rng=random.Random(7))
        result = SearchEngine(clone).query_from(90, "1100")
        assert result.found
        assert any(ref.holder == 5 for ref in result.data_refs)


class TestNetworkedLifecycle:
    def test_search_and_update_over_messages(self):
        grid = build_grid(128, maxl=4, refmax=3, seed=64)
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)

        # discover replicas with the core engine, then push updates as
        # explicit messages and verify they landed.
        updates = UpdateEngine(grid)
        reached, _, _ = updates.find_replicas(
            0, "0110", strategy=UpdateStrategy.BFS, recbreadth=3
        )
        assert reached
        ref = DataRef(key="0110", holder=2, version=1)
        for address in reached:
            assert nodes[0].push_update(address, ref)
        for address in reached:
            assert grid.peer(address).store.version_of("0110", 2) == 1

        # a networked search from an arbitrary node then finds the entry
        outcome = nodes[77].search("0110")
        assert outcome.found

    def test_transport_counters_reflect_search_traffic(self):
        grid = build_grid(128, maxl=4, refmax=3, seed=65)
        transport = LocalTransport(grid)
        nodes = attach_nodes(grid, transport)
        total = 0
        for start in range(0, 120, 7):
            total += nodes[start].search("1010").messages
        assert transport.stats.total_delivered() == total
