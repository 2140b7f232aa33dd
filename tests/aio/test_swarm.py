"""AsyncSwarm: whole-population serving and the mixed workload driver.

The swarm's contract is *correct under concurrency*: operations may
interleave arbitrarily on the loop, but every search must still find a
key the grid holds, every update must reach its replica set, and the
workload schedule itself must be a pure function of the seed.  A larger
smoke (1000 nodes) runs via ``make swarm-smoke`` / CI; these tests keep
the invariant checks fast enough for tier 1.
"""

from __future__ import annotations

import asyncio

import pytest

from tests.conftest import build_grid

from repro.aio.swarm import AsyncSwarm, seed_items


def make_swarm(n=64, maxl=4, seed=7, **kwargs):
    grid = build_grid(n, maxl=maxl, refmax=2, seed=seed)
    return grid, AsyncSwarm(grid, **kwargs)


class TestSeedItems:
    def test_deterministic_and_installed(self):
        grid_a = build_grid(32, maxl=4, refmax=2, seed=3)
        grid_b = build_grid(32, maxl=4, refmax=2, seed=3)
        keys_a = seed_items(grid_a, items_per_peer=2, seed=5)
        keys_b = seed_items(grid_b, items_per_peer=2, seed=5)
        assert keys_a == keys_b
        assert keys_a == sorted(set(keys_a))
        # every key is actually answerable from its replicas
        for key in keys_a:
            replicas = grid_a.replicas_for_key(key)
            assert replicas
            assert any(
                grid_a.peer(addr).store.refs_for_key(key) for addr in replicas
            )

    def test_item_randomness_is_not_grid_randomness(self):
        grid = build_grid(16, maxl=3, refmax=2, seed=3)
        before = grid.rng.getstate()
        seed_items(grid, seed=5)
        assert grid.rng.getstate() == before


class TestSingleOperations:
    def test_search_and_update_roundtrip(self):
        grid, swarm = make_swarm()
        keys = seed_items(grid, seed=1)

        async def scenario():
            async with swarm:
                outcome = await swarm.search(0, keys[0])
                assert outcome.found
                from repro.core.storage import DataRef

                ref = DataRef(key=keys[0], holder=3, version=9)
                result = await swarm.update(0, ref)
                assert result.reached
                again = await swarm.search(5, keys[0])
                assert again.found
                assert any(r.version == 9 for r in again.data_refs)

        asyncio.run(scenario())


class TestWorkload:
    def test_mixed_workload_all_found_no_errors(self):
        grid, swarm = make_swarm()
        keys = seed_items(grid, seed=2)

        async def scenario():
            async with swarm:
                return await swarm.run_workload(
                    operations=200, keys=keys, update_fraction=0.2,
                    concurrency=16, seed=0,
                )

        report = asyncio.run(scenario())
        assert report.errors == []
        assert report.operations == 200
        assert report.searches + report.updates == 200
        assert report.updates > 0
        assert report.found == report.searches  # healthy grid: all hit
        assert report.found_rate == 1.0
        assert report.update_failures == 0
        assert report.messages_delivered > 0
        assert report.max_mailbox_depth >= 1
        snapshot = report.snapshot()
        assert snapshot["peers"] == len(grid.addresses())
        assert snapshot["found_rate"] == 1.0

    def test_schedule_is_seed_deterministic(self):
        """Same seed -> same operation mix regardless of interleaving."""
        reports = []
        for concurrency in (4, 32):
            grid, swarm = make_swarm()
            keys = seed_items(grid, seed=2)

            async def scenario(swarm=swarm, keys=keys, concurrency=concurrency):
                async with swarm:
                    return await swarm.run_workload(
                        operations=150, keys=keys, update_fraction=0.3,
                        concurrency=concurrency, seed=9,
                    )

            reports.append(asyncio.run(scenario()))
        first, second = reports
        assert first.searches == second.searches
        assert first.updates == second.updates
        assert first.found == second.found
        assert first.update_failures == second.update_failures

    def test_workload_validation(self):
        grid, swarm = make_swarm(n=16, maxl=3)
        keys = seed_items(grid, seed=1)

        async def bad(**kwargs):
            async with swarm:
                await swarm.run_workload(**kwargs)

        with pytest.raises(ValueError):
            asyncio.run(bad(operations=0, keys=keys))
        with pytest.raises(ValueError):
            asyncio.run(bad(operations=10, keys=[]))
        with pytest.raises(ValueError):
            asyncio.run(bad(operations=10, keys=keys, update_fraction=1.5))
        with pytest.raises(ValueError):
            asyncio.run(bad(operations=10, keys=keys, concurrency=0))

    def test_workload_under_faults_counts_failures_not_raises(self):
        """Crashed peers surface as found-rate loss / error strings, never
        as an exception out of run_workload."""
        from repro.faults import FaultPlan

        grid, swarm = make_swarm(n=48, maxl=4)
        keys = seed_items(grid, seed=3)
        injector = swarm.transport.install_faults(FaultPlan(seed=13))
        injector.crash_random(0.25)

        async def scenario():
            async with swarm:
                return await swarm.run_workload(
                    operations=120, keys=keys, update_fraction=0.1,
                    concurrency=8, seed=4,
                )

        report = asyncio.run(scenario())
        assert report.operations == 120
        # some operations failed outright (crashed start node) or missed
        assert report.errors or report.found < report.searches


def multi_hop_search(grid, keys):
    """A ``(start, key)`` whose search needs at least two messages whatever
    the RNG picks: no reference of *start* at the first level is a replica."""
    for key in keys:
        replicas = set(grid.replicas_for_key(key))
        for peer in grid.peers():
            refs = peer.routing.refs(1)
            if peer.path[:1] != key[:1] and refs and not replicas & set(refs):
                return peer.address, key
    raise AssertionError("no multi-hop search in this grid")


class TestInlineHops:
    """No task per peer, no task per message: an operation is one await
    chain in its caller's task (see docs/ASYNC.md, "Delivery model")."""

    def test_multi_hop_search_returns_without_yielding_to_the_loop(self):
        grid, swarm = make_swarm()
        start, key = multi_hop_search(grid, seed_items(grid, seed=1))

        async def scenario():
            async with swarm:
                ticked = []
                asyncio.get_running_loop().call_soon(ticked.append, True)
                outcome = await swarm.search(start, key)
                assert ticked == []  # every hop ran inside this one step
                return outcome

        outcome = asyncio.run(scenario())
        assert outcome.found and outcome.messages >= 2
        box = swarm.transport.mailbox_snapshot()
        assert box["enqueued"] == box["handled"] == outcome.messages
        assert (box["max_depth"], box["mean_wait"], box["max_wait"]) == (1, 0.0, 0.0)

    def test_start_creates_no_per_peer_task(self):
        async def tasks_while_serving(n, maxl):
            grid, swarm = make_swarm(n=n, maxl=maxl)
            keys = seed_items(grid, seed=1)
            async with swarm:
                assert (await swarm.search(0, keys[0])).found
                return len(asyncio.all_tasks())

        assert asyncio.run(tasks_while_serving(16, 3)) == 1
        assert asyncio.run(tasks_while_serving(256, 5)) == 1

    def test_timed_out_search_leaves_no_task_behind(self):
        """Cancellation is structured: the timeout lands in the second hop's
        latency sleep and unwinds the first hop's handler with it."""
        from repro.net.transport import ConstantLatency

        from repro.aio.clock import RealtimeClock
        from repro.aio.transport import AsyncTransport

        grid = build_grid(64, maxl=4, refmax=2, seed=7)
        start, key = multi_hop_search(grid, seed_items(grid, seed=1))
        transport = AsyncTransport(
            grid, latency=ConstantLatency(0.05), clock=RealtimeClock()
        )
        swarm = AsyncSwarm(grid, transport=transport)

        async def scenario():
            async with swarm:
                before = len(asyncio.all_tasks())
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(swarm.search(start, key), 0.075)
                return before, len(asyncio.all_tasks())

        before, after = asyncio.run(scenario())
        assert before == after == 1
        # One hop delivered, the second cut short inside its latency sleep.
        assert transport.stats.total_delivered() == 1
        assert transport.stats.simulated_time == pytest.approx(0.10)
        box = transport.mailbox_snapshot()
        assert box["handled"] <= box["enqueued"]
