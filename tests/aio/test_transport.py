"""AsyncTransport semantics: mailboxes, backpressure, failure order, faults.

The async transport must present *exactly* the LocalTransport delivery
contract to the protocol (same error types in the same precedence, same
``TrafficStats`` accounting) while adding what an event loop makes
possible: bounded per-node mailboxes with blocking backpressure,
concurrent (re-entrant) handlers, and mailbox depth/wait observability.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.errors import (
    InvalidConfigError,
    NoHandlerError,
    PeerOfflineError,
    TransportError,
)
from repro.faults import FaultPlan
from repro.net.message import MessageKind, ping, pong
from repro.net.transport import ConstantLatency
from repro.sim.churn import FixedOnlineSet

from repro.aio.transport import AsyncTransport


def make_grid(n_peers: int = 4) -> PGrid:
    grid = PGrid(PGridConfig(), rng=random.Random(0))
    grid.add_peers(n_peers)
    return grid


async def async_pong(message):
    return pong(message)


def run(coro):
    return asyncio.run(coro)


class TestRegistration:
    def test_register_unknown_address_rejected(self):
        transport = AsyncTransport(make_grid(4))
        with pytest.raises(InvalidConfigError, match="no such peer"):
            transport.register(9, async_pong)

    def test_double_register_rejected(self):
        transport = AsyncTransport(make_grid())
        transport.register(1, async_pong)
        with pytest.raises(TransportError):
            transport.register(1, async_pong)

    def test_mailbox_size_validated(self):
        with pytest.raises(ValueError):
            AsyncTransport(make_grid(), mailbox_size=0)

    def test_lossy_transport_requires_seeded_rng(self):
        with pytest.raises(InvalidConfigError):
            AsyncTransport(make_grid(), loss_probability=0.5)

    def test_register_after_start_is_served(self):
        grid = make_grid()
        transport = AsyncTransport(grid)

        async def scenario():
            await transport.start()
            transport.register(1, async_pong)
            try:
                return await transport.request(ping(0, 1))
            finally:
                await transport.stop()

        assert run(scenario()).kind is MessageKind.PONG


class TestDeliveryOrder:
    """Failure precedence must match LocalTransport.send exactly."""

    def test_missing_handler(self):
        transport = AsyncTransport(make_grid())

        async def scenario():
            await transport.start()
            try:
                await transport.request(ping(0, 1))
            finally:
                await transport.stop()

        with pytest.raises(NoHandlerError):
            run(scenario())

    def test_offline_destination(self):
        grid = make_grid()
        transport = AsyncTransport(grid)
        transport.register(1, async_pong)
        grid.online_oracle = FixedOnlineSet({0})

        async def scenario():
            await transport.start()
            try:
                await transport.request(ping(0, 1))
            finally:
                await transport.stop()

        with pytest.raises(PeerOfflineError):
            run(scenario())
        assert transport.stats.offline_failures == 1

    def test_loss_coin(self):
        transport = AsyncTransport(make_grid(), loss_probability=0.9999, seed=1)
        transport.register(1, async_pong)

        async def scenario():
            await transport.start()
            try:
                await transport.request(ping(0, 1))
            finally:
                await transport.stop()

        with pytest.raises(TransportError):
            run(scenario())
        assert transport.stats.dropped == 1

    def test_latency_accrues_simulated_time(self):
        transport = AsyncTransport(make_grid(), latency=ConstantLatency(2.5))
        transport.register(1, async_pong)

        async def scenario():
            await transport.start()
            try:
                await transport.request(ping(0, 1))
                await transport.request(ping(0, 1))
            finally:
                await transport.stop()

        run(scenario())
        assert transport.stats.simulated_time == pytest.approx(5.0)
        assert transport.clock.elapsed == pytest.approx(5.0)

    def test_delivery_counts_only_delivered_requests(self):
        grid = make_grid()
        transport = AsyncTransport(grid)
        transport.register(1, async_pong)

        async def scenario():
            await transport.start()
            try:
                reply = await transport.request(ping(0, 1))
                assert reply.kind is MessageKind.PONG
                grid.online_oracle = FixedOnlineSet({0})
                with pytest.raises(PeerOfflineError):
                    await transport.request(ping(0, 1))
            finally:
                await transport.stop()

        run(scenario())
        assert transport.count(MessageKind.PING) == 1


class TestMailboxes:
    def test_stats_track_enqueue_and_handling(self):
        transport = AsyncTransport(make_grid())
        transport.register(1, async_pong)

        async def scenario():
            await transport.start()
            try:
                await asyncio.gather(
                    *(transport.request(ping(0, 1)) for _ in range(10))
                )
            finally:
                await transport.stop()

        run(scenario())
        box = transport.mailbox_stats[1]
        assert box.enqueued == 10
        assert box.handled == 10
        assert box.max_depth >= 1
        snapshot = transport.mailbox_snapshot()
        assert snapshot["enqueued"] == 10
        assert snapshot["handled"] == 10
        assert snapshot["max_depth"] == transport.max_mailbox_depth()

    def test_bounded_mailbox_applies_backpressure(self):
        """With a full size-1 mailbox, request() blocks in queue.put
        instead of dropping — the sender is the one that waits.  The
        queue fills while the node's worker isn't draining (here: not
        yet started; in production: a node buried under load)."""
        transport = AsyncTransport(make_grid(), mailbox_size=1)
        transport.register(1, async_pong)

        async def scenario():
            senders = [
                asyncio.ensure_future(transport.request(ping(0, 1)))
                for _ in range(3)
            ]
            await asyncio.sleep(0.05)
            # one message made it into the mailbox; the other senders
            # are parked inside queue.put, not dropped
            assert transport.mailbox_stats[1].enqueued == 1
            assert not any(s.done() for s in senders)
            await transport.start()
            try:
                replies = await asyncio.gather(*senders)
                assert all(r.kind is MessageKind.PONG for r in replies)
                assert transport.mailbox_stats[1].enqueued == 3
                assert transport.mailbox_stats[1].handled == 3
            finally:
                await transport.stop()

        run(scenario())

    def test_reentrant_handlers_do_not_deadlock(self):
        """A handler that calls back into its requester's mailbox — the
        shape recursive queries produce — must complete."""
        grid = make_grid()
        transport = AsyncTransport(grid)

        async def relay(message):
            if message.source == 0:
                # B contacts A back while A awaits B's reply.
                await transport.request(ping(1, 0))
            return pong(message)

        transport.register(0, async_pong)
        transport.register(1, relay)

        async def scenario():
            await transport.start()
            try:
                return await asyncio.wait_for(
                    transport.request(ping(0, 1)), timeout=5.0
                )
            finally:
                await transport.stop()

        assert run(scenario()).kind is MessageKind.PONG

    def test_handler_exception_propagates_to_requester(self):
        transport = AsyncTransport(make_grid())

        async def broken(message):
            raise RuntimeError("handler blew up")

        transport.register(1, broken)

        async def scenario():
            await transport.start()
            try:
                await transport.request(ping(0, 1))
            finally:
                await transport.stop()

        with pytest.raises(RuntimeError, match="blew up"):
            run(scenario())


class TestFaultWiring:
    def test_install_faults_runs_pre_and_post_gates(self):
        grid = make_grid()
        transport = AsyncTransport(grid)
        transport.register(1, async_pong)
        injector = transport.install_faults(FaultPlan(seed=3, extra_latency=1.5))
        assert transport.faults is injector

        async def scenario():
            await transport.start()
            try:
                await transport.request(ping(0, 1))
            finally:
                await transport.stop()

        run(scenario())
        assert injector.fault_stats.injected_latency == pytest.approx(1.5)
        assert transport.stats.simulated_time == pytest.approx(1.5)

    def test_crashed_peer_unreachable_through_async_path(self):
        grid = make_grid()
        transport = AsyncTransport(grid)
        transport.register(1, async_pong)
        injector = transport.install_faults(FaultPlan(seed=3))
        injector.crash(1)

        async def scenario():
            await transport.start()
            try:
                await transport.request(ping(0, 1))
            finally:
                await transport.stop()

        with pytest.raises(PeerOfflineError):
            run(scenario())
        assert injector.fault_stats.crashed_contacts == 1

    def test_fault_plan_unknown_peer_rejected(self):
        transport = AsyncTransport(make_grid(4))
        injector = transport.install_faults(FaultPlan(seed=3))
        with pytest.raises(InvalidConfigError, match="no such peer"):
            injector.crash(99)


class TestInlineDelivery:
    """A hop is one awaited call in the requester's task: no worker, no
    handler task, no yield to the loop on a started transport."""

    def test_started_request_returns_without_yielding_to_the_loop(self):
        transport = AsyncTransport(make_grid())
        transport.register(1, async_pong)

        async def scenario():
            await transport.start()
            ticked = []
            asyncio.get_running_loop().call_soon(ticked.append, True)
            reply = await transport.request(ping(0, 1))
            assert reply.kind is MessageKind.PONG
            assert ticked == []  # the loop never got a turn
            await asyncio.sleep(0)
            assert ticked == [True]

        run(scenario())

    def test_reentrant_chain_completes_at_mailbox_size_one(self):
        """A -> B -> A with one slot per node: the slot is given back before
        the handler runs, so A's mailbox is free when B calls back."""
        transport = AsyncTransport(make_grid(), mailbox_size=1)
        seen = []

        async def a(message):
            seen.append(("a", message.source))
            if message.source != 1:
                await transport.request(ping(0, 1))
            return pong(message)

        async def b(message):
            seen.append(("b", message.source))
            await transport.request(ping(1, 0))
            return pong(message)

        transport.register(0, a)
        transport.register(1, b)

        async def scenario():
            await transport.start()
            return await asyncio.wait_for(transport.request(ping(2, 0)), 5)

        assert run(scenario()).kind is MessageKind.PONG
        assert seen == [("a", 2), ("b", 0), ("a", 1)]
        assert transport.max_mailbox_depth() == 1

    def test_deep_relay_chain_raises_no_recursion_error(self):
        depth = 64
        transport = AsyncTransport(make_grid(depth + 1))

        async def relay(message):
            if message.destination < depth:
                await transport.request(ping(message.destination, message.destination + 1))
            return pong(message)

        for address in range(depth + 1):
            transport.register(address, relay)

        async def scenario():
            await transport.start()
            return await transport.request(ping(0, 1))

        assert run(scenario()).kind is MessageKind.PONG
        assert transport.count(MessageKind.PING) == depth

    def test_fault_gates_run_in_order_around_an_inline_delivery(self):
        transport = AsyncTransport(make_grid())
        order = []

        async def handler(message):
            order.append("handle")
            return pong(message)

        transport.register(1, handler)
        injector = transport.install_faults(FaultPlan(seed=3, extra_latency=0.5))
        admit, postcheck = transport.admit, injector.postcheck
        transport.admit = lambda *contact: (order.append("pre"), admit(*contact))[1]
        injector.postcheck = lambda m: (order.append("post"), postcheck(m))[1]

        async def scenario():
            await transport.start()
            await transport.request(ping(0, 1))

        run(scenario())
        assert order == ["pre", "handle", "post"]
        assert transport.clock.elapsed == pytest.approx(0.5)


class TestGate:
    """start() opens the gate, stop() closes it; senders park in between."""

    @pytest.mark.parametrize("mailbox_size", [1, 2, 64])
    def test_senders_parked_before_start_are_dispatched_in_fifo_order(self, mailbox_size):
        transport = AsyncTransport(make_grid(), mailbox_size=mailbox_size)
        order = []

        async def handler(message):
            order.append(message.payload["n"])
            return pong(message)

        transport.register(1, handler)

        def numbered(n):
            message = ping(0, 1)
            message.payload["n"] = n
            return message

        async def scenario():
            senders = [asyncio.ensure_future(transport.request(numbered(n))) for n in range(6)]
            await asyncio.sleep(0.01)
            assert order == []
            assert transport.mailbox_stats[1].enqueued == min(mailbox_size, 6)
            await transport.start()
            await asyncio.gather(*senders)

        run(scenario())
        assert order == list(range(6))
        box = transport.mailbox_stats[1]
        assert box.enqueued == box.handled == 6
        assert box.max_depth == min(mailbox_size, 6)
        assert box.max_wait > 0.0

    def test_stop_then_start_parks_and_resumes(self):
        transport = AsyncTransport(make_grid())
        transport.register(1, async_pong)

        async def scenario():
            await transport.start()
            assert (await transport.request(ping(0, 1))).kind is MessageKind.PONG
            await transport.stop()
            parked = asyncio.ensure_future(transport.request(ping(0, 1)))
            await asyncio.sleep(0.01)
            assert not parked.done()
            assert transport.mailbox_stats[1].enqueued == 2
            assert transport.mailbox_stats[1].handled == 1
            await transport.start()
            assert (await asyncio.wait_for(parked, 5)).kind is MessageKind.PONG
            assert transport.mailbox_stats[1].handled == 2

        run(scenario())

    def test_gate_opened_and_closed_in_one_tick_keeps_senders_parked(self):
        transport = AsyncTransport(make_grid())
        transport.register(1, async_pong)

        async def scenario():
            parked = asyncio.ensure_future(transport.request(ping(0, 1)))
            await asyncio.sleep(0.01)
            await transport.start()
            await transport.stop()  # before the woken sender got to run
            await asyncio.sleep(0.01)
            assert not parked.done()
            assert transport.mailbox_stats[1].handled == 0
            await transport.start()
            assert (await asyncio.wait_for(parked, 5)).kind is MessageKind.PONG

        run(scenario())

    def test_request_accepted_for_a_peer_that_then_leaves_is_answered(self):
        """Queue + worker left this caller waiting forever: the message sat in
        a mailbox whose worker ``unregister`` had just cancelled."""
        transport = AsyncTransport(make_grid())
        transport.register(1, async_pong)

        async def scenario():
            await transport.start()
            caller = asyncio.ensure_future(transport.request(ping(0, 1)))
            await asyncio.sleep(0)  # accepted ...
            transport.unregister(1)  # ... and the peer leaves in the same tick
            return await asyncio.wait_for(caller, 1)

        assert run(scenario()).kind is MessageKind.PONG

    def test_parked_sender_whose_peer_leaves_gets_no_handler_error(self):
        transport = AsyncTransport(make_grid(), mailbox_size=1)
        transport.register(1, async_pong)

        async def scenario():
            holder, waiter = (
                asyncio.ensure_future(transport.request(ping(0, 1))) for _ in range(2)
            )
            await asyncio.sleep(0.01)
            transport.unregister(1)
            await transport.start()
            return await asyncio.wait_for(
                asyncio.gather(holder, waiter, return_exceptions=True), 5
            )

        outcomes = run(scenario())
        assert [type(outcome) for outcome in outcomes] == [NoHandlerError, NoHandlerError]
        assert transport.mailbox_stats[1].handled == 0

    @pytest.mark.parametrize("victim", [0, 1])
    def test_sender_cancelled_while_parked_gives_its_slot_back(self, victim):
        """Sender 0 holds the one slot, 1 and 2 wait for it; whichever is
        cancelled, the other two are served once the gate opens."""
        transport = AsyncTransport(make_grid(), mailbox_size=1)
        transport.register(1, async_pong)

        async def scenario():
            senders = [
                asyncio.ensure_future(transport.request(ping(0, 1))) for _ in range(3)
            ]
            await asyncio.sleep(0.01)
            senders[victim].cancel()
            await asyncio.sleep(0.01)
            assert senders[victim].cancelled()
            await transport.start()
            survivors = [s for s in senders if s is not senders[victim]]
            replies = await asyncio.wait_for(asyncio.gather(*survivors), 5)
            assert all(r.kind is MessageKind.PONG for r in replies)

        run(scenario())
        box = transport.mailbox_stats[1]
        assert box.handled == 2
        assert box.handled <= box.enqueued <= 3
        assert box.max_depth == 1
