"""One contract, both shells.

:class:`repro.net.node.PGridNode` and :class:`repro.aio.node.AsyncPGridNode`
inherit every decision from :class:`repro.net.node.NodeCore`; what each
still owns is its driver loop (``_run``) and the thin public wrappers.
These tests run the *same bodies* against both — a shell is a transport,
its nodes and a ``call()`` that completes whatever a node method returned
— and pin what the loops alone decide: the ``Contact`` status mapping,
that the transport's gate is asked before a message is built, the
spent-budget short-circuit, where retry backoff is accrued (and slept),
and that a push retries exactly like :func:`contact_step`.
"""

from __future__ import annotations

import asyncio
import inspect
import random

import pytest

from repro.aio.node import AsyncPGridNode, attach_async_nodes
from repro.aio.transport import AsyncTransport
from repro.core.storage import DataRef
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.net.message import Message, MessageKind, ping, pong, update_message
from repro.net.node import NodeCore, PGridNode, attach_nodes
from repro.net.transport import LocalTransport
from repro.net.wire import decode_message, encode_message
from repro.protocol.contact import Budget, Context, StepStats, contact_step
from repro.protocol.effects import GONE, OFFLINE, OK, Contact, FetchBuddies
from repro.sim.churn import FixedOnlineSet
from tests.conftest import make_fig1_grid


class _AlwaysDrop:
    """Loss-model stream whose every coin lands on "dropped"."""

    def random(self) -> float:
        return 0.0


class SyncShell:
    sleeps = False

    def __init__(self, grid, *, retry=None, faults=None, **transport_options):
        self.grid = grid
        self.transport = LocalTransport(grid, **transport_options)
        self.injector = None
        if faults is not None:  # the sync stack wraps the transport
            self.injector = FaultInjector(self.transport, faults)
            self.injector.install_oracle()
        self.nodes = attach_nodes(grid, self.injector or self.transport, retry=retry)

    def call(self, result):
        return result

    def serve(self, address, respond):
        """Replace *address*'s node by the plain function *respond*."""
        self.transport.unregister(address)
        self.transport.register(address, respond)

    def slept(self):
        return 0.0  # a synchronous transport has no loop clock to sleep on

    def close(self):
        pass


class AsyncShell:
    sleeps = True  # retry backoff is also spent on the transport's loop clock

    def __init__(self, grid, *, retry=None, faults=None, **transport_options):
        self.grid = grid
        self.loop = asyncio.new_event_loop()
        self.transport = AsyncTransport(grid, **transport_options)
        self.injector = None
        if faults is not None:  # the async stack installs the plan on it
            self.injector = self.transport.install_faults(faults)
        self.nodes = attach_async_nodes(grid, self.transport, retry=retry)
        self.loop.run_until_complete(self.transport.start())

    def call(self, result):
        return self.loop.run_until_complete(result)

    def serve(self, address, respond):
        async def handler(message):
            return respond(message)

        async def swap():  # on the loop: registering spawns the mailbox worker
            self.transport.unregister(address)
            self.transport.register(address, handler)

        self.loop.run_until_complete(swap())

    def slept(self):
        return self.transport.clock.elapsed

    def close(self):
        self.loop.run_until_complete(self.transport.stop())
        self.loop.close()


@pytest.fixture(params=[SyncShell, AsyncShell], ids=["sync", "async"])
def make_shell(request):
    """Factory for the parametrised shell; closes what it made."""
    made = []

    def make(grid=None, **options):
        shell = request.param(grid if grid is not None else make_fig1_grid(), **options)
        made.append(shell)
        return shell

    yield make
    for shell in made:
        shell.close()


def contact_statuses(shell, targets, *, budget=5, delay=0.0, builds=None):
    """What node 0's loop answers to one scripted ``Contact`` per target.

    *builds* (a list) collects the targets ``build`` was called for.
    """
    node = shell.nodes[0]

    def machine():
        statuses = []
        for target in targets:
            statuses.append((yield Contact(target, 1, None, delay)))
        return statuses

    def build(effect):
        if builds is not None:
            builds.append(effect.target)
        return ping(0, effect.target)

    op = (machine(), Budget(budget), MessageKind.PING, build, None, list)
    return shell.call(node._run(op))


def traffic(shell):
    stats = shell.transport.stats
    return (stats.total_delivered(), stats.offline_failures, stats.dropped)


# -- Contact status mapping ----------------------------------------------------------


def test_ok_when_the_target_answers(make_shell):
    shell = make_shell()
    assert contact_statuses(shell, [1, 2]) == [OK, OK]
    assert shell.transport.count(MessageKind.PING) == 2


def test_gone_on_an_unregistered_target_is_never_retried(make_shell):
    shell = make_shell(retry=RetryPolicy(attempts=5, base_delay=1.0))
    shell.transport.unregister(1)
    assert contact_statuses(shell, [1]) == [GONE]
    assert shell.call(shell.nodes[0].push_update(1, DataRef("0", 1))) is False
    # One look at the handler table each, no retry, no backoff.
    assert traffic(shell) == (0, 0, 0)
    assert shell.transport.stats.simulated_time == 0.0


def test_offline_on_an_offline_target(make_shell):
    grid = make_fig1_grid()
    grid.online_oracle = FixedOnlineSet({0, 2})
    shell = make_shell(grid)
    assert contact_statuses(shell, [1, 2]) == [OFFLINE, OK]
    assert traffic(shell) == (1, 1, 0)


def test_offline_on_a_transport_drop(make_shell):
    shell = make_shell(loss_probability=0.5, rng=_AlwaysDrop())
    assert contact_statuses(shell, [1]) == [OFFLINE]
    assert traffic(shell) == (0, 0, 1)


def test_offline_on_a_none_reply(make_shell):
    shell = make_shell()
    shell.serve(1, lambda message: None)
    assert contact_statuses(shell, [1]) == [OFFLINE]
    assert traffic(shell) == (1, 0, 0)  # delivered, but nobody answered


def test_spent_budget_is_answered_without_a_message(make_shell):
    grid = make_fig1_grid()
    grid.online_oracle = FixedOnlineSet({0, 1})
    shell = make_shell(grid)
    before = traffic(shell)
    assert contact_statuses(shell, [1, 2, 99], budget=0) == [OK, OFFLINE, GONE]
    assert traffic(shell) == before == (0, 0, 0)


def test_type_error_on_a_foreign_effect(make_shell):
    shell = make_shell()

    def machine():
        yield FetchBuddies(1)

    op = (machine(), Budget(1), None, None, None, list)
    with pytest.raises(TypeError, match="unexpected effect"):
        shell.call(shell.nodes[0]._run(op))


# -- admit before you build ----------------------------------------------------------------


@pytest.fixture
def constructed(monkeypatch):
    """The kinds of every :class:`Message` constructed during the test."""
    kinds = []
    init = Message.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kinds.append(self.kind)

    monkeypatch.setattr(Message, "__init__", counting)
    return kinds


def _offline(shell):
    shell.grid.online_oracle = FixedOnlineSet({0})


def _departed(shell):
    shell.transport.unregister(1)


def _crashed(shell):
    shell.injector.crash(1)


def _plan_drops(shell):
    shell.injector._drop_rng = _AlwaysDrop()


#: refusal -> (shell options, how to arrange it, status, (delivered, offline, dropped))
REFUSALS = {
    "offline": ({}, _offline, OFFLINE, (0, 1, 0)),
    "gone": ({}, _departed, GONE, (0, 0, 0)),
    "lost": ({"loss_probability": 0.5, "rng": _AlwaysDrop()}, None, OFFLINE, (0, 0, 1)),
    "crashed": ({"faults": FaultPlan(seed=1)}, _crashed, OFFLINE, (0, 1, 0)),
    "plan-drop": ({"faults": FaultPlan(seed=1, drop_probability=0.5)}, _plan_drops,
                  OFFLINE, (0, 0, 1)),
}


@pytest.mark.parametrize("refusal", REFUSALS)
def test_a_refused_contact_builds_nothing(make_shell, constructed, refusal):
    options, arrange, status, tallies = REFUSALS[refusal]
    shell = make_shell(**options)
    if arrange is not None:
        arrange(shell)
    builds = []
    assert contact_statuses(shell, [1], builds=builds) == [status]
    assert builds == [] and constructed == []
    assert traffic(shell) == tallies  # refused by the gate, tallied as ever


def test_an_admitted_contact_builds_exactly_one_message(make_shell, constructed):
    grid = make_fig1_grid()
    grid.online_oracle = FixedOnlineSet({0, 2})
    shell = make_shell(grid)
    builds = []
    assert contact_statuses(shell, [1, 2, 1, 99], builds=builds) == [OFFLINE, OK, OFFLINE, GONE]
    assert builds == [2]
    assert constructed == [MessageKind.PING, MessageKind.PONG]  # the request, its reply


def test_a_refused_search_hop_costs_no_message_id(make_shell, constructed):
    """End to end: with everyone else offline a search tries its
    references and builds nothing — refused contacts consume no ids."""
    grid = make_fig1_grid()
    grid.online_oracle = FixedOnlineSet({0})
    shell = make_shell(grid)
    outcome = shell.call(shell.nodes[0].search("11"))
    assert not outcome.found and outcome.failed_attempts > 0
    assert shell.transport.stats.offline_failures == outcome.failed_attempts
    assert constructed == []


def test_fault_gates_run_in_order_around_a_delivered_message(make_shell):
    shell = make_shell(faults=FaultPlan(seed=3, extra_latency=0.5))
    order = []
    gate = shell.injector if isinstance(shell, SyncShell) else shell.transport
    admit, postcheck = gate.admit, shell.injector.postcheck
    gate.admit = lambda *contact: (order.append("pre"), admit(*contact))[1]
    shell.injector.postcheck = lambda m: (order.append("post"), postcheck(m))[1]

    def build(effect):
        order.append("build")
        return ping(0, effect.target)

    def machine():
        return [(yield Contact(1, 1, None))]

    shell.serve(1, lambda message: (order.append("handle"), pong(message))[1])
    op = (machine(), Budget(1), MessageKind.PING, build, None, list)
    assert shell.call(shell.nodes[0]._run(op)) == [OK]
    assert order == ["pre", "build", "handle", "post"]
    assert shell.transport.stats.simulated_time == 0.5


# -- retry backoff: where it is accrued, when it stops ---------------------------------


def test_backoff_accrues_on_the_transport_clock(make_shell):
    shell = make_shell()
    assert contact_statuses(shell, [1, 2], delay=1.5) == [OK, OK]
    assert shell.transport.stats.simulated_time == 3.0
    assert shell.slept() == (3.0 if shell.sleeps else 0.0)


def test_push_update_backs_off_per_the_policy(make_shell):
    grid = make_fig1_grid()
    grid.online_oracle = FixedOnlineSet({0})
    shell = make_shell(grid, retry=RetryPolicy(attempts=3, base_delay=1.0))
    assert shell.call(shell.nodes[0].push_update(1, DataRef("0", 1))) is False
    assert shell.transport.stats.offline_failures == 3
    assert shell.transport.stats.simulated_time == 1.0 + 2.0
    assert shell.slept() == (3.0 if shell.sleeps else 0.0)


def test_deadline_cuts_retries_short(make_shell):
    grid = make_fig1_grid()
    grid.online_oracle = FixedOnlineSet({0})
    retry = RetryPolicy(attempts=5, base_delay=1.0, deadline=2.5)
    shell = make_shell(grid, retry=retry)
    assert shell.call(shell.nodes[0].push_update(1, DataRef("0", 1))) is False
    # 1.0 fits the deadline, 1.0 + 2.0 does not: two attempts, not five.
    assert shell.transport.stats.offline_failures == 2
    assert shell.transport.stats.simulated_time == 1.0


@pytest.mark.parametrize(
    "retry",
    [
        None,
        RetryPolicy(attempts=1),
        RetryPolicy(attempts=4, base_delay=0.5),
        RetryPolicy(attempts=6, base_delay=1.0, deadline=4.0),
    ],
    ids=["none", "one", "four", "deadline"],
)
def test_push_update_attempts_equal_contact_step(make_shell, retry):
    """The push *is* the shared contact machine run through the loop."""
    machine = contact_step(Context(random.Random(0), retry=retry), StepStats(), 0, 1, 0, None)
    contacts = [machine.send(None)]
    try:
        while True:
            contacts.append(machine.send(OFFLINE))
    except StopIteration as stop:
        assert stop.value is False
    grid = make_fig1_grid()
    grid.online_oracle = FixedOnlineSet({0})
    shell = make_shell(grid, retry=retry)
    assert shell.call(shell.nodes[0].push_update(1, DataRef("0", 1))) is False
    assert shell.transport.stats.offline_failures == len(contacts)


def test_push_update_does_not_touch_the_grid_rng(make_shell):
    shell = make_shell(retry=RetryPolicy(attempts=3))
    state = shell.grid.rng.getstate()
    assert shell.call(shell.nodes[0].push_update(1, DataRef("001", 8, 3))) is True
    assert shell.grid.peer(1).store.version_of("001", 8) == 3
    assert shell.grid.rng.getstate() == state


# -- a tombstone stays a tombstone ------------------------------------------------------


@pytest.mark.parametrize("path", ["sync", "async", "wire"])
def test_push_update_carries_the_tombstone(path):
    """UPDATE used to drop ``deleted``: pushing a tombstone installed a
    *live* entry at the fresher version (sync and async alike)."""
    ref = DataRef("100", 4, 1)
    shell = (AsyncShell if path == "async" else SyncShell)(make_fig1_grid())
    try:
        store = shell.grid.peer(2).store
        assert shell.call(shell.nodes[0].push_update(2, ref)) is True
        assert store.lookup("100") == [ref]
        if path == "wire":
            message = update_message(0, 2, "100", 4, 2, deleted=True)
            framed = decode_message(encode_message(message))
            assert framed == message
            assert shell.nodes[2].handle(framed).kind is MessageKind.UPDATE_ACK
        else:
            assert shell.call(shell.nodes[0].push_update(2, ref.tombstone())) is True
        assert store.lookup("100") == []
        assert store.is_deleted("100", 4) and store.version_of("100", 4) == 2
    finally:
        shell.close()
    # Live entries keep the frame they always had.
    assert update_message(0, 2, "100", 4, 1).payload == {"key": "100", "holder": 4, "version": 1}


# -- written once ----------------------------------------------------------------------


def test_the_shells_are_loops_and_wrappers_only():
    sync_names = {name for name in vars(PGridNode) if not name.startswith("__")}
    async_names = {name for name in vars(AsyncPGridNode) if not name.startswith("__")}
    assert sync_names == async_names
    assert sync_names == {
        "_run",
        "handle",
        "search",
        "search_repeated",
        "search_breadth",
        "range_search",
        "push_update",
        "propagate_update",
        "publish",
    }
    for shell in (PGridNode, AsyncPGridNode):
        assert shell.__bases__ == (NodeCore,)
        own = vars(shell)
        assert not any(name.startswith("_handle") for name in own)
        assert "build" not in own and "resolve" not in own
    for name in sync_names:
        assert inspect.isfunction(vars(PGridNode)[name])
        assert not inspect.iscoroutinefunction(vars(PGridNode)[name])
        assert inspect.iscoroutinefunction(vars(AsyncPGridNode)[name])
        sync_sig = inspect.signature(vars(PGridNode)[name])
        assert str(sync_sig) == str(inspect.signature(vars(AsyncPGridNode)[name]))
    assert "while" not in inspect.getsource(PGridNode.push_update)
    assert "while" not in inspect.getsource(AsyncPGridNode.push_update)
