"""FaultPlan validation and FaultInjector semantics (drops, crashes, stale
refs), and how a plan is installed on a transport."""

from __future__ import annotations

import random

import pytest

from repro.aio.transport import AsyncTransport
from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.errors import InvalidConfigError, PeerOfflineError, TransportError
from repro.faults import FaultInjector, FaultOracle, FaultPlan
from repro.net.message import MessageKind, ping, pong
from repro.net.transport import LocalTransport
from repro.obs.probe import Probe
from repro.sim.churn import FixedOnlineSet
from tests.conftest import build_grid


def make_grid(n_peers: int = 4) -> PGrid:
    grid = PGrid(PGridConfig(), rng=random.Random(0))
    grid.add_peers(n_peers)
    return grid


def make_injector(plan: FaultPlan | None = None, n_peers: int = 4):
    """A grid, a transport answering PINGs everywhere, *plan* installed."""
    grid = make_grid(n_peers)
    transport = LocalTransport(grid)
    for address in grid.addresses():
        transport.register(address, pong)
    return grid, transport, transport.install_faults(plan)


def delivered(transport, message) -> bool:
    try:
        transport.send(message)
    except (PeerOfflineError, TransportError):
        return False
    return True


class TestFaultPlan:
    def test_defaults_are_empty(self):
        plan = FaultPlan()
        assert plan.is_empty()
        assert plan.to_dict()["availability"] is None

    def test_nonempty_detection(self):
        assert not FaultPlan(drop_probability=0.1).is_empty()
        assert not FaultPlan(availability=0.9).is_empty()
        assert not FaultPlan(crash_probability=0.1).is_empty()
        # A different seed alone still injects nothing.
        assert FaultPlan(seed=99).is_empty()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_probability": 1.0},
            {"drop_probability": -0.1},
            {"crash_probability": 1.5},
            {"stale_ref_probability": -0.5},
            {"availability": 0.0},
            {"availability": 1.2},
            {"extra_latency": -1.0},
            {"crash_downtime": -1},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            FaultPlan(**kwargs)


class TestInstallation:
    def test_install_builds_the_injector_over_the_grid(self):
        grid, transport, injector = make_injector()
        assert transport.faults is injector
        assert injector.grid is grid
        assert isinstance(grid.online_oracle, FaultOracle)
        assert transport.send(ping(0, 1)).kind is MessageKind.PONG

    @pytest.mark.parametrize("plane", [LocalTransport, AsyncTransport], ids=["sync", "async"])
    def test_a_second_plan_is_refused(self, plane):
        """A second plan used to compose over the first: the first kept
        crashing peers through the oracle and drawing its coins, and its
        contacts were tallied on the discarded injector."""
        grid = make_grid()
        transport = plane(grid)
        first = transport.install_faults(FaultPlan(seed=1))
        oracle = grid.online_oracle
        with pytest.raises(InvalidConfigError, match="already installed"):
            transport.install_faults(FaultPlan(seed=2))
        assert transport.faults is first
        assert grid.online_oracle is oracle

    def test_the_transports_probe_sees_the_plans_refusals(self):
        events = []

        class Events(Probe):
            def on_transport(self, kind, source, target, status):
                events.append(status)

        grid = make_grid()
        transport = LocalTransport(grid, probe=Events())
        for address in grid.addresses():
            transport.register(address, pong)
        injector = transport.install_faults(FaultPlan(seed=3, drop_probability=0.5))
        injector.crash(2)
        outcomes = [delivered(transport, ping(0, 1)) for _ in range(20)]
        assert not delivered(transport, ping(0, 2))
        assert events.count("dropped") == outcomes.count(False) > 0
        assert events.count("delivered") == outcomes.count(True) > 0
        assert events[-1] in ("crashed", "dropped")


class TestDrops:
    def test_drops_raise_and_count(self):
        _, transport, injector = make_injector(FaultPlan(drop_probability=0.5))
        dropped = sent = 0
        for _ in range(200):
            try:
                transport.send(ping(0, 1))
                sent += 1
            except TransportError:
                dropped += 1
        assert dropped == injector.fault_stats.injected_drops
        assert dropped == transport.stats.dropped
        assert sent == transport.count(MessageKind.PING)
        # With p=0.5 over 200 sends both outcomes must occur.
        assert dropped > 0 and sent > 0

    def test_same_seed_same_drops(self):
        outcomes = []
        for _ in range(2):
            grid, transport, _ = make_injector(FaultPlan(seed=3, drop_probability=0.3))
            protocol_state = grid.rng.getstate()
            outcomes.append([delivered(transport, ping(0, 1)) for _ in range(50)])
            assert grid.rng.getstate() == protocol_state  # drops draw from the plan's stream
        assert False in outcomes[0]
        assert outcomes[0] == outcomes[1]


class TestLatency:
    def test_extra_latency_accrues_on_delivery_only(self):
        _, transport, injector = make_injector(FaultPlan(extra_latency=2.5))
        transport.send(ping(0, 1))
        transport.send(ping(0, 2))
        assert transport.stats.simulated_time == pytest.approx(5.0)
        assert injector.fault_stats.injected_latency == pytest.approx(5.0)


class TestCrashes:
    def test_crash_blocks_contact_until_restart(self):
        _, transport, injector = make_injector()
        injector.crash(1)
        with pytest.raises(PeerOfflineError):
            transport.send(ping(0, 1))
        assert injector.fault_stats.crashed_contacts == 1
        assert transport.stats.offline_failures == 1
        injector.restart(1)
        assert injector.fault_stats.restarts == 1
        assert transport.send(ping(0, 1)).kind is MessageKind.PONG

    def test_downtime_ticks_then_auto_restart(self):
        _, transport, injector = make_injector()
        injector.crash(1, downtime=2)
        for _ in range(2):
            assert not delivered(transport, ping(0, 1))
        # Third contact succeeds: downtime expired, peer auto-restarted.
        assert delivered(transport, ping(0, 1))
        assert injector.fault_stats.restarts == 1
        assert 1 not in injector.crashed

    def test_crash_is_idempotent(self):
        _, _, injector = make_injector()
        injector.crash(1)
        injector.crash(1)
        assert injector.fault_stats.crashes == 1
        injector.restart(2)  # a real peer that never crashed — free no-op
        assert injector.fault_stats.restarts == 0

    def test_crash_unknown_peer_rejected(self):
        _, _, injector = make_injector(n_peers=4)
        with pytest.raises(InvalidConfigError, match="no such peer"):
            injector.crash(9)
        assert injector.fault_stats.crashes == 0

    def test_restart_unknown_peer_rejected(self):
        _, _, injector = make_injector(n_peers=4)
        with pytest.raises(InvalidConfigError, match="no such peer"):
            injector.restart(9)
        assert injector.fault_stats.restarts == 0

    def test_crash_random_is_seed_deterministic(self):
        victims = []
        for _ in range(2):
            _, _, injector = make_injector(FaultPlan(seed=11), n_peers=32)
            victims.append(injector.crash_random(0.25))
        assert victims[0] == victims[1]
        assert len(victims[0]) == 8
        assert set(victims[0]) == set(injector.crashed)
        with pytest.raises(ValueError):
            injector.crash_random(1.5)


class TestStaleRefs:
    def test_inject_stale_refs_creates_dangling_audit_findings(self):
        grid = build_grid(32, maxl=4, refmax=2, seed=5)
        injector = FaultInjector(grid, FaultPlan(seed=7))
        assert grid.audit_routing() == []
        corrupted = injector.inject_stale_refs(0.5)
        assert corrupted == injector.fault_stats.stale_refs_injected
        assert corrupted > 0
        findings = grid.audit_routing()
        assert len([f for f in findings if "dangling ref" in f]) == corrupted
        # The log records which (owner, level, old_ref) slots were hit.
        assert len(injector.fault_stats.stale_log) == corrupted

    def test_stale_addresses_never_collide_with_peers(self):
        grid = build_grid(16, maxl=3, refmax=2, seed=5)
        injector = FaultInjector(grid, FaultPlan(seed=7))
        injector.inject_stale_refs(1.0)
        live = set(grid.addresses())
        fabricated = [
            ref
            for address in live
            for _, refs in grid.peer(address).routing.iter_levels()
            for ref in refs
            if ref not in live
        ]
        assert len(fabricated) == injector.fault_stats.stale_refs_injected
        assert all(ref > max(live) for ref in fabricated)


class TestFaultOracle:
    def test_crashed_peers_report_offline(self):
        grid = make_grid()
        injector = FaultInjector(grid)
        oracle = injector.install_oracle()
        assert grid.online_oracle is oracle
        injector.crash(2)
        assert not grid.is_online(2)
        assert grid.is_online(1)

    def test_availability_coin_composes_over_inner(self):
        grid = make_grid()
        injector = FaultInjector(grid, FaultPlan(seed=1, availability=0.5))
        inner = FixedOnlineSet(grid.addresses())
        injector.install_oracle(inner)
        results = [grid.is_online(1) for _ in range(200)]
        assert any(results) and not all(results)
        misses = injector.fault_stats.availability_misses
        assert misses == results.count(False)
        # The inner oracle has the final word: a peer it marks down stays down.
        inner.set_online(1, False)
        assert not any(grid.is_online(1) for _ in range(50))

    def test_empty_plan_oracle_is_passthrough(self):
        grid = make_grid()
        injector = FaultInjector(grid, FaultPlan())
        inner = FixedOnlineSet([1, 2])
        injector.install_oracle(inner)
        assert grid.is_online(1)
        assert not grid.is_online(3)
        assert injector.fault_stats.availability_misses == 0
