"""Tests for the simulated transport."""

from __future__ import annotations

import random

import pytest

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.errors import InvalidConfigError, PeerOfflineError, TransportError
from repro.net.message import MessageKind, ping, pong
from repro.net.transport import (
    ConstantLatency,
    LocalTransport,
    UniformLatency,
)
from repro.sim.churn import FixedOnlineSet


def make_transport(n_peers: int = 2, **kwargs) -> tuple[PGrid, LocalTransport]:
    grid = PGrid(PGridConfig(), rng=random.Random(0))
    grid.add_peers(n_peers)
    return grid, LocalTransport(grid, **kwargs)


class TestRegistration:
    def test_register_and_send(self):
        grid, transport = make_transport()
        transport.register(1, pong)
        reply = transport.send(ping(0, 1))
        assert reply.kind is MessageKind.PONG
        assert transport.count(MessageKind.PING) == 1

    def test_double_register_rejected(self):
        _, transport = make_transport()
        transport.register(1, pong)
        with pytest.raises(TransportError):
            transport.register(1, pong)

    def test_register_unknown_address_rejected(self):
        _, transport = make_transport(n_peers=2)
        with pytest.raises(InvalidConfigError, match="no such peer"):
            transport.register(9, pong)

    def test_unregister(self):
        _, transport = make_transport()
        transport.register(1, pong)
        transport.unregister(1)
        with pytest.raises(TransportError):
            transport.send(ping(0, 1))

    def test_unregister_absent_is_noop(self):
        _, transport = make_transport()
        transport.unregister(9)

    def test_no_handler(self):
        _, transport = make_transport()
        with pytest.raises(TransportError):
            transport.send(ping(0, 1))


class TestFailureModes:
    def test_offline_destination_raises(self):
        grid, transport = make_transport()
        transport.register(1, pong)
        grid.online_oracle = FixedOnlineSet({0})
        with pytest.raises(PeerOfflineError):
            transport.send(ping(0, 1))
        assert transport.stats.offline_failures == 1
        assert transport.stats.total_delivered() == 0

    def test_loss_probability(self):
        grid, transport = make_transport(
            loss_probability=0.5, rng=random.Random(1)
        )
        transport.register(1, pong)
        outcomes = {"ok": 0, "lost": 0}
        for _ in range(200):
            try:
                transport.send(ping(0, 1))
                outcomes["ok"] += 1
            except TransportError:
                outcomes["lost"] += 1
        assert outcomes["ok"] > 50
        assert outcomes["lost"] > 50
        assert transport.stats.dropped == outcomes["lost"]

    def test_loss_probability_validated(self):
        with pytest.raises(ValueError):
            make_transport(loss_probability=1.0)

    def test_lossy_transport_requires_seeded_rng(self):
        # Falling back to the grid's protocol RNG (the old behavior) let
        # message loss perturb routing decisions; now it is a config error.
        from repro.errors import InvalidConfigError

        with pytest.raises(InvalidConfigError):
            make_transport(loss_probability=0.1)

    def test_seed_derives_a_dedicated_stream(self):
        grid, transport = make_transport(loss_probability=0.5, seed=9)
        transport.register(1, pong)
        protocol_state = grid.rng.getstate()
        statuses = [transport.admit(MessageKind.PING, 0, 1) for _ in range(50)]
        assert transport.stats.dropped > 0
        # the loss coins never touched the grid's protocol RNG
        assert grid.rng.getstate() == protocol_state
        # and the stream is a pure function of the seed
        grid2, transport2 = make_transport(loss_probability=0.5, seed=9)
        transport2.register(1, pong)
        assert [transport2.admit(MessageKind.PING, 0, 1) for _ in range(50)] == statuses

    def test_no_handler_error_is_specific(self):
        from repro.errors import NoHandlerError

        _, transport = make_transport()
        with pytest.raises(NoHandlerError):
            transport.send(ping(0, 1))


class TestLatency:
    def test_constant_latency_accumulates(self):
        _, transport = make_transport(latency=ConstantLatency(2.5))
        transport.register(1, pong)
        transport.send(ping(0, 1))
        transport.send(ping(0, 1))
        assert transport.stats.simulated_time == pytest.approx(5.0)

    def test_constant_latency_validated(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_latency_in_range(self):
        model = UniformLatency(1.0, 2.0, random.Random(2))
        for _ in range(50):
            assert 1.0 <= model.sample(ping(0, 1)) <= 2.0

    def test_uniform_latency_validated(self):
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0, random.Random(0))


class TestStats:
    def test_snapshot(self):
        _, transport = make_transport()
        transport.register(1, pong)
        transport.send(ping(0, 1))
        snapshot = transport.stats.snapshot()
        assert snapshot["total_delivered"] == 1
        assert snapshot["delivered"] == {"ping": 1}
        assert snapshot["dropped"] == 0
