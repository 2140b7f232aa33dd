"""Tests for the simulated transport."""

from __future__ import annotations

import random

import pytest

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.errors import InvalidConfigError, PeerOfflineError, TransportError
from repro.net.message import MessageKind, ping, pong
from repro.net.transport import LocalTransport
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

    def test_no_handler_error_is_specific(self):
        from repro.errors import NoHandlerError

        _, transport = make_transport()
        with pytest.raises(NoHandlerError):
            transport.send(ping(0, 1))


class TestStats:
    def test_snapshot(self):
        _, transport = make_transport()
        transport.register(1, pong)
        transport.send(ping(0, 1))
        snapshot = transport.stats.snapshot()
        assert snapshot["total_delivered"] == 1
        assert snapshot["delivered"] == {"ping": 1}
        assert snapshot["dropped"] == 0
