"""Exception hierarchy for the P-Grid reproduction.

Every error raised by the library derives from :class:`PGridError` so that
callers can catch library failures with a single ``except`` clause while
programming errors (``TypeError``, ``ValueError`` from the standard library)
still surface normally.
"""

from __future__ import annotations


class PGridError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidKeyError(PGridError, ValueError):
    """A key string contains characters outside the binary alphabet."""

    def __init__(self, key: str) -> None:
        super().__init__(f"invalid binary key: {key!r} (only '0'/'1' allowed)")
        self.key = key


class InvalidConfigError(PGridError, ValueError):
    """A configuration object holds out-of-range or inconsistent values."""


class UnknownPeerError(PGridError, KeyError):
    """An address does not resolve to a registered peer."""

    def __init__(self, address: int) -> None:
        super().__init__(f"no peer registered under address {address!r}")
        self.address = address


class DuplicatePeerError(PGridError, ValueError):
    """A peer address is registered twice in the same network."""

    def __init__(self, address: int) -> None:
        super().__init__(f"peer address {address!r} already registered")
        self.address = address


class PeerOfflineError(PGridError, RuntimeError):
    """A message was sent to a peer that is currently offline."""

    def __init__(self, address: int) -> None:
        super().__init__(f"peer {address!r} is offline")
        self.address = address


class RoutingInvariantError(PGridError, AssertionError):
    """A routing-table entry violates the P-Grid reference invariant.

    The invariant (paper §2): a reference stored at level ``i`` of peer ``a``
    must point to a peer whose path shares ``prefix(i - 1, a)`` and carries
    the complement bit at position ``i``.
    """


class SnapshotFormatError(PGridError, ValueError):
    """A persisted grid snapshot could not be decoded."""


class WireFormatError(PGridError, ValueError):
    """A wire frame could not be decoded into a protocol message."""


class TransportError(PGridError, RuntimeError):
    """A simulated transport failed to deliver a message."""


class NoHandlerError(TransportError):
    """A message was addressed to a destination with no registered handler.

    Distinguished from transient failures (offline peer, dropped message)
    because the destination is *gone* — the protocol machines treat it like
    a dangling routing reference and never retry it.
    """

    def __init__(self, address: int) -> None:
        super().__init__(f"no handler registered for destination {address!r}")
        self.address = address
