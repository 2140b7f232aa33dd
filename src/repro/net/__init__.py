"""Simulated network substrate: typed messages, transport, networked nodes."""

from repro.net.message import (
    Message,
    MessageKind,
    breadth_message,
    breadth_response,
    ping,
    pong,
    propagate_ack,
    propagate_message,
    query_message,
    query_response,
    update_message,
)
from repro.net.node import PGridNode, attach_nodes
from repro.net.transport import (
    ConstantLatency,
    LocalTransport,
    TrafficStats,
    UniformLatency,
)
from repro.net.wire import decode_message, encode_message, frame_message

__all__ = [
    "ConstantLatency",
    "LocalTransport",
    "Message",
    "MessageKind",
    "PGridNode",
    "TrafficStats",
    "UniformLatency",
    "attach_nodes",
    "breadth_message",
    "breadth_response",
    "decode_message",
    "encode_message",
    "frame_message",
    "ping",
    "pong",
    "propagate_ack",
    "propagate_message",
    "query_message",
    "query_response",
    "update_message",
]
