"""Benchmark-owned tracing: a span recorder wrapped around the public
entry points of each ``repro.*`` layer, and a counting probe.

Nothing under ``src/`` is edited.  :class:`SpanRecorder` monkeypatches
the functions listed in :data:`TARGETS` for the duration of the traced
pass and restores them afterwards; each call becomes one span
``(name, start, end, parent, op, units)`` kept in memory.  The span that
*caused* a span is its parent:

* in straight-line code that is the enclosing span (a context variable
  carries it, so it also follows ``await`` chains inside one task);
* across the async transport's mailboxes — where the handler runs in a
  task spawned by the mailbox worker, not by the requester — the
  ``request`` span and the ``handle`` span are linked through the
  message id they share;
* a span with no other cause (the TCP server side of a connection) hangs
  under the innermost span the client has open — the request it is
  waiting on — which is exact because the load is a closed loop with a
  single client.

A layer's *self time* is its span minus the part of that interval its
child spans cover, so self times along one request add up to its latency.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable

#: ``op`` of spans recorded before the timed ops begin.
SETUP, WARMUP = -2, -1

#: Raw spans of this many leading ops go to the span file; every span of
#: the pass still feeds the per-name aggregates written beside them.
SPAN_FILE_OPS = 200


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``getattr(import(module)[.owner], attr)``."""

    module: str
    owner: str | None
    attr: str
    span: str
    #: ``"out"`` publishes this span under a key taken from its arguments,
    #: ``"in"`` adopts the span published under the same key as parent.
    link: str | None = None
    #: Work units of one call ``(args, result) -> int`` (default 1).
    units: Callable[[tuple, Any], int] | None = None


def _message_key(args: tuple) -> int:
    return args[1].message_id


def _batch_size(args: tuple, result: Any) -> int:
    queries = args[1]
    return len(queries[0]) if isinstance(queries, tuple) else len(queries)


def _encoded_bytes(args: tuple, result: Any) -> int:
    return len(result)


def _decoded_bytes(args: tuple, result: Any) -> int:
    return len(args[0])


def _meetings(args: tuple, result: Any) -> int:
    return max(1, result.get("meetings_seen", 1))


TARGETS = (
    # facade
    Target("repro.api", "Grid", "search", "api.search"),
    Target("repro.api", "Grid", "update", "api.update"),
    Target("repro.api", "Grid", "search_range", "api.search_range"),
    Target("repro.api", "Grid", "search_many", "api.search_many"),
    Target("repro.api", "Grid", "rebalance", "replication.rebalance", units=_meetings),
    Target("repro.api", "NodeService", "search", "api.search"),
    Target("repro.api", "NodeService", "update", "api.update"),
    # set-up
    Target("repro.api", None, "construct_grid", "sim.builder.construct_grid"),
    Target("repro.core.grid", "PGrid", "seed_index", "core.grid.seed_index"),
    Target("repro.aio.swarm", "AsyncSwarm", "start", "aio.swarm.start"),
    # core engines and the direct protocol driver they import by name
    Target("repro.core.search", "SearchEngine", "query_from", "core.search.query_from"),
    Target("repro.core.search", "SearchEngine", "query_range", "core.search.query_range"),
    Target("repro.core.updates", "UpdateEngine", "publish", "core.updates.publish"),
    Target("repro.core.storage", "DataStore", "lookup", "core.storage.lookup"),
    Target("repro.core.shortcuts", "ShortcutSearchEngine", "query_from",
           "core.shortcuts.query_from"),
    Target("repro.core.search", None, "run_dfs", "protocol.direct.run_dfs"),
    Target("repro.core.search", None, "run_breadth", "protocol.direct.run_breadth"),
    # sync node driver
    Target("repro.net.node", "PGridNode", "search", "net.node.search"),
    Target("repro.net.node", "PGridNode", "range_search", "net.node.range_search"),
    Target("repro.net.node", "PGridNode", "publish", "net.node.publish"),
    Target("repro.net.node", "PGridNode", "handle", "net.node.handle"),
    Target("repro.net.transport", "LocalTransport", "send", "net.transport.send"),
    # wire + async driver + TCP front door
    Target("repro.net.wire", None, "encode_message", "net.wire.encode", units=_encoded_bytes),
    Target("repro.net.wire", None, "decode_message", "net.wire.decode", units=_decoded_bytes),
    Target("asyncio", None, "open_connection", "aio.tcp.connect"),
    Target("repro.aio.tcp", None, "remote_request", "aio.tcp.remote_request"),
    Target("repro.aio.tcp", None, "remote_search", "aio.tcp.remote_search"),
    Target("repro.aio.swarm", "AsyncSwarm", "search", "aio.swarm.search"),
    Target("repro.aio.node", "AsyncPGridNode", "handle", "aio.node.handle", link="in"),
    Target("repro.aio.transport", "AsyncTransport", "request", "aio.transport.request",
           link="out"),
    # array plane
    Target("repro.fast.arraygrid", "ArrayGrid", "from_pgrid", "fast.arraygrid.from_pgrid"),
    Target("repro.fast.query", "BatchQueryEngine", "from_arraygrid",
           "fast.query.from_arraygrid"),
    Target("repro.fast.query", "BatchQueryEngine", "search_many", "fast.query.search_many",
           units=_batch_size),
    Target("repro.fast.query", "BatchQueryEngine", "search_range_many",
           "fast.query.range_many", units=_batch_size),
    Target("repro.fast.query", "BatchQueryEngine", "publish_many", "fast.query.publish_many",
           units=_batch_size),
    Target("repro.fast.query", "BatchQueryEngine", "read_many", "fast.query.read_many",
           units=_batch_size),
    Target("repro.fast.batch", "BatchGridBuilder", "build", "fast.batch.build"),
    # snapshots and the pool
    Target("repro.fast.snapshot", "GridSnapshot", "from_batch_builder", "fast.snapshot.export"),
    Target("repro.fast.snapshot", "GridSnapshot", "attach", "fast.snapshot.attach"),
    Target("repro.fast.snapshot", "GridSnapshot", "batch_query_engine", "fast.snapshot.engine"),
    Target("repro.fast.snapshot", "GridSnapshot", "unlink", "fast.snapshot.unlink"),
    Target("repro.perf.parallel", None, "warm_pool", "perf.pool.warm"),
    Target("repro.perf.parallel", None, "run_trials", "perf.pool.run_trials"),
    # replication
    Target("repro.replication.tracker", "LoadTracker", "observe",
           "replication.tracker.observe"),
)


class SpanRecorder:
    """Records spans in memory; writes them out when the pass ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.units = array("q")
        #: Index of the client op in flight (SETUP / WARMUP before timing).
        self.op_id = SETUP
        #: Open spans of the client's own call chain, outermost first: a
        #: span nobody in its task caused hangs under the innermost one.
        self._chain: list[int] = []
        self._current: ContextVar[int] = ContextVar("e2e_span", default=-1)
        self._links: dict[int, int] = {}
        self._patched: list[tuple[Any, str, Any]] = []
        self.skipped: list[str] = []
        #: (span count it was computed at, self times): the table is asked
        #: for several times once recording has stopped.
        self._self_times: tuple[int, list[int]] = (0, [])

    # -- recording -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Spans opened from now on belong to client op *op_id*."""
        self.op_id = op_id
        self._chain.clear()

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, parent: int) -> int:
        index = len(self.start)
        if parent >= 0 and self.op[parent] != self.op_id:
            parent = -1  # inherited from a task created during another op
        chain = self._chain
        if parent < 0:
            if chain:
                parent = chain[-1]  # caused by the request in flight
            else:
                chain.append(index)  # the op's root span
        elif chain and parent == chain[-1]:
            chain.append(index)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.units.append(1)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        chain = self._chain
        if chain and chain[-1] == index:
            chain.pop()

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """*fn* recorded as one span per call (sync or coroutine)."""
        nid = self._name(target.span)
        current, links, units = self._current, self._links, self.units
        link, count = target.link, target.units
        open_span, close_span = self._open, self._close

        def enter(args: tuple) -> tuple[int, Any]:
            parent = current.get()
            if link == "in":
                parent = links.pop(_message_key(args), parent)
            index = open_span(nid, parent)
            if link == "out":
                links[_message_key(args)] = index
            return index, current.set(index)

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                index, token = enter(args)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    close_span(index)
                    current.reset(token)
                    if count is not None and result is not None:
                        units[index] = count(args, result)
        elif link is None and count is None:
            # The common case, kept as short as it can be: its cost is
            # charged to the parent span's self time on every call.
            def wrapper(*args, **kwargs):
                index = open_span(nid, current.get())
                token = current.set(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(index)
                    current.reset(token)
        else:
            def wrapper(*args, **kwargs):
                index, token = enter(args)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    close_span(index)
                    current.reset(token)
                    if count is not None and result is not None:
                        units[index] = count(args, result)

        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing the wrappers ---------------------------------------------

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap every target that can be imported here (a layer whose
        optional dependency is missing is skipped and listed)."""
        for target in targets:
            try:
                owner: Any = importlib.import_module(target.module)
                if target.owner is not None:
                    owner = getattr(owner, target.owner)
                raw = owner.__dict__[target.attr]
            except (ImportError, AttributeError, KeyError) as exc:
                self.skipped.append(f"{target.span}: {exc!r}")
                continue
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self.wrap(raw.__func__, target))
            else:
                wrapped = self.wrap(raw, target)
            self._patched.append((owner, target.attr, raw))
            setattr(owner, target.attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: duration minus the part its children cover (ns)."""
        if self._self_times[0] != len(self.start):
            self._self_times = (len(self.start), self_times(self.start, self.end, self.parent))
        return self._self_times[1]

    def aggregate(self, *, setup: bool = False) -> dict[str, dict[str, float]]:
        """Per span name — over the timed ops, or over set-up — calls,
        total and self nanoseconds, work units."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for index, nid in enumerate(self.name_id):
            op = self.op[index]
            if (op != SETUP if setup else op < 0) or not self.end[index]:
                continue
            row = out.setdefault(
                self.names[nid], {"calls": 0, "total_ns": 0, "self_ns": 0, "units": 0}
            )
            row["calls"] += 1
            row["total_ns"] += self.end[index] - self.start[index]
            row["self_ns"] += own[index]
            row["units"] += self.units[index]
        return out

    def write(self, path, *, workload: str, seed: int) -> None:
        """The span file: per-name aggregates of the whole traced pass plus
        the raw spans of set-up and of the first :data:`SPAN_FILE_OPS` ops."""
        own = self.self_times()
        origin = self.start[0] if len(self.start) else 0
        keep = [i for i in range(len(self.start)) if self.op[i] < SPAN_FILE_OPS]
        renumber = {old: new for new, old in enumerate(keep)}
        document = {
            "workload": workload,
            "seed": seed,
            "clock": "time.perf_counter_ns, relative to the first span",
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "units", "self_ns"],
            "names": self.names,
            "spans_recorded": len(self.start),
            "spans_written": len(keep),
            "setup": self.aggregate(setup=True),
            "timed": self.aggregate(),
            "spans": [
                [
                    self.name_id[i],
                    self.start[i] - origin,
                    self.end[i] - origin,
                    renumber.get(self.parent[i], -1),
                    self.op[i],
                    self.units[i],
                    own[i],
                ]
                for i in keep
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def self_times(start, end, parent) -> list[int]:
    """``end - start`` of each span minus the union of its children's
    intervals (clipped to the span).  Children may overlap each other —
    concurrent awaits — so the union is taken, not the sum."""
    children: dict[int, list[int]] = {}
    for index, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append(index)
    own = [end[i] - start[i] for i in range(len(start))]
    for up, kids in children.items():
        low, high = start[up], end[up]
        covered = 0
        reach = low
        for kid in sorted(kids, key=start.__getitem__):
            begin = max(start[kid], reach)
            finish = min(end[kid], high)
            if finish > begin:
                covered += finish - begin
                reach = finish
        own[up] -= covered
    return own


def make_probe():
    """A fresh counting probe (a ``repro.obs.probe.Probe`` subclass)."""
    from repro.obs.probe import Probe

    class CountingProbe(Probe):
        def __init__(self) -> None:
            self.events = 0
            self._kinds: list[str] = []
            self.searches = 0
            self.forwards = 0
            self.offline_misses = 0
            self.backtracks = 0
            self.shortcut = {"hit": 0, "miss": 0, "invalidate": 0}
            self.waves = 0
            self.wave_contacts = 0
            self.wave_offline = 0
            self.batches = 0
            self.batch_queries = 0
            self.transport = {"delivered": 0, "offline": 0, "dropped": 0}
            self.conversions = 0
            self.max_mailbox_depth = 0

        def _in_dfs(self) -> bool:
            # A shortcut hit forwards outside any search bracket.
            return not self._kinds or self._kinds[0] == "dfs"

        def on_search_start(self, kind, start, query):
            self.events += 1
            if not self._kinds and kind == "dfs":
                self.searches += 1
            self._kinds.append(kind)

        def on_search_end(self, kind, start, query, **costs):
            self.events += 1
            self._kinds.pop()

        def on_forward(self, source, target, level):
            self.events += 1
            if self._in_dfs():
                self.forwards += 1

        def on_offline_miss(self, source, target, level):
            self.events += 1
            if self._in_dfs():
                self.offline_misses += 1

        def on_backtrack(self, peer, level):
            self.events += 1
            if self._in_dfs():
                self.backtracks += 1

        def on_responsible(self, peer, level):
            self.events += 1

        def on_shortcut(self, event, start, query):
            self.events += 1
            self.shortcut[event] = self.shortcut.get(event, 0) + 1
            if event == "hit":
                self.searches += 1  # a hit never reaches the wrapped engine

        def on_meeting(self, peer1, peer2):
            self.events += 1

        def on_exchange_case(self, case, peer1, peer2, lc, depth):
            self.events += 1

        def on_update(self, key, strategy, **costs):
            self.events += 1

        def on_read(self, key, **costs):
            self.events += 1

        def on_replication(self, event, address, old_path, new_path):
            self.events += 1
            self.conversions += 1

        def on_transport(self, kind, source, target, status):
            self.events += 1
            self.transport[status] = self.transport.get(status, 0) + 1

        def on_mailbox(self, event, address, *, depth, wait=0.0):
            self.events += 1
            if depth > self.max_mailbox_depth:
                self.max_mailbox_depth = depth

        def on_batch_wave(self, kind, *, wave, active, contacts, offline):
            self.events += 1
            if kind == "batch_dfs":
                self.waves += 1
                self.wave_contacts += contacts
                self.wave_offline += offline

        def on_batch_search(self, kind, *, queries, found, messages, failed_attempts):
            self.events += 1
            if kind == "batch_dfs":
                self.batches += 1
                self.batch_queries += queries

    return CountingProbe()
