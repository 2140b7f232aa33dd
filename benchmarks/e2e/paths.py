"""The six serving paths under test, one class per workload.

Each class only *calls* the program (``repro.api`` and the layers under
it); it never reaches into private state to answer a request.  The
lifecycle is the same everywhere::

    path = PATHS[name](inputs)        # optionally probe= / tracer=
    path.setup()                      # timed from outside as setup_s
    path.warmup()                     # untimed
    rep = path.repetition(keep=True)  # one pass over the fixed op list
    violations, notes = path.verify(rep)
    violations += path.teardown()

Load model: a closed loop with one client and one request in flight,
issued from this process.  The only other processes are the pool workers
``build_snapshot`` asks the program to start.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import random
import time
from dataclasses import dataclass, field

import verify
from workloads import WorkloadInput, derive_seed, trial_queries

now = time.perf_counter_ns


def have_numpy() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


@dataclass
class Repetition:
    """What one pass over the op list produced."""

    wall_ns: int = 0
    #: Nanoseconds inside each call, by op kind ("search", "update", ...).
    latency_ns: dict[str, list[int]] = field(default_factory=dict)
    #: One entry per op when recorded (``None`` for markers and raised ops).
    results: list | None = None
    #: op index -> version the executor stamped on that update.
    versions: dict[int, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    truth: verify.Truth | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Counts:
    """Exact per-seed tallies of the recorded repetition."""

    attempted: int = 0
    searches: int = 0
    found: int = 0
    messages: int = 0
    search_messages: int = 0


class Path:
    """Base class: holds the inputs and the shared bookkeeping."""

    name = ""

    def __init__(self, inputs: WorkloadInput, *, probe=None, tracer=None) -> None:
        self.inputs = inputs
        self.scale = inputs.scale
        self.probe = probe
        self.tracer = tracer
        #: Named parts of the last set-up, in seconds (build_snapshot).
        self.setup_parts: dict[str, float] = {}
        self.version = 0

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        self._run(self.inputs.warmup, keep=False, timed=False)

    def repetition(self, keep: bool) -> Repetition:
        return self._run(self.inputs.ops, keep=keep, timed=True)

    def _run(self, ops, *, keep: bool, timed: bool) -> Repetition:
        raise NotImplementedError

    def counts(self, rep: Repetition) -> Counts:
        raise NotImplementedError

    def verify(self, rep: Repetition) -> tuple[list[str], dict]:
        raise NotImplementedError

    def layer_metrics(self, rep: Repetition, spans: dict) -> dict[str, float | None]:
        """Layer metrics the span table cannot give (counts, side sweeps)."""
        return {}

    def teardown(self) -> list[str]:
        """Release everything set-up acquired; returns leak violations."""
        return []

    def _begin(self, index: int, timed: bool) -> None:
        if self.tracer is not None:
            self.tracer.begin_op(index if timed else -1)


# -- the common serving grid ------------------------------------------------------


def build_serving_grid(inputs: WorkloadInput, *, probe, churn: bool, **grid_options):
    """2048 peers, the catalogue seeded at every replica, optional §5.2 churn."""
    from repro.api import Grid
    from repro.core.storage import DataItem
    from repro.sim.churn import BernoulliChurn

    scale, catalogue = inputs.scale, inputs.catalogue
    grid = Grid.build(
        scale.peers,
        maxl=scale.maxl,
        refmax=scale.refmax,
        recmax=scale.recmax,
        fanout=scale.fanout,
        # Without numpy the strict array kernel builds the grid instead;
        # the message-plane workloads still run (on a different grid).
        core="batch" if have_numpy() else "array",
        seed=inputs.seed,
        probe=probe,
        **grid_options,
    )
    grid.seed_index(
        (DataItem(key=key, value=index), holder)
        for index, (key, holder) in enumerate(zip(catalogue.keys, catalogue.holders))
    )
    if churn:
        grid.pgrid.online_oracle = BernoulliChurn(
            scale.p_online, random.Random(derive_seed(inputs.seed, "churn"))
        )
    return grid


def snapshot_paths(pgrid) -> dict[int, str]:
    return {peer.address: peer.path for peer in pgrid.peers()}


# -- engine_mixed / node_mixed / engine_zipf ----------------------------------------


class EngineMixed(Path):
    """``Grid.search / search_range / update`` on the in-process engines."""

    name = "engine_mixed"
    churn = True
    grid_options: dict = {}

    def setup(self) -> None:
        grid = self.grid = build_serving_grid(
            self.inputs, probe=self.probe, churn=self.churn, **self.grid_options
        )
        self._search = lambda key, start: grid.search(key, start=start)
        self._update = lambda key, holder, start, version: grid.update(
            key, holder, start=start, version=version
        )
        self._range = lambda low, high, start: grid.search_range(low, high, start=start)

    def _maintain(self, op: tuple) -> None:
        raise ValueError(f"{self.name} has no maintenance op {op[0]!r}")

    def _run(self, ops, *, keep: bool, timed: bool) -> Repetition:
        rep = Repetition(results=[] if keep else None)
        if keep:
            rep.truth = self.truth = verify.Truth(snapshot_paths(self.grid.pgrid))
        searches, updates, ranges = [], [], []
        rep.latency_ns = {"search": searches, "update": updates, "range": ranges}
        search, update, range_ = self._search, self._update, self._range
        results, version = rep.results, self.version
        begin = now()
        for index, op in enumerate(ops):
            self.op_index = index
            self._begin(index, timed)
            kind = op[0]
            result = None
            try:
                if kind == "search":
                    t0 = now()
                    result = search(op[1], op[2])
                    searches.append(now() - t0)
                elif kind == "update":
                    version += 1
                    t0 = now()
                    result = update(op[1], op[2], op[3], version)
                    updates.append(now() - t0)
                    if keep:
                        rep.versions[index] = version
                elif kind == "range":
                    t0 = now()
                    result = range_(op[1], op[2], op[3])
                    ranges.append(now() - t0)
                else:
                    self._maintain(op)
            except Exception as exc:  # the op failed: count it, keep serving
                rep.errors.append(f"op {index} {kind}: {exc!r}")
            if results is not None:
                results.append(result)
        rep.wall_ns = now() - begin
        self.version = version
        return rep

    def counts(self, rep: Repetition) -> Counts:
        counts = Counts(attempted=self.inputs.attempted)
        for op, result in zip(self.inputs.ops, rep.results):
            if result is None:
                continue
            counts.messages += result.messages
            if op[0] == "search":
                counts.searches += 1
                counts.found += bool(result.found)
                counts.search_messages += result.messages
        return counts

    def _version_of(self, address: int, key: str, holder: int):
        return self.grid.pgrid.peer(address).store.version_of(key, holder)

    def verify(self, rep: Repetition) -> tuple[list[str], dict]:
        violations = verify.verify_mixed(
            self.inputs.ops, rep.results, rep.versions, rep.truth, self._version_of
        )
        return violations, {}

    def _hop_counts(self) -> dict[str, float]:
        probe = self.probe
        searches = max(probe.searches, 1)
        return {
            "core.search.hops_per_search": probe.forwards / searches,
            "core.search.offline_misses_per_search": probe.offline_misses / searches,
            "core.search.backtracks_per_search": probe.backtracks / searches,
        }

    def layer_metrics(self, rep: Repetition, spans: dict) -> dict[str, float | None]:
        return {**self._hop_counts(), **self._baselines()}

    def _baselines(self, sample: int = 100) -> dict[str, float]:
        """The paper's §6 comparison on this workload's own searches."""
        from repro.baselines.central import CentralIndexServer
        from repro.baselines.flooding import GnutellaNetwork
        from repro.core.storage import DataItem

        scale, catalogue = self.scale, self.inputs.catalogue
        rng = random.Random(derive_seed(self.inputs.seed, "baselines"))
        systems = {
            "flooding": GnutellaNetwork(scale.peers, rng=rng, p_online=scale.p_online),
            "central": CentralIndexServer(p_online=scale.p_online, rng=rng),
        }
        searches = [op for op in self.inputs.ops if op[0] == "search"][:sample]
        out = {}
        for name, system in systems.items():
            for key, holder in zip(catalogue.keys, catalogue.holders):
                system.publish(DataItem(key=key), holder)
            messages = sum(system.search(op[2], op[1]).messages for op in searches)
            out[f"baselines.{name}.msgs_per_search"] = messages / len(searches)
        return out


class NodeMixed(EngineMixed):
    """The identical op list through ``Grid.serve("node")``: every hop a
    message over ``LocalTransport``."""

    name = "node_mixed"

    def setup(self) -> None:
        super().setup()
        self.service = self.grid.serve("node")
        service, nodes = self.service, self.service.nodes
        self._search = lambda key, start: service.search(key, start=start)
        self._update = lambda key, holder, start, version: service.update(
            key, holder, start=start, version=version
        )
        self._range = lambda low, high, start: nodes[start].range_search(low, high)

    def verify(self, rep: Repetition) -> tuple[list[str], dict]:
        violations, notes = super().verify(rep)
        # The engine ≡ node contract: a twin grid (same seed, same churn
        # stream) given the same warm-up and op list through the engines
        # must answer every search identically, message for message.
        twin = EngineMixed(self.inputs)
        twin.setup()
        twin.warmup()
        reference = twin.repetition(keep=True)
        twin.teardown()
        mismatches = verify.twin_mismatches(self.inputs.ops, rep.results, reference.results)
        notes["engine_twin_mismatches"] = mismatches
        if mismatches["search"]:
            violations.append(
                f"{mismatches['search']} searches answered differently by the node "
                "driver and the engines on twin grids"
            )
        return violations, notes

    def layer_metrics(self, rep: Repetition, spans: dict) -> dict[str, float | None]:
        delivered = self.service.transport.stats.total_delivered()
        ops = len(self.inputs.warmup) + self.inputs.attempted
        return {"net.transport.messages_per_op": delivered / ops}

    def teardown(self) -> list[str]:
        self.service.close()
        return []


class EngineZipf(EngineMixed):
    """Skewed traffic from a few origins: the shortcut caches, the path
    resolver and the load probe are all on the request path, and the
    balancer converts replicas between (and during) client ops."""

    name = "engine_zipf"
    churn = False

    def setup(self) -> None:
        from repro.replication import ReplicationConfig

        # The smoke profile of experiments/replication.py: the default
        # threshold (4.0) never fires on a grid this size.
        self.grid_options = {
            "replication": ReplicationConfig(
                "adaptive", replicate_threshold=1.0, retract_floor=0.25,
                half_life=64.0, min_observations=50,
            ),
            "shortcut_capacity": self.scale.shortcut_capacity,
        }
        super().setup()
        self.recording = False
        self.grid.balancer.subscribe_conversion(self._converted)

    def _converted(self, address: int, old_path: str, new_path: str) -> None:
        if self.recording:
            self.truth.record_move(self.op_index, address, new_path)

    def _run(self, ops, *, keep: bool, timed: bool) -> Repetition:
        self.recording = keep
        try:
            return super()._run(ops, keep=keep, timed=timed)
        finally:
            self.recording = False

    def _maintain(self, op: tuple) -> None:
        self.grid.rebalance(meetings=op[1])
        if self.recording:
            # Balancing meetings run the Fig. 3 exchange, which can also
            # extend a short path; only conversions are announced.
            self.truth.record_snapshot(self.op_index, snapshot_paths(self.grid.pgrid))

    def verify(self, rep: Repetition) -> tuple[list[str], dict]:
        # Two allowances, both for what replica conversion does (ROADMAP
        # item 4 lists it as known behaviour to fix): references into a
        # converted peer's old subtree go stale, so a search can end at a
        # peer that is not responsible — counted as a miss in found_rate
        # ("located a responsible replica"), not as a failure; and a new
        # replica receives index entries only as updates reach it, so a
        # found search need not return the entry yet.
        rep.truth.close(snapshot_paths(self.grid.pgrid))
        misrouted: list[int] = []
        violations = verify.verify_mixed(
            self.inputs.ops, rep.results, rep.versions, rep.truth, self._version_of,
            expect_ref=False, misrouted=misrouted,
        )
        rep.info["misrouted"] = misrouted
        ops = self.inputs.ops
        notes = {
            "balancer": self.grid.balancer.stats.snapshot(),
            "shortcut_hit_rate": self.grid.shortcut_engine.stats.hit_rate,
            "misrouted_searches": sum(ops[i][0] == "search" for i in misrouted),
            "misrouted_updates": sum(ops[i][0] == "update" for i in misrouted),
        }
        return violations, notes

    def counts(self, rep: Repetition) -> Counts:
        counts = super().counts(rep)
        counts.found -= sum(self.inputs.ops[i][0] == "search" for i in rep.info["misrouted"])
        return counts

    def layer_metrics(self, rep: Repetition, spans: dict) -> dict[str, float | None]:
        stats = self.grid.balancer.stats
        ops = len(self.inputs.warmup) + len(self.inputs.ops)
        return {
            **self._hop_counts(),
            "core.shortcuts.hit_rate": self.grid.shortcut_engine.stats.hit_rate,
            "replication.conversions": stats.conversions,
            "replication.entries_handed_over": stats.entries_handed_over,
            "obs.probe_events_per_op": self.probe.events / ops,
        }


# -- tcp_search ---------------------------------------------------------------------------


class TcpSearch(Path):
    """``remote_search`` against a ``SwarmServer`` on loopback; server and
    client share one event loop in this process, one fresh connection per
    request (as ``remote_search`` does)."""

    name = "tcp_search"

    def setup(self) -> None:
        from repro.aio import tcp
        from repro.aio.swarm import AsyncSwarm

        self.tcp = tcp
        self.grid = build_serving_grid(self.inputs, probe=self.probe, churn=False)
        self.loop = asyncio.new_event_loop()
        self.swarm = AsyncSwarm(self.grid.pgrid, probe=self.probe)
        self.loop.run_until_complete(self.swarm.start())
        self.server = tcp.SwarmServer(self.swarm)
        self.host, self.port = self.loop.run_until_complete(self.server.start())

    def _run(self, ops, *, keep: bool, timed: bool) -> Repetition:
        rep = Repetition(results=[] if keep else None)
        if keep:
            rep.truth = verify.Truth(snapshot_paths(self.grid.pgrid))
        self.loop.run_until_complete(self._drive(ops, rep, timed))
        return rep

    async def _drive(self, ops, rep: Repetition, timed: bool) -> None:
        searches: list[int] = []
        rep.latency_ns = {"search": searches}
        tcp, host, port, results = self.tcp, self.host, self.port, rep.results
        begin = now()
        for index, op in enumerate(ops):
            self._begin(index, timed)
            result = None
            try:
                t0 = now()
                # Looked up per call so the traced pass sees its wrapper.
                result = await tcp.remote_search(host, port, op[2], op[1])
                searches.append(now() - t0)
            except Exception as exc:  # refused / dropped: count it, keep serving
                rep.errors.append(f"op {index} search: {exc!r}")
            if results is not None:
                results.append(result)
        rep.wall_ns = now() - begin

    def counts(self, rep: Repetition) -> Counts:
        counts = Counts(attempted=self.inputs.attempted)
        for result in rep.results:
            if result is None:
                continue
            counts.searches += 1
            counts.found += bool(result.found)
            counts.messages += result.messages
        counts.search_messages = counts.messages
        return counts

    def verify(self, rep: Repetition) -> tuple[list[str], dict]:
        violations = verify.verify_mixed(
            self.inputs.ops, rep.results, {}, rep.truth, None
        )
        return violations, {}

    def layer_metrics(self, rep: Repetition, spans: dict) -> dict[str, float | None]:
        from repro.net.message import ping

        sample = self.inputs.ops[:300]

        async def side_sweeps() -> tuple[float, float]:
            t0 = now()
            for op in sample:
                await self.swarm.search(op[2], op[1])
            t1 = now()
            for op in sample:
                await self.tcp.remote_request(self.host, self.port, ping(-1, op[2]))
            return (t1 - t0) / len(sample), (now() - t1) / len(sample)

        encode = spans.get("net.wire.encode", {"units": 0, "calls": 1})
        box = self.swarm.transport.mailbox_snapshot()
        # Mailbox tallies first: the side sweeps below would add to them.
        out = {
            "net.wire.bytes_per_frame": encode["units"] / max(encode["calls"], 1),
            "aio.transport.max_mailbox_depth": float(box["max_depth"]),
            "aio.transport.mean_queue_wait_us": float(box["mean_wait"]) * 1e6,
        }
        swarm_ns, ping_ns = self.loop.run_until_complete(side_sweeps())
        out["aio.swarm.search_us"] = swarm_ns / 1e3
        out["aio.tcp.remote_request_us"] = ping_ns / 1e3
        return out

    def teardown(self) -> list[str]:
        self.loop.run_until_complete(self.server.stop())
        self.loop.run_until_complete(self.swarm.stop())
        for address in list(self.swarm.nodes):
            self.swarm.transport.unregister(address)
        self.swarm.nodes.clear()
        self.loop.close()
        return []


# -- array_batch ----------------------------------------------------------------------------


class ArrayBatch(Path):
    """Batch calls into the array plane, plus the object-plane updates and
    the re-bridge they force every ``array_rounds``-th round."""

    name = "array_batch"
    BATCH_KINDS = ("search_many", "range_many", "publish_many", "read_many")

    def setup(self) -> None:
        import numpy as np

        self.np = np
        self.grid = build_serving_grid(self.inputs, probe=self.probe, churn=True)
        self.engine = self.grid.batch_query_engine()
        dense = {address: index for index, address in enumerate(self.engine.addresses)}
        # The *_many kernels take dense start indices (holders stay
        # addresses); membership never changes here, so the mapping
        # survives every re-bridge.  Pre-packed per op: the warm-up list
        # is a prefix of the op list, so op indices agree.
        self._starts = {
            index: np.array([dense[a] for a in op[3]], dtype=np.int64)
            for index, op in enumerate(self.inputs.ops)
            if op[0] in ("range_many", "publish_many", "read_many")
        }
        self._holders = {
            index: np.array(op[2], dtype=np.int64)
            for index, op in enumerate(self.inputs.ops)
            if op[0] in ("publish_many", "read_many")
        }
        # Key columns as lists: the kernels read a tuple as pre-packed
        # (bits, lengths) arrays.
        self._keys = {
            index: list(op[1])
            for index, op in enumerate(self.inputs.ops)
            if op[0] in self.BATCH_KINDS
        }

    def _run(self, ops, *, keep: bool, timed: bool) -> Repetition:
        np, grid = self.np, self.grid
        rep = Repetition(results=[] if keep else None)
        if keep:
            rep.truth = verify.Truth(snapshot_paths(grid.pgrid))
        latency = rep.latency_ns = {kind: [] for kind in self.BATCH_KINDS}
        latency.update({"update": [], "rebridge": []})
        results, version = rep.results, self.version
        begin = now()
        for index, op in enumerate(ops):
            self._begin(index, timed)
            kind = op[0]
            result = None
            try:
                t0 = now()
                if kind == "search_many":
                    result = grid.search_many(self._keys[index], op[2])
                elif kind == "range_many":
                    result = self.engine.search_range_many(
                        self._keys[index], op[2], self._starts[index]
                    )
                elif kind == "publish_many":
                    version += 1
                    result = self.engine.publish_many(
                        self._keys[index], self._holders[index], np.full(len(op[1]), version),
                        self._starts[index],
                    )
                elif kind == "read_many":
                    result = self.engine.read_many(
                        self._keys[index], self._holders[index],
                        np.zeros(len(op[1]), dtype=np.int64),
                        self._starts[index], repetitive=False,
                    )
                elif kind == "update":
                    version += 1
                    result = grid.update(op[1], op[2], start=op[3], version=version)
                else:
                    self.engine = grid.batch_query_engine(refresh=True)
                latency[kind].append(now() - t0)
            except Exception as exc:  # the call failed: count it, keep serving
                rep.errors.append(f"op {index} {kind}: {exc!r}")
            if results is not None:
                results.append(result)
        rep.wall_ns = now() - begin
        self.version = version
        # The share of the timed section each component took.
        rep.info["time_share"] = {
            kind: sum(samples) / rep.wall_ns for kind, samples in latency.items()
        }
        # search_ops_s is defined on the search calls alone.
        latency["search"] = latency["search_many"]
        return rep

    def counts(self, rep: Repetition) -> Counts:
        counts = Counts(attempted=self.inputs.attempted)
        for op, result in zip(self.inputs.ops, rep.results):
            if result is None:
                continue
            messages = result.messages if op[0] == "update" else int(result.messages.sum())
            counts.messages += messages
            if op[0] == "search_many":
                counts.searches += len(result)
                counts.found += int(result.found.sum())
                counts.search_messages += messages
        return counts

    def verify(self, rep: Repetition) -> tuple[list[str], dict]:
        violations = verify.verify_batch(
            self.inputs.ops, rep.results, rep.truth, self.engine.addresses
        )
        # Statistical equivalence with the object engines under the same
        # churn: every search batch of the repetition against the object
        # engines asked the first two batches' (key, start) pairs.  64k
        # against 32k samples puts the 2 % band four standard errors out.
        np = self.np
        batches = [(op, result) for op, result in zip(self.inputs.ops, rep.results)
                   if op[0] == "search_many" and result is not None]
        ours_found = np.concatenate([result.found for _, result in batches])
        ours_messages = np.concatenate([result.messages for _, result in batches])
        object_results = [
            self.grid.search(key, start=start)
            for op, _ in batches[:2] for key, start in zip(op[1], op[2])
        ]
        their_found = np.array([bool(result.found) for result in object_results])
        their_messages = np.array([result.messages for result in object_results])
        ours, reference = {}, {}
        for name, mine, theirs in (("found_rate", ours_found, their_found),
                                   ("msgs_per_search", ours_messages, their_messages)):
            ours[name], reference[name] = float(mine.mean()), float(theirs.mean())
            error = (mine.var() / len(mine) + theirs.var() / len(theirs)) ** 0.5
            problem = verify.outside_band(
                f"array_batch {name}", ours[name], reference[name], noise=4 * float(error)
            )
            if problem:
                violations.append(problem)
        notes = {"object_reference": reference, "array_plane": ours,
                 "time_share": rep.info["time_share"]}
        return violations, notes

    def layer_metrics(self, rep: Repetition, spans: dict) -> dict[str, float | None]:
        probe = self.probe
        queries = max(probe.batch_queries, 1)
        out = {
            "fast.query.waves_per_batch": probe.waves / max(probe.batches, 1),
            "fast.query.contacts_per_search": probe.wave_contacts / queries,
            "fast.query.offline_per_search": probe.wave_offline / queries,
        }
        # The batch-size sweep: the same kernel asked one query (and 64)
        # at a time, on this workload's own keys.
        keys, starts = self.inputs.ops[0][1], self.inputs.ops[0][2]
        for size, calls in ((1, 200), (64, 50)):
            t0 = now()
            for call in range(calls):
                low = call * size
                self.engine.search_many(list(keys[low:low + size]), starts[low:low + size])
            out[f"fast.query.search_b{size}_us"] = (now() - t0) / (calls * size) / 1e3
        return out


# -- build_snapshot -------------------------------------------------------------------------


def snapshot_trial(snapshot, seed: int, queries: int, key_bits: int, detail: bool = False):
    """One pool trial: an engine over the attached segment, one batch of
    searches.  Module-level so it pickles; *snapshot* arrives resolved
    (``SnapshotRef.__trial_resolve__`` ran in the worker)."""
    from repro.fast.snapshot import fresh_attach_count

    t0 = now()
    engine = snapshot.batch_query_engine(seed=seed)
    t1 = now()
    keys, starts = trial_queries(seed, queries, key_bits, snapshot.n)
    t2 = now()
    result = engine.search_many(keys, starts)
    t3 = now()
    out = {
        "answer": (
            int(result.found.sum()),
            int(result.messages.sum()),
            int(result.failed_attempts.sum()),
            int(result.responder[result.found].sum()),
        ),
        "engine_ns": t1 - t0,
        "search_ns": t3 - t2,
        "busy_ns": t3 - t0,
        "pid": os.getpid(),
        "fresh_attaches": fresh_attach_count(),
    }
    if detail:
        out["arrays"] = (keys[0].copy(), result.found.copy(), result.responder.copy())
    return out


class BuildSnapshot(Path):
    """Gridless batch construction, shared-memory export, pool workers
    attaching by reference, and a sweep of search trials in the workers."""

    name = "build_snapshot"

    def __init__(self, inputs: WorkloadInput, *, probe=None, tracer=None) -> None:
        super().__init__(inputs, probe=probe, tracer=tracer)
        self.shm_before = verify.shm_segments()
        cpus = os.cpu_count() or 1
        self.jobs = min(2, cpus)
        self.jobs_note = (
            "jobs=2" if self.jobs == 2
            else "jobs=1: one CPU, the pool is bypassed and run_trials runs in-process"
        )

    def _specs(self, ops, queries: int | None = None, **extra):
        from repro.perf.parallel import TrialSpec

        ref = self.snapshot.ref()
        return [
            TrialSpec(kwargs={"snapshot": ref, "seed": op[1],
                              "queries": queries or op[2],
                              "key_bits": self.scale.key_bits, **extra})
            for op in ops
        ]

    def setup(self) -> None:
        from repro.core.config import PGridConfig
        from repro.perf import parallel
        from repro.sim.builder import construct_snapshot

        self.parallel = parallel
        scale = self.scale
        config = PGridConfig(maxl=scale.snap_maxl, refmax=scale.refmax,
                             recmax=scale.recmax, recursion_fanout=scale.fanout)
        # Workers are forked before the segment exists, as sweep harnesses
        # do, so each has to attach it (a later fork would inherit the
        # owner's mapping and never exercise the attach path).
        parallel.warm_pool(self.jobs)
        t0 = now()
        self.snapshot, self.report = construct_snapshot(
            config, scale.snap_peers, seed=self.inputs.seed
        )
        t1 = now()
        # Ready = every worker has attached the segment and answered once.
        first = self.inputs.ops[:max(self.jobs, 2)]
        parallel.run_trials(
            snapshot_trial, self._specs(first, scale.snap_ready_queries), jobs=self.jobs
        )
        t2 = now()
        self.setup_parts = {"build_s": (t1 - t0) / 1e9, "snapshot_ready_s": (t2 - t1) / 1e9}

    def _run(self, ops, *, keep: bool, timed: bool) -> Repetition:
        rep = Repetition(results=[] if keep else None)
        self._begin(0, timed)
        specs = self._specs(ops)
        begin = now()
        try:
            trials = self.parallel.run_trials(snapshot_trial, specs, jobs=self.jobs)
        except Exception as exc:  # a broken pool fails the whole sweep
            rep.errors.extend(f"op {index} trial: {exc!r}" for index in range(len(ops)))
            trials = []
        rep.wall_ns = now() - begin
        rep.latency_ns = {"search": [trial["search_ns"] for trial in trials]}
        rep.info["trials"] = trials
        if keep:
            rep.results = trials
        return rep

    def counts(self, rep: Repetition) -> Counts:
        counts = Counts(attempted=self.inputs.attempted)
        for op, trial in zip(self.inputs.ops, rep.results):
            found, messages, _failed, _checksum = trial["answer"]
            counts.searches += op[2]
            counts.found += found
            counts.messages += messages
        counts.search_messages = counts.messages
        return counts

    def verify(self, rep: Repetition) -> tuple[list[str], dict]:
        """Replay every trial serially in this process: the workers'
        answers must be bit-identical, and each replayed responder must
        hold a path in prefix relation with its key."""
        violations = []
        replay = self.parallel.run_trials(
            snapshot_trial, self._specs(self.inputs.ops, detail=True), jobs=1
        )
        if len(rep.results) != len(replay):
            violations.append(f"{len(replay) - len(rep.results)} trials did not return")
        path_bits = self.snapshot.view("path_bits")
        path_len = self.snapshot.view("path_len")
        key_bits = self.scale.key_bits
        for index, (trial, again) in enumerate(zip(rep.results, replay)):
            if trial["answer"] != again["answer"]:
                violations.append(
                    f"op {index}: worker answer {trial['answer']} != serial replay "
                    f"{again['answer']}"
                )
            keys, found, responder = again.pop("arrays")
            hit = responder[found]
            depth = path_len[hit]
            wrong = int(((keys[found] >> (key_bits - depth)) != path_bits[hit]).sum())
            if wrong:
                violations.append(f"op {index}: {wrong} searches answered by a non-replica")
        del path_bits, path_len
        return violations, {"jobs": self.jobs_note,
                            "converged": bool(self.report.converged)}

    def layer_metrics(self, rep: Repetition, spans: dict) -> dict[str, float | None]:
        from repro.fast.mem import grid_memory_report
        from repro.fast.snapshot import GridSnapshot

        trials = rep.info["trials"]
        count = max(len(trials), 1)
        attach = []
        for _ in range(5):
            t0 = now()
            attached = GridSnapshot.attach(self.snapshot.handle)
            attach.append(now() - t0)
            attached.close()
        shared = grid_memory_report(snapshot=self.snapshot)["shared_memory"]
        busy = sum(trial["busy_ns"] for trial in trials)
        t0 = now()
        self.parallel.run_trials(snapshot_trial, self._specs(self.inputs.ops), jobs=1)
        serial_wall_ns = now() - t0
        out = {
            "fast.batch.exchanges_per_s": self.report.exchanges / self.setup_parts["build_s"],
            "fast.batch.exchanges_per_peer": self.report.exchanges_per_peer,
            "fast.batch.meetings": self.report.meetings,
            "fast.mem.bytes_per_peer": shared["bytes_total"] / self.scale.snap_peers,
            "fast.snapshot.segment_mb": self.snapshot.nbytes / 1e6,
            "fast.snapshot.handle_bytes": len(pickle.dumps(self.snapshot.ref())),
            "fast.snapshot.attach_ms": sorted(attach)[len(attach) // 2] / 1e6,
            "fast.snapshot.engine_ms": sum(t["engine_ns"] for t in trials) / count / 1e6,
            "fast.snapshot.fresh_attaches_per_worker": max(
                (t["fresh_attaches"] for t in trials), default=0),
            "fast.query.search_many_us": (
                sum(t["search_ns"] for t in trials) / max(self.inputs.attempted, 1) / 1e3),
            "perf.pool.dispatch_ms_per_trial":
                (rep.wall_ns * self.jobs - busy) / count / 1e6,
            # One CPU: there is no second worker to speed anything up.
            "perf.jobs2_speedup": (
                serial_wall_ns / rep.wall_ns if self.jobs == 2 else None),
        }
        return out

    def teardown(self) -> list[str]:
        self.snapshot.close()
        self.snapshot.unlink()
        self.parallel.shutdown_pool()
        return [
            f"shared-memory segment {name} left in /dev/shm"
            for name in verify.shm_residue(self.shm_before)
        ]


PATHS = {
    path.name: path
    for path in (EngineMixed, NodeMixed, EngineZipf, TcpSearch, ArrayBatch, BuildSnapshot)
}
