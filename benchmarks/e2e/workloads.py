"""Seeded workload generator of the end-to-end benchmark.

Everything the program is asked to do is generated here, from ``--seed``
alone, by the benchmark's own samplers (uniform, inverse-CDF Zipf, range
bounds, origins, op kinds).  ``repro.sim.workload`` is program code and is
deliberately not used: the program receives only the generated op list,
whose SHA-256 is recorded in the output so two runs can prove they were
asked the same questions.

An op is a plain tuple whose first element names its kind:

``("search", key, start)``
    one Fig. 2 search for *key* issued at peer *start*;
``("update", key, holder, start)``
    one breadth-first publish of ``key -> holder`` issued at *start* (the
    version is a counter the executor bumps, so it only ever rises);
``("range", low, high, start)``
    one range query over ``[low, high]``;
``("rebalance", meetings)``
    replication maintenance between client ops (not counted as an op);
``("search_many", keys, starts)`` / ``("range_many", lows, highs, starts)``
/ ``("publish_many", keys, holders, starts)`` / ``("read_many", keys,
holders, starts)``
    one batch call into the array plane; counts as ``len(keys)`` ops;
``("rebridge",)``
    re-snapshot the object grid into the array plane (not counted);
``("trial", seed, queries)``
    one pool trial of the snapshot sweep; counts as *queries* ops.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass

WORKLOADS = (
    "engine_mixed",
    "node_mixed",
    "engine_zipf",
    "tcp_search",
    "array_batch",
    "build_snapshot",
)

#: One sentence per workload: why it exists (also BENCHMARK.json's ``why``).
WHY = {
    "engine_mixed": "Paper-faithful reference path under the paper's 30 % availability: "
                    "core engines and protocol.direct do all the work, net/aio/fast none.",
    "node_mixed": "Identical op list and twin grid as engine_mixed with every hop an explicit "
                  "message: isolates net.node/net.transport and checks engine = node.",
    "engine_zipf": "Zipf keys from 64 origins with shortcuts and adaptive replication on: the "
                   "only workload where the program's own caches and load probe are hit.",
    "tcp_search": "The deployed front door: wire framing, a fresh loopback connection per "
                  "request and async mailbox hops; smallest messages, per-message cost dominates.",
    "array_batch": "fast.query kernels do the reads while object-plane updates force "
                   "re-bridges, so a kernel gain that makes snapshots costlier shows.",
    "build_snapshot": "Batch construction, shared-memory export/attach and pool dispatch at "
                      "scale; the message planes do nothing.",
}

#: Workloads that cannot run without numpy (reported as skipped, with the
#: reason, when it is absent).
NEEDS_NUMPY = ("array_batch", "build_snapshot")


@dataclass(frozen=True)
class Scale:
    """Every size the six workloads depend on."""

    name: str
    # The common serving grid (four message-plane workloads + array_batch).
    peers: int
    maxl: int
    refmax: int
    recmax: int
    fanout: int
    catalogue: int
    key_bits: int
    p_online: float
    warmup_ops: int
    # engine_mixed / node_mixed (one shared op list).
    mixed_ops: int
    range_leaves: int
    # engine_zipf.
    zipf_ops: int
    zipf_exponent: float
    zipf_origins: int
    shortcut_capacity: int
    rebalance_every: int
    rebalance_meetings: int
    # tcp_search.
    tcp_ops: int
    # array_batch: one repetition is `array_rounds` rounds, the last of
    # which ends with object-plane updates and a re-bridge.
    array_rounds: int
    array_searches: int
    array_ranges: int
    array_publishes: int
    array_reads: int
    array_updates: int
    # build_snapshot.
    snap_peers: int
    snap_maxl: int
    snap_trials: int
    snap_queries: int
    snap_ready_queries: int
    # How many times set-up runs (``setup_s`` is their median).
    setups: int


SCALES = {
    # Sized for the builder's contract (136 runs inside 3420 s) and for
    # steadiness on a noisy 2-CPU box: op lists a third of ISSUE 11's or
    # less, so one repetition is 0.4-1.2 s and a 10 s measurement takes
    # the quiet decile over 8-35 of them.  No workload or metric is dropped.
    "default": Scale(
        name="default",
        peers=2048, maxl=8, refmax=10, recmax=2, fanout=2,
        catalogue=1024, key_bits=16, p_online=0.3, warmup_ops=500,
        mixed_ops=4000, range_leaves=8,
        zipf_ops=8000, zipf_exponent=1.0, zipf_origins=64,
        shortcut_capacity=64, rebalance_every=2000, rebalance_meetings=64,
        tcp_ops=1250,
        array_rounds=4, array_searches=16384, array_ranges=32,
        array_publishes=512, array_reads=2048, array_updates=8,
        snap_peers=8192, snap_maxl=9, snap_trials=16, snap_queries=25000,
        snap_ready_queries=1024,
        setups=3,
    ),
    # All six workloads in well under 20 s: what the self-tests run.
    "tiny": Scale(
        name="tiny",
        peers=256, maxl=5, refmax=6, recmax=2, fanout=2,
        catalogue=128, key_bits=12, p_online=0.3, warmup_ops=40,
        mixed_ops=400, range_leaves=4,
        zipf_ops=1200, zipf_exponent=1.0, zipf_origins=16,
        shortcut_capacity=16, rebalance_every=300, rebalance_meetings=32,
        tcp_ops=150,
        array_rounds=2, array_searches=1024, array_ranges=8,
        array_publishes=64, array_reads=128, array_updates=4,
        snap_peers=1024, snap_maxl=6, snap_trials=4, snap_queries=2000,
        snap_ready_queries=64,
        setups=1,
    ),
}


def derive_seed(seed: int, *names: str) -> int:
    """A 64-bit stream seed that depends on *seed* and the stream's name
    only (never on ``PYTHONHASHSEED`` or on which workloads ran before)."""
    text = "/".join((str(seed),) + names)
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big")


def stream(seed: int, *names: str) -> random.Random:
    return random.Random(derive_seed(seed, *names))


def bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")


class ZipfSampler:
    """Inverse-CDF sampler over ranks ``0..n-1`` with weight ``1/(r+1)^s``."""

    def __init__(self, n: int, exponent: float) -> None:
        total = 0.0
        self._cdf = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** exponent
            self._cdf.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> int:
        index = bisect.bisect_left(self._cdf, rng.random() * self._total)
        return min(index, len(self._cdf) - 1)


@dataclass(frozen=True)
class Catalogue:
    """The indexed items: distinct keys and the peer that stores each."""

    keys: tuple[str, ...]
    holders: tuple[int, ...]


def make_catalogue(seed: int, scale: Scale) -> Catalogue:
    """Distinct uniform keys (sampled without replacement) with uniform
    holders — the same catalogue for every serving workload of a seed."""
    rng = stream(seed, "catalogue")
    values = rng.sample(range(1 << scale.key_bits), scale.catalogue)
    keys = tuple(bits(value, scale.key_bits) for value in values)
    holders = tuple(rng.randrange(scale.peers) for _ in keys)
    return Catalogue(keys, holders)


def _range_bounds(rng: random.Random, scale: Scale) -> tuple[str, str]:
    """A range exactly ``range_leaves`` leaf intervals wide, aligned to
    leaf boundaries, so its canonical cover is a handful of short prefixes."""
    leaf_bits = scale.key_bits - scale.maxl
    first = rng.randrange((1 << scale.maxl) - scale.range_leaves + 1)
    low = first << leaf_bits
    high = ((first + scale.range_leaves) << leaf_bits) - 1
    return bits(low, scale.key_bits), bits(high, scale.key_bits)


def _shuffled_kinds(rng: random.Random, count: int, shares: dict[str, float]) -> list[str]:
    """Exactly ``share * count`` ops of each kind (the first kind takes
    the remainder), in seeded random order.  Drawing each op's kind
    independently would let the number of heavy ops — a range costs ~60
    messages, a search ~4 — vary by ±6 % between seeds for no reason."""
    kinds = list(shares)
    tail = [kind for kind in kinds[1:] for _ in range(round(shares[kind] * count))]
    mix = [kinds[0]] * (count - len(tail)) + tail
    rng.shuffle(mix)
    return mix


def mixed_ops(rng: random.Random, scale: Scale, catalogue: Catalogue, count: int) -> list[tuple]:
    """90 % search / 5 % update / 5 % range over uniform keys and origins."""
    ops: list[tuple] = []
    for kind in _shuffled_kinds(rng, count, {"search": 0.90, "update": 0.05, "range": 0.05}):
        start = rng.randrange(scale.peers)
        if kind == "search":
            ops.append(("search", catalogue.keys[rng.randrange(scale.catalogue)], start))
        elif kind == "update":
            item = rng.randrange(scale.catalogue)
            ops.append(("update", catalogue.keys[item], catalogue.holders[item], start))
        else:
            low, high = _range_bounds(rng, scale)
            ops.append(("range", low, high, start))
    return ops


def zipf_ops(
    rng: random.Random,
    scale: Scale,
    catalogue: Catalogue,
    count: int,
    origins: list[int],
) -> list[tuple]:
    """95 % search / 5 % update, Zipf keys, a small fixed set of origins,
    and a rebalance marker every ``rebalance_every`` client ops."""
    sampler = ZipfSampler(scale.catalogue, scale.zipf_exponent)
    ops: list[tuple] = []
    kinds = _shuffled_kinds(rng, count, {"search": 0.95, "update": 0.05})
    for index, kind in enumerate(kinds):
        item = sampler.sample(rng)
        start = origins[rng.randrange(len(origins))]
        if kind == "search":
            ops.append(("search", catalogue.keys[item], start))
        else:
            ops.append(("update", catalogue.keys[item], catalogue.holders[item], start))
        if (index + 1) % scale.rebalance_every == 0:
            ops.append(("rebalance", scale.rebalance_meetings))
    return ops


def tcp_ops(rng: random.Random, scale: Scale, catalogue: Catalogue, count: int) -> list[tuple]:
    return [
        ("search", catalogue.keys[rng.randrange(scale.catalogue)], rng.randrange(scale.peers))
        for _ in range(count)
    ]


def array_ops(rng: random.Random, scale: Scale, catalogue: Catalogue) -> list[tuple]:
    """``array_rounds`` rounds of batch calls; the last round ends with
    object-plane updates and the re-bridge they force."""
    peers, items = scale.peers, scale.catalogue

    def pick(count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        chosen = tuple(rng.randrange(items) for _ in range(count))
        starts = tuple(rng.randrange(peers) for _ in range(count))
        return chosen, starts

    ops: list[tuple] = []
    for round_index in range(scale.array_rounds):
        chosen, starts = pick(scale.array_searches)
        ops.append(("search_many", tuple(catalogue.keys[i] for i in chosen), starts))
        bounds = [_range_bounds(rng, scale) for _ in range(scale.array_ranges)]
        ops.append((
            "range_many",
            tuple(low for low, _ in bounds),
            tuple(high for _, high in bounds),
            tuple(rng.randrange(peers) for _ in bounds),
        ))
        for kind, count in (("publish_many", scale.array_publishes),
                            ("read_many", scale.array_reads)):
            chosen, starts = pick(count)
            ops.append((
                kind,
                tuple(catalogue.keys[i] for i in chosen),
                tuple(catalogue.holders[i] for i in chosen),
                starts,
            ))
        if round_index == scale.array_rounds - 1:
            for _ in range(scale.array_updates):
                item = rng.randrange(items)
                ops.append(("update", catalogue.keys[item], catalogue.holders[item],
                            rng.randrange(peers)))
            ops.append(("rebridge",))
    return ops


def snapshot_ops(seed: int, scale: Scale) -> list[tuple]:
    return [
        ("trial", derive_seed(seed, "snapshot", f"trial-{index}"), scale.snap_queries)
        for index in range(scale.snap_trials)
    ]


def trial_queries(trial_seed: int, queries: int, key_bits: int, peers: int):
    """The (packed keys, starts) one snapshot trial asks, as numpy arrays.

    Runs inside the pool worker (the trial ships only its seed, as real
    sweeps do), so it must stay a pure function of its arguments.
    """
    import numpy as np

    rng = np.random.default_rng(trial_seed)
    key_values = rng.integers(0, 1 << key_bits, size=queries, dtype=np.int64)
    lengths = np.full(queries, key_bits, dtype=np.int64)
    starts = rng.integers(0, peers, size=queries, dtype=np.int64)
    return (key_values, lengths), starts


#: How many client operations one op stands for.
def op_weight(op: tuple) -> int:
    kind = op[0]
    if kind in ("search", "update", "range"):
        return 1
    if kind in ("search_many", "range_many", "publish_many", "read_many"):
        return len(op[1])
    if kind == "trial":
        return op[2]
    return 0  # rebalance / rebridge: maintenance, not a client op


def ops_sha256(ops: list[tuple]) -> str:
    """Digest of the op list (tuples of str/int only, so ``repr`` is a
    canonical encoding)."""
    return hashlib.sha256(repr(ops).encode("ascii")).hexdigest()


@dataclass(frozen=True)
class WorkloadInput:
    """What one workload run is given."""

    workload: str
    seed: int
    scale: Scale
    catalogue: Catalogue | None
    warmup: list[tuple]
    ops: list[tuple]
    sha256: str

    @property
    def attempted(self) -> int:
        return sum(op_weight(op) for op in self.ops)


def generate(workload: str, seed: int, scale: Scale) -> WorkloadInput:
    """The inputs of *workload* at *seed* — a pure function of both.

    ``engine_mixed`` and ``node_mixed`` get the identical lists (the
    engine ≡ node contract is checked op by op).  The warm-up list comes
    from the same distribution as the timed one, on its own stream.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}: expected one of {WORKLOADS}")
    if workload == "build_snapshot":
        ops = snapshot_ops(seed, scale)
        return WorkloadInput(workload, seed, scale, None, ops[:2], ops, ops_sha256(ops))
    catalogue = make_catalogue(seed, scale)
    warm = scale.warmup_ops
    if workload in ("engine_mixed", "node_mixed"):
        warmup = mixed_ops(stream(seed, "mixed", "warmup"), scale, catalogue, warm)
        ops = mixed_ops(stream(seed, "mixed", "ops"), scale, catalogue, scale.mixed_ops)
    elif workload == "engine_zipf":
        origin_rng = stream(seed, "zipf", "origins")
        origins = [origin_rng.randrange(scale.peers) for _ in range(scale.zipf_origins)]
        warmup = zipf_ops(stream(seed, "zipf", "warmup"), scale, catalogue, warm, origins)
        ops = zipf_ops(stream(seed, "zipf", "ops"), scale, catalogue, scale.zipf_ops, origins)
    elif workload == "tcp_search":
        warmup = tcp_ops(stream(seed, "tcp", "warmup"), scale, catalogue, warm)
        ops = tcp_ops(stream(seed, "tcp", "ops"), scale, catalogue, scale.tcp_ops)
    else:
        ops = array_ops(stream(seed, "array", "ops"), scale, catalogue)
        warmup = ops[:4]  # one round's four batch calls, no re-bridge
    return WorkloadInput(workload, seed, scale, catalogue, warmup, ops, ops_sha256(ops))
