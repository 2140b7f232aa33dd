"""The batch engine's side store and buddy CSR against a dict model.

``BatchQueryEngine`` keeps its §5.2 side store as sorted rows and its
buddies as CSR arrays.  The reference here is the dictionary semantics
those layouts replace — ``(peer, key bits, key len, holder) -> version``
with a missing slot reading -1, buddies as ``{peer: set}`` visited in
sorted order — replayed over the very search results the engine's
kernels produced.  Random interleavings of ``publish_many`` /
``read_many`` / ``search_range_many`` / ``find_replicas_many(DFS_BUDDIES)``
on a bridged grid with tombstoned entries must agree with the model on
store contents, fresh masks, ``data_refs`` and both RNG streams, for an
engine over the bridge and one over a shared-memory snapshot.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.keys import range_cover
from repro.core.storage import DataItem, DataRef
from repro.fast import HAVE_NUMPY, ArrayGrid
from repro.protocol.search import key_in_range
from repro.protocol.update import UpdateStrategy
from repro.sim.builder import GridBuilder

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="requires numpy")

if HAVE_NUMPY:
    import numpy as np

    from repro.fast import BatchQueryEngine, GridSnapshot

MAXL = 4
P_ONLINE = 0.6
MAX_READ_ROUNDS = 4


def _tombstoned_grid() -> PGrid:
    """A small converged grid whose store holds live and tombstoned refs."""
    config = PGridConfig(maxl=MAXL, refmax=3, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=random.Random(5))
    grid.add_peers(40)
    GridBuilder(grid).build(max_exchanges=20_000)
    rng = random.Random(6)
    grid.seed_index(
        [
            (DataItem(format(rng.getrandbits(MAXL), f"0{MAXL}b"), f"v{k}"), address)
            for k, address in enumerate(grid.addresses()[:24])
        ]
    )
    # Tombstones: retract every third stored key's lowest holder, and add
    # deleted refs for slots nobody holds live.  Live refs for keys
    # outside a peer's path make the range fold's cover-prefix filter
    # matter.
    stores = [peer.store for peer in grid.peers() if peer.store.ref_count]
    for index, store in enumerate(stores):
        keys = sorted(store.indexed_keys(), key=lambda k: (int(k, 2), len(k)))
        for key in keys[::3]:
            ref = min(store.refs_for_key(key), key=lambda ref: ref.holder)
            store.add_ref(ref.tombstone())
        if index % 4 == 0:
            store.add_ref(DataRef(format(index % 16, f"0{MAXL}b"), 999, 3, deleted=True))
        if index % 3 == 1:
            store.add_ref(DataRef(format(index * 7 % 16, f"0{MAXL}b"), 500 + index % 2, 1))
    return grid


if HAVE_NUMPY:
    PGRID = _tombstoned_grid()
    GRID = ArrayGrid.from_pgrid(PGRID)
    INDEX = {address: i for i, address in enumerate(PGRID.addresses())}
    REFS = [(INDEX[peer.address], ref) for peer in PGRID.peers() for ref in peer.store.iter_refs()]
    BUDDIES = {INDEX[p.address]: {INDEX[b] for b in p.buddies} for p in PGRID.peers()}
    STORED_KEYS = sorted({ref.key for _, ref in REFS})
    STORED_HOLDERS = sorted({ref.holder for _, ref in REFS})
else:  # pragma: no cover - numpy-less collection
    GRID, REFS, BUDDIES, STORED_KEYS, STORED_HOLDERS = None, [], {}, ["0"], [0]

#: Longer than every stored key: each write to it starts from a missing slot.
NEW_KEY = "1" * (MAXL + 1)


# -- the dict model ------------------------------------------------------------------


def model_store() -> dict:
    return {
        (peer, int(ref.key, 2), len(ref.key), ref.holder): ref.version
        for peer, ref in REFS
        if not ref.deleted
    }


def engine_store(engine) -> dict:
    rows = engine._store.tolist()
    assert all(deleted == 0 for *_, deleted in rows)
    slots = [tuple(row[:4]) for row in rows]
    assert slots == sorted(set(slots)), "rows not unique and in store order"
    assert engine._store_off.tolist() == [
        sum(1 for slot in slots if slot[0] < peer) for peer in range(engine.n + 1)
    ]
    return {tuple(row[:4]): row[4] for row in rows}


def model_fresh(store, result, kb, kl, holders, versions) -> list[bool]:
    return [
        bool(found) and store.get((int(r), int(b), int(ln), int(h)), -1) >= v
        for found, r, b, ln, h, v in zip(
            result.found, result.responder, kb, kl, holders, versions
        )
    ]


def model_forward(reach, buddies, pyrng, p):
    """Strategy 2's buddy hop over ``{peer: set}``, sorted per peer."""
    values, messages = [], reach.messages.tolist()
    failed = reach.failed_attempts.tolist()
    for i in range(len(reach)):
        reached = reach.reached(i).tolist()
        extended, in_set = list(reached), set(reached)
        for peer in reached:
            for buddy in sorted(buddies.get(peer, ())):
                if buddy in in_set:
                    continue
                if p >= 1.0 or pyrng.random() < p:
                    messages[i] += 1
                    in_set.add(buddy)
                    extended.append(buddy)
                else:
                    failed[i] += 1
        values.append(extended)
    return values, messages, failed


def model_range(store, lows, highs, off, vals, subs):
    """Responders first-seen per query and the per-sub store fold."""
    values, data_refs = [], []
    for i in range(len(lows)):
        seen, best = [], {}
        for sub, (pbits, plen) in subs[i]:
            for rp in vals[off[sub] : off[sub + 1]].tolist():
                if rp not in seen:
                    seen.append(rp)
                for (peer, bits, length, holder), version in store.items():
                    if peer != rp:
                        continue
                    m = min(plen, length)
                    if (bits >> (length - m)) != (pbits >> (plen - m)):
                        continue
                    key = format(bits, f"0{length}b") if length else ""
                    if key_in_range(key, lows[i], highs[i]) and version > best.get(
                        (key, holder), -1
                    ):
                        best[(key, holder)] = version
        values.append(seen)
        data_refs.append([(k, h, v, False) for (k, h), v in sorted(best.items())])
    return values, data_refs


def rng_state(engine):
    return copy.deepcopy(engine._rng.bit_generator.state), engine._pyrng.getstate()


def same_rng(a, b) -> bool:
    (np_a, py_a), (np_b, py_b) = a, b
    return (
        np.array_equal(np_a["state"]["key"], np_b["state"]["key"])
        and np_a["state"]["pos"] == np_b["state"]["pos"]
        and py_a == py_b
    )


def rewind(engine, state) -> None:
    engine._rng.bit_generator.state = copy.deepcopy(state[0])


# -- operations: run on the engine, replay on the model ---------------------------------


def do_publish(engine, store, batch, strategy, repetition):
    keys, holders, versions, starts = map(list, zip(*batch))
    reach = engine.publish_many(
        keys, holders, versions, starts, strategy=strategy, repetition=repetition
    )
    for i, (key, holder, version) in enumerate(zip(keys, holders, versions)):
        for peer in reach.reached(i).tolist():
            slot = (peer, int(key, 2), len(key), holder)
            if store.get(slot, -1) < version:
                store[slot] = version


def do_read(engine, store, batch, repetitive):
    keys, holders, versions, starts = map(list, zip(*batch))
    before = rng_state(engine)
    got = engine.read_many(
        keys, holders, versions, starts,
        repetitive=repetitive, max_repetitions=MAX_READ_ROUNDS,
    )
    after = rng_state(engine)
    rewind(engine, before)
    kb = np.array([int(k, 2) for k in keys], dtype=np.int64)
    kl = np.array([len(k) for k in keys], dtype=np.int64)
    holders = np.array(holders, dtype=np.int64)
    versions = np.array(versions, dtype=np.int64)
    starts = np.array(starts, dtype=np.int64)
    success = np.zeros(len(keys), dtype=bool)
    pending = np.arange(len(keys))
    for _ in range(MAX_READ_ROUNDS if repetitive else 1):
        if not pending.size:
            break
        result = engine.search_many((kb[pending], kl[pending]), starts[pending])
        args = (kb[pending], kl[pending], holders[pending], versions[pending])
        fresh = engine._fresh_mask(result, *args)
        assert fresh.tolist() == model_fresh(store, result, *args)
        success[pending[fresh]] = True
        pending = pending[~fresh]
    assert got.success.tolist() == success.tolist()
    assert same_rng(rng_state(engine), after)


def do_range(engine, store, ranges, recbreadth):
    lows, highs, starts = map(list, zip(*ranges))
    before = rng_state(engine)
    got = engine.search_range_many(lows, highs, starts, recbreadth=recbreadth)
    after = rng_state(engine)
    rewind(engine, before)
    subs, skb, skl, sst = [], [], [], []
    for low, high, start in ranges:
        subs.append([])
        for prefix in range_cover(low, high):
            subs[-1].append((len(skb), (int(prefix or "0", 2), len(prefix))))
            skb.append(int(prefix or "0", 2))
            skl.append(len(prefix))
            sst.append(start)
    off, vals, _, _ = engine._walk(
        np.array(skb, dtype=np.int64), np.array(skl, dtype=np.int64),
        np.array(sst, dtype=np.int64), recbreadth, engine.max_messages,
        enumerate_subtree=True,
    )
    values, data_refs = model_range(store, lows, highs, off, vals, subs)
    assert [got.responders(i).tolist() for i in range(len(ranges))] == values
    assert [
        [(r.key, r.holder, r.version, r.deleted) for r in refs] for refs in got.data_refs
    ] == data_refs
    assert all(
        type(r.holder) is int and type(r.version) is int
        for refs in got.data_refs for r in refs
    )
    assert same_rng(rng_state(engine), after)


def do_buddies(engine, pairs, repetition):
    keys, starts = map(list, zip(*pairs))
    before = rng_state(engine)
    got = engine.find_replicas_many(
        keys, starts, strategy=UpdateStrategy.DFS_BUDDIES, repetition=repetition
    )
    after = rng_state(engine)
    rewind(engine, before)
    base = engine.find_replicas_many(
        keys, starts, strategy=UpdateStrategy.REPEATED_DFS, repetition=repetition
    )
    pyrng = random.Random()
    pyrng.setstate(before[1])
    values, messages, failed = model_forward(base, BUDDIES, pyrng, engine.p_online)
    assert [got.reached(i).tolist() for i in range(len(keys))] == values
    assert got.messages.tolist() == messages
    assert got.failed_attempts.tolist() == failed
    assert same_rng(after, (engine._rng.bit_generator.state, pyrng.getstate()))


# -- strategies ----------------------------------------------------------------------------

random_key = st.integers(1, MAXL + 1).flatmap(
    lambda length: st.integers(0, (1 << length) - 1).map(
        lambda bits: format(bits, f"0{length}b")
    )
)
# Few keys and holders, so one batch often writes a slot twice.
key = st.one_of(st.sampled_from(STORED_KEYS[:3]), st.sampled_from(STORED_KEYS), random_key)
holder = st.sampled_from(STORED_HOLDERS[:3] + [0])
start = st.integers(0, 39)
writes = st.lists(st.tuples(key, holder, st.integers(-2, 4), start), min_size=1, max_size=6)


@st.composite
def key_range(draw):
    width = draw(st.integers(1, MAXL))
    low, high = sorted(draw(st.lists(st.integers(0, (1 << width) - 1), min_size=2, max_size=2)))
    return format(low, f"0{width}b"), format(high, f"0{width}b"), draw(start)


operation = st.one_of(
    st.tuples(
        st.just("publish"), writes, st.sampled_from(list(UpdateStrategy)), st.integers(1, 2)
    ),
    st.tuples(st.just("read"), writes, st.booleans()),
    st.tuples(st.just("range"), st.lists(key_range(), min_size=1, max_size=4), st.integers(1, 3)),
    st.tuples(
        st.just("buddies"), st.lists(st.tuples(key, start), min_size=1, max_size=6),
        st.integers(1, 3),
    ),
)


@pytest.fixture(scope="module")
def snapshot():
    snap = GridSnapshot.from_arraygrid(GRID, p_online=P_ONLINE)
    yield snap
    gc.collect()
    with contextlib.suppress(BufferError):
        snap.close()
    snap.unlink()


class TestDictModel:
    @settings(
        max_examples=50, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    # One batch writing a missing slot at versions 1, 3, 2 (the max must
    # win), a DFS raising one replica further, then a range that meets
    # replicas at different versions.
    @example(
        source="bridge",
        seed=1,
        ops=[
            ("publish", [(NEW_KEY, 0, 1, 0), (NEW_KEY, 0, 3, 5), (NEW_KEY, 0, 2, 9)],
             UpdateStrategy.BFS, 1),
            ("publish", [(NEW_KEY, 0, 5, 3)], UpdateStrategy.REPEATED_DFS, 1),
            ("range", [("0" * MAXL, "1" * MAXL, 0), (NEW_KEY, NEW_KEY, 7)], 3),
        ],
    )
    @given(
        source=st.sampled_from(["bridge", "snapshot"]),
        seed=st.integers(0, 2**32),
        ops=st.lists(operation, min_size=1, max_size=6),
    )
    def test_interleavings_match_the_dict_model(self, snapshot, source, seed, ops):
        if source == "bridge":
            engine = BatchQueryEngine.from_arraygrid(GRID, seed=seed, p_online=P_ONLINE)
        else:
            engine = snapshot.batch_query_engine(seed=seed)
        segment = snapshot.view("store").tobytes()
        rows = GRID.store.tobytes()
        store = model_store()
        assert engine_store(engine) == store
        for op in ops:
            kind = op[0]
            if kind == "publish":
                do_publish(engine, store, *op[1:])
            elif kind == "read":
                do_read(engine, store, *op[1:])
            elif kind == "range":
                do_range(engine, store, *op[1:])
            else:
                do_buddies(engine, *op[1:])
            assert engine_store(engine) == store
        assert snapshot.view("store").tobytes() == segment
        assert GRID.store.tobytes() == rows
