"""Vectorized batch query plane over the flat array grid state.

:class:`BatchQueryEngine` resolves *many* searches per numpy pass: the
whole in-flight query population advances one protocol step per wave —
prefix matching via integer path arithmetic, per-wave uniform candidate
draws, Bernoulli liveness — with per-query message/failed-attempt
accounting kept exact.  Two wave kernels do all the walking: the
depth-first one backs searches, repeated DFS, DFS + buddies and the
repetitive/non-repetitive reads; one breadth kernel backs breadth-first
replica discovery, BFS publish and range queries (the object core's
``breadth_step``, with its ``enumerate_subtree`` range extension).
That is what lets Fig. 5 and the §6 trade-off sweep run at 100k+ peers.

Depth-first frame ``d`` of query ``i`` is the flat slot ``d * q + i``,
and a push copies a reference row as one record of a ``np.void`` view of
``refs``.  ``dfs_step``'s routed-on prefix check runs on arrival: one
key-versus-path common prefix gives the refusal and Fig. 2's divergence.

Semantics relative to the object core (``SearchEngine`` /
``UpdateEngine`` / ``ReadEngine`` over the Fig. 2 machines):

* **Routing decisions are identical**: divergence level, candidate
  level (``level + lc + 1``), uniform attempt order without
  replacement, candidate consumed *before* the liveness check,
  backtracking order, breadth fan-out capped at ``recbreadth`` with a
  shared per-query visited set.
* **Accounting is identical**: ``messages`` counts successful contacts,
  ``failed_attempts`` counts offline misses; the start peer is visited
  locally (no message, no liveness draw).
* **RNG discipline differs**: a seeded numpy generator drawing per
  wave instead of CPython's ``random`` drawing per hop, so runs are
  deterministic per seed and statistically equivalent to the object
  core — not bit-identical (same contract as
  :class:`repro.fast.batch.BatchGridBuilder`).
* **Budget exhaustion differs in the tail**: the object core keeps
  attempting (and failing to budget) contacts while the recursion
  unwinds, accruing extra ``failed_attempts``; the batch engine marks
  the query exhausted at the first over-budget contact.  The default
  budget is 10 000 messages per query, which no experiment reaches.
* **Breadth visiting order differs**: the object core executes the
  "breadth" fan-out as a synchronous depth-first recursion over one
  shared visited set; the batch engine advances a true frontier wave,
  marking peers visited at forward time.  A second contact to the same
  peer within one wave is dropped, as the object core's ``seen`` set
  would drop it, so no walk reaches a peer twice or pays for it twice;
  the wave order itself stays an approximation.  Reached sets and
  message costs agree statistically (the equivalence tests pin the
  tolerance).

Shortcuts: :meth:`BatchQueryEngine.search_many` consults the object
core's :class:`~repro.core.shortcuts.ShortcutCache` (address-keyed) when
:attr:`BatchQueryEngine.shortcuts` is set, translating only the cached
entries between dense index and address — the facade wires its one cache
here, so both planes share it.

Observability fidelity note: the batch plane reports **aggregate
counters per wave** via :meth:`repro.obs.Probe.on_batch_wave` and one
batch summary via :meth:`repro.obs.Probe.on_batch_search` — not the
per-hop ``on_forward``/``on_backtrack``/``on_offline_miss`` event
stream.  Per-hop tracing of 10^5+ concurrent queries would serialize
the vectorized kernels back into Python; use the object core when hop
traces matter.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Sequence

from repro.core import keys as keyspace
from repro.core.config import SearchConfig
from repro.core.storage import DataRef
from repro.fast.arraygrid import store_order
from repro.protocol.update import UpdateStrategy

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    np = None

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.shortcuts import ShortcutCache
    from repro.fast.arraygrid import ArrayGrid

__all__ = [
    "BatchQueryEngine",
    "BatchSearchResult",
    "BatchReachResult",
    "BatchReadResult",
    "BatchRangeResult",
]

#: Sort-last marker for invalid entries in packed (key | index) rows.
_SENTINEL = (1 << 62) - 1

# Per-query DFS states.
_ARRIVE, _SELECT = 0, 1
_FOUND, _FAILED, _EXHAUSTED = 2, 3, 4


def _require_numpy() -> None:
    if np is None:
        raise RuntimeError(
            "the batch query engine requires numpy; use the object core instead"
        )


def _pack_keys(keys: Sequence[str]):
    """Binary-string keys → (packed bits, lengths) int64 arrays."""
    kb = np.empty(len(keys), dtype=np.int64)
    kl = np.empty(len(keys), dtype=np.int64)
    for i, key in enumerate(keys):
        if not key:
            raise ValueError("queries must be non-empty binary strings")
        kb[i] = int(key, 2)
        kl[i] = len(key)
    return kb, kl


class BatchSearchResult:
    """Per-query outcome arrays of one :meth:`BatchQueryEngine.search_many`.

    ``responder`` holds dense peer indices (``-1`` where not found); map
    through ``engine.addresses`` when the grid uses sparse addressing.
    """

    __slots__ = ("found", "responder", "messages", "failed_attempts")

    def __init__(self, found, responder, messages, failed_attempts) -> None:
        self.found = found
        self.responder = responder
        self.messages = messages
        self.failed_attempts = failed_attempts

    def __len__(self) -> int:
        return len(self.found)

    @property
    def found_rate(self) -> float:
        return float(self.found.mean()) if len(self.found) else 0.0

    @property
    def mean_messages(self) -> float:
        return float(self.messages.mean()) if len(self.messages) else 0.0


class BatchReachResult:
    """Per-query reached-peer sets (CSR) of one breadth/replica-discovery
    batch: query *i* reached ``values[offsets[i]:offsets[i+1]]``."""

    __slots__ = ("offsets", "values", "messages", "failed_attempts")

    def __init__(self, offsets, values, messages, failed_attempts) -> None:
        self.offsets = offsets
        self.values = values
        self.messages = messages
        self.failed_attempts = failed_attempts

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def reached(self, i: int):
        """Dense peer indices reached by query *i* (discovery order)."""
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    @property
    def mean_messages(self) -> float:
        return float(self.messages.mean()) if len(self.messages) else 0.0


class BatchReadResult:
    """Per-read outcome arrays of :meth:`BatchQueryEngine.read_many`."""

    __slots__ = ("success", "messages", "failed_attempts", "repetitions")

    def __init__(self, success, messages, failed_attempts, repetitions) -> None:
        self.success = success
        self.messages = messages
        self.failed_attempts = failed_attempts
        self.repetitions = repetitions

    def __len__(self) -> int:
        return len(self.success)

    @property
    def success_rate(self) -> float:
        return float(self.success.mean()) if len(self.success) else 0.0

    @property
    def mean_messages(self) -> float:
        return float(self.messages.mean()) if len(self.messages) else 0.0


class BatchRangeResult:
    """Per-query outcome of one :meth:`BatchQueryEngine.search_range_many`.

    Query *i*'s responders (dense indices, first-seen order across its
    cover prefixes) are ``values[offsets[i]:offsets[i+1]]``; its matching
    index entries are ``data_refs[i]`` (deduplicated ``(key, holder)``
    keeping max version, range-filtered, sorted — the object core's
    ``RangeSearchResult.data_refs`` contract); ``covers[i]`` is its
    canonical prefix cover.
    """

    __slots__ = (
        "offsets",
        "values",
        "messages",
        "failed_attempts",
        "covers",
        "data_refs",
    )

    def __init__(
        self, offsets, values, messages, failed_attempts, covers, data_refs
    ) -> None:
        self.offsets = offsets
        self.values = values
        self.messages = messages
        self.failed_attempts = failed_attempts
        self.covers = covers
        self.data_refs = data_refs

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def responders(self, i: int):
        """Dense responder indices of query *i* (first-seen order)."""
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    def found(self, i: int) -> bool:
        """Whether query *i* reached at least one responsible peer."""
        return bool(self.offsets[i + 1] > self.offsets[i])

    @property
    def found_rate(self) -> float:
        if len(self) == 0:
            return 0.0
        hits = int(np.count_nonzero(self.offsets[1:] > self.offsets[:-1]))
        return hits / len(self)

    @property
    def mean_messages(self) -> float:
        return float(self.messages.mean()) if len(self.messages) else 0.0


class BatchQueryEngine:
    """Batched DFS/BFS/update/read kernels over one grid's packed layout.

    Reads an :class:`~repro.fast.arraygrid.ArrayGrid` — bridged from a
    :class:`~repro.core.grid.PGrid`, a batch builder's state or a
    snapshot's segment — without copying or writing its arrays, so an
    engine over a snapshot shares the segment's pages.  Construct via
    :meth:`from_arraygrid` to take the seed and ``p_online`` defaults
    from the grid.  All peer identifiers are dense indices ``0..n-1``;
    ``addresses`` (ascending) maps them back when the source grid used
    sparse addressing.
    """

    def __init__(
        self,
        grid: "ArrayGrid",
        *,
        seed: int,
        p_online: float = 1.0,
        chunk: int = 8192,
        probe: Any = None,
    ) -> None:
        _require_numpy()
        config = grid.config
        if not 0.0 <= p_online <= 1.0:
            raise ValueError(f"p_online must be in [0, 1], got {p_online}")
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        if config.maxl > 58:
            raise ValueError("batch query engine packs paths into int64 (maxl <= 58)")
        self.n = n = grid.n
        self.config = config
        self.maxl = config.maxl
        self.refmax = config.refmax
        self.p_online = p_online
        self.max_messages = SearchConfig().max_messages
        self.chunk = chunk
        self.addresses = grid.addresses.tolist()
        self._pb = grid.path_bits
        self._pl = grid.path_len
        self._refs = grid.refs  # (n * maxl, refmax) int32, -1 beyond each row's count
        # Each reference row as one fixed-width record: a view, no copy.
        self._ref_rows = np.ascontiguousarray(grid.refs).view(
            np.dtype((np.void, grid.refs.dtype.itemsize * self.refmax))
        ).reshape(-1)
        self._rl = grid.ref_len  # (n * maxl,) per-row counts
        self._buddy_off = grid.buddy_offsets
        self._buddy_val = grid.buddy_values
        self._probe = probe
        self._rng = np.random.Generator(np.random.MT19937(seed))
        self._pyrng = random.Random(seed ^ 0x9E3779B97F4A7C15)
        # Shuffle packing (same scheme as batch.py): random key in the
        # high bits, peer index in the low bits, one int64 sort.
        self._vbits = max((n - 1).bit_length(), 1)
        self._vmask = (1 << self._vbits) - 1
        self._key_mod = 1 << min(62 - self._vbits, 31)
        # Side store for the §5.2 update/read experiments (see _set_store);
        # read-only, so publish_many copies it before its first write.
        store = grid.store.view()
        store.flags.writeable = False
        self._set_store(store)
        #: The :class:`~repro.core.shortcuts.ShortcutCache` :meth:`search_many`
        #: consults, or ``None``; keyed by address like the object plane's.
        self.shortcuts: ShortcutCache | None = None

    @classmethod
    def from_arraygrid(
        cls,
        grid: "ArrayGrid",
        *,
        seed: int | None = None,
        p_online: float | None = None,
        chunk: int = 8192,
        probe: Any = None,
    ) -> "BatchQueryEngine":
        """An engine over *grid* (typically :meth:`ArrayGrid.from_pgrid
        <repro.fast.arraygrid.ArrayGrid.from_pgrid>` of an object grid).

        ``p_online`` defaults to the grid's online oracle when it is
        AlwaysOnline (1.0) or a plain :class:`~repro.sim.churn.BernoulliChurn`
        (its ``p_online``); other oracles need an explicit value.  When
        ``seed`` is omitted it is derived from the grid's seeded
        ``random.Random`` with one documented draw.
        """
        _require_numpy()
        if p_online is None:
            p_online = _oracle_p_online(grid.online_oracle)
        if seed is None:
            seed = grid.rng.getrandbits(64)
        return cls(
            grid,
            seed=seed,
            p_online=p_online,
            chunk=chunk,
            probe=probe,
        )

    # -- side store ---------------------------------------------------------------

    def _set_store(self, rows) -> None:
        """Adopt side-store rows in the layout's ``store`` form, ``(peer,
        key bits, key len, holder, version, deleted)`` sorted by
        :func:`~repro.fast.arraygrid.store_order`, and index them by peer.

        Tombstones are dropped (the engine keeps live rows only); without
        any, *rows* is kept as given, so the grid's read-only rows stay
        shared until :meth:`publish_many` first has to write.
        """
        if rows[:, 5].any():
            rows = rows[rows[:, 5] == 0]
        self._store = rows
        self._store_off = np.searchsorted(rows[:, 0], np.arange(self.n + 1))

    def _locate(self, peer, bits, length, holder):
        """Find ``(peer, key bits, key len, holder)`` slots in the side store.

        Returns each slot's row — its insertion point when absent — and
        whether it is present: one vectorized binary search inside each
        peer's rows, which are sorted by ``(key bits, key len, holder)``.
        """
        store = self._store
        lo = self._store_off[peer]
        end = hi = self._store_off[peer + 1]
        while True:
            live = lo < hi
            if not live.any():
                break
            mid = np.where(live, (lo + hi) >> 1, 0)
            b, ln, h = store[mid, 1], store[mid, 2], store[mid, 3]
            less = (b < bits) | (
                (b == bits) & ((ln < length) | ((ln == length) & (h < holder)))
            )
            lo = np.where(live & less, mid + 1, lo)
            hi = np.where(live & ~less, mid, hi)
        found = lo < end
        at = lo[found]
        found[found] = (
            (store[at, 1] == bits[found])
            & (store[at, 2] == length[found])
            & (store[at, 3] == holder[found])
        )
        return lo, found

    # -- shared bit math ----------------------------------------------------------

    def _bit_length(self, x):
        """Vectorized ``int.bit_length`` for non-negative int64 *x*.

        ``frexp`` returns the binary exponent directly (one libm-free
        pass, ~3x cheaper than ``floor(log2)+1`` with a zero-guard) and
        is exact below 2**53; longer paths fall back to log2.
        """
        if self.maxl <= 52:
            return np.frexp(x)[1].astype(np.int64)
        bits = np.zeros(len(x), dtype=np.int64)
        nz = x > 0
        if nz.any():
            bits[nz] = np.floor(np.log2(x[nz])).astype(np.int64) + 1
        return bits

    def _divergence(self, kb, slen, level, cur):
        """Common-prefix length of the query's last *slen* bits vs the
        peer's path below trie *level*, plus both suffix lengths (Fig. 2's
        ``lc``)."""
        pb = self._pb
        pl = self._pl
        one = np.int64(1)
        sfx = kb & ((one << slen) - 1)
        rlen = np.maximum(pl[cur] - level, 0)
        rem = pb[cur] & ((one << rlen) - 1)
        m = np.minimum(slen, rlen)
        x = (sfx >> (slen - m)) ^ (rem >> (rlen - m))
        lc = m - self._bit_length(x)
        return lc, slen, rlen

    def _check(self, q: int, starts, *, recbreadth: int = 1, **columns):
        """The entry check of every batch call: *starts* and each named
        column hold one entry per query, starts are dense peer indices
        and *recbreadth* is positive.  Returns *starts* as int64."""
        if recbreadth < 1:
            raise ValueError(f"recbreadth must be >= 1, got {recbreadth}")
        starts = np.asarray(starts, dtype=np.int64)
        for name, column in (("starts", starts), *columns.items()):
            if len(column) != q:
                raise ValueError(f"{q} queries but {len(column)} {name}")
        if q and (starts.min() < 0 or starts.max() >= self.n):
            raise ValueError("start indices out of range")
        return starts

    def _emit_wave(self, kind: str, wave: int, active: int, contacts: int, offline: int) -> None:
        if self._probe is not None:
            self._probe.on_batch_wave(
                kind, wave=wave, active=active, contacts=contacts, offline=offline
            )

    def _emit_batch(self, kind: str, found: int, queries: int, messages: int, failed: int) -> None:
        if self._probe is not None:
            self._probe.on_batch_search(
                kind,
                queries=queries,
                found=found,
                messages=messages,
                failed_attempts=failed,
            )

    # -- depth-first search (Fig. 2) -----------------------------------------------

    def search_many(
        self,
        queries: Sequence[str],
        starts,
    ) -> BatchSearchResult:
        """Resolve one Fig. 2 depth-first search per (query, start) pair.

        ``queries`` are binary strings (or a pre-packed ``(bits, lengths)``
        array pair); ``starts`` dense peer indices.  Queries advance in
        waves of at most ``chunk`` concurrent searches.

        With a :attr:`shortcuts` cache, each query first tries its origin's
        cached responder — object-core semantics
        (:class:`repro.core.shortcuts.ShortcutSearchEngine`): a cached
        peer that is online and still responsible answers for 0 messages
        (itself) or 1; an unusable entry is invalidated and the query
        falls through to the normal DFS; found misses are cached.  The
        liveness of cached responders is drawn from this engine's RNG,
        so cached runs are deterministic per seed but draw a different
        stream than uncached runs (the usual statistical-equivalence
        contract).
        """
        kb, kl = queries if isinstance(queries, tuple) else _pack_keys(queries)
        q = len(kb)
        starts = self._check(q, starts)
        cache = self.shortcuts
        found = np.zeros(q, dtype=bool)
        responder = np.full(q, -1, dtype=np.int64)
        messages = np.zeros(q, dtype=np.int64)
        failed = np.zeros(q, dtype=np.int64)
        if cache is not None and q:
            if isinstance(queries, tuple):
                queries = [format(b, f"0{ln}b") for b, ln in zip(kb.tolist(), kl.tolist())]
            todo = self._shortcut_pass(
                cache, queries, kb, kl, starts, found, responder, messages
            )
        else:
            todo = np.arange(q, dtype=np.int64)
        for lo in range(0, len(todo), self.chunk):
            sl = todo[lo : lo + self.chunk]
            f, r, m, fa = self._dfs_chunk(kb[sl], kl[sl], starts[sl], self.max_messages)
            found[sl] = f
            responder[sl] = r
            messages[sl] = m
            failed[sl] = fa
        if cache is not None and len(todo):
            addresses = self.addresses
            for i in todo.tolist():
                if found[i]:
                    cache.put(
                        addresses[starts[i]], queries[i], addresses[responder[i]]
                    )
        self._emit_batch(
            "batch_dfs", int(found.sum()), q, int(messages.sum()), int(failed.sum())
        )
        return BatchSearchResult(found, responder, messages, failed)

    def _shortcut_pass(self, cache, queries, kb, kl, starts, found, responder, messages):
        """Resolve cached queries in place; returns indices still to DFS.

        The cache speaks addresses: each origin is looked up under its
        address, and each cached responder is mapped back to its dense
        index by a binary search over the ascending ``addresses`` — a
        responder no longer in this engine is unusable.  The rest is the
        object core's check, vectorized: the responder must be online (one
        Bernoulli draw) and still in prefix relation with the query.  Hits
        cost 0 messages when the responder is the origin itself, else 1;
        unusable entries are invalidated; both outcomes update
        ``cache.stats``.
        """
        addresses = self.addresses
        n = self.n
        origins = [addresses[start] for start in starts.tolist()]
        rows: list[int] = []
        cand: list[int] = []
        for i, origin in enumerate(origins):
            hit = cache.get(origin, queries[i])
            if hit is not None:
                index = bisect_left(addresses, hit)
                rows.append(i)
                cand.append(index if index < n and addresses[index] == hit else -1)
        if rows:
            has = np.asarray(rows, dtype=np.int64)
            r = np.asarray(cand, dtype=np.int64)
            known = r >= 0
            r = np.where(known, r, 0)
            pb = self._pb
            pl = self._pl
            m = np.minimum(pl[r], kl[has])
            responsible = known & (
                (pb[r] >> (pl[r] - m)) == (kb[has] >> (kl[has] - m))
            )
            if self.p_online >= 1.0:
                online = np.ones(has.size, dtype=bool)
            else:
                online = self._rng.random(has.size) < self.p_online
            usable = responsible & online
            hits = has[usable]
            found[hits] = True
            responder[hits] = r[usable]
            messages[hits] = (r[usable] != starts[hits]).astype(np.int64)
            for i in has[~usable].tolist():
                cache.invalidate(origins[i], queries[i])
            cache.stats.hits += int(usable.sum())
            cache.stats.invalidations += int((~usable).sum())
        todo = np.flatnonzero(~found)
        cache.stats.misses += int(todo.size)
        return todo

    def _dfs_chunk(self, kb, kl, starts, max_messages):
        """One chunk of concurrent depth-first searches, advanced per wave.

        Each query holds an explicit stack of (consumed-bits, remaining
        candidates) frames — depth is bounded by ``maxl`` because every
        successful forward consumes at least one query bit.  Frames are
        flat depth-major slots (see the module docstring).
        """
        maxl = self.maxl
        refmax = self.refmax
        ref_rows = self._ref_rows
        rl = self._rl
        rng = self._rng
        p = self.p_online
        q = len(kb)
        depth = maxl + 2

        cur = starts.copy()
        consumed = np.zeros(q, dtype=np.int64)
        status = np.full(q, _ARRIVE, dtype=np.int8)
        msgs = np.zeros(q, dtype=np.int64)
        fails = np.zeros(q, dtype=np.int64)
        budget = np.full(q, max_messages, dtype=np.int64)
        sp = np.full(q, -1, dtype=np.int64)
        st_cons = np.zeros(depth * q, dtype=np.int64)
        st_cnt = np.zeros(depth * q, dtype=np.int16)
        st_rows = np.empty(depth * q, dtype=ref_rows.dtype)
        st_cand = st_rows.view(self._refs.dtype)  # slot * refmax + j

        active = np.arange(q, dtype=np.int64)
        wave = 0
        # Every wave each active query pops a frame, consumes a candidate
        # or terminates, so total waves are bounded by total candidate
        # consumptions; the guard only trips on a broken invariant.
        guard = (max_messages + maxl + 2) * (refmax + 2) * 4 + 64
        while active.size:
            if wave > guard:  # pragma: no cover - invariant violation
                raise RuntimeError("batch DFS failed to terminate")
            # Phase 1: arrivals — routed-on check, responsibility or push.
            arr = active[status[active] == _ARRIVE]
            if arr.size:
                c = cur[arr]
                cons = consumed[arr]
                k, klen, plen = kb[arr], kl[arr], self._pl[c]
                m = np.minimum(klen, plen)
                lcf = m - self._bit_length((k >> (klen - m)) ^ (self._pb[c] >> (plen - m)))
                # A forwarded hop is routed on the key's first cons + 1
                # bits: a receiver not in prefix relation with them
                # refuses it, as in dfs_step, and the sender draws again.
                refused = (sp[arr] >= 0) & (lcf < np.minimum(plen, cons + 1))
                status[arr[refused]] = _SELECT
                # Below the consumed bits; a receiver whose path ends
                # above them has no bit left to diverge on.
                lc = np.maximum(lcf - cons, 0)
                term = ~refused & ((lc == klen - cons) | (lc == np.maximum(plen - cons, 0)))
                status[arr[term]] = _FOUND
                push = ~(term | refused)
                div = arr[push]
                if div.size:
                    nc = cons[push] + lc[push]
                    d = sp[div] + 1
                    if d.max() >= depth:  # pragma: no cover - invariant violation
                        raise RuntimeError("batch DFS stack overflow")
                    sp[div] = d
                    slot = d * q + div
                    st_cons[slot] = nc
                    row = c[push] * maxl + nc  # ref level nc+1, 0-based row
                    st_cnt[slot] = rl[row]
                    st_rows[slot] = ref_rows[row]
                    status[div] = _SELECT
            # Phase 2: selection — candidate draw + contact, or backtrack.
            sel = active[status[active] == _SELECT]
            contacts = offline = 0
            if sel.size:
                slot = sp[sel] * q + sel
                cnt = st_cnt[slot].astype(np.int64)
                empty = cnt <= 0
                pop = sel[empty]
                if pop.size:
                    nd = sp[pop] - 1
                    sp[pop] = nd
                    status[pop[nd < 0]] = _FAILED
                have = sel[~empty]
                if have.size:
                    sh = slot[~empty]
                    ch = cnt[~empty]
                    # Uniform draw without replacement: pick a candidate,
                    # then swap the last live one into its place.
                    at = sh * refmax + rng.integers(0, ch)
                    cand = st_cand[at].astype(np.int64)
                    st_cand[at] = st_cand[sh * refmax + ch - 1]
                    st_cnt[sh] = (ch - 1).astype(np.int16)
                    contacts = int(have.size)
                    if p >= 1.0:
                        on_mask = np.ones(have.size, dtype=bool)
                    else:
                        on_mask = rng.random(have.size) < p
                    off = have[~on_mask]
                    fails[off] += 1
                    offline = int(off.size)
                    on = have[on_mask]
                    if on.size:
                        within = budget[on] > 0
                        status[on[~within]] = _EXHAUSTED
                        fwd = on[within]
                        if fwd.size:
                            budget[fwd] -= 1
                            msgs[fwd] += 1
                            cur[fwd] = cand[on_mask][within]
                            consumed[fwd] = st_cons[sh[on_mask][within]]
                            status[fwd] = _ARRIVE
            active = active[status[active] < _FOUND]
            self._emit_wave("batch_dfs", wave, int(active.size), contacts, offline)
            wave += 1
        found = status == _FOUND
        return found, np.where(found, cur, -1), msgs, fails

    # -- breadth-first walks (§3 strategy 3, §2 range queries) ----------------------

    def search_range_many(
        self,
        lows: Sequence[str],
        highs: Sequence[str],
        starts,
        *,
        recbreadth: int = 2,
        with_refs: bool = True,
    ) -> BatchRangeResult:
        """Resolve one §2 range query per ``(low, high, start)`` triple.

        Same orchestration as the object core's
        :meth:`~repro.core.search.SearchEngine.query_range`: each range
        decomposes into its canonical cover prefixes
        (:func:`repro.core.keys.range_cover`); every ``(query, prefix)``
        pair runs an independent subtree-enumerating breadth search
        (fresh budget and visited set, like the per-prefix
        ``query_breadth`` calls); responders are deduplicated first-seen
        across a query's prefixes and their store entries are
        range-filtered and deduplicated by ``(key, holder)`` keeping the
        highest version.  ``with_refs=False`` skips the store fold for
        reach/accounting-only sweeps.
        """
        if len(lows) != len(highs):
            raise ValueError(f"{len(lows)} lows but {len(highs)} highs")
        starts = self._check(len(lows), starts, recbreadth=recbreadth)
        q = len(lows)
        covers = [keyspace.range_cover(low, high) for low, high in zip(lows, highs)]
        # Flatten to independent (query, cover prefix) sub-searches;
        # each query's subs are contiguous, in cover (left-to-right) order.
        owner_l: list[int] = []
        bits_l: list[int] = []
        len_l: list[int] = []
        for i, cover in enumerate(covers):
            for prefix in cover:
                owner_l.append(i)
                bits_l.append(int(prefix, 2) if prefix else 0)
                len_l.append(len(prefix))
        owner = np.asarray(owner_l, dtype=np.int64)
        skb = np.asarray(bits_l, dtype=np.int64)
        skl = np.asarray(len_l, dtype=np.int64)
        sub_off, sub_vals, sub_msgs, sub_fail = self._walk(
            skb, skl, starts[owner], recbreadth, self.max_messages, enumerate_subtree=True
        )
        messages = np.zeros(q, dtype=np.int64)
        failed = np.zeros(q, dtype=np.int64)
        np.add.at(messages, owner, sub_msgs)
        np.add.at(failed, owner, sub_fail)
        # Responders: deduplicated first-seen across each query's subs.
        s = len(owner)
        sub_of = np.repeat(np.arange(s, dtype=np.int64), np.diff(sub_off))
        pair_owner = owner[sub_of]
        _, first = np.unique(pair_owner * self.n + sub_vals, return_index=True)
        first.sort()
        offsets = np.zeros(q + 1, dtype=np.int64)
        np.cumsum(np.bincount(pair_owner[first], minlength=q), out=offsets[1:])
        data_refs = (
            self._range_refs(lows, highs, owner, skb, skl, sub_of, sub_vals)
            if with_refs
            else [[] for _ in range(q)]
        )
        found = int(np.count_nonzero(offsets[1:] > offsets[:-1]))
        self._emit_batch(
            "batch_range", found, q, int(messages.sum()), int(failed.sum())
        )
        return BatchRangeResult(
            offsets,
            sub_vals[first],
            messages,
            failed,
            covers,
            data_refs,
        )

    def _range_refs(self, lows, highs, owner, skb, skl, sub_of, sub_vals):
        """``data_refs`` of :meth:`search_range_many`, as one join.

        Every (sub-search, responder) pair meets the responder's store
        rows; a row survives when its key is in prefix relation with the
        sub-search's cover prefix and its interval meets ``[low, high]``
        (:func:`repro.protocol.search.key_in_range`, on integers).  Python
        only builds the :class:`DataRef` of each surviving ``(key,
        holder)``, at its highest version, in ``(key, holder)`` order.
        """
        data_refs: list[list[DataRef]] = [[] for _ in range(len(lows))]
        store, off = self._store, self._store_off
        lo = off[sub_vals]
        cnt = off[sub_vals + 1] - lo
        total = int(cnt.sum())
        if not total:
            return data_refs
        row = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(total)
        sub = np.repeat(sub_of, cnt)
        bits, length = store[row, 1], store[row, 2]
        pbits, plen = skb[sub], skl[sub]
        m = np.minimum(plen, length)
        keep = (bits >> (length - m)) == (pbits >> (plen - m))
        # key_in_range: truncate a key to the bound width, or widen it to
        # its first and last leaf, then compare with the bounds.
        who = owner[sub]
        shift = length - np.array([len(low) for low in lows], dtype=np.int64)[who]
        pad = np.maximum(-shift, 0)
        first = (bits >> np.maximum(shift, 0)) << pad
        last = first + (1 << pad) - 1
        low_bits = np.array([int(low or "0", 2) for low in lows], dtype=np.int64)
        high_bits = np.array([int(high or "0", 2) for high in highs], dtype=np.int64)
        keep &= (last >= low_bits[who]) & (first <= high_bits[who])
        if not keep.any():
            return data_refs
        row, who, bits, length = row[keep], who[keep], bits[keep], length[keep]
        # A binary string sorts as its bits left-aligned to the longest
        # key, a shorter key (a prefix) first.
        aligned = bits << (length.max() - length)
        holder = store[row, 3]
        order = np.lexsort((holder, length, aligned, who))
        starts = _run_starts(np.column_stack((who, aligned, length, holder))[order])
        best = np.maximum.reduceat(store[row[order], 4], starts)
        pick = order[starts]
        columns = (who[pick], bits[pick], length[pick], holder[pick], best)
        for i, b, ln, h, v in zip(*(column.tolist() for column in columns)):
            key = format(b, f"0{ln}b") if ln else ""
            data_refs[i].append(DataRef(key=key, holder=h, version=v))
        return data_refs

    def _walk(self, kb, kl, starts, recbreadth, max_messages, *, enumerate_subtree):
        """Run one breadth walk per ``(query, start)`` in chunks of at most
        ``chunk`` walks; returns each walk's responders as CSR ``(offsets,
        values)`` in discovery order, plus its messages and failed
        attempts."""
        q = len(kb)
        offsets = np.zeros(q + 1, dtype=np.int64)
        values = []
        messages = np.zeros(q, dtype=np.int64)
        failed = np.zeros(q, dtype=np.int64)
        for lo in range(0, q, self.chunk):
            hi = min(lo + self.chunk, q)
            counts, vals, messages[lo:hi], failed[lo:hi] = self._walk_chunk(
                kb[lo:hi], kl[lo:hi], starts[lo:hi], recbreadth, max_messages,
                enumerate_subtree,
            )
            offsets[lo + 1 : hi + 1] = counts
            values.append(vals)
        np.cumsum(offsets, out=offsets)
        values = np.concatenate(values) if values else np.empty(0, dtype=np.int64)
        return offsets, values, messages, failed

    def _walk_chunk(self, kb, kl, starts, recbreadth, max_messages, enumerate_subtree):
        """One chunk of concurrent breadth walks, advanced per wave —
        :func:`repro.protocol.search.breadth_step` over a frontier.

        The frontier holds (walk, peer, trie level, remaining query bits)
        entries.  A responsible peer answers; a divergent one fans out to
        at most *recbreadth* online references at its divergence level.
        With ``enumerate_subtree`` (the range extension, as on
        :class:`~repro.protocol.search.Traversal`) a responsible peer
        whose path extends past the query prefix also fans out at every
        level below the match point with an *empty* remaining query —
        which is why the trie level and the remaining query length are
        carried separately.  Peers are marked visited at forward time,
        and within a column a second contact to the same ``(walk,
        peer)`` is dropped: the object core's recursion visits a child
        before the parent tries its next sibling, so its shared ``seen``
        set never makes that contact.  Returns per-walk responder counts,
        the responders grouped by walk in discovery order, messages and
        failed attempts.
        """
        n = self.n
        maxl = self.maxl
        refmax = self.refmax
        ref_rows = self._ref_rows
        pl = self._pl
        rng = self._rng
        p = self.p_online
        kind = "batch_range" if enumerate_subtree else "batch_breadth"
        q = len(kb)

        msgs = np.zeros(q, dtype=np.int64)
        fails = np.zeros(q, dtype=np.int64)
        budget = np.full(q, max_messages, dtype=np.int64)
        resp_q: list = []
        resp_p: list = []
        qidx = np.arange(q, dtype=np.int64)
        # Visited keys (walk * n + peer); start peers are pre-visited.
        seen = set((qidx * n + starts).tolist())

        eq = qidx  # walk index
        ep = starts.copy()  # peer at this visit
        el = np.zeros(q, dtype=np.int64)  # trie level (path bits above)
        er = kl.astype(np.int64).copy()  # remaining query bits
        wave = 0
        while eq.size:
            lc, slen, rlen = self._divergence(kb[eq], er, el, ep)
            term = (lc == slen) | (lc == rlen)
            if term.any():
                resp_q.append(eq[term])
                resp_p.append(ep[term])
            # Fan-out tasks: (walk, ref row, child level, child qlen).
            parts_q: list = []
            parts_row: list = []
            parts_l: list = []
            parts_r: list = []
            div = ~term
            if div.any():
                nc = el[div] + lc[div]
                parts_q.append(eq[div])
                parts_row.append(ep[div] * maxl + nc)  # ref level nc+1
                parts_l.append(nc)
                parts_r.append(slen[div] - lc[div])
            en = term & (lc == slen) & enumerate_subtree
            if en.any():
                base = el[en] + lc[en]
                count = pl[ep[en]] - base
                pos = count > 0
                if pos.any():
                    bq = eq[en][pos]
                    bp = ep[en][pos]
                    bc = count[pos]
                    total = int(bc.sum())
                    block = np.cumsum(bc) - bc
                    sub = np.arange(total, dtype=np.int64) - np.repeat(block, bc)
                    sublevel = np.repeat(base[pos], bc) + 1 + sub
                    parts_q.append(np.repeat(bq, bc))
                    parts_row.append(np.repeat(bp, bc) * maxl + sublevel - 1)
                    parts_l.append(sublevel)
                    parts_r.append(np.zeros(total, dtype=np.int64))
            contacts = offline = 0
            child_q: list = []
            child_p: list = []
            child_l: list = []
            child_r: list = []
            if parts_q:
                tq = np.concatenate(parts_q)
                trow = np.concatenate(parts_row)
                tl = np.concatenate(parts_l)
                tr = np.concatenate(parts_r)
                slot = ref_rows[trow].view(self._refs.dtype).reshape(-1, refmax).astype(np.int64)
                valid = slot != -1
                cnt = valid.sum(axis=1)
                # Shuffle each row's candidates (random key high bits,
                # peer index low bits, one sort — see batch.py).
                keys = rng.integers(0, self._key_mod, size=slot.shape, dtype=np.int64)
                pack = np.where(valid, (keys << self._vbits) | slot, _SENTINEL)
                pack.sort(axis=1)
                cand = pack & self._vmask
                fwd = np.zeros(len(tq), dtype=np.int64)
                for col in range(refmax):
                    live = (col < cnt) & (fwd < recbreadth) & (budget[tq] > 0)
                    if not live.any():
                        break
                    rows = np.flatnonzero(live)
                    cc = cand[rows, col]
                    keyv = tq[rows] * n + cc
                    fresh = np.fromiter(
                        (k not in seen for k in keyv.tolist()),
                        dtype=bool,
                        count=len(rows),
                    )
                    rows = rows[fresh]
                    if not rows.size:
                        continue
                    cc = cc[fresh]
                    keyv = keyv[fresh]
                    _, first = np.unique(keyv, return_index=True)
                    if len(first) < len(rows):
                        first.sort()
                        rows = rows[first]
                        cc = cc[first]
                        keyv = keyv[first]
                    contacts += int(rows.size)
                    if p >= 1.0:
                        on_mask = np.ones(rows.size, dtype=bool)
                    else:
                        on_mask = rng.random(rows.size) < p
                    off_rows = rows[~on_mask]
                    if off_rows.size:
                        np.add.at(fails, tq[off_rows], 1)
                        offline += int(off_rows.size)
                    on_rows = rows[on_mask]
                    if on_rows.size:
                        oq = tq[on_rows]
                        np.subtract.at(budget, oq, 1)
                        np.add.at(msgs, oq, 1)
                        fwd[on_rows] += 1
                        seen.update(keyv[on_mask].tolist())
                        child_q.append(oq)
                        child_p.append(cc[on_mask])
                        child_l.append(tl[on_rows])
                        child_r.append(tr[on_rows])
            self._emit_wave(
                kind,
                wave,
                sum(len(c) for c in child_q),
                contacts,
                offline,
            )
            wave += 1
            if child_q:
                eq = np.concatenate(child_q)
                ep = np.concatenate(child_p)
                el = np.concatenate(child_l)
                er = np.concatenate(child_r)
            else:
                break
        if not resp_q:
            return np.zeros(q, dtype=np.int64), np.empty(0, dtype=np.int64), msgs, fails
        rq = np.concatenate(resp_q)
        order = np.argsort(rq, kind="stable")
        return np.bincount(rq, minlength=q), np.concatenate(resp_p)[order], msgs, fails

    # -- §3/§5.2 update strategies ---------------------------------------------------

    def find_replicas_many(
        self,
        keys: Sequence[str],
        starts,
        *,
        strategy: UpdateStrategy,
        repetition: int = 1,
        recbreadth: int = 2,
    ) -> BatchReachResult:
        """Replica discovery per key under one of the three §3 strategies,
        batched: repetitions run as one tiled search wave, reached sets
        are unioned per original key."""
        if repetition < 1:
            raise ValueError(f"repetition must be >= 1, got {repetition}")
        kb, kl = keys if isinstance(keys, tuple) else _pack_keys(keys)
        q = len(kb)
        starts = self._check(q, starts, recbreadth=recbreadth)
        tkb = np.tile(kb, repetition)
        tkl = np.tile(kl, repetition)
        tstarts = np.tile(starts, repetition)
        if strategy is UpdateStrategy.BFS:
            # §3 breadth-first search: fan out to at most recbreadth online
            # references per level, one shared visited set per walk.
            offsets, values, messages, failed = self._walk(
                tkb, tkl, tstarts, recbreadth, self.max_messages, enumerate_subtree=False
            )
            counts = np.diff(offsets)
            self._emit_batch(
                "batch_breadth", int(np.count_nonzero(counts)), len(tkb),
                int(messages.sum()), int(failed.sum()),
            )
            walk = np.repeat(np.arange(len(tkb)), counts)
            return self._fold_tiled(q, repetition, walk, values, messages, failed)
        result = self.search_many((tkb, tkl), tstarts)
        hit = np.flatnonzero(result.found)
        reach = self._fold_tiled(
            q, repetition, hit, result.responder[hit], result.messages, result.failed_attempts
        )
        if strategy is UpdateStrategy.REPEATED_DFS:
            return reach
        if strategy is UpdateStrategy.DFS_BUDDIES:
            return self._forward_to_buddies(reach)
        raise ValueError(f"unknown strategy: {strategy!r}")

    def _fold_tiled(
        self, q: int, repetition: int, walk, peers, messages, failed
    ) -> BatchReachResult:
        """Fold a ``repetition``-tiled batch (walk ``r * q + i`` is the
        ``r``-th repetition of query ``i``) into each query's distinct
        reached peers, ascending, and its summed per-walk *messages* and
        *failed* attempts (``repeated_queries`` semantics); ``walk[j]`` is
        the walk that reached ``peers[j]``."""
        n = self.n
        pairs = np.unique(walk % q * n + peers)
        offsets = np.zeros(q + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs // n, minlength=q), out=offsets[1:])
        return BatchReachResult(
            offsets,
            pairs % n,
            messages.reshape(repetition, q).sum(axis=0),
            failed.reshape(repetition, q).sum(axis=0),
        )

    def _forward_to_buddies(self, reach: BatchReachResult) -> BatchReachResult:
        """Strategy 2's second hop: each reached replica forwards to its
        buddy list; offline buddies count one failed attempt (no retry,
        matching the engines' historical §3 semantics)."""
        buddy_off = self._buddy_off
        buddy_val = self._buddy_val
        pyrng = self._pyrng
        p = self.p_online
        offsets = reach.offsets
        values = reach.values
        messages = reach.messages.copy()
        failed = reach.failed_attempts.copy()
        out_offsets = np.zeros(len(reach) + 1, dtype=np.int64)
        out_values: list[int] = []
        for i in range(len(reach)):
            reached = values[offsets[i] : offsets[i + 1]].tolist()
            extended = list(reached)
            in_set = set(reached)
            for peer in reached:
                for buddy in buddy_val[buddy_off[peer] : buddy_off[peer + 1]].tolist():
                    if buddy in in_set:
                        continue
                    if p >= 1.0 or pyrng.random() < p:
                        messages[i] += 1
                        in_set.add(buddy)
                        extended.append(buddy)
                    else:
                        failed[i] += 1
            out_values.extend(extended)
            out_offsets[i + 1] = len(out_values)
        return BatchReachResult(
            out_offsets,
            np.asarray(out_values, dtype=np.int64),
            messages,
            failed,
        )

    def publish_many(
        self,
        keys: Sequence[str],
        holders,
        versions,
        starts,
        *,
        strategy: UpdateStrategy = UpdateStrategy.BFS,
        repetition: int = 1,
        recbreadth: int = 2,
    ) -> BatchReachResult:
        """Insert/update one ``(key, holder) -> version`` ref per query at
        every replica the propagation strategy reaches (§3 update)."""
        kb, kl = keys if isinstance(keys, tuple) else _pack_keys(keys)
        holders = np.asarray(holders, dtype=np.int64)
        versions = np.asarray(versions, dtype=np.int64)
        self._check(len(kb), starts, holders=holders, versions=versions)
        reach = self.find_replicas_many(
            (kb, kl),
            starts,
            strategy=strategy,
            repetition=repetition,
            recbreadth=recbreadth,
        )
        # One write per (query, reached replica); a slot is raised only
        # when the new version is higher, a missing slot counting as -1.
        each = np.repeat(np.arange(len(reach)), np.diff(reach.offsets))
        peer, version = reach.values, versions[each]
        bits, length, holder = kb[each], kl[each], holders[each]
        pos, found = self._locate(peer, bits, length, holder)
        store = self._store
        if found.any():
            if not store.flags.writeable:  # the grid's rows: copy, never write
                store = self._store = store.copy()
            np.maximum.at(store[:, 4], pos[found], version[found])
        new = ~found & (version > -1)
        if new.any():
            rows = np.column_stack(
                (peer, bits, length, holder, version, np.zeros_like(version))
            )[new]
            order = store_order(rows)
            rows, pos = rows[order], pos[new][order]
            starts = _run_starts(rows[:, :4])
            rows[starts, 4] = np.maximum.reduceat(rows[:, 4], starts)
            self._set_store(np.insert(store, pos[starts], rows[starts], axis=0))
        return reach

    # -- §5.2 read disciplines -------------------------------------------------------

    def read_many(
        self,
        keys: Sequence[str],
        holders,
        versions,
        starts,
        *,
        repetitive: bool,
        max_repetitions: int = 200,
    ) -> BatchReadResult:
        """Read each ``(key, holder)`` at the given target version.

        Non-repetitive: one search each; success iff the answering
        replica already holds the version.  Repetitive: re-query (whole
        remaining batch per round) until a fresh replica answers, up to
        ``max_repetitions`` — the §5.2 trade-off the table 6 sweep
        measures."""
        if max_repetitions < 1:
            raise ValueError(f"max_repetitions must be >= 1, got {max_repetitions}")
        kb, kl = keys if isinstance(keys, tuple) else _pack_keys(keys)
        holders = np.asarray(holders, dtype=np.int64)
        versions = np.asarray(versions, dtype=np.int64)
        q = len(kb)
        starts = self._check(q, starts, holders=holders, versions=versions)
        success = np.zeros(q, dtype=bool)
        messages = np.zeros(q, dtype=np.int64)
        failed = np.zeros(q, dtype=np.int64)
        repetitions = np.zeros(q, dtype=np.int64)
        pending = np.arange(q, dtype=np.int64)
        rounds = max_repetitions if repetitive else 1
        for _ in range(rounds):
            if not pending.size:
                break
            result = self.search_many(
                (kb[pending], kl[pending]), starts[pending]
            )
            messages[pending] += result.messages
            failed[pending] += result.failed_attempts
            repetitions[pending] += 1
            fresh = self._fresh_mask(
                result, kb[pending], kl[pending], holders[pending], versions[pending]
            )
            success[pending[fresh]] = True
            pending = pending[~fresh]
        return BatchReadResult(success, messages, failed, repetitions)

    def _fresh_mask(self, result: BatchSearchResult, kb, kl, holders, versions):
        """Which answered searches hit a replica already at the target
        version (``ReadEngine._responder_is_fresh`` semantics)."""
        out = np.zeros(len(kb), dtype=bool)
        hit = np.flatnonzero(result.found)
        pos, there = self._locate(result.responder[hit], kb[hit], kl[hit], holders[hit])
        version = np.full(hit.size, -1, dtype=np.int64)
        version[there] = self._store[pos[there], 4]
        out[hit] = version >= versions[hit]
        return out

    # -- ground truth ----------------------------------------------------------------

    def replicas_for_keys(self, keys: Sequence[str]) -> BatchReachResult:
        """All peers whose path is in prefix relation with each key —
        the oracle :meth:`~repro.core.grid.PGrid.replicas_for_key`
        computes peer-by-peer, vectorized over the whole population."""
        kb, kl = keys if isinstance(keys, tuple) else _pack_keys(keys)
        pb = self._pb
        pl = self._pl
        q = len(kb)
        offsets = np.zeros(q + 1, dtype=np.int64)
        hits = []
        for i in range(q):
            m = np.minimum(pl, kl[i])
            x = (pb >> (pl - m)) ^ (kb[i] >> (kl[i] - m))
            peers = np.flatnonzero(x == 0)
            hits.append(peers)
            offsets[i + 1] = offsets[i] + len(peers)
        values = (
            np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
        )
        return BatchReachResult(
            offsets,
            values,
            np.zeros(q, dtype=np.int64),
            np.zeros(q, dtype=np.int64),
        )


def _run_starts(rows):
    """Indices where a run of equal rows begins in sorted 2-D *rows*."""
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return np.flatnonzero(head)


def _oracle_p_online(oracle: Any) -> float:
    """Map an online oracle onto a single Bernoulli contact probability."""
    from repro.core.grid import AlwaysOnline
    from repro.sim.churn import BernoulliChurn

    if oracle is None or isinstance(oracle, AlwaysOnline):
        return 1.0
    if isinstance(oracle, BernoulliChurn) and not oracle._per_peer:
        return float(oracle.p_online)
    raise ValueError(
        "cannot infer p_online from this online oracle; pass p_online explicitly"
    )
