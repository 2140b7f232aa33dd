"""Vectorized batched-round construction (the 100k–1M peer engine).

The object core (:class:`repro.sim.builder.GridBuilder`) spends ~33
sequential Mersenne-Twister draws per exchange inside the Python
interpreter.  :class:`BatchGridBuilder` gives up replaying that word
stream in exchange for numpy vectorization:

* meetings are drawn and executed in **rounds**; within a round the
  outstanding exchanges form a *wave* (job arrays ``i1, i2, depth``),
* a wave is filtered to pairwise-disjoint peers (first-occurrence
  order, deterministic); conflicting jobs are deferred to the next
  wave — the parallel-rounds semantics a real P2P deployment exhibits,
* per wave, the case analysis, path extensions, reference-slot updates
  and the ``random_select(refmax, union(...))`` re-sampling all run as
  whole-array numpy operations; case-4 recursions become the next wave,
* replica meetings (buddy-set unions) stay in Python — they are
  per-meeting, not per-exchange, and their cost vanishes at scale.

Semantics: every meeting still executes Fig. 3 exactly (same case
rules, same balancing bit choice, same bounded fanout, same uniform
union re-sampling); what changes is the *interleaving* of meetings and
the RNG discipline (a seeded numpy generator instead of CPython's
``random.sample`` word stream).  Runs are deterministic given a seed,
with the object core's replica-distribution shape, but not
bit-identical, and the exchange count ``e`` is not the object core's
where case 4 recurses into more than one reference.  Measured batch /
object ``e`` (mean of seeds 1 and 2): 1.05 at N=500, maxl 6, refmax 1,
recmax 0, no fan-out bound; 0.70 at N=1000, maxl 6, refmax 5, recmax 2,
fan-out 2 (ROADMAP item 12 has the full table).  Use
``engine="object"`` when bit-equality with ``GridBuilder`` or the
paper's ``e`` matters; use ``engine="batch"`` for scale.

Restrictions (construction-from-scratch focus): the builder starts from
``n`` fresh peers — empty paths, routing tables, buddies and stores — so
it refuses ``split_min_items`` (with empty stores the gate would never
split; the object engine covers data-driven splitting), and it packs
paths into int64, so ``maxl`` is at most 58.
"""

from __future__ import annotations

from itertools import chain

from repro.core.config import PGridConfig
from repro.fast.arraygrid import ArrayGrid, buddy_csr
from repro.sim.builder import ConstructionReport, ConstructionSample

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    np = None

__all__ = ["BatchGridBuilder"]

#: Sort-last marker for invalid entries in packed (key | index) rows.
_SENTINEL = (1 << 62) - 1


def _require_numpy() -> None:
    if np is None:
        raise RuntimeError(
            "the batched construction engine requires numpy; "
            "use engine='object' instead"
        )


class BatchGridBuilder:
    """Vectorized batched-round construction over flat numpy state.

    The state *is* an :class:`ArrayGrid` — :attr:`grid`, over ``n``
    fresh peers with addresses ``0..n-1`` — whose path and routing
    arrays the waves update in place; :meth:`build` fills its buddy CSR
    at the end.  No object grid exists, which is what makes 100k–1M
    peer construction fit in memory: snapshot the result with
    :meth:`GridSnapshot.from_arraygrid
    <repro.fast.snapshot.GridSnapshot.from_arraygrid>`, query it with
    :meth:`BatchQueryEngine.from_arraygrid
    <repro.fast.query.BatchQueryEngine.from_arraygrid>`, or bridge it
    into a :class:`~repro.core.grid.PGrid` with
    :meth:`ArrayGrid.write_back` (what ``construct_grid(engine="batch")``
    does).  Analytics (:meth:`replication_sizes`, :meth:`path_length_histogram`,
    :meth:`memory_bytes`) read the numpy state directly.
    """

    def __init__(
        self,
        *,
        n: int | None = None,
        config=None,
        round_size: int | None = None,
        seed: int | None = None,
    ) -> None:
        _require_numpy()
        if n is None:
            raise ValueError("batch construction needs n")
        if config is None:
            config = PGridConfig()
        if seed is None:
            raise ValueError("batch construction needs an explicit seed")
        if n < 2:
            raise ValueError("construction needs at least two peers")
        if config.split_min_items is not None:
            raise ValueError("batch engine does not support split_min_items")
        if config.maxl > 58:
            raise ValueError("batch engine packs paths into int64 (maxl <= 58)")
        self.n = n
        self.config = config
        self.maxl = config.maxl
        self.refmax = config.refmax
        # One round of root meetings per convergence check; sized so the
        # numpy per-op overhead amortizes but threshold overshoot stays
        # a small fraction of the run (the adaptive shrink in ``build``
        # caps it near the threshold anyway).
        # The 32k floor on the cap keeps small-grid behaviour unchanged;
        # above ~128k peers rounds scale with n/4 so the per-wave numpy
        # overhead keeps amortizing (1M peers: 250k-meeting rounds).
        self.round_size = (
            round_size
            if round_size is not None
            else max(64, min(4 * n, max(32_768, n // 4)))
        )
        # A wave's take is bounded by disjoint pairs over distinct peers,
        # and duplicate crowding *lowers* the both-first-occurrence odds
        # as the candidate prefix grows past ~n slots — so offering more
        # than n jobs to the conflict filter costs O(worklist) per wave
        # for a smaller take.  Cap the candidate prefix at n (measured
        # optimum at fig4 scale; flat within noise from 0.6n to 1.5n).
        self._wave_cap = max(1024, n)
        # PCG64 over MT19937: the builder never replays the object
        # core's word stream, and the ref re-sampling keys dominate RNG
        # cost at scale — PCG64 roughly halves it.  Determinism-per-seed is unchanged.
        self._rng = np.random.Generator(np.random.PCG64(seed))

        maxl = self.maxl
        refmax = self.refmax
        self._pb = np.zeros(n, dtype=np.int64)
        self._pl = np.zeros(n, dtype=np.int64)
        self._td = np.zeros(n, dtype=np.int64)
        self._rl = np.zeros(n * maxl, dtype=np.int16)
        self._refs = np.full((n * maxl, refmax), -1, dtype=np.int32)
        self._buddies: dict[int, set[int]] = {}
        #: The builder's state in the packed layout.
        self.grid = ArrayGrid(
            config,
            {
                "path_bits": self._pb,
                "path_len": self._pl,
                "refs": self._refs,
                "ref_len": self._rl,
                "table_depth": self._td,
                "addresses": np.arange(n, dtype=np.int64),
                "buddy_offsets": np.zeros(n + 1, dtype=np.int64),
                "buddy_values": np.empty(0, dtype=np.int64),
                "store": np.empty((0, 6), dtype=np.int64),
            },
        )
        # calls, meetings, case1, case2, case3, case4, buddy_links
        self._counters = [0] * 7
        self._total_depth = 0
        # Uniform subset selection is done by packing (random key, peer
        # index) into one int64 and np.sort-ing rows — ~an order of
        # magnitude cheaper than argsort over separate key arrays.
        self._vbits = max((n - 1).bit_length(), 1)
        self._vmask = (1 << self._vbits) - 1
        self._key_mod = 1 << min(62 - self._vbits, 31)
        # First-occurrence scatter table for the conflict filter, plus
        # reused index buffers (np.arange per wave is pure overhead).
        self._first_pos = np.empty(n, dtype=np.int64)
        self._idx_buf = np.arange(2 * self._wave_cap, dtype=np.int64)
        self._ar_refmax = np.arange(refmax)
        fanout = config.recursion_fanout
        self._ar_fanout = None if fanout is None else np.arange(fanout)

    # -- wave processing -----------------------------------------------------------

    def _select_disjoint(self, i1, i2):
        """Deterministic maximal-prefix conflict filter.

        A job enters the wave iff both its peers are first occurrences
        in the interleaved (i1, i2) order; the rest are deferred.
        """
        m = len(i1)
        inter = np.empty(2 * m, dtype=np.int64)
        inter[0::2] = i1
        inter[1::2] = i2
        if len(self._idx_buf) < 2 * m:
            self._idx_buf = np.arange(2 * m, dtype=np.int64)
        idx = self._idx_buf[: 2 * m]
        # Reversed scatter: duplicate indices keep the last write, so
        # writing back-to-front leaves each peer's *first* position.
        first_pos = self._first_pos
        first_pos[inter[::-1]] = idx[::-1]
        fp = first_pos[inter]
        take = (fp[0::2] == idx[0::2]) & (fp[1::2] == idx[1::2])
        return take

    def _exchange_refs(self, i1, i2, lc):
        """Vectorized union + independent re-sample at the shared level."""
        refs = self._refs
        rl = self._rl
        maxl = self.maxl
        refmax = self.refmax
        rows1 = i1 * maxl + lc - 1
        rows2 = i2 * maxl + lc - 1
        active = (rl[rows1] > 0) | (rl[rows2] > 0)
        if not active.any():
            return
        rows1 = rows1[active]
        rows2 = rows2[active]
        a1 = i1[active]
        a2 = i2[active]
        combined = np.empty((len(rows1), 2 * refmax), dtype=refs.dtype)
        combined[:, :refmax] = refs[rows1]
        combined[:, refmax:] = refs[rows2]
        # Exclude the two meeting peers, then dedupe by sorting each row
        # (slot order does not matter: the union is re-sampled uniformly
        # and future draws are uniform over the slot).
        combined[combined == a1[:, None]] = -1
        combined[combined == a2[:, None]] = -1
        combined.sort(axis=1)
        valid = combined != -1
        valid[:, 1:] &= combined[:, 1:] != combined[:, :-1]
        counts = valid.sum(axis=1)
        touched = counts > 0
        if not touched.any():
            return
        rows1 = rows1[touched]
        rows2 = rows2[touched]
        combined = combined[touched]
        valid = valid[touched]
        counts = counts[touched]
        # Unions that already fit in refmax need no sampling at all:
        # ``random_select(refmax, union)`` degenerates to the identity
        # (slot order never matters — future draws are uniform over the
        # slot), and both peers receive the same set.  One sentinel sort
        # compacts the deduped entries; no RNG keys are drawn.  This is
        # the common case through most of construction and roughly
        # halves the kernel's cost at 100k+ peers.
        small = counts <= refmax
        if small.any():
            sm = np.flatnonzero(small)
            sent = np.iinfo(combined.dtype).max
            pack_s = np.where(valid[sm], combined[sm], sent)
            pack_s.sort(axis=1)
            picked_s = pack_s[:, :refmax]
            picked_s[picked_s == sent] = -1
            kept_s = counts[sm].astype(rl.dtype)
            refs[rows1[sm]] = picked_s
            refs[rows2[sm]] = picked_s
            rl[rows1[sm]] = kept_s
            rl[rows2[sm]] = kept_s
        big = ~small
        if big.any():
            bg = np.flatnonzero(big)
            comb_b = combined[bg]
            valid_b = valid[bg]
            # Independent uniform selections for each of the two peers:
            # pack (random key << vbits) | index per union element, sort
            # the rows, keep the first refmax — random keys in the high
            # bits make one int64 sort both shuffle and select.
            t = len(bg)
            keys = self._rng.integers(
                0, self._key_mod, size=(2, t, 2 * refmax), dtype=np.int64
            )
            pack = np.where(
                valid_b[None], (keys << self._vbits) | comb_b[None], _SENTINEL
            ).reshape(2 * t, 2 * refmax)
            pack.sort(axis=1)
            picked = (pack[:, :refmax] & self._vmask).astype(refs.dtype)
            rows_b = np.concatenate([rows1[bg], rows2[bg]])
            refs[rows_b] = picked
            rl[rows_b] = refmax
        rows = np.concatenate([rows1, rows2])
        level = np.concatenate([lc[active][touched], lc[active][touched]])
        peers = rows // maxl
        np.maximum.at(self._td, peers, level)

    def _merge_single(self, longer, shorter, lc):
        """Vectorized ``merge_refs(lc+1, [shorter])`` on *longer* peers."""
        refs = self._refs
        rl = self._rl
        refmax = self.refmax
        rows = longer * self.maxl + lc
        slot = refs[rows]
        present = (slot == shorter[:, None]).any(axis=1)
        counts = rl[rows]
        # Absent with free capacity: append at the count position.
        append = ~present & (counts < refmax)
        if append.any():
            refs[rows[append], counts[append]] = shorter[append]
            rl[rows[append]] = counts[append] + 1
        # Absent and full: uniform refmax-of-(refmax+1) subsample =
        # drop one uniform victim; victim == the newcomer keeps the
        # slot unchanged.
        full = ~present & (counts >= refmax)
        if full.any():
            victims = self._rng.integers(0, refmax + 1, size=int(full.sum()))
            hit = victims < refmax
            target_rows = rows[full][hit]
            refs[target_rows, victims[hit]] = shorter[full][hit]

    def _wave(self, i1, i2, depth):
        """Process one conflict-free wave; returns the next wave's jobs."""
        maxl = self.maxl
        refmax = self.refmax
        config = self.config
        counters = self._counters
        pb = self._pb
        pl = self._pl
        refs = self._refs
        rl = self._rl

        counters[0] += len(i1)
        b1 = pb[i1]
        l1 = pl[i1]
        b2 = pb[i2]
        l2 = pl[i2]
        m = np.minimum(l1, l2)
        x = (b1 >> (l1 - m)) ^ (b2 >> (l2 - m))
        # frexp's binary exponent IS bit_length (0 for 0), one cheap
        # pass with no zero-guard; exact below 2**53, so guard on maxl.
        if maxl <= 52:
            bits = np.frexp(x)[1].astype(np.int64)
        else:  # pragma: no cover - maxl in (52, 58]
            bits = np.zeros(len(x), dtype=np.int64)
            nz = x > 0
            if nz.any():
                bits[nz] = np.floor(np.log2(x[nz])).astype(np.int64) + 1
        lc = m - bits

        shared = lc > 0
        if shared.any():
            self._exchange_refs(i1[shared], i2[shared], lc[shared])

        rem1 = l1 - lc
        rem2 = l2 - lc
        both_done = (rem1 == 0) & (rem2 == 0)
        splittable = lc < maxl

        case1 = both_done & splittable
        if case1.any():
            a1 = i1[case1]
            a2 = i2[case1]
            level = lc[case1]
            pb[a1] = b1[case1] << 1
            pb[a2] = (b2[case1] << 1) | 1
            pl[a1] += 1
            pl[a2] += 1
            rows1 = a1 * maxl + level
            rows2 = a2 * maxl + level
            refs[rows1] = -1
            refs[rows1, 0] = a2
            refs[rows2] = -1
            refs[rows2, 0] = a1
            rl[rows1] = 1
            rl[rows2] = 1
            np.maximum.at(self._td, a1, level + 1)
            np.maximum.at(self._td, a2, level + 1)
            if self._buddies:
                buddies = self._buddies
                for p in a1.tolist():
                    buddies.pop(p, None)
                for p in a2.tolist():
                    buddies.pop(p, None)
            counters[2] += len(a1)
            self._total_depth += 2 * len(a1)

        replicas = both_done & ~splittable
        if replicas.any():
            buddies = self._buddies
            for p1, p2 in zip(i1[replicas].tolist(), i2[replicas].tolist()):
                s1 = buddies.get(p1)
                s2 = buddies.get(p2)
                union = (s1 | s2) if s1 and s2 else set(s1 or s2 or ())
                new1 = union | {p2}
                new1.discard(p1)
                new2 = union | {p1}
                new2.discard(p2)
                buddies[p1] = new1
                buddies[p2] = new2
            counters[6] += int(replicas.sum())

        for case_index, counter_slot in ((2, 3), (3, 4)):
            if case_index == 2:
                mask = (rem1 == 0) & (rem2 > 0) & splittable
                shorter, longer = i1, i2
                sb, lb, ll = b1, b2, l2
            else:
                mask = (rem1 > 0) & (rem2 == 0) & splittable
                shorter, longer = i2, i1
                sb, lb, ll = b2, b1, l1
            if not mask.any():
                continue
            s = shorter[mask]
            g = longer[mask]
            level = lc[mask]
            # The balancing rule: the shorter peer takes the complement
            # of the longer peer's next bit.
            next_bit = (lb[mask] >> (ll[mask] - level - 1)) & 1
            pb[s] = (sb[mask] << 1) | (next_bit ^ 1)
            pl[s] += 1
            rows = s * maxl + level
            refs[rows] = -1
            refs[rows, 0] = g
            rl[rows] = 1
            np.maximum.at(self._td, s, level + 1)
            self._merge_single(g, s, level)
            np.maximum.at(self._td, g, level + 1)
            if self._buddies:
                buddies = self._buddies
                for p in s.tolist():
                    buddies.pop(p, None)
            counters[counter_slot] += len(s)
            self._total_depth += len(s)

        case4 = (rem1 > 0) & (rem2 > 0) & (depth < config.recmax)
        if not case4.any():
            return None
        a1 = i1[case4]
        a2 = i2[case4]
        parent_depth = depth[case4]
        rows1 = a1 * maxl + lc[case4]
        rows2 = a2 * maxl + lc[case4]
        counters[5] += len(a1)
        fanout = config.recursion_fanout
        child_partner = []
        child_target = []
        child_depth = []
        for partner, rows, excl in ((a2, rows1, a2), (a1, rows2, a1)):
            slot = refs[rows]
            valid = slot != -1
            valid &= slot != excl[:, None]
            counts = valid.sum(axis=1)
            if fanout is not None:
                keys = self._rng.integers(
                    0, self._key_mod, size=slot.shape, dtype=np.int64
                )
                pack = np.where(valid, (keys << self._vbits) | slot, _SENTINEL)
                pack.sort(axis=1)
                chosen = pack[:, :fanout] & self._vmask
                limit = np.minimum(counts, fanout)
                cols = self._ar_fanout[None, :] < limit[:, None]
                child_partner.append(np.repeat(partner, fanout)[cols.ravel()])
                child_target.append(chosen[cols])
                child_depth.append(np.repeat(parent_depth, fanout)[cols.ravel()])
            else:
                cols = valid
                child_partner.append(np.repeat(partner, refmax)[cols.ravel()])
                child_target.append(slot[cols])
                child_depth.append(np.repeat(parent_depth, refmax)[cols.ravel()])
        partners = np.concatenate(child_partner)
        targets = np.concatenate(child_target)
        if not len(partners):
            return None
        return partners, targets, np.concatenate(child_depth) + 1

    def _drain(self, i1, i2, depth, min_wave=0):
        """Run a worklist down to (at most) *min_wave* leftover jobs.

        Conflict deferral produces geometrically shrinking tail waves
        where per-op numpy overhead dominates; leftovers below
        ``min_wave`` are returned so the builder can fold them into the
        next round's worklist instead of draining them as tiny waves.
        Conversely, a wave's take is bounded by disjoint pairs over
        distinct peers, so only the first ``_wave_cap`` jobs are offered
        to the conflict filter — scanning the rest would cost O(worklist)
        per wave for no extra parallelism.
        """
        jobs_i1 = i1
        jobs_i2 = i2
        jobs_depth = depth
        cap = self._wave_cap
        while len(jobs_i1) > min_wave:
            head = min(len(jobs_i1), cap)
            h1 = jobs_i1[:head]
            h2 = jobs_i2[:head]
            hd = jobs_depth[:head]
            take = self._select_disjoint(h1, h2)
            if head < len(jobs_i1):
                defer_i1 = np.concatenate([h1[~take], jobs_i1[head:]])
                defer_i2 = np.concatenate([h2[~take], jobs_i2[head:]])
                defer_depth = np.concatenate([hd[~take], jobs_depth[head:]])
            else:
                defer_i1 = h1[~take]
                defer_i2 = h2[~take]
                defer_depth = hd[~take]
            children = self._wave(h1[take], h2[take], hd[take])
            if children is None:
                jobs_i1, jobs_i2, jobs_depth = defer_i1, defer_i2, defer_depth
            else:
                c_i1, c_i2, c_depth = children
                jobs_i1 = np.concatenate([defer_i1, c_i1])
                jobs_i2 = np.concatenate([defer_i2, c_i2])
                jobs_depth = np.concatenate([defer_depth, c_depth])
        return jobs_i1, jobs_i2, jobs_depth

    # -- public API ----------------------------------------------------------------

    def build(
        self,
        *,
        threshold_fraction: float = 0.99,
        max_meetings: int | None = None,
        max_exchanges: int | None = None,
        sample_every: int | None = None,
    ) -> ConstructionReport:
        """Run batched rounds until ``avg depth >= threshold_fraction * maxl``.

        Budgets and the convergence check apply at *round* granularity
        (a round = up to ``round_size`` root meetings plus their
        recursive exchanges), so ``exchanges`` may overshoot
        ``max_exchanges`` by one round's worth.
        """
        if not 0.0 < threshold_fraction <= 1.0:
            raise ValueError(
                f"threshold_fraction must be in (0, 1], got {threshold_fraction}"
            )
        if max_meetings is not None and max_meetings < 0:
            raise ValueError(f"max_meetings must be >= 0, got {max_meetings}")
        if max_exchanges is not None and max_exchanges < 0:
            raise ValueError(f"max_exchanges must be >= 0, got {max_exchanges}")
        if sample_every is not None and sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")

        n = self.n
        counters = self._counters
        threshold = threshold_fraction * self.maxl
        rng = self._rng

        trajectory: list[ConstructionSample] = []
        meetings_run = 0
        last_sampled = 0
        converged = self._total_depth / n >= threshold
        # Jobs deferred past a round boundary (conflict-filter tails).
        pend_i1 = np.empty(0, dtype=np.int64)
        pend_i2 = np.empty(0, dtype=np.int64)
        pend_depth = np.empty(0, dtype=np.int64)
        # Scale the tail cut-off with the round so big-grid rounds don't
        # drain overhead-dominated micro-waves (leftovers fold into the
        # next round's worklist either way).
        min_wave = max(128, self.round_size >> 5)

        while not converged:
            if max_meetings is not None and meetings_run >= max_meetings:
                break
            if max_exchanges is not None and counters[0] >= max_exchanges:
                break
            # Shrink rounds near the threshold so the overshoot stays
            # small; every meeting adds at most 2 path bits.
            remaining_bits = threshold * n - self._total_depth
            round_size = int(
                min(self.round_size, max(256, remaining_bits // 2))
            )
            if max_meetings is not None:
                round_size = min(round_size, max_meetings - meetings_run)
            first = rng.integers(0, n, size=round_size)
            second = rng.integers(0, n, size=round_size)
            clash = first == second
            while clash.any():
                second[clash] = rng.integers(0, n, size=int(clash.sum()))
                clash = first == second
            counters[1] += round_size
            pend_i1, pend_i2, pend_depth = self._drain(
                np.concatenate([pend_i1, first]),
                np.concatenate([pend_i2, second]),
                np.concatenate(
                    [pend_depth, np.zeros(round_size, dtype=np.int64)]
                ),
                min_wave=min_wave,
            )
            meetings_run += round_size
            current_depth = self._total_depth / n
            if (
                sample_every is not None
                and meetings_run // sample_every > last_sampled
            ):
                last_sampled = meetings_run // sample_every
                trajectory.append(
                    ConstructionSample(
                        meetings=meetings_run,
                        exchanges=counters[0],
                        average_depth=current_depth,
                    )
                )
            converged = current_depth >= threshold

        if len(pend_i1):
            # Flush carried jobs so the grid reflects every counted
            # meeting (slight overshoot past the threshold).
            self._drain(pend_i1, pend_i2, pend_depth)
            converged = converged or self._total_depth / n >= threshold
        buddies = self._buddies
        sizes = np.fromiter(map(len, buddies.values()), dtype=np.int64, count=len(buddies))
        self.grid.buddy_offsets, self.grid.buddy_values = buddy_csr(
            np.repeat(np.fromiter(buddies, dtype=np.int64, count=len(buddies)), sizes),
            np.fromiter(
                chain.from_iterable(buddies.values()), dtype=np.int64, count=int(sizes.sum())
            ),
            n,
        )
        return ConstructionReport(
            converged=converged,
            exchanges=counters[0],
            meetings=counters[1],
            average_depth=self._total_depth / n,
            threshold=threshold,
            exchanges_per_peer=counters[0] / n,
            peer_count=n,
            stats={
                "calls": counters[0],
                "meetings": counters[1],
                "case1_splits": counters[2],
                "case2_specializations": counters[3],
                "case3_specializations": counters[4],
                "case4_recursions": counters[5],
                "buddy_links": counters[6],
                "ref_handover_entries": 0,
                "ref_handover_lost": 0,
            },
            trajectory=trajectory,
        )

    # -- analytics ----------------------------------------------------------------

    def replication_sizes(self):
        """Per-peer replica-group size (peers sharing this peer's full path).

        ``pb * (maxl + 1) + pl`` is injective over (bits, length) pairs
        because ``|pl1 - pl2| <= maxl < maxl + 1``, so one ``np.unique``
        groups peers by exact path without materializing strings.
        """
        packed = self._pb * (self.maxl + 1) + self._pl
        _, inverse, counts = np.unique(
            packed, return_inverse=True, return_counts=True
        )
        return counts[inverse]

    def replication_histogram(self) -> dict[int, int]:
        """``{group_size: number_of_peers_in_groups_of_that_size}``.

        Same per-peer convention as :meth:`PGrid.replication_histogram
        <repro.core.grid.PGrid.replication_histogram>` (and the Fig. 4
        bench), but computed from the numpy state so it works for 100k+
        peer runs.
        """
        sizes, peers = np.unique(self.replication_sizes(), return_counts=True)
        return {int(s): int(c) for s, c in zip(sizes, peers)}

    def path_length_histogram(self) -> dict[int, int]:
        """``{path_length: peer_count}`` from the numpy state."""
        lengths, peers = np.unique(self._pl, return_counts=True)
        return {int(length): int(c) for length, c in zip(lengths, peers)}

    def memory_bytes(self) -> int:
        """Resident bytes of the numpy construction state."""
        return int(
            self._pb.nbytes
            + self._pl.nbytes
            + self._td.nbytes
            + self._rl.nbytes
            + self._refs.nbytes
            + self._first_pos.nbytes
        )
