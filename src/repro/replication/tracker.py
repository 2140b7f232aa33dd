"""Query-load accounting per replica group (ROADMAP item 4).

The paper sizes replication statically from eq. (1)–(3) (§4); a deployed
grid sees *skewed* traffic, so the balancer in
:mod:`repro.replication.balancer` needs to know, per path, how much query
load its replica group currently absorbs.  :class:`LoadTracker` keeps one
exponentially-weighted moving counter per path, decayed lazily on a
logical clock that advances once per observed query — no wall-clock, so
the whole subsystem stays deterministic per seed.

Feeding the tracker rides the existing observability contract:
:class:`LoadProbe` is a plain :class:`~repro.obs.probe.Probe` that
translates every ``on_search_end`` hook (depth-first searches, the
breadth-first legs of updates, range queries) into one tracker
observation, attributing the query key to the responsible path through a
:class:`PathResolver`.  Probes are property-tested to never perturb the
simulation, so attaching a :class:`LoadProbe` keeps runs bit-identical to
untracked ones — the same guarantee metrics and traces already enjoy.
"""

from __future__ import annotations

from repro.obs.probe import Probe

__all__ = ["LoadTracker", "PathResolver", "LoadProbe"]


class LoadTracker:
    """Per-path EWMA query-load counters with lazy decay.

    ``half_life`` is expressed in *observed queries*: after that many
    further observations a path's counter has lost half its value.  Decay
    is applied lazily — each path stores ``(value, last_tick)`` and is
    brought forward only when read or written — so tracking cost is O(1)
    per query regardless of how many paths exist.
    """

    def __init__(self, *, half_life: float = 64.0) -> None:
        if half_life <= 0:
            raise ValueError(f"half_life must be > 0, got {half_life}")
        self.half_life = half_life
        self._decay = 0.5 ** (1.0 / half_life)
        self._loads: dict[str, tuple[float, int]] = {}
        self._clock = 0
        self.observed = 0

    # -- the logical clock ---------------------------------------------------

    @property
    def clock(self) -> int:
        """Queries observed so far (decay time base)."""
        return self._clock

    def tick(self, steps: int = 1) -> None:
        """Advance the clock without attributing load (e.g. a query whose
        key resolved to no live path)."""
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        self._clock += steps

    # -- recording -----------------------------------------------------------

    def record(self, path: str, weight: float = 1.0) -> None:
        """Add *weight* to *path*'s counter at the current clock."""
        value, last = self._loads.get(path, (0.0, self._clock))
        if last < self._clock:
            value *= self._decay ** (self._clock - last)
        self._loads[path] = (value + weight, self._clock)
        self.observed += 1

    def observe(self, path: str | None, weight: float = 1.0) -> None:
        """One finished query: advance the clock, then credit *path*.

        ``path=None`` (the resolver found no responsible group) still
        ticks the clock so unattributable traffic decays everyone.
        """
        self._clock += 1
        if path is not None:
            self.record(path, weight)

    # -- reading -------------------------------------------------------------

    def load(self, path: str) -> float:
        """Current (decayed) load of *path*; 0.0 if never credited."""
        entry = self._loads.get(path)
        if entry is None:
            return 0.0
        value, last = entry
        if last < self._clock:
            value *= self._decay ** (self._clock - last)
        return value

    def paths(self, above: float = 0.0) -> list[str]:
        """The credited paths whose load may exceed *above*.

        Filters on the stored counter, which only decays between credits
        and so bounds the current load — no ``pow`` per path.
        """
        return [path for path, (value, _) in self._loads.items() if value > above]

    def loads(self) -> dict[str, float]:
        """Decayed loads of every path ever credited (path-sorted)."""
        return {path: self.load(path) for path in sorted(self._loads)}

    def total(self) -> float:
        """Sum of all decayed counters."""
        return sum(self.load(path) for path in self._loads)

    def hottest(self) -> tuple[str, float] | None:
        """The most loaded path (ties broken by path, deterministically)."""
        if not self._loads:
            return None
        best = max(sorted(self._loads), key=lambda p: (self.load(p), p))
        return best, self.load(best)

    def reset(self) -> None:
        """Forget all counters and restart the clock."""
        self._loads.clear()
        self._clock = 0
        self.observed = 0

    def snapshot(self) -> dict:
        """Plain-dict copy for experiment records."""
        return {
            "clock": self._clock,
            "observed": self.observed,
            "half_life": self.half_life,
            "loads": self.loads(),
        }

    def __repr__(self) -> str:
        return (
            f"LoadTracker(paths={len(self._loads)}, clock={self._clock}, "
            f"half_life={self.half_life})"
        )


class PathResolver:
    """Maps a query key to the path of the replica group responsible for it.

    Resolution walks the key's prefixes longest-first against the grid's
    shared :class:`~repro.core.grid.PathDirectory`, which revalidates in
    O(1) and is never stale: any join, leave or path change — a balancer
    conversion as much as a plain exchange specialisation — is visible to
    the very next resolve.
    """

    def __init__(self, grid) -> None:
        self._grid = grid

    def __call__(self, query: str) -> str | None:
        directory = self._grid.directory()
        groups = directory.groups
        for depth in range(min(len(query), directory.max_depth), -1, -1):
            prefix = query[:depth]
            if prefix in groups:
                return prefix
        return None


class LoadProbe(Probe):
    """Feeds a :class:`LoadTracker` from the standard search hooks.

    One ``on_search_end`` = one observation: the clock ticks and the
    query's responsible path (via *resolver*) is credited.  This covers
    plain searches, the search legs of update propagation (``bfs``) and
    reads — every operation that lands traffic on a replica group.  The
    probe reads grid state only through the resolver and draws no RNG,
    preserving the probe-transparency guarantee.
    """

    def __init__(self, tracker: LoadTracker, resolver) -> None:
        self.tracker = tracker
        self.resolver = resolver

    def on_search_end(
        self,
        kind: str,
        start: int,
        query: str,
        *,
        found: bool,
        messages: int,
        failed_attempts: int,
        latency: float = 0.0,
    ) -> None:
        self.tracker.observe(self.resolver(query))
