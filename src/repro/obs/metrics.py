"""Metrics registry: counters, gauges and fixed-bucket histograms.

The paper's entire evaluation counts messages, failed contacts, hops and
exchange-case frequencies (§5.1, §5.2); :class:`MetricsRegistry` makes
those first-class instead of being recomputed per experiment script.
:class:`MetricsProbe` translates the :class:`~repro.obs.probe.Probe`
hooks into a standard metric vocabulary (:data:`METRIC_NAMES`), so any
engine run can be measured by attaching one object.

Registries support :meth:`~MetricsRegistry.snapshot` (plain nested dict),
:meth:`~MetricsRegistry.merge` (combine shards from parallel runs or
successive phases) and JSON/CSV export through :mod:`repro.report`.
"""

from __future__ import annotations

from bisect import bisect_left
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from repro.obs.probe import Address, Probe

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsProbe",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "METRIC_NAMES",
]

#: Default histogram bucket upper bounds — tuned for hop/message counts,
#: which are small integers with a long tail under churn.  The implicit
#: final bucket is +inf.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 250, 500, 1000,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """A fixed-bucket histogram with count/sum/min/max side channels.

    Buckets are cumulative-free: ``bucket_counts[i]`` counts observations
    ``<= bounds[i]`` and greater than the previous bound; the final slot
    counts the +inf overflow.  Fixed bounds keep ``merge`` exact.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "minimum", "maximum")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.name = name
        self.bounds = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict form (stable keys, JSON-friendly)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
            "buckets": [
                [bound, count]
                for bound, count in zip((*self.bounds, float("inf")), self.bucket_counts)
            ],
        }

    def merge(self, other: "Histogram") -> None:
        """Fold *other*'s observations into this histogram (same bounds)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)


class MetricsRegistry:
    """Named counters, gauges and histograms with export and merge."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access (get-or-create) ------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter registered under *name* (created on first use)."""
        self._check_free(name, self._counters)
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under *name* (created on first use)."""
        self._check_free(name, self._gauges)
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, *, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram under *name* (created on first use with *buckets*)."""
        self._check_free(name, self._histograms)
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    def _check_free(self, name: str, own: Mapping[str, Any]) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"metric name {name!r} already registered with a "
                    f"different instrument type"
                )

    def __contains__(self, name: str) -> bool:
        return (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        )

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(
            [*self._counters, *self._gauges, *self._histograms]
        )

    # -- aggregate views --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Nested plain-dict copy of every instrument's current state."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* into this registry.

        Counters and histograms add; gauges take the other registry's
        value (last write wins, matching their single-value semantics).
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).set(gauge.value)
        for name, histogram in other._histograms.items():
            mine = self.histogram(name, buckets=histogram.bounds)
            mine.merge(histogram)

    # -- export through repro.report -------------------------------------------

    def to_rows(self) -> Iterator[tuple[str, str, str, float]]:
        """Flat ``(metric, type, field, value)`` rows for tables/CSV."""
        for name, counter in sorted(self._counters.items()):
            yield (name, "counter", "value", counter.value)
        for name, gauge in sorted(self._gauges.items()):
            yield (name, "gauge", "value", gauge.value)
        for name, histogram in sorted(self._histograms.items()):
            snap = histogram.snapshot()
            for field in ("count", "sum", "min", "max", "mean"):
                yield (name, "histogram", field, snap[field])

    def write_json(self, path: str | Path) -> Path:
        """Dump :meth:`snapshot` as JSON; returns the path."""
        from repro.report.csvout import write_json

        return write_json(path, self.snapshot())

    def write_csv(self, path: str | Path) -> Path:
        """Dump :meth:`to_rows` as CSV; returns the path."""
        from repro.report.csvout import write_csv

        return write_csv(
            path, ("metric", "type", "field", "value"), list(self.to_rows())
        )


#: The standard metric vocabulary emitted by :class:`MetricsProbe`.
#: Search metrics are per search kind (``dfs``, ``bfs``, ``range``).
METRIC_NAMES: tuple[str, ...] = (
    "search.{kind}.count",
    "search.{kind}.found",
    "search.{kind}.messages",
    "search.{kind}.failed_contacts",
    "search.{kind}.hops",            # histogram: messages per search
    "search.{kind}.latency",         # histogram: simulated end-to-end latency
    "search.backtracks",
    "shortcut.hits",
    "shortcut.misses",
    "shortcut.invalidations",
    "exchange.meetings",
    "exchange.case.{case}",          # case1 / case2 / case3 / case4 / replicas
    "update.count",
    "update.messages",
    "update.failed_contacts",
    "update.reached",                # histogram: replicas reached per update
    "read.count",
    "read.success",
    "read.messages",
    "read.failed_contacts",
    "read.repetitions",              # histogram
    "membership.joins",
    "membership.leaves",
    "repair.runs",
    "repair.dead_refs_dropped",
    "repair.refs_added",
    "repair.messages",
    "transport.delivered.{kind}",
    "transport.dropped",
    "transport.offline_failures",
    "mailbox.enqueued",
    "mailbox.depth",                 # histogram: queue depth at enqueue
    "mailbox.wait",                  # histogram: queue latency (wall seconds)
)


class MetricsProbe(Probe):
    """Feeds probe hooks into a :class:`MetricsRegistry`.

    Aggregate counters are updated from the ``on_*_end`` summary hooks
    (not per hop), so the registry totals equal the result-object fields
    exactly — the same invariant the trace recorder is tested for.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    # -- search -----------------------------------------------------------------

    def on_search_end(
        self,
        kind: str,
        start: Address,
        query: str,
        *,
        found: bool,
        messages: int,
        failed_attempts: int,
        latency: float = 0.0,
    ) -> None:
        registry = self.registry
        registry.counter(f"search.{kind}.count").inc()
        if found:
            registry.counter(f"search.{kind}.found").inc()
        registry.counter(f"search.{kind}.messages").inc(messages)
        registry.counter(f"search.{kind}.failed_contacts").inc(failed_attempts)
        registry.histogram(f"search.{kind}.hops").observe(messages)
        if latency:
            registry.histogram(f"search.{kind}.latency").observe(latency)

    def on_backtrack(self, peer: Address, level: int) -> None:
        self.registry.counter("search.backtracks").inc()

    def on_shortcut(self, event: str, start: Address, query: str) -> None:
        name = {
            "hit": "shortcut.hits",
            "miss": "shortcut.misses",
            "invalidate": "shortcut.invalidations",
        }.get(event)
        if name is not None:
            self.registry.counter(name).inc()

    # -- batch query plane --------------------------------------------------------

    def on_batch_wave(
        self, kind: str, *, wave: int, active: int, contacts: int, offline: int
    ) -> None:
        registry = self.registry
        registry.counter(f"{kind}.waves").inc()
        registry.counter(f"{kind}.contacts").inc(contacts)
        registry.counter(f"{kind}.offline").inc(offline)

    def on_batch_search(
        self,
        kind: str,
        *,
        queries: int,
        found: int,
        messages: int,
        failed_attempts: int,
    ) -> None:
        registry = self.registry
        registry.counter(f"{kind}.count").inc(queries)
        registry.counter(f"{kind}.found").inc(found)
        registry.counter(f"{kind}.messages").inc(messages)
        registry.counter(f"{kind}.failed_contacts").inc(failed_attempts)

    # -- exchange ---------------------------------------------------------------

    def on_meeting(self, peer1: Address, peer2: Address) -> None:
        self.registry.counter("exchange.meetings").inc()

    def on_exchange_case(
        self, case: str, peer1: Address, peer2: Address, lc: int, depth: int
    ) -> None:
        self.registry.counter(f"exchange.case.{case}").inc()

    # -- updates / reads ---------------------------------------------------------

    def on_update(
        self,
        key: str,
        strategy: str,
        *,
        reached: int,
        messages: int,
        failed_attempts: int,
    ) -> None:
        registry = self.registry
        registry.counter("update.count").inc()
        registry.counter("update.messages").inc(messages)
        registry.counter("update.failed_contacts").inc(failed_attempts)
        registry.histogram("update.reached").observe(reached)

    def on_read(
        self,
        key: str,
        *,
        success: bool,
        messages: int,
        failed_attempts: int,
        repetitions: int,
    ) -> None:
        registry = self.registry
        registry.counter("read.count").inc()
        if success:
            registry.counter("read.success").inc()
        registry.counter("read.messages").inc(messages)
        registry.counter("read.failed_contacts").inc(failed_attempts)
        registry.histogram("read.repetitions").observe(repetitions)

    # -- membership ---------------------------------------------------------------

    def on_join(self, address: Address, *, meetings: int, exchanges: int) -> None:
        self.registry.counter("membership.joins").inc()

    def on_leave(self, address: Address, *, entries_handed_over: int) -> None:
        self.registry.counter("membership.leaves").inc()

    def on_repair(
        self,
        address: Address,
        *,
        dead_refs_dropped: int,
        refs_added: int,
        messages: int,
    ) -> None:
        registry = self.registry
        registry.counter("repair.runs").inc()
        registry.counter("repair.dead_refs_dropped").inc(dead_refs_dropped)
        registry.counter("repair.refs_added").inc(refs_added)
        registry.counter("repair.messages").inc(messages)

    # -- transport ----------------------------------------------------------------

    def on_transport(
        self, kind: str, source: Address, target: Address, status: str
    ) -> None:
        registry = self.registry
        if status == "delivered":
            registry.counter(f"transport.delivered.{kind}").inc()
        elif status == "dropped":
            registry.counter("transport.dropped").inc()
        elif status == "offline":
            registry.counter("transport.offline_failures").inc()

    # -- async runtime (per-node mailboxes) ----------------------------------------

    def on_mailbox(
        self, event: str, address: Address, *, depth: int, wait: float = 0.0
    ) -> None:
        registry = self.registry
        if event == "enqueue":
            registry.counter("mailbox.enqueued").inc()
            registry.histogram("mailbox.depth").observe(depth)
        elif event == "dequeue":
            registry.histogram("mailbox.wait").observe(wait)
