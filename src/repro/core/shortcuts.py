"""Query-adaptive shortcut caching (§6: "knowledge on query distribution
... for optimizing P-Grid construction and updates").

The trie routes every query in ``O(log N)`` hops regardless of popularity.
When the query distribution is skewed, a peer can do better: remember which
peer answered a recent query and jump straight there next time.  This is
the standard result-caching optimization (Gnutella-era "query caching",
later formalized in DHT literature as shortcut/fingers-by-demand).

:class:`ShortcutCache` is the one such cache, whichever query plane runs
the search: a bounded LRU per initiating *address*, keyed by the query
string, holding responder addresses.  :class:`ShortcutSearchEngine` wraps
a :class:`~repro.core.search.SearchEngine` with one, and the batch plane
(:attr:`repro.fast.query.BatchQueryEngine.shortcuts`) consults the same
object when the facade wires both:

* on a hit, the cached responder is contacted directly (1 message); if it
  is gone, offline or no longer responsible (after churn or a replica
  conversion), the entry is dropped and the normal search runs;
* on a miss, the Fig. 2 search runs and its responder is cached under the
  query key.

Entries are checked on use, so they need no flush when membership or
paths change; a replica conversion, which retargets a peer wholesale, is
announced through :meth:`ShortcutCache.invalidate_responder`.

Consistency note: a shortcut only short-circuits *routing*; the answer is
still served from the responsible peer's current store, so staleness
semantics are identical to the plain search.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core import keys as keyspace
from repro.core.grid import PGrid
from repro.core.peer import Address
from repro.core.search import SearchEngine, SearchResult
from repro.obs.probe import Probe


@dataclass
class ShortcutStats:
    """Cache effectiveness counters."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of searches answered via a shortcut."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


class ShortcutCache:
    """Per-origin bounded LRU maps from query key to last-known responder.

    Origins and responders are peer addresses, so an entry means the same
    thing to every query plane and survives membership changes elsewhere
    in the grid; whether it is still usable is decided when it is used.
    Each origin holds at most ``capacity`` entries (a deployed node caches
    locally; a shared cache would be a different system), allocated on its
    first :meth:`put`.  ``stats`` counts the decisions the engines take
    over this cache, plus the entries :meth:`invalidate_responder` drops.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = ShortcutStats()
        self._origins: dict[Address, OrderedDict[str, Address]] = {}

    def get(self, origin: Address, key: str) -> Address | None:
        """*origin*'s cached responder for *key*, refreshing its LRU position."""
        entries = self._origins.get(origin)
        if entries is None:
            return None
        responder = entries.get(key)
        if responder is not None:
            entries.move_to_end(key)
        return responder

    def put(self, origin: Address, key: str, responder: Address) -> None:
        """Remember *responder* for *key*, evicting *origin*'s LRU entry if full."""
        entries = self._origins.get(origin)
        if entries is None:
            entries = self._origins[origin] = OrderedDict()
        entries[key] = responder
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def invalidate(self, origin: Address, key: str) -> None:
        """Drop *origin*'s entry for *key* if present."""
        entries = self._origins.get(origin)
        if entries is not None:
            entries.pop(key, None)

    def invalidate_responder(self, responder: Address) -> int:
        """Drop every entry, of any origin, naming *responder*.

        Used when a peer's responsibility changes wholesale (a replica
        conversion) rather than one query going stale.  Returns the number
        of dropped entries, counted as invalidations.
        """
        removed = 0
        for entries in self._origins.values():
            stale = [key for key, value in entries.items() if value == responder]
            for key in stale:
                del entries[key]
            removed += len(stale)
        self.stats.invalidations += removed
        return removed

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._origins.values())


class ShortcutSearchEngine:
    """A caching layer over the Fig. 2 search.

    Holds one :class:`ShortcutCache` (``cache``; ``stats`` is the
    cache's).  ``probe`` sees one ``on_shortcut`` event per cache decision
    (``hit``/``miss``/``invalidate``) plus the direct contact of a hit as
    an ``on_forward``; cache misses fall through to the wrapped engine,
    which reports its own hop events when it shares the probe (the
    default when no explicit ``search`` is given).
    """

    def __init__(
        self,
        grid: PGrid,
        *,
        search: SearchEngine | None = None,
        capacity: int = 128,
        probe: Probe | None = None,
    ) -> None:
        self.grid = grid
        self.search = search or SearchEngine(grid, probe=probe)
        self.probe = probe
        self.cache = ShortcutCache(capacity)
        self.stats = self.cache.stats

    def query_from(self, start: Address, query: str) -> SearchResult:
        """Search with shortcut attempt first, Fig. 2 fallback."""
        keyspace.validate_key(query)
        probe = self.probe
        cache = self.cache
        cached = cache.get(start, query)
        if cached is not None:
            result = self._try_shortcut(start, query, cached)
            if result is not None:
                self.stats.hits += 1
                if probe is not None:
                    probe.on_shortcut("hit", start, query)
                    if result.messages:
                        probe.on_forward(start, cached, 0)
                return result
            cache.invalidate(start, query)
            self.stats.invalidations += 1
            if probe is not None:
                probe.on_shortcut("invalidate", start, query)
        self.stats.misses += 1
        if probe is not None:
            probe.on_shortcut("miss", start, query)
        result = self.search.query_from(start, query)
        if result.found and result.responder is not None:
            cache.put(start, query, result.responder)
        return result

    def _try_shortcut(
        self, start: Address, query: str, responder: Address
    ) -> SearchResult | None:
        """Contact the cached responder directly; ``None`` if unusable."""
        if not self.grid.has_peer(responder):
            return None
        if not self.grid.is_online(responder):
            return None
        peer = self.grid.peer(responder)
        if not peer.responsible_for(query):
            return None
        return SearchResult(
            query=query,
            start=start,
            found=True,
            responder=responder,
            messages=0 if responder == start else 1,
            failed_attempts=0,
            data_refs=peer.store.lookup(query),
        )
