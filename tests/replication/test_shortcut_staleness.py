"""Shortcut-cache staleness under replica conversion.

When the :class:`~repro.replication.ReplicaBalancer` converts a peer to
a hot replica group, the peer stays online but answers for different
keys — every shortcut naming it is stale at once, whichever query plane
made it.  Both planes share the facade's one
:class:`~repro.core.shortcuts.ShortcutCache`, keyed by address, and the
facade's one conversion listener (``Grid._on_replica_conversion``)
drops the entries naming the converted peer; these tests pin that
contract.  The object-plane half needs no numpy.
"""

from __future__ import annotations

import pytest

from repro.api import Grid
from repro.fast import HAVE_NUMPY
from repro.replication import ReplicationConfig
from tests.conftest import build_grid

#: Balancer config that converts on the first meeting once load is skewed.
EAGER = ReplicationConfig(
    replicate_threshold=1.0, retract_floor=0.25, min_observations=0
)


def _hot_and_donor(pgrid):
    """A hot path and a donor address from a different, larger group."""
    groups = pgrid.replica_groups()
    sized = sorted(
        (path for path in groups if path), key=lambda p: (len(groups[p]), p)
    )
    hot = sized[0]
    for path in reversed(sized):
        if path != hot and len(groups[path]) >= 2:
            return hot, groups[path][0], groups[hot][0]
    raise AssertionError("grid has no donor group — pick another seed")


@pytest.fixture
def facade():
    return Grid(
        build_grid(48, maxl=4, refmax=2, seed=9),
        replication=EAGER,
        shortcut_capacity=16,
    )


def _skew_load(facade, hot: str) -> None:
    for _ in range(100):
        facade.load_tracker.observe(hot)


class TestObjectCacheStaleness:
    def test_conversion_drops_entries_naming_the_donor(self, facade):
        hot, donor, hot_member = _hot_and_donor(facade.pgrid)
        engine = facade.shortcut_engine
        donor_path = facade.pgrid.peer(donor).path
        # Entries from two initiators naming the donor, as a search
        # answered by it would have left them.
        engine.cache.put(0, donor_path, donor)
        engine.cache.put(5, donor_path, donor)
        _skew_load(facade, hot)
        assert facade.balancer.after_meeting(donor, hot_member) is True

        assert engine.cache.get(0, donor_path) is None
        assert engine.cache.get(5, donor_path) is None
        assert engine.stats.invalidations == 2

    def test_stale_shortcut_would_have_answered_wrong(self, facade):
        # The donor is still online after conversion — the liveness check
        # alone would NOT catch the staleness; only the conversion
        # listener (or the responsibility check on use) does.
        hot, donor, hot_member = _hot_and_donor(facade.pgrid)
        donor_path = facade.pgrid.peer(donor).path
        _skew_load(facade, hot)
        facade.balancer.after_meeting(donor, hot_member)
        assert facade.pgrid.is_online(donor)
        assert facade.pgrid.peer(donor).path == hot
        assert not facade.pgrid.peer(donor).responsible_for(donor_path + "0")

    def test_search_after_conversion_repopulates_fresh(self, facade):
        hot, donor, hot_member = _hot_and_donor(facade.pgrid)
        donor_path = facade.pgrid.peer(donor).path
        query = (donor_path + "0" * 8)[: facade.pgrid.config.maxl]
        engine = facade.shortcut_engine
        engine.cache.put(0, query, donor)
        _skew_load(facade, hot)
        facade.balancer.after_meeting(donor, hot_member)

        result = facade.search(query, start=0)
        assert result.found
        assert result.responder != donor
        assert engine.cache.get(0, query) == result.responder


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestArrayCacheStaleness:
    def _donor_query(self, facade, donor):
        """A full-length key the donor answers for before conversion."""
        donor_path = facade.pgrid.peer(donor).path
        return (donor_path + "0" * 8)[: facade.pgrid.config.maxl]

    def test_conversion_drops_batch_entries_naming_the_donor(self, facade):
        hot, donor, hot_member = _hot_and_donor(facade.pgrid)
        query = self._donor_query(facade, donor)
        cache = facade.shortcut_engine.cache
        # Warm the cache through the batch plane from two initiators,
        # then point both entries at the donor.
        facade.search_many([query, query], [0, 3])
        cache.put(0, query, donor)
        cache.put(3, query, donor)
        cache.put(3, "111", donor + 1)  # unrelated entry survives
        _skew_load(facade, hot)
        assert facade.balancer.after_meeting(donor, hot_member) is True

        assert cache.get(0, query) is None
        assert cache.get(3, query) is None
        assert cache.get(3, "111") == donor + 1
        assert cache.stats.invalidations == 2

        result = facade.search_many([query], [0])
        engine = facade.batch_query_engine()
        assert bool(result.found[0])
        assert cache.get(0, query) == engine.addresses[int(result.responder[0])]

    def test_batch_engine_rebuild_keeps_the_cache(self, facade):
        # Conversion also drops the cached batch-plane snapshot (routing
        # changed), but the rebuilt engine consults the same cache.
        hot, donor, hot_member = _hot_and_donor(facade.pgrid)
        engine_before = facade.batch_query_engine()
        cache = facade.shortcut_engine.cache
        assert engine_before.shortcuts is cache
        _skew_load(facade, hot)
        facade.balancer.after_meeting(donor, hot_member)
        assert facade._batch_engine is None  # snapshot invalidated
        engine_after = facade.batch_query_engine()
        assert engine_after is not engine_before
        assert engine_after.shortcuts is cache

    def test_one_conversion_invalidates_both_planes_entries(self, facade):
        hot, donor, hot_member = _hot_and_donor(facade.pgrid)
        query = self._donor_query(facade, donor)
        cache = facade.shortcut_engine.cache
        facade.search(query, start=0)  # an object-plane entry
        facade.search_many([query], [5])  # a batch-plane entry
        cache.put(0, query, donor)
        cache.put(5, query, donor)
        _skew_load(facade, hot)
        facade.balancer.after_meeting(donor, hot_member)

        assert facade.shortcut_engine.stats.invalidations == 2
        assert cache.get(0, query) is None
        assert cache.get(5, query) is None
