"""The shared result protocol: every engine outcome satisfies it."""

from __future__ import annotations

from repro.core import ContactAccounting, SearchOutcome
from repro.core.search import SearchEngine
from repro.core.updates import ReadEngine, UpdateEngine
from repro.core.storage import DataItem
from tests.conftest import build_grid


class TestProtocolConformance:
    def _outcomes(self):
        grid = build_grid(64, maxl=4, refmax=2, seed=7)
        search = SearchEngine(grid)
        updates = UpdateEngine(grid, search=search)
        reads = ReadEngine(grid, search=search)
        dfs = search.query_from(0, "0101")
        bfs = search.query_breadth(0, "0101", recbreadth=2)
        rng_result = search.query_range(0, "0000", "0111")
        update = updates.publish(
            0, DataItem(key="0110", value="v"), holder=1, version=1
        )
        read = reads.read_single(3, "0110", holder=1, version=1)
        return dfs, bfs, rng_result, update, read

    def test_every_result_satisfies_search_outcome(self):
        for outcome in self._outcomes():
            assert isinstance(outcome, SearchOutcome)
            assert isinstance(outcome, ContactAccounting)
            assert isinstance(outcome.found, bool)
            assert outcome.messages >= 0
            assert outcome.failed_attempts >= 0

    def test_total_contacts_is_messages_plus_failures(self):
        for outcome in self._outcomes():
            assert (
                outcome.total_contacts
                == outcome.messages + outcome.failed_attempts
            )

    def test_update_and_read_found_aliases(self):
        *_, update, read = self._outcomes()
        assert update.found == bool(update.reached)
        assert read.found == read.success
