"""Tests for range queries over the order-preserving key space."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import keys as keyspace
from repro.core.search import SearchEngine
from repro.core.storage import DataItem
from repro.protocol.search import key_in_range
from tests.conftest import build_grid


class TestRangeCover:
    def test_doc_examples(self):
        assert keyspace.range_cover("001", "110") == ["001", "01", "10", "110"]
        assert keyspace.range_cover("000", "111") == [""]

    def test_single_leaf(self):
        assert keyspace.range_cover("010", "010") == ["010"]

    def test_adjacent_siblings_merge(self):
        assert keyspace.range_cover("010", "011") == ["01"]

    def test_validation(self):
        with pytest.raises(ValueError):
            keyspace.range_cover("01", "001")  # unequal lengths
        with pytest.raises(ValueError):
            keyspace.range_cover("10", "01")  # empty range
        from repro.errors import InvalidKeyError

        with pytest.raises(InvalidKeyError):
            keyspace.range_cover("0x", "11")

    @given(st.integers(1, 8), st.data())
    def test_cover_tiles_exactly_the_range(self, length, data):
        low_value = data.draw(st.integers(0, 2**length - 1))
        high_value = data.draw(st.integers(low_value, 2**length - 1))
        low = format(low_value, f"0{length}b")
        high = format(high_value, f"0{length}b")
        cover = keyspace.range_cover(low, high)
        # every leaf in [low, high] is covered by exactly one prefix,
        # leaves outside by none.
        for value in range(2**length):
            leaf = format(value, f"0{length}b")
            covering = [p for p in cover if leaf.startswith(p)]
            if low <= leaf <= high:
                assert len(covering) == 1, (leaf, cover)
            else:
                assert not covering, (leaf, cover)

    @given(st.integers(1, 10), st.data())
    def test_cover_is_antichain_and_ordered(self, length, data):
        low_value = data.draw(st.integers(0, 2**length - 1))
        high_value = data.draw(st.integers(low_value, 2**length - 1))
        cover = keyspace.range_cover(
            format(low_value, f"0{length}b"), format(high_value, f"0{length}b")
        )
        for i, a in enumerate(cover):
            for b in cover[i + 1 :]:
                assert not keyspace.in_prefix_relation(a, b)
        values = [keyspace.key_value(p) for p in cover]
        assert values == sorted(values)

    @given(st.integers(1, 8), st.data())
    def test_cover_size_bound(self, length, data):
        """The canonical cover has at most 2*length prefixes."""
        low_value = data.draw(st.integers(0, 2**length - 1))
        high_value = data.draw(st.integers(low_value, 2**length - 1))
        cover = keyspace.range_cover(
            format(low_value, f"0{length}b"), format(high_value, f"0{length}b")
        )
        assert len(cover) <= 2 * length


@pytest.fixture(scope="module")
def populated_grid():
    grid = build_grid(256, maxl=5, refmax=3, seed=81)
    rng = random.Random(4)
    items = []
    for index in range(120):
        key = keyspace.random_key(7, rng)
        items.append((DataItem(key=key, value=f"item-{index}"), index % 256))
    grid.seed_index(items)
    return grid, [item.key for item, _holder in items]


class TestQueryRange:
    def _brute_force(self, keys, low, high):
        width = len(low)
        return {key for key in keys if low <= key[:width] <= high}

    def test_matches_brute_force(self, populated_grid):
        grid, keys = populated_grid
        engine = SearchEngine(grid)
        result = engine.query_range(0, "0100000", "0111111")
        found_keys = {ref.key for ref in result.data_refs}
        assert found_keys == self._brute_force(keys, "0100000", "0111111")

    def test_full_range_returns_everything_reachable(self, populated_grid):
        grid, keys = populated_grid
        engine = SearchEngine(grid)
        result = engine.query_range(3, "0000000", "1111111", recbreadth=4)
        found_keys = {ref.key for ref in result.data_refs}
        # full range cover is [""] -> breadth search from one peer; with
        # everyone online and recbreadth=4 it must recover most keys, and
        # never invent any.
        assert found_keys <= set(keys)
        assert len(found_keys) > 0.5 * len(set(keys))

    def test_narrow_range(self, populated_grid):
        grid, keys = populated_grid
        engine = SearchEngine(grid)
        target = sorted(keys)[len(keys) // 2]
        result = engine.query_range(7, target, target)
        assert target in {ref.key for ref in result.data_refs}
        assert all(ref.key == target for ref in result.data_refs)

    def test_empty_region(self, populated_grid):
        grid, keys = populated_grid
        engine = SearchEngine(grid)
        # find an uninhabited leaf range if one exists
        present = {key[:5] for key in keys}
        missing = next(
            (k for k in keyspace.all_keys(5) if k not in present), None
        )
        if missing is None:
            pytest.skip("all 5-bit regions inhabited in this seed")
        result = engine.query_range(0, missing + "00", missing + "11")
        assert result.data_refs == []
        assert result.found  # responsible peers exist even without data

    def test_messages_accumulate_over_cover(self, populated_grid):
        grid, _keys = populated_grid
        engine = SearchEngine(grid)
        result = engine.query_range(0, "0010000", "1101111")
        assert result.cover == keyspace.range_cover("0010000", "1101111")
        assert result.messages >= len(result.cover) - 1

    def test_responders_deduplicated(self, populated_grid):
        grid, _keys = populated_grid
        engine = SearchEngine(grid)
        result = engine.query_range(9, "0000000", "1111111", recbreadth=3)
        assert len(result.responders) == len(set(result.responders))

    def test_validation_propagates(self, populated_grid):
        grid, _keys = populated_grid
        engine = SearchEngine(grid)
        with pytest.raises(ValueError):
            engine.query_range(0, "10", "01")


class TestKeyInRange:
    def test_equal_length(self):
        assert key_in_range("0101", "0100", "0110")
        assert not key_in_range("0111", "0100", "0110")

    def test_longer_key_truncates(self):
        assert key_in_range("010111", "0100", "0110")
        assert not key_in_range("011100", "0100", "0110")

    def test_shorter_key_subtree_intersection(self):
        # "01" covers 0100..0111, which intersects [0100, 0110]
        assert key_in_range("01", "0100", "0110")
        # "00" covers 0000..0011: disjoint
        assert not key_in_range("00", "0100", "0110")
