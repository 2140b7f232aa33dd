"""Tests for the per-level routing table."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.routing import RoutingTable


class TestConstruction:
    def test_refmax_validated(self):
        with pytest.raises(ValueError):
            RoutingTable(0)

    def test_empty_table(self):
        table = RoutingTable(3)
        assert table.depth == 0
        assert table.refs(1) == []
        assert table.total_refs() == 0


class TestAddAndSet:
    def test_add_ref(self):
        table = RoutingTable(2)
        assert table.add_ref(1, 10)
        assert table.refs(1) == [10]

    def test_add_duplicate_is_noop(self):
        table = RoutingTable(2)
        table.add_ref(1, 10)
        assert not table.add_ref(1, 10)
        assert table.refs(1) == [10]

    def test_add_respects_capacity(self):
        table = RoutingTable(2)
        assert table.add_ref(1, 1)
        assert table.add_ref(1, 2)
        assert not table.add_ref(1, 3)
        assert table.refs(1) == [1, 2]

    def test_levels_are_one_based(self):
        table = RoutingTable(1)
        with pytest.raises(IndexError):
            table.refs(0)
        with pytest.raises(IndexError):
            table.add_ref(0, 1)

    def test_sparse_level_materialization(self):
        table = RoutingTable(2)
        table.add_ref(3, 7)
        assert table.depth == 3
        assert table.refs(1) == []
        assert table.refs(2) == []
        assert table.refs(3) == [7]

    def test_set_refs_deduplicates(self):
        table = RoutingTable(3)
        table.set_refs(1, [5, 5, 6])
        assert table.refs(1) == [5, 6]

    def test_set_refs_over_capacity_rejected(self):
        table = RoutingTable(2)
        with pytest.raises(ValueError):
            table.set_refs(1, [1, 2, 3])

    def test_refs_returns_copy(self):
        table = RoutingTable(2)
        table.set_refs(1, [1])
        table.refs(1).append(99)
        assert table.refs(1) == [1]


class TestMerge:
    def test_merge_within_capacity_keeps_all(self):
        table = RoutingTable(4)
        table.set_refs(1, [1, 2])
        table.merge_refs(1, [3], random.Random(0))
        assert set(table.refs(1)) == {1, 2, 3}

    def test_merge_over_capacity_samples_from_union(self):
        table = RoutingTable(2)
        table.set_refs(1, [1, 2])
        table.merge_refs(1, [3, 4], random.Random(0))
        refs = table.refs(1)
        assert len(refs) == 2
        assert set(refs) <= {1, 2, 3, 4}

    def test_merge_deterministic_for_seed(self):
        def build(seed):
            table = RoutingTable(2)
            table.set_refs(1, [1, 2])
            table.merge_refs(1, [3, 4, 5], random.Random(seed))
            return table.refs(1)

        assert build(42) == build(42)

    def test_merge_deduplicates_candidates(self):
        table = RoutingTable(3)
        table.set_refs(1, [1])
        table.merge_refs(1, [1, 2, 2], random.Random(0))
        assert sorted(table.refs(1)) == [1, 2]

    @given(
        st.lists(st.integers(0, 30), max_size=10),
        st.lists(st.integers(0, 30), max_size=10),
        st.integers(1, 5),
        st.integers(0, 1000),
    )
    def test_merge_never_exceeds_capacity(self, current, candidates, refmax, seed):
        table = RoutingTable(refmax)
        table.set_refs(1, list(dict.fromkeys(current))[:refmax])
        table.merge_refs(1, candidates, random.Random(seed))
        refs = table.refs(1)
        assert len(refs) <= refmax
        assert len(set(refs)) == len(refs)
        assert set(refs) <= set(current) | set(candidates)


class TestRemoval:
    def test_remove_ref(self):
        table = RoutingTable(2)
        table.set_refs(1, [1, 2])
        assert table.remove_ref(1, 1)
        assert table.refs(1) == [2]
        assert not table.remove_ref(1, 1)

    def test_remove_from_unknown_level(self):
        table = RoutingTable(2)
        assert not table.remove_ref(5, 1)
        assert not table.remove_ref(0, 1)

    def test_truncate(self):
        table = RoutingTable(2)
        table.set_refs(1, [1])
        table.set_refs(2, [2])
        table.set_refs(3, [3])
        table.truncate(1)
        assert table.depth == 1
        assert table.refs(2) == []

    def test_truncate_negative(self):
        with pytest.raises(ValueError):
            RoutingTable(1).truncate(-1)


class TestSerialization:
    def test_roundtrip(self):
        table = RoutingTable(3)
        table.set_refs(1, [1, 2])
        table.set_refs(3, [5])
        clone = RoutingTable.from_lists(3, table.to_lists())
        assert clone == table

    def test_equality_requires_same_refmax(self):
        a = RoutingTable(2)
        b = RoutingTable(3)
        assert a != b

    def test_iter_levels(self):
        table = RoutingTable(2)
        table.set_refs(1, [4])
        table.set_refs(2, [5, 6])
        assert list(table.iter_levels()) == [(1, [4]), (2, [5, 6])]

    def test_total_refs(self):
        table = RoutingTable(2)
        table.set_refs(1, [4])
        table.set_refs(2, [5, 6])
        assert table.total_refs() == 3

    def test_repr_mentions_levels(self):
        table = RoutingTable(2)
        table.set_refs(1, [4])
        assert "L1" in repr(table)
