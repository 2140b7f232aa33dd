"""Unit and property tests for the binary key space (paper §2)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import keys
from repro.errors import InvalidKeyError

binary_keys = st.text(alphabet="01", max_size=40)
nonempty_keys = st.text(alphabet="01", min_size=1, max_size=40)


class TestValidation:
    def test_empty_key_is_valid(self):
        assert keys.is_valid_key("")

    @pytest.mark.parametrize("key", ["0", "1", "0101", "111000"])
    def test_valid_keys(self, key):
        assert keys.is_valid_key(key)
        assert keys.validate_key(key) == key

    @pytest.mark.parametrize("key", ["2", "01a", "0 1", "０1"])
    def test_invalid_keys(self, key):
        assert not keys.is_valid_key(key)
        with pytest.raises(InvalidKeyError):
            keys.validate_key(key)

    def test_non_string_rejected(self):
        with pytest.raises(InvalidKeyError):
            keys.validate_key(101)  # type: ignore[arg-type]


class TestValue:
    def test_empty_key_value(self):
        assert keys.key_value("") == 0

    def test_paper_definition_examples(self):
        # val(k) = sum 2^-i p_i
        assert keys.key_value("1") == Fraction(1, 2)
        assert keys.key_value("01") == Fraction(1, 4)
        assert keys.key_value("11") == Fraction(3, 4)
        assert keys.key_value("101") == Fraction(5, 8)

    @given(nonempty_keys)
    def test_value_in_unit_interval(self, key):
        value = keys.key_value(key)
        assert 0 <= value < 1

    @given(nonempty_keys)
    def test_value_matches_explicit_sum(self, key):
        expected = sum(
            Fraction(int(bit), 2 ** (i + 1)) for i, bit in enumerate(key)
        )
        assert keys.key_value(key) == expected

    @given(binary_keys, binary_keys)
    def test_order_preservation_same_length(self, a, b):
        # For equal lengths, lexicographic order == numeric order.
        length = min(len(a), len(b))
        a, b = a[:length], b[:length]
        if a < b:
            assert keys.key_value(a) < keys.key_value(b)
        elif a == b:
            assert keys.key_value(a) == keys.key_value(b)


class TestInterval:
    def test_empty_key_spans_unit_interval(self):
        assert keys.key_interval("") == (Fraction(0), Fraction(1))

    def test_interval_width(self):
        low, high = keys.key_interval("010")
        assert high - low == Fraction(1, 8)

    def test_sibling_intervals_tile(self):
        _, mid_left = keys.key_interval("0")
        mid_right, _ = keys.key_interval("1")
        assert mid_left == mid_right == Fraction(1, 2)

    @given(binary_keys, binary_keys)
    def test_interval_contains_iff_prefix_relation(self, key, query):
        """The §2 interval semantics coincide with the prefix relation...

        ...whenever the query is at least as long as the key.  (A shorter
        query's value is the left endpoint of a *wider* interval; the paper
        routes such queries by prefix relation, which is the authoritative
        definition used across the library.)
        """
        if len(query) >= len(key):
            assert keys.interval_contains(key, query) == query.startswith(key)

    @given(nonempty_keys)
    def test_key_contained_in_own_interval(self, key):
        assert keys.interval_contains(key, key)


class TestUncheckedFastPaths:
    """The integer fast paths must be extensionally equal to the exact
    Fraction-based definitions on every valid input."""

    @given(binary_keys)
    def test_key_value_unchecked_matches_checked(self, key):
        assert keys._key_value_unchecked(key) == keys.key_value(key)

    @given(binary_keys, binary_keys)
    def test_interval_contains_unchecked_matches_definition(self, key, query):
        low, high = keys.key_interval(key)
        by_fractions = low <= keys.key_value(query) < high
        assert keys._interval_contains_unchecked(key, query) == by_fractions
        assert keys.interval_contains(key, query) == by_fractions


class TestPrefixAlgebra:
    def test_common_prefix_basic(self):
        assert keys.common_prefix("0110", "0101") == "01"
        assert keys.common_prefix("", "0101") == ""
        assert keys.common_prefix("11", "11") == "11"

    @given(binary_keys, binary_keys)
    def test_common_prefix_is_prefix_of_both(self, a, b):
        c = keys.common_prefix(a, b)
        assert a.startswith(c)
        assert b.startswith(c)

    @given(binary_keys, binary_keys)
    def test_common_prefix_is_maximal(self, a, b):
        c = keys.common_prefix(a, b)
        if len(c) < min(len(a), len(b)):
            assert a[len(c)] != b[len(c)]

    @given(binary_keys, binary_keys)
    def test_common_prefix_symmetric(self, a, b):
        assert keys.common_prefix(a, b) == keys.common_prefix(b, a)

    @given(binary_keys, binary_keys)
    def test_prefix_relation_iff_full_common_prefix(self, a, b):
        related = keys.in_prefix_relation(a, b)
        assert related == (keys.common_prefix_length(a, b) == min(len(a), len(b)))

    def test_prefixes_enumeration(self):
        assert list(keys.prefixes("01")) == ["", "0", "01"]
        assert list(keys.prefixes("")) == [""]


class TestPaperHelpers:
    def test_sub_path_one_based_inclusive(self):
        # sub_path(p1...pn, l, k) = pl...pk
        assert keys.sub_path("abcde", 2, 4) == "bcd"
        assert keys.sub_path("01", 1, 2) == "01"
        assert keys.sub_path("01", 3, 2) == ""

    def test_bit_at_one_based(self):
        assert keys.bit_at("011", 1) == "0"
        assert keys.bit_at("011", 3) == "1"

    def test_bit_at_out_of_range(self):
        with pytest.raises(IndexError):
            keys.bit_at("011", 0)
        with pytest.raises(IndexError):
            keys.bit_at("011", 4)

    def test_complement_bit(self):
        assert keys.complement_bit("0") == "1"
        assert keys.complement_bit("1") == "0"
        with pytest.raises(InvalidKeyError):
            keys.complement_bit("x")


class TestGenerators:
    def test_random_key_length_and_alphabet(self):
        rng = random.Random(3)
        for length in (0, 1, 5, 17):
            key = keys.random_key(length, rng)
            assert len(key) == length
            assert keys.is_valid_key(key)

    def test_random_key_deterministic(self):
        assert keys.random_key(16, random.Random(5)) == keys.random_key(
            16, random.Random(5)
        )

    def test_random_key_negative_length(self):
        with pytest.raises(ValueError):
            keys.random_key(-1, random.Random(0))

    def test_all_keys(self):
        assert list(keys.all_keys(0)) == [""]
        assert list(keys.all_keys(2)) == ["00", "01", "10", "11"]
        assert len(list(keys.all_keys(5))) == 32

    def test_all_keys_sorted_numerically(self):
        ks = list(keys.all_keys(4))
        assert ks == sorted(ks)

    def test_key_from_value_roundtrip(self):
        for key in keys.all_keys(4):
            assert keys.key_from_value(float(keys.key_value(key)), 4) == key

    def test_key_from_value_bounds(self):
        with pytest.raises(ValueError):
            keys.key_from_value(1.0, 3)
        with pytest.raises(ValueError):
            keys.key_from_value(-0.1, 3)

    @given(st.floats(min_value=0.0, max_value=0.999999), st.integers(1, 20))
    def test_key_from_value_contains_value(self, value, length):
        key = keys.key_from_value(value, length)
        low, high = keys.key_interval(key)
        assert float(low) <= value < float(high) + 1e-12


class TestAverageLength:
    def test_average(self):
        assert keys.average_length(["0", "01", "011"]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            keys.average_length([])
