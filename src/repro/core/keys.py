"""Binary key space of the P-Grid (paper §2).

Keys and peer paths are binary strings over ``{'0', '1'}``.  A key
``k = p_1 ... p_n`` corresponds to the value ``val(k) = sum_i 2^-i p_i`` and
to the half-open interval ``I(k) = [val(k), val(k) + 2^-n)`` of the unit
interval.  A peer *responsible for path k* serves every query key whose value
falls inside ``I(k)`` — equivalently, every key that is in a prefix relation
with ``k``.

This module is pure: plain functions over ``str`` so that the algorithm
modules stay close to the paper's pseudo-code (``common_prefix_of``,
``sub_path``, bit complement, ...).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Sequence

from repro.errors import InvalidKeyError

#: The binary alphabet used by paths and keys.
ALPHABET = ("0", "1")

#: The empty path — the root of the virtual trie; every peer starts here.
EMPTY_PATH = ""


def is_valid_key(key: str) -> bool:
    """Return ``True`` iff *key* consists only of ``'0'``/``'1'`` characters.

    The empty string is a valid key (the root path).
    """
    # str.strip removes every leading/trailing character from the set, so
    # the result is empty iff the key is pure 0/1 — a single C call instead
    # of a Python-level loop over characters.
    return not key.strip("01")


def validate_key(key: str) -> str:
    """Return *key* unchanged, raising :class:`InvalidKeyError` if malformed."""
    if not isinstance(key, str) or not is_valid_key(key):
        raise InvalidKeyError(key)
    return key


def key_value(key: str) -> Fraction:
    """Exact ``val(k) = sum_i 2^-i p_i`` as a :class:`~fractions.Fraction`.

    Using exact rational arithmetic keeps interval comparisons correct for
    arbitrarily long keys (floats lose bits beyond length 52).

    >>> key_value("1")
    Fraction(1, 2)
    >>> key_value("01")
    Fraction(1, 4)
    """
    validate_key(key)
    return _key_value_unchecked(key)


def _key_value_unchecked(key: str) -> Fraction:
    """:func:`key_value` without the validation pass.

    Internal fast path for callers that already validated *key* at their
    own API boundary (routing/search hot loops).
    """
    if not key:
        return Fraction(0)
    return Fraction(int(key, 2), 1 << len(key))


def key_interval(key: str) -> tuple[Fraction, Fraction]:
    """Exact interval ``I(k) = [val(k), val(k) + 2^-n)`` as a pair.

    The empty key maps to the whole unit interval ``[0, 1)``.
    """
    validate_key(key)
    low = _key_value_unchecked(key)
    return low, low + Fraction(1, 1 << len(key))


def interval_contains(key: str, query: str) -> bool:
    """Return ``True`` iff ``val(query)`` lies inside ``I(key)``.

    Per the paper, a peer responsible for ``I(key)`` must answer every query
    key whose value belongs to the interval.  For binary strings this is
    equivalent to *key being a prefix of query* **or** *query being a prefix
    of key* — property tests assert the equivalence.
    """
    validate_key(key)
    validate_key(query)
    return _interval_contains_unchecked(key, query)


def _interval_contains_unchecked(key: str, query: str) -> bool:
    """:func:`interval_contains` on pre-validated keys, without Fractions.

    Brings both values to the common denominator ``2^max(n, m)`` and
    compares plain shifted integers — exact for arbitrarily long keys, no
    rational arithmetic on the hot path.
    """
    n = len(key)
    m = len(query)
    width = max(n, m)
    low = int(key, 2) << (width - n) if n else 0
    value = int(query, 2) << (width - m) if m else 0
    return low <= value < low + (1 << (width - n))


def in_prefix_relation(a: str, b: str) -> bool:
    """Return ``True`` iff one of the two keys is a prefix of the other."""
    return a.startswith(b) or b.startswith(a)


def common_prefix(a: str, b: str) -> str:
    """Longest common prefix of two keys (paper's ``common_prefix_of``).

    >>> common_prefix("0110", "0101")
    '01'
    """
    # The routing loops terminate on full prefix agreement, so answer that
    # case with one C-level startswith instead of a Python character loop.
    if a.startswith(b):
        return b
    if b.startswith(a):
        return a
    # Neither is a prefix of the other, so a divergence is guaranteed
    # before either string ends — no bounds check needed in the loop.
    i = 0
    while a[i] == b[i]:
        i += 1
    return a[:i]


def common_prefix_length(a: str, b: str) -> int:
    """Length of the longest common prefix of *a* and *b*."""
    return len(common_prefix(a, b))


def sub_path(path: str, start: int, end: int) -> str:
    """The paper's ``sub_path(p1...pn, l, k) = pl...pk`` (1-based, inclusive).

    Provided for pseudo-code parity; internal code uses Python slices.

    >>> sub_path("abcde", 2, 4)
    'bcd'
    """
    return path[start - 1 : end]


def complement_bit(bit: str) -> str:
    """The paper's ``p^- = (p + 1) MOD 2`` on a single character bit."""
    if bit == "0":
        return "1"
    if bit == "1":
        return "0"
    raise InvalidKeyError(bit)


def bit_at(key: str, level: int) -> str:
    """The paper's ``value(k, p1...pn) = pk`` — 1-based bit accessor.

    >>> bit_at("011", 2)
    '1'
    """
    if not 1 <= level <= len(key):
        raise IndexError(f"level {level} out of range for key of length {len(key)}")
    return key[level - 1]


def random_key(length: int, rng: random.Random) -> str:
    """A uniformly random binary key of exactly *length* bits."""
    if length < 0:
        raise ValueError(f"key length must be non-negative, got {length}")
    return "".join(rng.choice(ALPHABET) for _ in range(length))


def all_keys(length: int) -> Iterator[str]:
    """Yield every binary key of exactly *length* bits, in numeric order.

    >>> list(all_keys(2))
    ['00', '01', '10', '11']
    """
    if length < 0:
        raise ValueError(f"key length must be non-negative, got {length}")
    if length == 0:
        yield EMPTY_PATH
        return
    for value in range(2**length):
        yield format(value, f"0{length}b")


def key_from_value(value: float, length: int) -> str:
    """Quantize ``value`` in ``[0, 1)`` to the length-*length* key whose
    interval contains it (inverse of :func:`key_value`, up to truncation).

    >>> key_from_value(0.3, 3)
    '010'
    """
    if not 0.0 <= value < 1.0:
        raise ValueError(f"value must be in [0, 1), got {value}")
    if length < 0:
        raise ValueError(f"key length must be non-negative, got {length}")
    return format(int(value * (2**length)), f"0{length}b") if length else EMPTY_PATH


def prefixes(key: str) -> Iterator[str]:
    """Yield every proper-and-improper prefix of *key*, shortest first,
    starting with the empty path.

    >>> list(prefixes("01"))
    ['', '0', '01']
    """
    for i in range(len(key) + 1):
        yield key[:i]


def range_cover(low: str, high: str) -> list[str]:
    """Minimal set of prefixes whose intervals tile ``[low, high]``.

    *low* and *high* are keys of equal length with ``low <= high``; the
    covered range is the union of their leaf intervals and everything in
    between — i.e. all equal-length keys ``low <= k <= high``.  The result
    is the classic canonical trie decomposition: the unique minimal
    antichain of prefixes covering the range, in left-to-right order.

    This is what turns P-Grid's order-preserving key space into a range
    index: a range query searches one responsible peer set per cover
    prefix.

    >>> range_cover("001", "110")
    ['001', '01', '10', '110']
    >>> range_cover("000", "111")
    ['']
    """
    validate_key(low)
    validate_key(high)
    if len(low) != len(high):
        raise ValueError(
            f"range bounds must have equal length: {low!r} vs {high!r}"
        )
    if low > high:
        raise ValueError(f"range is empty: {low!r} > {high!r}")

    cover: list[str] = []

    def descend(prefix: str) -> None:
        depth = len(prefix)
        # Smallest and largest leaves under this prefix.
        first = prefix + "0" * (len(low) - depth)
        last = prefix + "1" * (len(low) - depth)
        if last < low or first > high:
            return  # disjoint from the range
        if low <= first and last <= high:
            cover.append(prefix)  # fully contained: maximal cover node
            return
        descend(prefix + "0")
        descend(prefix + "1")

    descend("")
    return cover


def average_length(keys: Sequence[str]) -> float:
    """Mean key length of a non-empty sequence — the paper's convergence
    measure ``(1/N) * sum length(path(a))``."""
    if not keys:
        raise ValueError("average_length of an empty sequence is undefined")
    return sum(len(key) for key in keys) / len(keys)
