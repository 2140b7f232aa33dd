"""Spatial keys on the binary trie: z-order needs no protocol code.

A point ``(x, y)`` of a 2^b x 2^b plane becomes a binary key by
interleaving the coordinates' bits, x first, most significant bit first.
Every quadtree cell at depth d is then the set of keys under one 2d-bit
prefix, so a point query is the ordinary Fig. 2 search and a window
query over a quadtree cell is the ordinary ``search_range`` over
``[prefix + 0...0, prefix + 1...1]``.  The encoder lives in this test
only: nothing in ``repro`` knows about it.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.api import Grid
from repro.core.storage import DataItem

BITS = 3  # an 8 x 8 plane: 6-bit keys
PEERS = 128


def zorder(x: int, y: int, bits: int = BITS) -> str:
    """Interleave the bits of *x* and *y*, x first, most significant first."""
    return "".join(
        f"{(x >> shift) & 1}{(y >> shift) & 1}"
        for shift in reversed(range(bits))
    )


@pytest.fixture(scope="module")
def world():
    grid = Grid.build(peers=PEERS, maxl=2 * BITS, refmax=3, recmax=2, seed=1)
    rng = random.Random(1)
    plane = list(itertools.product(range(2**BITS), repeat=2))
    points = rng.sample(plane, 40)
    placed = {(zorder(x, y), rng.randrange(PEERS)) for x, y in points}
    grid.seed_index(
        (DataItem(key=key, value=None), holder) for key, holder in placed
    )
    return grid, placed


def test_encoding_is_bit_interleaving():
    assert zorder(0, 0) == "000000"
    assert zorder(7, 0) == "101010"
    assert zorder(0, 7) == "010101"
    assert zorder(5, 3) == "100111"  # x=101, y=011


def test_every_point_is_found(world):
    grid, placed = world
    for key, holder in placed:
        result = grid.search(key, start=holder)
        assert result.found, key
        assert (key, holder) in {(ref.key, ref.holder) for ref in result.data_refs}


@pytest.mark.parametrize(
    "cell",
    ["".join(bits) for depth in (1, 2) for bits in itertools.product("01", repeat=2 * depth)],
)
def test_a_quadtree_cell_is_a_range_query(world, cell):
    grid, placed = world
    rest = 2 * BITS - len(cell)
    result = grid.search_range(cell + "0" * rest, cell + "1" * rest)
    inside = {(key, holder) for key, holder in placed if key.startswith(cell)}
    assert {(ref.key, ref.holder) for ref in result.data_refs} == inside
