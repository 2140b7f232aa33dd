"""Tests for the ablations' load-balance measure, :func:`ablations.gini`."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.ablations import gini


class TestGini:
    def test_perfect_equality(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-9)

    def test_total_inequality_approaches_one(self):
        value = gini([0] * 99 + [100])
        assert value > 0.9

    def test_known_value(self):
        # For [1, 3]: gini = (2*(1*1 + 2*3))/(2*4) - 3/2 = 14/8 - 1.5 = 0.25
        assert gini([1, 3]) == pytest.approx(0.25)

    def test_all_zero(self):
        assert gini([0, 0, 0]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gini([])
        with pytest.raises(ValueError):
            gini([1, -2])

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40))
    def test_range(self, values):
        assert 0.0 <= gini(values) < 1.0

    @given(st.lists(st.floats(0.01, 1e6), min_size=1, max_size=40))
    def test_scale_invariant(self, values):
        assert gini(values) == pytest.approx(
            gini([v * 3 for v in values]), abs=1e-9
        )


