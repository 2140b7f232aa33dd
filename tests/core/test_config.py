"""Tests for configuration objects."""

from __future__ import annotations

import pytest

from repro.core.config import (
    PAPER_SECTION51_CONFIG,
    PAPER_SECTION52_CONFIG,
    PGridConfig,
    SearchConfig,
    UpdateConfig,
)
from repro.errors import InvalidConfigError


class TestPGridConfig:
    def test_defaults(self):
        config = PGridConfig()
        assert config.maxl == 6
        assert config.refmax == 1
        assert config.recmax == 2
        assert config.recursion_fanout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"maxl": 0},
            {"maxl": -3},
            {"refmax": 0},
            {"recmax": -1},
            {"recursion_fanout": 0},
            {"recursion_fanout": -2},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            PGridConfig(**kwargs)

    def test_recmax_zero_allowed(self):
        assert PGridConfig(recmax=0).recmax == 0

    def test_frozen(self):
        config = PGridConfig()
        with pytest.raises(AttributeError):
            config.maxl = 9  # type: ignore[misc]

    def test_with_overrides(self):
        config = PGridConfig(maxl=6).with_overrides(maxl=10, refmax=20)
        assert (config.maxl, config.refmax) == (10, 20)
        assert config.recmax == 2  # untouched field preserved

    def test_with_overrides_validates(self):
        with pytest.raises(InvalidConfigError):
            PGridConfig().with_overrides(maxl=0)

    def test_dict_roundtrip(self):
        config = PGridConfig(
            maxl=8,
            refmax=5,
            recmax=3,
            recursion_fanout=2,
            split_min_items=4,
        )
        assert PGridConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidConfigError):
            PGridConfig.from_dict({"maxl": 6, "bogus": 1})

    def test_paper_section52_constants(self):
        assert PAPER_SECTION52_CONFIG.maxl == 10
        assert PAPER_SECTION52_CONFIG.refmax == 20
        assert PAPER_SECTION52_CONFIG.recmax == 2
        assert PAPER_SECTION52_CONFIG.recursion_fanout == 2

    def test_paper_section51_constants(self):
        assert PAPER_SECTION51_CONFIG.maxl == 6
        assert PAPER_SECTION51_CONFIG.refmax == 1


class TestSearchConfig:
    def test_default_budget(self):
        assert SearchConfig().max_messages == 10_000

    def test_invalid_budget(self):
        with pytest.raises(InvalidConfigError):
            SearchConfig(max_messages=0)


class TestUpdateConfig:
    def test_defaults(self):
        config = UpdateConfig()
        assert config.recbreadth == 2
        assert config.repetition == 1

    @pytest.mark.parametrize("kwargs", [{"recbreadth": 0}, {"repetition": 0}])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfigError):
            UpdateConfig(**kwargs)
