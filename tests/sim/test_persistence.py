"""Tests for grid snapshots (save/load)."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.storage import DataItem, DataRef
from repro.errors import SnapshotFormatError
from repro.sim.persistence import (
    FORMAT_TAG,
    grid_from_dict,
    grid_to_dict,
    load_grid,
    save_grid,
)
from tests.conftest import build_grid


def decorate(grid):
    """Attach items, index entries and buddies so the round trip is rich."""
    first = grid.peer(0)
    first.store.store_item(DataItem(key="0101", value="payload"))
    first.store.add_ref(DataRef(key="0101", holder=3, version=2))
    first.add_buddy(9)
    return grid


class TestRoundTrip:
    def test_full_state_preserved(self, tmp_path):
        grid = decorate(build_grid(48, maxl=4, refmax=2, seed=17))
        path = save_grid(grid, tmp_path / "grid.json")
        clone = load_grid(path, rng=random.Random(1))

        assert len(clone) == len(grid)
        assert clone.config == grid.config
        for original, restored in zip(grid.peers(), clone.peers()):
            assert restored.address == original.address
            assert restored.path == original.path
            assert restored.routing.to_lists() == original.routing.to_lists()
            assert restored.buddies == original.buddies
        assert clone.peer(0).store.get_item("0101").value == "payload"
        assert clone.peer(0).store.version_of("0101", 3) == 2

    def test_dict_roundtrip_without_files(self):
        grid = decorate(build_grid(16, maxl=3, seed=18))
        clone = grid_from_dict(grid_to_dict(grid))
        assert grid_to_dict(clone) == grid_to_dict(grid)

    def test_loaded_grid_searches_like_original(self, tmp_path):
        from repro.core.search import SearchEngine

        grid = build_grid(64, maxl=4, refmax=2, seed=19)
        path = save_grid(grid, tmp_path / "grid.json")
        clone = load_grid(path, rng=random.Random(2))
        engine = SearchEngine(clone)
        for key in ("0000", "1111", "0101"):
            assert engine.query_from(0, key).found

    def test_save_creates_parent_dirs(self, tmp_path):
        grid = build_grid(8, maxl=2, seed=20)
        target = tmp_path / "deep" / "nested" / "grid.json"
        assert save_grid(grid, target).exists()


class TestFormatErrors:
    def test_wrong_format_tag(self):
        with pytest.raises(SnapshotFormatError):
            grid_from_dict({"format": "other/9", "config": {}, "peers": []})

    def test_non_dict_root(self):
        with pytest.raises(SnapshotFormatError):
            grid_from_dict([1, 2, 3])  # type: ignore[arg-type]

    def test_missing_keys(self):
        with pytest.raises(SnapshotFormatError):
            grid_from_dict({"format": FORMAT_TAG, "peers": []})

    def test_malformed_peer_record(self):
        data = {
            "format": FORMAT_TAG,
            "config": {"maxl": 3, "refmax": 1, "recmax": 0,
                       "recursion_fanout": None,
                       "mutual_refs_in_case4": False,
                       "exchange_refs_all_levels": False},
            "peers": [{"address": 0}],
        }
        with pytest.raises(SnapshotFormatError):
            grid_from_dict(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SnapshotFormatError):
            load_grid(path)

    def test_snapshot_is_valid_json(self, tmp_path):
        grid = build_grid(8, maxl=2, seed=22)
        path = save_grid(grid, tmp_path / "grid.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format"] == FORMAT_TAG
        assert len(payload["peers"]) == 8


class TestLegacyConfigKeys:
    """Snapshots written while the AB1/AB4 knobs existed still load."""

    KNOBS = ("mutual_refs_in_case4", "exchange_refs_all_levels")

    def test_false_knobs_load_as_the_paper_rule(self):
        grid = decorate(build_grid(16, maxl=3, seed=24))
        legacy = grid_to_dict(grid)
        legacy["config"].update({knob: False for knob in self.KNOBS})
        assert grid_to_dict(grid_from_dict(legacy)) == grid_to_dict(grid)

    @pytest.mark.parametrize("knob", KNOBS)
    def test_true_knob_rejected(self, knob):
        legacy = grid_to_dict(build_grid(8, maxl=2, seed=25))
        legacy["config"].update({name: False for name in self.KNOBS})
        legacy["config"][knob] = True
        with pytest.raises(SnapshotFormatError, match=knob):
            grid_from_dict(legacy)


class TestGzipSnapshots:
    def test_gz_roundtrip(self, tmp_path):
        grid = decorate(build_grid(48, maxl=4, refmax=2, seed=23))
        path = save_grid(grid, tmp_path / "grid.json.gz")
        clone = load_grid(path, rng=random.Random(3))
        assert grid_to_dict(clone) == grid_to_dict(grid)

    def test_gz_is_actually_compressed(self, tmp_path):
        grid = build_grid(128, maxl=5, refmax=3, seed=24)
        plain = save_grid(grid, tmp_path / "grid.json")
        packed = save_grid(grid, tmp_path / "grid.json.gz")
        assert packed.stat().st_size < 0.7 * plain.stat().st_size

    def test_corrupt_gz_raises_snapshot_error(self, tmp_path):
        path = tmp_path / "bad.json.gz"
        path.write_bytes(b"definitely not gzip")
        with pytest.raises(SnapshotFormatError):
            load_grid(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_grid(tmp_path / "absent.json")
