"""Grid snapshots: save/load a constructed P-Grid as JSON.

Construction is the expensive phase (the paper's §5.2 grid took ~10 h to
build in Mathematica); persisting the constructed structure lets the search
and update experiments — and the benchmark suite — reuse one grid across
runs.  The snapshot captures the complete peer state: paths, per-level
references, buddy lists, stored items and leaf-level index entries.
"""

from __future__ import annotations

import gzip
import json
import random
from pathlib import Path
from typing import Any

from repro.core.config import PGridConfig
from repro.core.grid import PGrid
from repro.core.storage import DataItem, DataRef
from repro.errors import SnapshotFormatError

FORMAT_TAG = "pgrid-snapshot/1"

__all__ = ["grid_to_dict", "grid_from_dict", "save_grid", "load_grid", "FORMAT_TAG"]

#: Config keys of the deleted AB1/AB4 knobs in older snapshots: ``false`` is
#: the paper's rule; ``true`` describes a grid no remaining rule builds.
_DELETED_KNOBS = ("mutual_refs_in_case4", "exchange_refs_all_levels")


def grid_to_dict(grid: PGrid) -> dict[str, Any]:
    """Serialize *grid* (peer state only; RNG/oracle are run-time choices)."""
    peers = []
    for peer in grid.peers():
        peers.append(
            {
                "address": peer.address,
                "path": peer.path,
                "refs": peer.routing.to_lists(),
                "buddies": sorted(peer.buddies),
                "items": [
                    {"key": item.key, "value": item.value}
                    for item in sorted(peer.store.iter_items(), key=lambda i: i.key)
                ],
                "index": [
                    {
                        "key": ref.key,
                        "holder": ref.holder,
                        "version": ref.version,
                        "deleted": ref.deleted,
                    }
                    for ref in sorted(
                        peer.store.iter_refs(), key=lambda r: (r.key, r.holder)
                    )
                ],
            }
        )
    return {
        "format": FORMAT_TAG,
        "config": grid.config.to_dict(),
        "peers": peers,
    }


def grid_from_dict(
    data: dict[str, Any],
    *,
    rng: random.Random | None = None,
) -> PGrid:
    """Rebuild a grid from :func:`grid_to_dict` output."""
    if not isinstance(data, dict) or data.get("format") != FORMAT_TAG:
        raise SnapshotFormatError(
            f"not a {FORMAT_TAG} snapshot: format={data.get('format')!r}"
            if isinstance(data, dict)
            else "snapshot root must be an object"
        )
    try:
        raw = dict(data["config"])
        for knob in _DELETED_KNOBS:
            if raw.pop(knob, False):
                raise SnapshotFormatError(f"snapshot built with deleted knob {knob}=true")
        config = PGridConfig.from_dict(raw)
        grid = PGrid(config, rng=rng)
        for record in data["peers"]:
            peer = grid.add_peer(int(record["address"]))
            peer.set_path(str(record["path"]))
            for level, refs in enumerate(record["refs"], start=1):
                peer.routing.set_refs(level, [int(r) for r in refs])
            peer.merge_buddies(int(b) for b in record["buddies"])
            for item in record["items"]:
                peer.store.store_item(
                    DataItem(key=str(item["key"]), value=item["value"])
                )
            for ref in record["index"]:
                peer.store.add_ref(
                    DataRef(
                        key=str(ref["key"]),
                        holder=int(ref["holder"]),
                        version=int(ref["version"]),
                        deleted=bool(ref.get("deleted", False)),
                    )
                )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"malformed snapshot: {exc}") from exc
    return grid


def save_grid(grid: PGrid, path: str | Path) -> Path:
    """Write *grid* to *path* as JSON; returns the path.

    A ``.gz`` suffix selects gzip compression — paper-scale snapshots
    (20 000 peers with 20 refs over 10 levels) are tens of megabytes as
    plain JSON and compress roughly 10x.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(grid_to_dict(grid), separators=(",", ":"))
    if target.suffix == ".gz":
        with gzip.open(target, "wt", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        target.write_text(payload, encoding="utf-8")
    return target


def load_grid(
    path: str | Path,
    *,
    rng: random.Random | None = None,
) -> PGrid:
    """Load a grid snapshot from *path* (gzip auto-detected by suffix)."""
    source = Path(path)
    try:
        if source.suffix == ".gz":
            with gzip.open(source, "rt", encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            data = json.loads(source.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, gzip.BadGzipFile, OSError) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise SnapshotFormatError(f"snapshot unreadable: {exc}") from exc
    return grid_from_dict(data, rng=rng)
