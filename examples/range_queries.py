#!/usr/bin/env python
"""Range queries over the order-preserving key space.

P-Grid keys are order-preserving (`val(k)` intervals, §2), so the access
structure supports range scans, not just exact lookups: a range decomposes
into its canonical cover prefixes and each cover prefix is resolved with a
subtree-enumerating breadth-first search.  This example indexes items with
numeric keys (temperatures, encoded order-preservingly into bits) and runs
interval queries.

Run:  python examples/range_queries.py
"""

from __future__ import annotations

import random

from repro.core import DataItem, PGrid, PGridConfig, SearchEngine
from repro.core import keys as keyspace
from repro.sim import GridBuilder

KEY_BITS = 10
MIN_TEMP, MAX_TEMP = -30.0, 50.0


def encode_temperature(celsius: float) -> str:
    """Order-preserving fixed-point encoding of a temperature reading."""
    fraction = (celsius - MIN_TEMP) / (MAX_TEMP - MIN_TEMP)
    fraction = min(max(fraction, 0.0), 1.0 - 1e-9)
    return keyspace.key_from_value(fraction, KEY_BITS)


def decode_temperature(key: str) -> float:
    """Left edge of the reading's interval, back in Celsius."""
    return MIN_TEMP + float(keyspace.key_value(key)) * (MAX_TEMP - MIN_TEMP)


def main() -> None:
    config = PGridConfig(maxl=6, refmax=4, recmax=2, recursion_fanout=2)
    grid = PGrid(config, rng=random.Random(21))
    grid.add_peers(256)
    GridBuilder(grid).build()
    print(f"grid ready: avg depth {grid.average_path_length():.2f}")

    # 300 sensor readings, each stored at its reporting peer.
    rng = random.Random(22)
    readings = [
        (round(rng.gauss(15, 12), 1), sensor % 256) for sensor in range(300)
    ]
    grid.seed_index(
        [
            (DataItem(key=encode_temperature(t), value=t), holder)
            for t, holder in readings
        ]
    )
    print(f"indexed {len(readings)} sensor readings")
    print()

    engine = SearchEngine(grid)
    for low_temperature, high_temperature in ((20.0, 30.0), (-10.0, 0.0), (35.0, 50.0)):
        low = encode_temperature(low_temperature)
        high = encode_temperature(high_temperature)
        result = engine.query_range(0, low, high, recbreadth=3)
        temps = sorted(
            decode_temperature(ref.key) for ref in result.data_refs
        )
        expected = sorted(
            t for t, _ in readings
            if low <= encode_temperature(t) <= high
        )
        print(
            f"range [{low_temperature:6.1f}, {high_temperature:6.1f}] C: "
            f"cover={len(result.cover)} prefixes, "
            f"{len(result.data_refs)} readings in {result.messages} messages "
            f"(ground truth: {len(expected)})"
        )
        if temps:
            print(
                f"   sample: {', '.join(f'{t:.1f}' for t in temps[:8])}"
                + (" ..." if len(temps) > 8 else "")
            )


if __name__ == "__main__":
    main()
