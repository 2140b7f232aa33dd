"""Ground-truth checks on the answers the program gave.

Run after timing, on the results recorded during repetition 1.  The
oracle is the benchmark's own: a peer is responsible for a key exactly
when its path and the key are in prefix relation (paper §2), so "the
responder is one of ``replicas_for(key)``" is checked from a snapshot of
every peer's path — plus the log of replica conversions, for the one
workload whose paths move — without asking the program's search code.

Every function returns human-readable violations; each one counts toward
``fail_share`` and makes ``run.py`` exit non-zero.
"""

from __future__ import annotations

import os
from pathlib import Path

SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "pgrid_snap_"

#: The array plane's statistical-equivalence contract with the object
#: engines (ROADMAP item 3 wants it tightened to equality).
EQUIVALENCE_BAND = 0.02


def in_prefix_relation(path: str, key: str) -> bool:
    return key.startswith(path) or path.startswith(key)


class Truth:
    """Who is responsible for what, at every op of the recorded pass."""

    def __init__(self, paths: dict[int, str]) -> None:
        self._initial = dict(paths)
        self._current = dict(paths)
        #: address -> [(op index, new path)], in op order.
        self._moves: dict[int, list[tuple[int, str]]] = {}
        #: Peers whose path changed after the recorded pass.
        self._moved_later: set[int] = set()

    def record_move(self, op_index: int, address: int, new_path: str) -> None:
        """*address* holds *new_path* from the end of op *op_index* on."""
        if self._current.get(address) != new_path:
            self._current[address] = new_path
            self._moves.setdefault(address, []).append((op_index, new_path))

    def record_snapshot(self, op_index: int, paths: dict[int, str]) -> None:
        """Every path as of the end of op *op_index* (exchange meetings
        extend paths without announcing it)."""
        for address, path in paths.items():
            self.record_move(op_index, address, path)

    def close(self, paths: dict[int, str]) -> None:
        """*paths* as they are at verification time: whoever moved since
        the recorded pass took its store along."""
        self._moved_later = {
            address for address, path in paths.items() if self._current.get(address) != path
        }

    def moved(self, address: int) -> bool:
        return address in self._moves or address in self._moved_later

    def path_at(self, address: int, op_index: int) -> str | None:
        """*address*'s path when op *op_index* started (a conversion
        triggered by an op takes effect after that op's answer)."""
        path = self._initial.get(address)
        for moved_at, new_path in self._moves.get(address, ()):
            if moved_at >= op_index:
                break
            path = new_path
        return path

    def responsible(self, address: int, key: str, op_index: int) -> bool:
        path = self.path_at(address, op_index)
        return path is not None and in_prefix_relation(path, key)


def _overlaps(path: str, low: str, high: str) -> bool:
    """Whether *path*'s key interval intersects ``[low, high]``."""
    width = len(low)
    first = path.ljust(width, "0")[:width]
    last = path.ljust(width, "1")[:width]
    return first <= high and last >= low


#: Prefix of a violation that says "answered by a peer that is not
#: responsible" — the one kind engine_zipf downgrades to a miss.
MISROUTED = "misrouted: "


def check_search(index: int, key: str, result, truth: Truth, *, expect_ref: bool) -> str | None:
    if not result.found:
        return None
    if result.responder is None or not truth.responsible(result.responder, key, index):
        return f"{MISROUTED}op {index}: search {key} answered by {result.responder}, not a replica"
    if expect_ref and not any(ref.key == key for ref in result.data_refs):
        return f"op {index}: search {key} found at {result.responder} without its index entry"
    return None


def check_update(index: int, key: str, holder: int, version: int, result, truth: Truth,
                 version_of) -> str | None:
    """``reached`` ⊆ replica set, and the new version readable at every
    reached replica (``version_of(address, key, holder)`` reads its store)."""
    for address in result.reached:
        if not truth.responsible(address, key, index):
            return f"{MISROUTED}op {index}: update {key} installed at {address}, not a replica"
    for address in result.reached:
        if truth.moved(address):
            continue  # a peer that changed path handed its entries over
        stored = version_of(address, key, holder)
        if stored is None or stored < version:
            return (f"op {index}: update {key} v{version} not readable at {address} "
                    f"(stored {stored})")
    return None


def check_range(index: int, low: str, high: str, responders, data_refs, truth: Truth) -> str | None:
    for address in responders:
        path = truth.path_at(address, index)
        if path is None or not _overlaps(path, low, high):
            return f"op {index}: range {low}..{high} answered by {address} (path {path})"
    for ref in data_refs:
        if not low <= ref.key <= high:
            return f"op {index}: range {low}..{high} returned key {ref.key}"
    return None


def verify_mixed(ops, results, versions, truth: Truth, version_of, *, expect_ref=True,
                 misrouted: list[int] | None = None) -> list[str]:
    """The single-op workloads: one result per op, ``None`` for markers
    and for ops that raised (those are already counted as errors).

    With a *misrouted* list, an answer from a non-responsible peer is
    appended there (by op index) instead of being a violation.
    """
    violations = []
    for index, (op, result) in enumerate(zip(ops, results)):
        if result is None:
            continue
        kind = op[0]
        if kind == "search":
            problem = check_search(index, op[1], result, truth, expect_ref=expect_ref)
        elif kind == "update":
            problem = check_update(index, op[1], op[2], versions[index], result, truth,
                                   version_of)
        else:
            problem = check_range(index, op[1], op[2], result.responders,
                                  result.data_refs, truth)
        if not problem:
            continue
        if misrouted is not None and problem.startswith(MISROUTED):
            misrouted.append(index)
        else:
            violations.append(problem)
    return violations


def verify_batch(ops, results, truth: Truth, addresses) -> list[str]:
    """The array plane: dense responder indices map, through the engine's
    address table, to peers responsible for the key."""
    violations = []
    for index, (op, result) in enumerate(zip(ops, results)):
        if result is None:
            continue
        kind = op[0]
        if kind == "search_many":
            found, responder = result.found.tolist(), result.responder.tolist()
            for key, hit, dense in zip(op[1], found, responder):
                if hit and not truth.responsible(addresses[dense], key, index):
                    violations.append(
                        f"op {index}: batch search {key} answered by {addresses[dense]}")
        elif kind == "publish_many":
            for row, key in enumerate(op[1]):
                for dense in result.reached(row).tolist():
                    if not truth.responsible(addresses[dense], key, index):
                        violations.append(
                            f"op {index}: batch publish {key} installed at {addresses[dense]}")
        elif kind == "range_many":
            for row, (low, high) in enumerate(zip(op[1], op[2])):
                responders = [addresses[dense] for dense in result.responders(row).tolist()]
                problem = check_range(index, low, high, responders, result.data_refs[row], truth)
                if problem:
                    violations.append(problem)
        elif kind == "read_many":
            # Non-repetitive reads: exactly one search each, and a read
            # cannot be fresh unless that search found a replica.
            if not bool((result.repetitions == 1).all()):
                violations.append(f"op {index}: a non-repetitive read repeated")
    return violations


def _answer(op, result) -> tuple:
    """What two drivers must agree on for one op."""
    kind = op[0]
    if kind == "search":
        return (result.found, result.responder, result.messages)
    if kind == "update":
        return (sorted(result.reached), result.messages)
    return (list(result.responders), result.messages)


def twin_mismatches(ops, ours, reference) -> dict[str, int]:
    """Per op kind, how many answers differ between two drivers given the
    identical op list on twin grids (the engine ≡ node contract)."""
    counts = {"search": 0, "update": 0, "range": 0}
    for op, mine, theirs in zip(ops, ours, reference):
        if mine is None or theirs is None:
            if mine is not theirs:
                counts[op[0]] = counts.get(op[0], 0) + 1
            continue
        if _answer(op, mine) != _answer(op, theirs):
            counts[op[0]] += 1
    return counts


def outside_band(name: str, value: float, reference: float, *, noise: float = 0.0,
                 band: float = EQUIVALENCE_BAND) -> str | None:
    """A violation if *value* is further from *reference* than the band —
    or than *noise* (four standard errors of the difference), whichever
    is wider, so a small sample cannot fail by chance."""
    allowed = max(band * abs(reference), noise)
    if abs(value - reference) > allowed:
        return (f"{name}: {value:.4f} is not within {allowed / abs(reference or 1):.1%} of "
                f"the object engines' {reference:.4f}")
    return None


def shm_segments() -> set[str]:
    """Names of the grid-snapshot segments currently in ``/dev/shm``."""
    if not SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)}


def shm_residue(before: set[str]) -> list[str]:
    """Segments this run created and did not unlink."""
    return sorted(shm_segments() - before)
