"""A Fig. 2 hop is checked against the prefix it was routed on.

A peer that changes path (a replica conversion) leaves the references that
pointed at it in place.  Such a stale reference forwards a query to a peer
that matches the query's suffix below a prefix nobody checked; without the
check that peer may answer "found" for a key it is not responsible for.
The receiver refuses a hop when its path and that prefix are not in
prefix relation, and the sender backtracks — on the engine, on both
message drivers and on the batch plane alike.  A receiver whose path is a
proper prefix of the hop's is responsible for the key and answers it.
"""

from __future__ import annotations

import pytest

from repro.api import DRIVERS, Grid
from repro.core import keys as keyspace
from repro.core.routing import RoutingTable
from repro.fast import HAVE_NUMPY
from repro.faults import RefHealer

KEYS = list(keyspace.all_keys(4))


def moved_grid() -> Grid:
    """A built grid in which one peer has taken another group's path (with
    that group's routing table), its inbound references left stale."""
    grid = Grid.build(peers=48, maxl=4, seed=21)
    pgrid = grid.pgrid
    donor = pgrid.peer(pgrid.addresses()[0])
    model = next(peer for peer in pgrid.peers() if peer.path[0] != donor.path[0])
    donor.set_path(model.path)
    donor.routing = RoutingTable.from_lists(
        pgrid.config.refmax,
        [[ref for ref in refs if ref != donor.address] for refs in model.routing.to_lists()],
    )
    return grid


def routed(driver: str):
    """Every 4-bit key from every fifth peer, served by *driver* with a
    healer that evicts a reference at its first refusal and refills the
    slot: results, healer tallies and grid-RNG state."""
    grid = moved_grid()
    pgrid = grid.pgrid
    healer = RefHealer(pgrid, evict_after=1)
    served = Grid(pgrid, healer=healer)
    with served.serve(driver=driver) as service:
        results = [
            service.search(key, start=start)
            for start in pgrid.addresses()[::5]
            for key in KEYS
        ]
    return results, healer.stats.snapshot(), pgrid.rng.getstate(), pgrid


def test_the_moved_peer_leaves_stale_references():
    assert moved_grid().pgrid.audit_routing()


def test_no_driver_answers_from_a_peer_not_responsible():
    outcomes = [routed(driver) for driver in DRIVERS]
    for results, heals, _, pgrid in outcomes:
        for result in results:
            if result.found:
                path = pgrid.peer(result.responder).path
                assert keyspace.in_prefix_relation(path, result.query)
        # Stale references were reached, refused, evicted and refilled.
        assert heals["evictions"] > 0 and heals["refills"] > 0
    (results, heals, state, _), *others = outcomes
    for other_results, other_heals, other_state, _ in others:
        assert other_results == results
        assert other_heals == heals
        assert other_state == state


def shortened_grid(keep: int = 2):
    """A built grid in which one peer has shortened its path to its first
    *keep* bits, and a peer whose level-3 references pointed into the old,
    deeper subtree now names only it: ``(grid, holder, shortened, key)``."""
    grid = Grid.build(peers=48, maxl=4, seed=21)
    pgrid = grid.pgrid
    short = pgrid.peer(pgrid.addresses()[0])
    holder = next(
        peer
        for peer in pgrid.peers()
        if peer.path[:2] == short.path[:2] and peer.path[2] != short.path[2]
    )
    key = holder.ref_prefix(3) + short.path[3]
    short.set_path(short.path[:keep])
    short.routing.truncate(keep)
    holder.routing.set_refs(3, [short.address])
    return grid, holder.address, short.address, key


def test_a_receiver_whose_path_is_a_prefix_of_the_hop_accepts_it():
    # The hop from the holder is routed on three bits; the receiver's path
    # is two of them, so it is responsible for the key and answers it.
    for driver in DRIVERS:
        grid, holder, short, key = shortened_grid()
        with grid.serve(driver=driver) as service:
            result = service.search(key, start=holder)
        assert (result.found, result.responder, result.messages) == (True, short, 1)


def test_the_audit_checks_the_table_rule_and_routing_the_responsibility_rule():
    # The table rule (a level-3 reference lies under ref_prefix(3)) fails
    # for the shortened peer; the responsibility rule (prefix relation
    # with the routed-on prefix) holds, so routing through it answers.
    grid, holder, short, key = shortened_grid()
    assert (holder, short, key) == (10, 0, "0010")
    assert grid.pgrid.audit_routing() == [
        "peer 10: ref 0 at level 3 has path '00', expected prefix '001'"
    ]
    result = grid.search(key, start=holder)
    assert (result.found, result.responder) == (True, short)
    assert grid.pgrid.peer(short).responsible_for(key)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_the_batch_plane_accepts_a_receiver_with_a_shorter_path():
    grid, holder, short, key = shortened_grid()
    result = grid.search_many([key], [holder])
    addresses = grid.batch_query_engine().addresses
    assert result.found[0] and int(addresses[result.responder[0]]) == short
    assert result.messages[0] == 1


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_a_receiver_shorter_than_the_consumed_bits_answers_on_every_plane():
    # The hop from the holder has consumed two bits and is routed on three;
    # the receiver keeps one, so no bit of the key is left to compare below
    # its path: it is responsible and answers.
    outcomes = []
    for driver in DRIVERS:
        grid, holder, short, key = shortened_grid(keep=1)
        with grid.serve(driver=driver) as service:
            result = service.search(key, start=holder)
        outcomes.append((result.found, result.responder, result.messages))
    grid, holder, short, key = shortened_grid(keep=1)
    result = grid.search_many([key], [holder])
    responder = int(grid.batch_query_engine().addresses[result.responder[0]])
    outcomes.append((bool(result.found[0]), responder, int(result.messages[0])))
    assert outcomes == [(True, short, 1)] * (len(DRIVERS) + 1)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_the_batch_plane_answers_from_responsible_peers_only():
    grid = moved_grid()
    pgrid = grid.pgrid
    starts = [start for start in pgrid.addresses() for _ in KEYS]
    keys = KEYS * len(pgrid.addresses())
    result = grid.search_many(keys, starts)
    addresses = grid.batch_query_engine().addresses
    assert result.found.all()
    for key, dense in zip(keys, result.responder):
        path = pgrid.peer(int(addresses[dense])).path
        assert keyspace.in_prefix_relation(path, key)
