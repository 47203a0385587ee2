"""Mask universes against the law-checked universe of their closure.

A ``MaskUniverse`` takes its laws from construction (the ``core``
docstring proves them) and looks its joins up a chunk of columns at a time.  The
set and graph backends build it from a system's members and their flips
alone.  On every system of the benchmark ladder and on random pools, it
must be the law-checked universe of the pool's join/meet closure restricted
to the pool (``test_closure.assert_restricts_closure``).
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import GraphInput, MalformedInput
from tangleduct import core, graph_separations, system_from_json_dict
from tangleduct.core import MaskUniverse, _find_keys
from test_closure import _shifted, assert_restricts_closure, pool_system, pools
from test_tables import GRID3X3

LADDER = sorted(gen.bench_tk().EXPECTED_KIND)


@pytest.mark.parametrize("name,k", LADDER)
def test_ladder_universes_match_checked_universe(name, k):
    u = gen.ladder_system(name, k).universe
    assert isinstance(u, MaskUniverse)
    assert_restricts_closure(u)


# shifted by up to 27 bits, masks reach bit 31: A fills the top half of a
# packed 64-bit key
@given(pool=pools(), offset=st.integers(0, 27))
def test_random_pools_match_checked_universe(pool, offset):
    assert_restricts_closure(pool_system(_shifted(pool, offset)).universe)


def assert_chunked_columns(u, rng) -> int:
    """Fresh copies of the mask universe ``u``, under chunk budgets of one
    row, of three rows plus part of one, and the default, answer every
    join column, asked for in a random order, as one ``_find_keys`` call
    per column would; each column is a read-only ``int32`` view, the same
    object on every read.  Returns the count of -1 entries."""
    n = len(u)
    a, b, keys = core._mask_keys(u.set_labels)
    want = [_find_keys(keys, a | a[s], b & b[s]) for s in range(n)]
    for cells in (1, 3 * n + n // 2, core._CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_CHUNK", cells)
            fresh = MaskUniverse(u.set_labels, u.ground)
            for s in rng.sample(range(n), n):
                col = fresh.join_column(s)
                assert col.dtype == np.int32 and not col.flags.writeable
                assert np.array_equal(col, want[s]) and col is fresh.join_column(s)
    return sum(int((col < 0).sum()) for col in want)


@pytest.mark.parametrize("name,k", LADDER)
def test_chunked_join_columns_on_the_ladder(name, k):
    missing = assert_chunked_columns(gen.ladder_system(name, k).universe, random.Random(k))
    assert missing > 0  # a ladder universe holds members alone, not their joins


@given(pool=pools(), offset=st.integers(0, 27), rnd=st.randoms(use_true_random=False))
def test_chunked_join_columns_on_random_pools(pool, offset, rnd):
    assert_chunked_columns(pool_system(_shifted(pool, offset)).universe, rnd)


def test_chunked_join_columns_with_missing_joins():
    u = MaskUniverse([(1, 1), (2, 2), (3, 3)], ["x", "y"])
    assert assert_chunked_columns(u, random.Random(0)) == 6  # every join of two


def test_set_and_graph_universes_are_mask_universes(cover3, p3_s2):
    for system in (cover3, p3_s2):
        assert isinstance(system.universe, MaskUniverse)


def test_joins_missing_from_the_pool_are_malformed_input():
    # each pair is its own flip, but the join (3, 0) of the first two is
    # not in the pool, nor is their meet (0, 3)
    u = MaskUniverse([(1, 1), (2, 2), (3, 3)], ["x", "y"])
    assert u.join_column(1).tolist() == [-1, 1, -1]
    with pytest.raises(MalformedInput, match="join of 0 and 1 lies outside"):
        u.join_id(0, 1)
    with pytest.raises(MalformedInput, match="meet of 0 and 1 lies outside"):
        u.meet_id(0, 1)
    a, b = u.sep(0), u.sep(1)
    with pytest.raises(MalformedInput, match="outside the universe"):
        a.join(b)
    with pytest.raises(MalformedInput, match="outside the universe"):
        a.meet(b)


def test_graph_members_whose_join_is_not_a_member(p3_s2):
    # P3 = 1-2-3 at k=2: the join of ({1}|{1,2,3}) and ({2}|{1,2,3}) is
    # ({1,2}|{1,2,3}), of order 2, so neither a member nor in the universe;
    # so is the meet ({1,2,3}|{1,2}) of their flips
    u = p3_s2.universe
    ids = {u.element_repr(i): i for i in range(len(u))}
    r, s = u.sep(ids["({1}|{1,2,3})"]), u.sep(ids["({2}|{1,2,3})"])
    assert u.join_column(s.id)[r.id] == u.join_column(r.id)[s.id] == -1
    calls = [
        lambda: r.join(s),
        lambda: u.join_id(r.id, s.id),
        lambda: (~r).meet(~s),
        lambda: u.meet_id((~r).id, (~s).id),
    ]
    for call in calls:
        with pytest.raises(MalformedInput, match="lies outside the universe"):
            call()


def test_missing_flips_and_unsorted_pools_rejected():
    with pytest.raises(MalformedInput, match="not closed under flips"):
        MaskUniverse([(1, 3), (3, 3)], ["x", "y"])
    with pytest.raises(MalformedInput, match="sorted"):
        MaskUniverse([(3, 1), (1, 3)], ["x", "y"])
    # a 33-bit side would spill into the other half of its key
    with pytest.raises(MalformedInput, match="32 bits"):
        MaskUniverse([(1, 1 << 32), (1 << 32, 1)], ["x"])


def test_grid_universe_is_held_in_bounded_memory():
    # the universe is the 356 members alone: it keeps their order matrix
    # (127 KB) and no n-by-n join table
    graph = GraphInput.parse(GRID3X3)
    tracemalloc.start()
    try:
        system = graph_separations(graph, 4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(system.universe) == len(system) == 356
    assert held < 10**6, f"held {held / 10**6:.1f} MB"


def test_thirty_two_ground_names_load():
    # A has bit 31 set in the second element, the top bit of a 32-bit half
    for size in (31, 32):
        names = [f"v{i}" for i in range(size)]
        doc = {
            "elements": [0, 1],
            "inverse": {"0": 1, "1": 0},
            "ground": names,
            "labels": [[names[:-1], names], [names, names[:-1]]],
        }
        u = system_from_json_dict(doc).universe
        full = (1 << size) - 1
        assert u.set_labels == ((full >> 1, full), (full, full >> 1))
        assert u.leq_matrix().tolist() == [[True, True], [False, True]]
        assert u.join_id(0, 1) == 1 and u.meet_id(0, 1) == 0
