"""Mask universes against the law-checked universe of the same pool.

A ``MaskUniverse`` takes its laws from construction (the ``core``
docstring proves them) and looks its joins up one column at a time.
``Universe(*tables_from_masks(pool))`` builds every table and checks every
law.  On every system of the benchmark ladder and on random closed pools,
both must give the same order, flips, joins and meets.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import GraphInput, InternalInvariant, MalformedInput, Universe
from tangleduct import graph_separations, system_from_json_dict
from tangleduct.backends import _close_under_join_meet
from tangleduct.core import MaskUniverse, tables_from_masks
from test_closure import _shifted, pools
from test_tables import GRID3X3

LADDER = sorted(gen.bench_tk().EXPECTED_KIND)


def _ground(masks):
    width = max((a | b for a, b in masks), default=0).bit_length()
    return [f"v{i}" for i in range(width)]


def assert_matches_checked_universe(u: MaskUniverse) -> None:
    masks = list(u.set_labels)
    ref = Universe(*tables_from_masks(masks))
    n = len(ref)
    assert len(u) == n
    assert np.array_equal(u.leq_matrix(), ref.leq_matrix())
    assert np.array_equal(u.inverse_table(), ref.inverse_table())
    join = u.join_table()
    assert join.dtype == np.int32 and np.array_equal(join, ref.join_table())
    meet = u.meet_table()
    assert meet.dtype == np.int32 and np.array_equal(meet, ref.meet_table())
    # every pair on small universes, about 64 rows per column on large ones
    rows = range(0, n, 1 if n <= 256 else n // 64)
    for s in range(n):
        col = u.join_column(s)
        assert col.dtype == np.int32 and not col.flags.writeable
        assert np.array_equal(col, ref.join_column(s))
        assert col is u.join_column(s)
        assert [u.join_id(t, s) for t in rows] == [ref.join_id(t, s) for t in rows]
        assert [u.meet_id(t, s) for t in rows] == [ref.meet_id(t, s) for t in rows]


@pytest.mark.parametrize("name,k", LADDER)
def test_ladder_universes_match_checked_universe(name, k):
    u = gen.ladder_system(name, k).universe
    assert isinstance(u, MaskUniverse)
    assert_matches_checked_universe(u)


# shifted by up to 27 bits, masks reach bit 31: A fills the top half of a
# packed 64-bit key
@given(pool=pools(), offset=st.integers(0, 27))
def test_random_pools_match_checked_universe(pool, offset):
    closed = _close_under_join_meet(_shifted(pool, offset), 10**6)
    assert_matches_checked_universe(MaskUniverse(closed, _ground(closed)))


def test_set_and_graph_universes_are_mask_universes(cover3, p3_s2):
    for system in (cover3, p3_s2):
        assert isinstance(system.universe, MaskUniverse)


def test_joins_missing_from_the_pool_are_internal_errors():
    # each pair is its own flip, but the join (3, 0) of the first two is
    # not in the pool
    u = MaskUniverse([(1, 1), (2, 2), (3, 3)], ["x", "y"])
    with pytest.raises(InternalInvariant):
        u.join_id(0, 1)
    with pytest.raises(InternalInvariant):
        u.join_table()


def test_missing_flips_and_unsorted_pools_rejected():
    with pytest.raises(MalformedInput, match="not closed under flips"):
        MaskUniverse([(1, 3), (3, 3)], ["x", "y"])
    with pytest.raises(MalformedInput, match="sorted"):
        MaskUniverse([(3, 1), (1, 3)], ["x", "y"])
    # a 33-bit side would spill into the other half of its key
    with pytest.raises(MalformedInput, match="32 bits"):
        tables_from_masks([(1, 1 << 32), (1 << 32, 1)])


def test_grid_universe_is_held_in_bounded_memory():
    # the 2021-element universe keeps its order matrix (4.1 MB) and no
    # n-by-n join table (16.3 MB as int32)
    graph = GraphInput.parse(GRID3X3)
    tracemalloc.start()
    try:
        system = graph_separations(graph, 4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(system.universe) == 2021
    assert held < 8 * 10**6, f"held {held / 10**6:.1f} MB"


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
