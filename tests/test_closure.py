"""Pool universes against the join/meet closure of a pairwise reference loop.

The set and graph backends build a system's universe from its members and
their flips alone (``backends._universe_from_masks``).  The universe of a
pool's join/meet closure, built from its dense order and flips and
law-checked in full by ``Universe``, is the reference; its derived join
and De Morgan meet must equal the dense mask join and meet.  The pool
universe's order, flips and join columns must be its tables restricted to
the pool, with -1 exactly where the closed join is not a pool element.
"""

import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import (
    GraphInput,
    MalformedInput,
    Universe,
    graph_separations,
    system_from_json_dict,
)
from tangleduct.backends import _graph_separation_masks, _universe_from_masks
from tangleduct.core import MaskUniverse
from tangleduct.errors import ClosureTooLarge


def reference_closure(pool, cap):
    """Close a flip-closed pool of (A, B) masks under joins and meets."""
    seen = set(pool)
    for a, b in list(seen):
        seen.add((b, a))
    work = sorted(seen)
    i = 0
    while i < len(work):
        a, b = work[i]
        i += 1
        for c, d in work[:i]:
            for cand in ((a | c, b & d), (a & c, b | d)):
                if cand not in seen:
                    seen.add(cand)
                    seen.add((cand[1], cand[0]))
                    work.append(cand)
                    work.append((cand[1], cand[0]))
                    if len(seen) > cap:
                        raise ClosureTooLarge(cap)
    return sorted(seen)


@st.composite
def pools(draw):
    """Random pools over a ground set of at most five points.

    Pools on four or five points cover the ground set, which keeps the
    closure within 3^5 elements; smaller ground sets take any pair.
    """
    size = draw(st.integers(1, 5))
    full = (1 << size) - 1
    cover = size > 3 or draw(st.booleans())
    raw = draw(
        st.lists(st.tuples(st.integers(0, full), st.integers(0, full)), min_size=1, max_size=6)
    )
    return [(a, b | (full & ~a)) if cover else (a, b) for a, b in raw]


def _shifted(pool, offset):
    return [(a << offset, b << offset) for a, b in pool]


def dense_tables(masks):
    """Order, flips, joins and meets of a sorted mask pool from one n-by-n
    key array each, -1 where a join or meet is not in the pool."""
    a = np.array([m[0] for m in masks], dtype=np.int64)
    b = np.array([m[1] for m in masks], dtype=np.int64)
    packed = (a << 32) | b

    def lookup(pa, pb):
        keys = (pa << 32) | pb
        idx = np.clip(np.searchsorted(packed, keys), 0, len(packed) - 1)
        return np.where(packed[idx] == keys, idx, -1)

    leq = ((a[:, None] & ~a[None, :]) == 0) & ((b[None, :] & ~b[:, None]) == 0)
    inverse = lookup(b, a)
    if (inverse < 0).any():
        raise MalformedInput("mask pool is not closed under flips")
    join = lookup(a[:, None] | a[None, :], b[:, None] & b[None, :])
    meet = lookup(a[:, None] & a[None, :], b[:, None] | b[None, :])
    return leq, inverse, join, meet


def ground_of(masks):
    width = max((a | b for a, b in masks), default=0).bit_length()
    return [f"v{i}" for i in range(width)]


def pool_system(pool, cap=10**6):
    """The system of a pool and its flips, all members, in their universe."""
    flipped = set(pool) | {(b, a) for a, b in pool}
    return _universe_from_masks(ground_of(flipped), flipped, cap)


def closed_universe(pool):
    """The law-checked universe of a pool's reference closure, built from
    its order and flips and labelled by its side masks, and the closure.

    Its join, derived from the order, and its De Morgan meet must equal the
    dense mask join and meet, so the closure tests still compare against
    mask arithmetic.
    """
    closed = reference_closure(pool, 10**6)
    leq, inverse, join, meet = dense_tables(closed)
    assert (join >= 0).all() and (meet >= 0).all()
    u = Universe(leq, inverse)
    assert np.array_equal(gen.join_columns(u), join)
    assert np.array_equal(gen.meet_table(u), meet)
    u.set_labels, u.ground = tuple(closed), tuple(ground_of(closed))
    return u, closed


def assert_restricts_closure(u: MaskUniverse) -> None:
    """The pool universe ``u`` is the closure universe restricted to its
    pool, in the closure's order of ids, with -1 exactly where the closed
    join is not a pool element."""
    pool = list(u.set_labels)
    ref, closed = closed_universe(pool)
    at = {m: i for i, m in enumerate(closed)}
    pos = np.array([at[m] for m in pool], dtype=np.intp)
    assert (np.diff(pos) > 0).all()
    # the pool id of each closure id, -1 off the pool
    back = np.full(len(closed), -1)
    back[pos] = np.arange(len(pool))
    assert np.array_equal(u.leq_matrix(), ref.leq_matrix()[np.ix_(pos, pos)])
    assert np.array_equal(u.inverse_table(), back[ref.inverse_table()[pos]])
    n = len(pool)
    # every pair on small pools, about 64 rows per column on large ones
    rows = range(0, n, 1 if n <= 256 else n // 64)
    for s in range(n):
        col = u.join_column(s)
        closed_join = ref.join_column(pos[s])[pos]
        assert col.dtype == np.int32 and not col.flags.writeable
        assert col is u.join_column(s)
        assert np.array_equal(col, back[closed_join])
        assert np.array_equal(col < 0, back[closed_join] < 0)
        for t in rows:
            if col[t] < 0:
                with pytest.raises(MalformedInput, match="outside the universe"):
                    u.join_id(t, s)
            else:
                assert pos[u.join_id(t, s)] == ref.join_id(pos[t], pos[s])
            meet = back[ref.meet_id(pos[t], pos[s])]
            if meet < 0:
                with pytest.raises(MalformedInput, match="outside the universe"):
                    u.meet_id(t, s)
            else:
                assert u.meet_id(t, s) == meet


# shifted by up to 27 bits, masks reach bit 31: A fills the top half of a
# packed 64-bit key
@given(pool=pools(), offset=st.integers(0, 27))
def test_matches_reference(pool, offset):
    # a closed pool: the universe holds every join and meet, and equals
    # the law-checked universe of the same pairs
    closed = reference_closure(_shifted(pool, offset), 10**6)
    u = MaskUniverse(closed, ground_of(closed))
    ref, _ = closed_universe(closed)
    assert np.array_equal(u.leq_matrix(), ref.leq_matrix())
    assert np.array_equal(u.inverse_table(), ref.inverse_table())
    for s in range(len(closed)):
        assert np.array_equal(u.join_column(s), ref.join_column(s))
        assert [u.meet_id(t, s) for t in range(len(closed))] == [
            ref.meet_id(t, s) for t in range(len(closed))
        ]


@given(pool=pools(), offset=st.integers(0, 27), cap=st.integers(0, 250))
def test_cap_matches_reference(pool, offset, cap):
    # the cap bounds the pool with its flips, whatever its closure holds
    pool = _shifted(pool, offset)
    size = len(set(pool) | {(b, a) for a, b in pool})
    if size > cap:
        with pytest.raises(ClosureTooLarge) as exc:
            pool_system(pool, cap)
        assert exc.value.cap == cap
    else:
        assert len(pool_system(pool, cap).universe) == size


@pytest.mark.parametrize("graph,k", [("a b\nb c\n", 2), ("a b\nb c\nc d\nd a\n", 3)])
def test_cap_boundary(graph, k):
    graph = GraphInput.parse(graph)
    pool = set(_graph_separation_masks(graph, k))
    assert len(reference_closure(pool, 10**6)) > len(pool)
    assert len(graph_separations(graph, k, max_closure=len(pool)).universe) == len(pool)
    with pytest.raises(ClosureTooLarge, match=f"cap of {len(pool) - 1} elements"):
        graph_separations(graph, k, max_closure=len(pool) - 1)


def test_chunked_rounds_match_reference(monkeypatch):
    # one row per chunk of the order build
    monkeypatch.setattr("tangleduct.core._CHUNK", 1)
    pool = set(_graph_separation_masks(GraphInput.parse("a b\nb c\nc d\n"), 2))
    assert_restricts_closure(pool_system(pool).universe)


@given(pool=pools(), offset=st.integers(0, 27))
def test_unlabelled_documents_round_trip(pool, offset):
    # the document of a table-built universe holds its order and flips
    # alone; it loads to the same order, flips and join columns, and so
    # does the older format that lists the join and meet triples too
    u, _ = closed_universe(_shifted(pool, offset))
    doc = u.to_json_dict(members=range(len(u)))
    assert sorted(doc) == ["elements", "inverse", "leq", "members"]
    for d in (doc, gen.add_tables(copy.deepcopy(doc))):
        back = system_from_json_dict(d)
        assert back.members == tuple(range(len(u)))
        v = back.universe
        assert np.array_equal(v.leq_matrix(), u.leq_matrix())
        assert np.array_equal(v.inverse_table(), u.inverse_table())
        assert np.array_equal(gen.join_columns(v), gen.join_columns(u))


def assert_scalar_inverse(u):
    """``inv_id`` and ``is_degenerate_id`` answer in Python ``int`` and
    ``bool``, equal to the numpy inverse table, on every id."""
    table = u.inverse_table()
    for i in range(len(u)):
        inv, degenerate = u.inv_id(i), u.is_degenerate_id(i)
        assert type(inv) is int and inv == table[i]
        assert type(degenerate) is bool and degenerate == (table[i] == i)


@pytest.mark.parametrize("name,k", sorted(gen.bench_tk().EXPECTED_KIND))
def test_scalar_inverse_on_the_ladder(name, k):
    assert_scalar_inverse(gen.ladder_system(name, k).universe)


def assert_scalar_order(u):
    """``leq_ids`` and ``lt_ids`` answer in Python ``bool``, equal to the
    order matrix, on every pair of ids."""
    n, leq = len(u), u.leq_matrix()
    got = [[u.leq_ids(a, b) for b in range(n)] for a in range(n)]
    strict = [[u.lt_ids(a, b) for b in range(n)] for a in range(n)]
    assert {type(x) for row in got + strict for x in row} <= {bool}
    assert np.array_equal(np.array(got, dtype=bool).reshape(n, n), leq)
    assert np.array_equal(np.array(strict, dtype=bool).reshape(n, n), leq & ~np.eye(n, dtype=bool))


@pytest.mark.parametrize("name,k", sorted(gen.bench_tk().EXPECTED_KIND))
def test_scalar_order_on_the_ladder(name, k):
    assert_scalar_order(gen.ladder_system(name, k).universe)


def test_scalar_order_on_table_universes():
    # law-checked universes with a join table: closures of ladder pools
    for name, k in (("P3", 3), ("C5", 3), ("P5", 3)):
        assert_scalar_order(closed_universe(gen.ladder_system(name, k).universe.set_labels)[0])


@given(pool=pools(), offset=st.integers(0, 27))
def test_scalar_inverse_on_pools(pool, offset):
    pool = _shifted(pool, offset)
    assert_scalar_inverse(pool_system(pool).universe)
    assert_scalar_inverse(closed_universe(pool)[0])
