"""The join/meet closure from join-irreducibles against the pairwise reference loop."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import GraphInput
from tangleduct.backends import (
    _close_under_join_meet,
    _graph_separation_masks,
    _join_irreducibles,
)
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


def _outcome(close, pool, cap):
    try:
        return close(pool, cap)
    except ClosureTooLarge as exc:
        return ("too large", exc.cap)


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


# shifted by up to 27 bits, masks reach bit 31: A fills the top half of a
# packed 64-bit key
@given(pool=pools(), offset=st.integers(0, 27))
def test_matches_reference(pool, offset):
    pool = _shifted(pool, offset)
    got = _close_under_join_meet(pool, 10**6)
    assert got == reference_closure(pool, 10**6)
    assert all(type(x) is int for pair in got for x in pair)


@given(pool=pools(), offset=st.integers(0, 27), cap=st.integers(0, 250))
def test_cap_matches_reference(pool, offset, cap):
    pool = _shifted(pool, offset)
    assert _outcome(_close_under_join_meet, pool, cap) == _outcome(
        reference_closure, pool, cap
    )


@given(pool=pools(), offset=st.integers(0, 27))
def test_join_irreducibles_are_few_and_generate_the_closure(pool, offset):
    pool = _shifted(pool, offset)
    flipped = pool + [(b, a) for a, b in pool]
    keys = np.array(sorted({a << 32 | b for a, b in flipped}), dtype=np.uint64)
    width = max(a | b for a, b in pool).bit_length()
    irreducibles = [(k >> 32, k & (1 << 32) - 1) for k in _join_irreducibles(keys).tolist()]
    assert len(irreducibles) <= 2 * width + 1
    # every closure element is one of them or a join of some of them
    closed = reference_closure(pool, 10**6)
    assert set(irreducibles) <= set(closed)
    joins = set(irreducibles)
    for c, d in irreducibles:
        joins |= {(a | c, b & d) for a, b in joins}
    assert joins == set(closed)


def _closed_masks():
    return gen.full_cover_system(3).universe.set_labels


def test_closed_pool_larger_than_cap_passes():
    pool = _closed_masks()
    assert _close_under_join_meet(pool, 5) == sorted(pool)


@pytest.mark.parametrize("graph,k", [("a b\nb c\n", 2), ("a b\nb c\nc d\nd a\n", 3)])
def test_cap_boundary(graph, k):
    pool = set(_graph_separation_masks(GraphInput.parse(graph), k))
    closed = _close_under_join_meet(pool, 10**6)
    assert len(closed) > len(pool)
    assert _close_under_join_meet(pool, len(closed)) == closed
    with pytest.raises(ClosureTooLarge):
        _close_under_join_meet(pool, len(closed) - 1)


def test_chunked_rounds_match_reference(monkeypatch):
    # one frontier row per chunk, so every round runs through many chunks
    monkeypatch.setattr("tangleduct.backends._CHUNK", 1)
    pool = set(_graph_separation_masks(GraphInput.parse("a b\nb c\nc d\n"), 2))
    assert _close_under_join_meet(pool, 10**6) == reference_closure(pool, 10**6)
