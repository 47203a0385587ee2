"""Row-chunked table building and law checks against one-shot references.

``tables_from_masks`` and the universe's antisymmetry and order-reversal
checks work in row chunks of ``core._CHUNK`` cells.  The dense versions
below build or check the whole n-by-n table at once; with the chunk size
cut to one row, or to a row count that does not divide n, both must give
the same tables, or raise the same error with the same message.  The meet
is not built from masks: the universe derives it by De Morgan, and it must
equal the dense mask meet.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import GraphInput, MalformedInput, RunConfig, Universe, run
from tangleduct.backends import _close_under_join_meet, _graph_separation_masks
from tangleduct.cli import _dumps
from tangleduct.core import tables_from_masks
from tangleduct.errors import InternalInvariant, MeetNotInfimum, TangleductError
from test_law_checks import dense_check_bounds

GRID3X3 = (
    "11 12\n12 13\n21 22\n22 23\n31 32\n32 33\n"
    "11 21\n21 31\n12 22\n22 32\n13 23\n23 33\n"
)


def dense_tables(masks):
    """Order, involution, join and meet from one n-by-n key array each."""
    a = np.array([m[0] for m in masks], dtype=np.int64)
    b = np.array([m[1] for m in masks], dtype=np.int64)
    packed = (a << 32) | b

    def lookup(pa, pb, what):
        keys = (pa << 32) | pb
        idx = np.clip(np.searchsorted(packed, keys), 0, len(packed) - 1)
        if not (packed[idx] == keys).all():
            raise MalformedInput(f"mask pool is not closed under {what}")
        return idx

    leq = ((a[:, None] & ~a[None, :]) == 0) & ((b[None, :] & ~b[:, None]) == 0)
    inverse = lookup(b, a, "flips")
    join = lookup(a[:, None] | a[None, :], b[:, None] & b[None, :], "joins")
    meet = lookup(a[:, None] & a[None, :], b[:, None] | b[None, :], "meets")
    return leq, inverse, join, meet


def dense_de_morgan(inv, join, meet):
    lhs = inv[join]
    rhs = meet[np.ix_(inv, inv)]
    bad = lhs != rhs
    if bad.any():
        r, s = (int(x) for x in np.argwhere(bad)[0])
        raise InternalInvariant(
            f"De Morgan failed at ({r}, {s}): inverse of join is"
            f" {int(lhs[r, s])}, meet of inverses is {int(rhs[r, s])}"
        )


def _outcome(call):
    try:
        return call()
    except TangleductError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def chunk_sizes(n):
    """``_CHUNK`` values giving one row per chunk, and the least row count
    of two or more that does not divide n (a short last chunk)."""
    rows = next(r for r in range(2, n + 2) if n % r)
    return [1, rows * n]


def assert_tables_match(masks, monkeypatch):
    expect = dense_tables(masks)
    for size in chunk_sizes(len(masks)):
        monkeypatch.setattr("tangleduct.core._CHUNK", size)
        got = tables_from_masks(masks)
        assert len(got) == 3
        for want, have in zip(expect, got):
            assert np.array_equal(want, have)
        assert got[2].dtype == np.int32
    meet = Universe(*got).meet_table()
    assert meet.dtype == np.int32 and np.array_equal(meet, expect[3])


MASK_POOLS = {
    "cover3": lambda: gen.full_cover_system(3).universe.set_labels,
    "cover4": lambda: gen.full_cover_system(4).universe.set_labels,
    "p4_k2": lambda: gen.graph_system("p4", 2).universe.set_labels,
    "c4_k3": lambda: gen.graph_system("c4", 3).universe.set_labels,
}


@pytest.mark.parametrize("name", sorted(MASK_POOLS))
def test_chunked_tables_match_dense(name, monkeypatch):
    assert_tables_match(list(MASK_POOLS[name]()), monkeypatch)


@given(
    raw=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=5
    )
)
def test_chunked_tables_match_dense_on_random_closed_pools(raw):
    # pools over four points that cover the ground set close within 3^4
    pool = [(a, b | (15 & ~a)) for a, b in raw]
    masks = _close_under_join_meet(pool, 10**6)
    with pytest.MonkeyPatch.context() as mp:
        assert_tables_match(masks, mp)


# flip-closed, but (3, 3) | (1, 3) leaves it under meets from row 0 on
# and (2, 3) | (1, 3) under joins from row 2 on: joins are named first
OPEN_UNDER_JOINS_LATER = [(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)]


@pytest.mark.parametrize(
    "masks, what",
    [
        (OPEN_UNDER_JOINS_LATER, "joins"),
        # without (3, 1), open under flips as well; flips are named first
        ([m for m in OPEN_UNDER_JOINS_LATER if m != (3, 1)], "flips"),
        ([m for m in gen.full_cover_system(3).universe.set_labels if m != (7, 0)],
         "flips"),
    ],
)
def test_open_pool_messages_match_dense(masks, what, monkeypatch):
    expect = _outcome(lambda: dense_tables(masks))
    assert expect[:2] == (MalformedInput, f"mask pool is not closed under {what}")
    for size in chunk_sizes(len(masks)):
        monkeypatch.setattr("tangleduct.core._CHUNK", size)
        assert _outcome(lambda: tables_from_masks(masks)) == expect


def _build(*tables):
    def build():
        Universe(*tables)

    return _outcome(build)


def _wrong_meets(name):
    """The universe, and its meet table with one in-range entry moved off
    (late, middle and last rows) plus the dense reference's verdict on it."""
    u = gen.full_cover_system(int(name[-1])).universe
    inv, join = u.inverse_table(), u.join_table()
    n = len(u)
    for r, s in [(n - 1, 0), (n // 2, n - 2), (n - 1, n - 1)]:
        meet = u.meet_table().copy()
        meet[inv[r], inv[s]] = (meet[inv[r], inv[s]] + 1) % n
        expect = _outcome(lambda: dense_de_morgan(inv, join, meet))
        assert expect[0] is InternalInvariant and f"at ({r}, {s})" in expect[1]
        expect = _outcome(lambda: dense_check_bounds(u.leq_matrix(), join, meet))
        assert expect[0] is MeetNotInfimum
        yield u, meet, expect


@pytest.mark.parametrize("name", ["cover3", "cover4"])
def test_wrong_supplied_meet_rejected(name):
    for u, meet, expect in _wrong_meets(name):
        tables = (u.leq_matrix(), u.inverse_table(), u.join_table(), meet)
        assert _build(*tables) == expect


def test_validate_rejects_a_wrong_meet(tmp_path, capsys):
    for u, meet, expect in _wrong_meets("cover3"):
        # without set labels, the document carries join and meet triples
        doc = Universe(u.leq_matrix(), u.inverse_table(), u.join_table()).to_json_dict()
        doc["meet"] = [[r, s, int(meet[r, s])] for r, s, _ in doc["meet"]]
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        assert run(RunConfig("validate", str(path))) == 1
        assert capsys.readouterr().err == f"error: {expect[1]}\n"


@given(
    name=st.sampled_from(["cover3", "p4_k2"]),
    flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=3),
)
def test_chunked_order_checks_match_one_chunk(name, flips):
    # antisymmetry and order reversal run in row chunks: corrupt the order
    # and compare whole-constructor outcomes against a single chunk
    u = {"cover3": gen.full_cover_system(3), "p4_k2": gen.graph_system("p4", 2)}[
        name
    ].universe
    n = len(u)
    leq = u.leq_matrix().copy()
    for a, b in flips:
        leq[a % n, b % n] = not leq[a % n, b % n]
    tables = (leq, u.inverse_table(), u.join_table(), u.meet_table())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("tangleduct.core._CHUNK", 1 << 30)
        expect = _build(*tables)
        for size in chunk_sizes(n):
            mp.setattr("tangleduct.core._CHUNK", size)
            assert _build(*tables) == expect


def test_grid_universe_builds_in_bounded_memory():
    # the 1023-element universe keeps about 5.2 MB of tables (n² bytes of
    # order, 4n² of int32 join) and peaks at 7.6 MiB while it is built; a
    # stored meet table adds 4 MiB, a one-shot int64 build about 50 MB
    graph = GraphInput.parse(GRID3X3)
    masks = _close_under_join_meet(set(_graph_separation_masks(graph, 2)), 4096)
    assert len(masks) == 1023
    tracemalloc.start()
    try:
        tables = tables_from_masks(masks)
        universe = Universe(*tables, set_labels=masks, ground=graph.vertices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(universe) == 1023
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# sha256 of the graph-sk documents as written before the tables were chunked,
# when set-labelled documents still listed the order as ``leq`` pairs
GRID_DOCUMENT_SHA256 = {
    2: "08702e55d83457f02d28fd38629b15666e32dab6fdbb34f76b3fb2f0dcd7a94c",
    4: "ad734d6a7f736baafe34705fed4e025dee1e0ab5f683abff84b83f74132c4322",
}

# sha256 of the same graph-sk documents as written now, without ``leq``
GRID_LABEL_DOCUMENT_SHA256 = {
    2: "de926917c323d8b85f07e4a3b88d27940fe180d0011c21bcb0f881e2b0c6b6d0",
    4: "5469ba8f0c1c6b33e085e55be9b250a9b552063d2b6cdd8a18ff7ea4b67e5dae",
}


@pytest.fixture(scope="module", params=sorted(GRID_DOCUMENT_SHA256))
def grid_document(request, tmp_path_factory):
    """``(k, bytes)`` of the graph-sk document of the 3×3 grid at k."""
    k = request.param
    tmp = tmp_path_factory.mktemp(f"grid{k}")
    graph = tmp / "grid3x3.txt"
    graph.write_text(GRID3X3)
    out = tmp / "system.json"
    assert run(RunConfig("graph-sk", str(graph), k=k, max_closure=4096,
                         output_path=str(out))) == 0
    return k, out.read_bytes()


def test_grid_documents_unchanged(grid_document):
    # the document with its order pairs added back, as the CLI writes JSON
    k, text = grid_document
    doc = json.loads(text)
    gen.add_leq(doc["system"])
    old = (_dumps(doc) + "\n").encode()
    assert hashlib.sha256(old).hexdigest() == GRID_DOCUMENT_SHA256[k]


def test_grid_label_documents_unchanged(grid_document):
    k, text = grid_document
    assert b'"leq"' not in text
    assert hashlib.sha256(text).hexdigest() == GRID_LABEL_DOCUMENT_SHA256[k]
