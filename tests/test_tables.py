"""Row-chunked order building and law checks against one-shot references.

A ``MaskUniverse`` builds its order in row chunks of ``core._CHUNK``
cells, and the universe's antisymmetry and order-reversal checks work in
such chunks too.  The dense versions below build or check the whole n-by-n
table at once; with the chunk size cut to one row, or to a row count that
does not divide n, both must give the same tables, or raise the same error
with the same message.  The mask universe keeps no join or meet table: its
join columns must equal the dense mask join, -1 where the pool lacks a
join, and the meets derived from them by De Morgan the dense mask meet.
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
from tangleduct import graph_separations
from tangleduct.cli import _dumps
from tangleduct.core import MaskUniverse
from tangleduct.errors import InternalInvariant, TangleductError
from test_closure import closed_universe, dense_tables, ground_of, reference_closure
from test_law_checks import dense_check_bounds, read_tables

GRID3X3 = (
    "11 12\n12 13\n21 22\n22 23\n31 32\n32 33\n"
    "11 21\n21 31\n12 22\n22 32\n13 23\n23 33\n"
)
GRID4X4 = "".join(
    f"{r}{c} {r}{c + 1}\n{c}{r} {c + 1}{r}\n" for r in range(1, 5) for c in range(1, 4)
)


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


def mask_tables(masks):
    """Order, flips, every join column and the meets they give by De
    Morgan, of the mask universe of ``masks``."""
    u = MaskUniverse(masks, ground_of(masks))
    inv = u.inverse_table()
    join = gen.join_columns(u)
    assert join.dtype == np.int32
    flipped = join[np.ix_(inv, inv)]
    meet = np.where(flipped < 0, -1, inv[flipped])
    return u.leq_matrix(), inv, join, meet


def assert_tables_match(masks, monkeypatch):
    expect = dense_tables(masks)
    for size in chunk_sizes(len(masks)):
        monkeypatch.setattr("tangleduct.core._CHUNK", size)
        got = mask_tables(masks)
        for want, have in zip(expect, got):
            assert np.array_equal(want, have)


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
    masks = reference_closure(pool, 10**6)
    with pytest.MonkeyPatch.context() as mp:
        assert_tables_match(masks, mp)


# flip-closed, but open under joins, as (3, 2) | (3, 1) = (3, 0), and under
# meets, as (1, 3) & (2, 3) = (0, 3)
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
    if what == "flips":
        assert expect[:2] == (MalformedInput, "mask pool is not closed under flips")
    for size in chunk_sizes(len(masks)):
        monkeypatch.setattr("tangleduct.core._CHUNK", size)
        if what == "flips":
            assert _outcome(lambda: MaskUniverse(masks, ground_of(masks))) == expect
            continue
        # a pool open under joins builds, and the joins it lacks read -1;
        # join_id names the least such pair
        for want, have in zip(expect, mask_tables(masks)):
            assert np.array_equal(want, have)
        u = MaskUniverse(masks, ground_of(masks))
        r, s = (int(x) for x in np.argwhere(expect[2] < 0)[0])
        assert (r, s) == (2, 3)
        assert _outcome(lambda: u.join_id(r, s)) == (
            MalformedInput, "the join of 2 and 3 lies outside the universe", None
        )


def _build(*tables):
    def build():
        Universe(*tables)

    return _outcome(build)


def _wrong_meets(name):
    """The universe, and its meet table with one in-range entry moved off
    (late, middle and last rows), plus the reader's message naming the pair
    where the dense bound laws fail."""
    u, _ = closed_universe(gen.full_cover_system(int(name[-1])).universe.set_labels)
    inv, join = u.inverse_table(), gen.join_columns(u)
    n = len(u)
    for r, s in [(n - 1, 0), (n // 2, n - 2), (n - 1, n - 1)]:
        meet = gen.meet_table(u)
        meet[inv[r], inv[s]] = (meet[inv[r], inv[s]] + 1) % n
        expect = _outcome(lambda: dense_de_morgan(inv, join, meet))
        assert expect[0] is InternalInvariant and f"at ({r}, {s})" in expect[1]
        a, b = int(inv[r]), int(inv[s])
        assert dense_check_bounds(u.leq_matrix(), join, meet) == ("meet", a, b)
        yield u, meet, f"'meet' disagrees with the order at ({a}, {b})"


@pytest.mark.parametrize("name", ["cover3", "cover4"])
def test_wrong_supplied_meet_rejected(name):
    for u, meet, expect in _wrong_meets(name):
        tables = (u.leq_matrix(), u.inverse_table(), gen.join_columns(u), meet)
        assert read_tables(*tables) == expect


def test_validate_rejects_a_wrong_meet(tmp_path, capsys):
    for u, meet, expect in _wrong_meets("cover3"):
        # an unlabelled document in the older format, with join and meet triples
        doc = gen.add_tables(Universe(u.leq_matrix(), u.inverse_table()).to_json_dict())
        doc["meet"] = [[r, s, int(meet[r, s])] for r, s, _ in doc["meet"]]
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        assert run(RunConfig("validate", str(path))) == 1
        assert capsys.readouterr().err == f"error: {expect}\n"


@given(
    name=st.sampled_from(["cover3", "p4_k2"]),
    flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=3),
)
def test_chunked_order_checks_match_one_chunk(name, flips):
    # antisymmetry and order reversal run in row chunks: corrupt the order
    # and compare whole-constructor outcomes against a single chunk
    pool = {"cover3": gen.full_cover_system(3), "p4_k2": gen.graph_system("p4", 2)}[
        name
    ].universe.set_labels
    u, _ = closed_universe(pool)
    n = len(u)
    leq = u.leq_matrix().copy()
    for a, b in flips:
        leq[a % n, b % n] = not leq[a % n, b % n]
    tables = (leq, u.inverse_table())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("tangleduct.core._CHUNK", 1 << 30)
        expect = _build(*tables)
        for size in chunk_sizes(n):
            mp.setattr("tangleduct.core._CHUNK", size)
            assert _build(*tables) == expect


def test_grid_universe_builds_in_bounded_memory():
    # the 4x4 grid at k=4: a universe of its 1546 members keeps their
    # 2.4 MB order matrix, built in chunks of about 64 KB; the join/meet
    # closure of the same members has more than 209,871 elements (already
    # at k=3), whose order would take over 41 GiB
    graph = GraphInput.parse(GRID4X4)
    tracemalloc.start()
    try:
        system = graph_separations(graph, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(system.universe)
    assert n == len(system) == 1546
    assert peak < 2 * n * n, f"peak {peak / 2**20:.1f} MiB"


# sha256 of the graph-sk documents of the 3x3 grid keyed by labels: the
# ground list and the sorted (A, B) name-list pairs of the members
# (:func:`document_labels`), computed before the universe was cut down to
# the members; they survive a renumbering of the element ids and the
# elements a document lists besides its members
GRID_DOCUMENT_LABEL_SHA256 = {
    2: "ba338bcb5533770475fcd2a65173f7b3fafee8c1a508f1f462f982c5e8b99ce7",
    4: "6b3b736d12b27433f3de6a715f7aa6052635cad03369b3ac3237c5231b0db41b",
}


def document_labels(doc) -> bytes:
    """The ground list and the sorted member labels of a system document."""
    labels = doc["labels"]
    members = sorted(labels[m] for m in doc["members"])
    return (_dumps({"ground": doc["ground"], "members": members}) + "\n").encode()


@pytest.fixture(scope="module", params=sorted(GRID_DOCUMENT_LABEL_SHA256))
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


def test_grid_label_documents_unchanged(grid_document):
    k, text = grid_document
    assert b'"leq"' not in text
    doc = json.loads(text)["system"]
    # the document lists the members alone
    assert doc["members"] == doc["elements"] == list(range(len(doc["labels"])))
    labels = document_labels(doc)
    assert hashlib.sha256(labels).hexdigest() == GRID_DOCUMENT_LABEL_SHA256[k]
