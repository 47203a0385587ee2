"""The universe's packed transitivity check against the dense reference,
and the reader's join and meet comparison against the dense bound laws.

``Universe`` checks transitivity on rows of the order matrix packed into
64-bit words, every row in full.  The dense version below is the
reference: on every corrupted order both must pass, or raise the same
error class with the same message and witness.

The reader compares a join or meet table a document supplies with the
universe's derived join and its De Morgan meet.  The dense bound laws
below are the reference: a document with corrupted join or meet triples
must be rejected exactly when they find a join that is not the least
upper bound or a meet that is not the greatest lower bound, at the same
pair.  A join derived from the order alone must equal a pair-by-pair
lookup of each common up-row, or fail at the same first pair.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import Universe, system_from_json_dict
from tangleduct.core import _pack_rows
from tangleduct.errors import (
    JoinNotSupremum,
    MalformedInput,
    NotAPartialOrder,
    TangleductError,
)
from test_closure import closed_universe


def dense_check_order(rel: np.ndarray) -> None:
    n = len(rel)
    if n == 0:
        return
    diag = rel[np.diag_indices(n)]
    if not diag.all():
        i = int(np.flatnonzero(~diag)[0])
        raise NotAPartialOrder(f"not reflexive at {i}", witness=i)
    sym = rel & rel.T
    sym[np.diag_indices(n)] = False
    if sym.any():
        a, b = (int(x) for x in np.argwhere(sym)[0])
        raise NotAPartialOrder(f"not antisymmetric at ({a}, {b})", witness=(a, b))
    closure = (rel.astype(np.uint8) @ rel.astype(np.uint8)) > 0
    gap = closure & ~rel
    if gap.any():
        a, c = (int(x) for x in np.argwhere(gap)[0])
        b = int(np.flatnonzero(rel[a] & rel[:, c])[0])
        raise NotAPartialOrder(
            f"not transitive: {a} <= {b} <= {c} but not {a} <= {c}",
            witness=(a, b, c),
        )


def dense_check_bounds(rel: np.ndarray, join: np.ndarray, meet) -> object:
    """The first failing pair of the dense bound laws, or None.

    Rows ``r`` are scanned in ascending order, the join row before the meet
    row.  ``join(r, s)`` is the least upper bound iff its up-row is the
    common up-row of ``r`` and ``s``, and ``meet(r, s)`` the greatest lower
    bound iff its down-row is their common down-row.  A failure is
    ``("join", r, s)`` or ``("meet", r, s)``; ``meet`` may be None.
    """
    for r in range(len(rel)):
        bad = (rel[r][None, :] & rel) != rel[join[r]]  # [s, t]
        if bad.any():
            return "join", r, int(np.argwhere(bad)[0][0])
        if meet is not None:
            bad = (rel[:, r][:, None] & rel) != rel[:, meet[r]]  # [t, s]
            if bad.any():
                return "meet", r, int(np.argwhere(bad)[0][1])
    return None


def _outcome(check) -> object:
    try:
        check()
    except TangleductError as exc:
        return type(exc), str(exc), exc.witness
    return None


def packed_outcome(leq):
    return _outcome(lambda: Universe._check_order(leq, _pack_rows(leq)))


def dense_outcome(leq):
    return _outcome(lambda: dense_check_order(leq))


def _closed(system) -> Universe:
    """The table-built universe of the join/meet closure of a system's pool."""
    return closed_universe(system.universe.set_labels)[0]


UNIVERSES = {
    "cover2": lambda: _closed(gen.full_cover_system(2)),
    "cover3": lambda: _closed(gen.full_cover_system(3)),
    "cover4": lambda: _closed(gen.full_cover_system(4)),  # 81 ids: two words a row
    "p3_k2": lambda: _closed(gen.graph_system("p3", 2)),  # 17 ids
}


def tables(name: str):
    u = UNIVERSES[name]()
    return u.leq_matrix().copy(), u.inverse_table(), gen.join_columns(u), gen.meet_table(u)


def assert_same(leq):
    expect = dense_outcome(leq)
    assert packed_outcome(leq) == expect
    return expect


def _triples(table) -> list:
    return [[r, s, int(v)] for (r, s), v in np.ndenumerate(table)]


def read_tables(leq, inverse, join, meet):
    """The reader's verdict on the older-format document of these tables:
    None when it loads, else its error message.  ``meet`` may be None."""
    doc = {
        "elements": list(range(len(leq))),
        "inverse": {str(i): int(v) for i, v in enumerate(inverse)},
        "leq": np.argwhere(leq).tolist(),
        "join": _triples(join),
    }
    if meet is not None:
        doc["meet"] = _triples(meet)
    try:
        system_from_json_dict(doc)
    except MalformedInput as exc:
        return str(exc)
    return None


def assert_one_entry(leq, inverse, join, meet, what, a, b):
    """With entry ``(a, b)`` of the join or meet alone moved, the reader
    rejects the document exactly when the dense bound laws do, and both
    name the pair ``(a, b)``; returns the dense verdict."""
    expect = dense_check_bounds(leq, join, meet)
    got = read_tables(leq, inverse, join, meet)
    if expect is None:
        assert got is None
    else:
        assert expect == (what, a, b)
        assert got == f"'{what}' disagrees with the order at ({a}, {b})"
    return expect


@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_pack_rows_round_trips(name):
    leq = tables(name)[0]
    n = len(leq)
    packed = _pack_rows(leq)
    assert packed.dtype == np.uint64 and packed.shape == (n, -(-n // 64))
    raw = packed.view(np.uint8)[:, : -(-n // 8)]
    assert np.array_equal(np.unpackbits(raw, axis=1, count=n).astype(bool), leq)


@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_intact_tables_pass(name):
    leq, inverse, join, meet = tables(name)
    assert assert_same(leq) is None
    assert dense_check_bounds(leq, join, meet) is None
    assert read_tables(leq, inverse, join, meet) is None


def test_every_single_corruption_of_cover2():
    leq, inverse, join, meet = tables("cover2")
    n = len(leq)
    kinds = set()

    def record(outcome):
        if outcome is not None:
            cls, _, witness = outcome
            kinds.add((cls, len(witness) if isinstance(witness, tuple) else 1))

    for a in range(n):
        for b in range(n):
            bad = leq.copy()
            bad[a, b] = not bad[a, b]
            record(assert_same(bad))
            for v in range(n):
                if v != join[a, b]:
                    wrong = join.copy()
                    wrong[a, b] = v
                    kinds.add(assert_one_entry(leq, inverse, wrong, meet, "join", a, b)[0])
                if v != meet[a, b]:
                    wrong = meet.copy()
                    wrong[a, b] = v
                    kinds.add(assert_one_entry(leq, inverse, join, wrong, "meet", a, b)[0])
    # reflexivity, antisymmetry and transitivity fail somewhere, and every
    # moved join or meet entry is rejected
    assert kinds == {
        (NotAPartialOrder, 1),
        (NotAPartialOrder, 2),
        (NotAPartialOrder, 3),
        "join",
        "meet",
    }


def test_transitivity_gap_in_second_word():
    # dropping a <= c while some a < b < c remains leaves exactly one gap,
    # at column c >= 64, which only the second packed word holds
    leq = tables("cover4")[0]
    n = len(leq)
    gaps = [
        (a, c)
        for a in range(n)
        for c in range(64, n)
        if a != c and leq[a, c] and (leq[a] & leq[:, c]).sum() > 2
    ]
    assert gaps
    for a, c in gaps[:10]:
        bad = leq.copy()
        bad[a, c] = False
        cls, _, witness = assert_same(bad)
        assert cls is NotAPartialOrder and (witness[0], witness[2]) == (a, c)


@given(
    name=st.sampled_from(sorted(UNIVERSES)),
    table=st.sampled_from(["leq", "join", "meet"]),
    data=st.data(),
)
def test_one_corrupted_entry(name, table, data):
    leq, inverse, join, meet = tables(name)
    n = len(leq)
    a = data.draw(st.integers(0, n - 1), label="a")
    b = data.draw(st.integers(0, n - 1), label="b")
    if table == "leq":
        leq[a, b] = not leq[a, b]
        assert_same(leq)
        return
    target = join if table == "join" else meet
    target[a, b] = data.draw(st.integers(0, n - 1), label="value")
    assert_one_entry(leq, inverse, join, meet, table, a, b)
    # and with the join alone
    assert_one_entry(leq, inverse, join, None, table, a, b)


def symmetric_corruptions(join, a, b):
    """The join with ``join[a, b]`` and ``join[b, a]`` both moved to each
    other value: still symmetric, so the dense laws fail first in row
    ``min(a, b)`` and the reader first in column ``min(a, b)``."""
    for v in range(len(join)):
        if v != join[a, b]:
            wrong = join.copy()
            wrong[a, b] = wrong[b, a] = v
            yield wrong


def assert_symmetric_pair(leq, inverse, join, meet, a, b):
    """A symmetric join corrupted at ``a <= b``: the dense laws name
    ``(a, b)``, the reader, which scans columns, ``(b, a)``, with the meet
    or without it; returns the dense verdict."""
    expect = dense_check_bounds(leq, join, meet)
    got = read_tables(leq, inverse, join, meet)
    if expect is None:
        assert got is None
    else:
        assert expect == ("join", a, b)
        assert got == f"'join' disagrees with the order at ({b}, {a})"
    assert dense_check_bounds(leq, join, None) == expect
    assert read_tables(leq, inverse, join, None) == got
    return expect


def test_every_symmetric_join_corruption_of_cover2():
    leq, inverse, join, meet = tables("cover2")
    n = len(leq)
    failures = 0
    for a in range(n):
        for b in range(a, n):
            for wrong in symmetric_corruptions(join, a, b):
                assert np.array_equal(wrong, wrong.T)
                assert assert_symmetric_pair(leq, inverse, wrong, meet, a, b) is not None
                failures += 1
    assert failures == n * (n + 1) // 2 * (n - 1)


@given(name=st.sampled_from(sorted(UNIVERSES)), data=st.data())
def test_one_symmetric_join_corruption(name, data):
    leq, inverse, join, meet = tables(name)
    n = len(leq)
    a = data.draw(st.integers(0, n - 1), label="a")
    b = data.draw(st.integers(a, n - 1), label="b")
    v = data.draw(st.integers(0, n - 1), label="value")
    join[a, b] = join[b, a] = v
    assert_symmetric_pair(leq, inverse, join, meet, a, b)


def dict_derived_join(leq: np.ndarray) -> np.ndarray:
    """The join from the order, pair by pair: the id whose up-row is the
    common up-row, found in a dict of the up-rows; the first pair in
    row-major order without one raises."""
    n = len(leq)
    ids = {row.tobytes(): i for i, row in enumerate(leq)}
    table = np.empty((n, n), dtype=np.int32)
    for r in range(n):
        for s in range(n):
            j = ids.get((leq[r] & leq[s]).tobytes(), -1)
            if j < 0:
                raise JoinNotSupremum(r, s)
            table[r, s] = j
    return table


def derived_outcome(leq, inverse):
    def check():
        return gen.join_columns(Universe(leq, inverse))

    return _outcome(check)


@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_derived_join_of_closed_universes(name):
    leq, inverse, join, _ = tables(name)
    u = Universe(leq, inverse)
    assert np.array_equal(gen.join_columns(u), join)
    assert np.array_equal(dict_derived_join(leq), join)


@given(st.randoms(use_true_random=False))
def test_derived_join_on_random_orders(rng):
    """A random poset P, its opposite P* and a bottom and top: the
    involution swaps each element of P with its copy in P* and the bottom
    with the top, reversing the order, so the universe is valid, and has a
    join exactly when every pair of P has a least upper bound in P or at
    the top."""
    m = rng.randint(1, 7)
    p = np.eye(m, dtype=bool)
    for a in range(m):
        for b in range(a + 1, m):
            p[a, b] = rng.random() < 0.35
    for c in range(m):  # transitive closure
        p |= p[:, [c]] & p[[c], :]
    n = 2 * m + 2
    bottom, top = 2 * m, 2 * m + 1
    leq = np.eye(n, dtype=bool)
    leq[:m, :m] = p
    leq[m : 2 * m, m : 2 * m] = p.T
    leq[bottom, :] = True
    leq[:, top] = True
    inverse = [*range(m, 2 * m), *range(m), top, bottom]
    want = _outcome(lambda: dict_derived_join(leq))
    got = derived_outcome(leq, inverse)
    if want is None:
        assert got is None
        assert np.array_equal(gen.join_columns(Universe(leq, inverse)), dict_derived_join(leq))
    else:
        assert got == want
