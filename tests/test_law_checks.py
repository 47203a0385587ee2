"""The packed-row universe law checks against the dense reference checks.

``Universe`` checks transitivity and, for join and meet tables supplied
from outside, the join and meet bound laws on rows of the order matrix
packed into 64-bit words, every row in full.  The dense versions below are
the reference.  On every corrupted table both must pass, or raise the same
error class with the same message and witness.  A join derived from the
order alone must equal a pair-by-pair lookup of each common up-row, or
fail at the same first pair.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import Universe
from tangleduct.core import _pack_rows
from tangleduct.errors import (
    JoinNotSupremum,
    MeetNotInfimum,
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


def dense_check_bounds(rel: np.ndarray, join: np.ndarray, meet: np.ndarray) -> None:
    n = len(rel)
    for r in range(n):
        expect = rel[r][None, :] & rel
        got = rel[join[r]]
        bad = expect != got
        if bad.any():
            s, t = (int(x) for x in np.argwhere(bad)[0])
            raise JoinNotSupremum(r, s, t)
        if meet is None:
            continue
        expect = rel[:, r][:, None] & rel
        got = rel[:, meet[r]]
        bad = expect != got
        if bad.any():
            t, s = (int(x) for x in np.argwhere(bad)[0])
            raise MeetNotInfimum(r, s, t)


def _outcome(check) -> object:
    try:
        check()
    except TangleductError as exc:
        return type(exc), str(exc), exc.witness
    return None


def packed_outcome(leq, join, meet):
    u = Universe.__new__(Universe)
    u._leq = leq
    up = _pack_rows(leq)

    def check():
        u._check_order(up)
        u._check_bounds(up, join, meet)

    return _outcome(check)


def dense_outcome(leq, join, meet):
    def check():
        dense_check_order(leq)
        dense_check_bounds(leq, join, meet)

    return _outcome(check)


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
    return u.leq_matrix().copy(), gen.join_columns(u), gen.meet_table(u)


def assert_same(leq, join, meet):
    expect = dense_outcome(leq, join, meet)
    assert packed_outcome(leq, join, meet) == expect
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
    assert assert_same(*tables(name)) is None


def test_every_single_corruption_of_cover2():
    leq, join, meet = tables("cover2")
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
            record(assert_same(bad, join, meet))
            for v in range(n):
                if v != join[a, b]:
                    wrong = join.copy()
                    wrong[a, b] = v
                    record(assert_same(leq, wrong, meet))
                if v != meet[a, b]:
                    wrong = meet.copy()
                    wrong[a, b] = v
                    record(assert_same(leq, join, wrong))
    # reflexivity, antisymmetry, transitivity, join and meet all fail somewhere
    assert kinds >= {
        (NotAPartialOrder, 1),
        (NotAPartialOrder, 2),
        (NotAPartialOrder, 3),
        (JoinNotSupremum, 3),
        (MeetNotInfimum, 3),
    }


def test_transitivity_gap_in_second_word():
    # dropping a <= c while some a < b < c remains leaves exactly one gap,
    # at column c >= 64, which only the second packed word holds
    leq, join, meet = tables("cover4")
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
        cls, _, witness = assert_same(bad, join, meet)
        assert cls is NotAPartialOrder and (witness[0], witness[2]) == (a, c)


@given(
    name=st.sampled_from(sorted(UNIVERSES)),
    table=st.sampled_from(["leq", "join", "meet"]),
    data=st.data(),
)
def test_one_corrupted_entry(name, table, data):
    leq, join, meet = tables(name)
    n = len(leq)
    a = data.draw(st.integers(0, n - 1), label="a")
    b = data.draw(st.integers(0, n - 1), label="b")
    if table == "leq":
        leq[a, b] = not leq[a, b]
    else:
        target = join if table == "join" else meet
        target[a, b] = data.draw(st.integers(0, n - 1), label="value")
    assert_same(leq, join, meet)
    # and with the join alone
    assert_same(leq, join, None)


def symmetric_corruptions(join, a, b):
    """The join with ``join[a, b]`` and ``join[b, a]`` both moved to each
    other value: still symmetric, so the first failing row is the lesser
    of ``a`` and ``b``."""
    for v in range(len(join)):
        if v != join[a, b]:
            wrong = join.copy()
            wrong[a, b] = wrong[b, a] = v
            yield wrong


def test_every_symmetric_join_corruption_of_cover2():
    leq, join, meet = tables("cover2")
    n = len(leq)
    failures = 0
    for a in range(n):
        for b in range(a, n):
            for wrong in symmetric_corruptions(join, a, b):
                assert np.array_equal(wrong, wrong.T)
                outcome = assert_same(leq, wrong, None)
                assert outcome is not None and outcome[0] is JoinNotSupremum
                assert assert_same(leq, wrong, meet) == outcome
                failures += 1
    assert failures == n * (n + 1) // 2 * (n - 1)


@given(name=st.sampled_from(sorted(UNIVERSES)), data=st.data())
def test_one_symmetric_join_corruption(name, data):
    leq, join, meet = tables(name)
    n = len(leq)
    a = data.draw(st.integers(0, n - 1), label="a")
    b = data.draw(st.integers(0, n - 1), label="b")
    v = data.draw(st.integers(0, n - 1), label="value")
    join[a, b] = join[b, a] = v
    outcome = assert_same(leq, join, None)
    assert assert_same(leq, join, meet) == outcome


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
                raise JoinNotSupremum(r, s, -1)
            table[r, s] = j
    return table


def derived_outcome(leq, inverse):
    def check():
        return gen.join_columns(Universe(leq, inverse))

    return _outcome(check)


@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_derived_join_of_closed_universes(name):
    leq, join, _ = tables(name)
    u = Universe(leq, UNIVERSES[name]().inverse_table())
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
