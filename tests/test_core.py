"""Universe axioms, triviality, consistency predicates, and JSON round trips."""

import gc
import operator
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import (
    GraphInput,
    MalformedInput,
    OrientedSep,
    SeparationSystem,
    Universe,
    find_inconsistency,
    graph_separations,
    is_consistent,
    is_orientation,
    is_star,
    system_from_json_dict,
    system_to_json_dict,
)
from tangleduct.core import MaskUniverse
from test_closure import reference_closure
from tangleduct.errors import (
    InvolutionNotOrderReversing,
    JoinNotSupremum,
    NotAPartialOrder,
    NotInvolution,
)


def singleton_universe():
    """One self-inverse element: the smallest valid universe."""
    leq = np.array([[True]])
    return Universe(leq, [0])


def chain_universe():
    """A bounded chain pair: ⊥ < a < b < ⊤ alongside ⊥ < b* < a* < ⊤.

    The constructor derives the join from the order; the meet follows by
    De Morgan.
    """
    # ids: 0=⊥, 1=a, 2=b, 3=b*, 4=a*, 5=⊤; inv swaps 0↔5, 1↔4, 2↔3
    leq = np.zeros((6, 6), dtype=bool)
    for i in range(6):
        leq[i, i] = True
        leq[0, i] = True
        leq[i, 5] = True
    leq[1, 2] = True
    leq[3, 4] = True
    return Universe(leq, [5, 4, 3, 2, 1, 0])


class TestUniverseAxioms:
    def test_singleton_is_degenerate(self):
        u = singleton_universe()
        assert u.is_degenerate_id(0)
        assert SeparationSystem(u, [0]).degenerate_ids == frozenset({0})

    def test_chain_universe_orders(self):
        u = chain_universe()
        assert u.leq_ids(1, 2) and u.leq_ids(3, 4)
        assert not u.leq_ids(2, 1)
        assert u.inv_id(1) == 4 and u.inv_id(0) == 5
        # derived bounds: sup of the two chains is the top
        assert u.join_id(1, 3) == 5 or u.join_id(1, 3) == u.join_id(3, 1)
        assert u.join_id(1, 4) == 5 and u.meet_id(1, 4) == 0

    def test_involution_must_reverse_order(self):
        leq = np.zeros((4, 4), dtype=bool)
        np.fill_diagonal(leq, True)
        leq[0, 1] = True
        leq[2, 3] = True  # wrong direction for the inverses
        with pytest.raises(InvolutionNotOrderReversing):
            Universe(leq, [2, 3, 0, 1])

    def test_non_involution_rejected(self):
        leq = np.eye(3, dtype=bool)
        with pytest.raises(NotInvolution):
            Universe(leq, [1, 2, 0])

    def test_order_must_be_antisymmetric(self):
        leq = np.ones((2, 2), dtype=bool)
        with pytest.raises(NotAPartialOrder):
            Universe(leq, [1, 0])

    def test_order_must_be_square(self):
        with pytest.raises(MalformedInput, match="^leq must be a square matrix$"):
            Universe(np.eye(2, 3, dtype=bool), [0, 1])

    @pytest.mark.parametrize("inverse", [[1, 2], [-1, 0]])
    def test_inverse_must_stay_in_range(self, inverse):
        with pytest.raises(MalformedInput, match="^inverse table must map ids to ids$"):
            Universe(np.eye(2, dtype=bool), inverse)

    def test_non_lattice_order_without_join_rejected(self):
        # a, b < c, d: a and b have two least upper bounds, so no join;
        # inverses swap a <-> c and b <-> d
        leq = np.eye(4, dtype=bool)
        leq[np.ix_([0, 1], [2, 3])] = True
        with pytest.raises(JoinNotSupremum) as info:
            Universe(leq, [2, 3, 0, 1])
        assert info.value.witness == (0, 1)
        assert str(info.value) == "0 and 1 have no least upper bound"

    def test_derived_join_matches_mask_join(self, cover3):
        u = cover3.universe
        n = len(u)
        derived = Universe(u.leq_matrix(), u.inverse_table())
        assert np.array_equal(gen.join_columns(derived), gen.join_columns(u))
        meet = [[u.meet_id(r, s) for s in range(n)] for r in range(n)]
        assert np.array_equal(gen.meet_table(derived), meet)

    def test_join_table_checked_against_order(self):
        doc = gen.add_tables(chain_universe().to_json_dict())
        system_from_json_dict(doc)
        # a ∨ b must be b
        doc["join"] = [[r, s, 1 if (r, s) == (1, 2) else v] for r, s, v in doc["join"]]
        with pytest.raises(MalformedInput) as info:
            system_from_json_dict(doc)
        assert str(info.value) == "'join' disagrees with the order at (1, 2)"

    def test_join_meet_ids_outside_the_universe_rejected(self):
        # -1 would index the last row of a table; an int32 cast would wrap
        # 2^32 to 0
        for key, value in [("join", -1), ("meet", 1), ("join", 2**32)]:
            doc = gen.add_tables(singleton_universe().to_json_dict())
            doc[key] = [[0, 0, value]]
            with pytest.raises(MalformedInput) as info:
                system_from_json_dict(doc)
            assert str(info.value) == f"{key} triple (0, 0, {value}) outside element range"

    def test_tables_kept_as_int32(self, cover2):
        u = cover2.universe
        assert {u.join_column(s).dtype for s in range(len(u))} == {np.dtype(np.int32)}
        assert chain_universe().join_column(0).dtype == np.int32
        doc = gen.add_tables(chain_universe().to_json_dict())
        back = system_from_json_dict(doc).universe
        assert {back.join_column(s).dtype for s in range(len(back))} == {np.dtype(np.int32)}

    def test_de_morgan_on_cover(self, cover3):
        u = cover3.universe
        n = len(u)
        rng = np.random.default_rng(3)
        for a, b in rng.integers(0, n, size=(200, 2)):
            a, b = int(a), int(b)
            assert u.inv_id(u.join_id(a, b)) == u.meet_id(u.inv_id(a), u.inv_id(b))

    def test_join_is_least_upper_bound_spot(self, cover2):
        u = cover2.universe
        n = len(u)
        for a in range(n):
            for b in range(n):
                j = u.join_id(a, b)
                assert u.leq_ids(a, j) and u.leq_ids(b, j)
                for c in range(n):
                    if u.leq_ids(a, c) and u.leq_ids(b, c):
                        assert u.leq_ids(j, c)


class TestOrientedSep:
    def test_operators(self, cover2):
        u = cover2.universe
        bot = u.sep(0)
        top = ~bot
        assert bot <= top and bot < top
        assert top >= bot and top > bot
        assert (~top) == bot
        assert bot.join(top) == top and bot.meet(top) == bot
        assert bot.is_small and not top.is_small

    def test_degenerate_flag(self, cover2):
        u = cover2.universe
        deg = sorted(cover2.degenerate_ids)
        assert deg == [8]
        assert u.sep(8).is_degenerate
        assert u.sep(8).inverse == u.sep(8)

    def test_cross_universe_comparison_rejected(self, cover2, cover3):
        a, b = cover2.universe.sep(0), cover3.universe.sep(0)
        with pytest.raises(MalformedInput):
            a <= b
        with pytest.raises(MalformedInput):
            a >= b
        # the strict orders check the universe before the ids
        with pytest.raises(MalformedInput):
            a < b
        with pytest.raises(MalformedInput):
            a > b
        # and so does every order against a value that is no separation
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(MalformedInput):
                op(a, 3)
        with pytest.raises(MalformedInput):
            a.join(b)
        with pytest.raises(MalformedInput):
            a.meet(b)

    def test_small_means_below_own_inverse(self, cover3):
        u = cover3.universe
        for i in range(len(u)):
            assert u.sep(i).is_small == u.leq_ids(i, u.inv_id(i))

    def test_out_of_range_ids_rejected(self, cover2):
        u = cover2.universe
        for i in (-1, len(u)):
            with pytest.raises(IndexError):
                u.sep(i)

    def test_dropped_universe_freed_without_gc(self):
        # handles are built on demand, so no universe -> handle -> universe
        # cycle keeps a dropped universe alive until the cyclic collector runs
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            system = graph_separations(GraphInput.parse("a b\nb c\n"), 2)
            u = system.universe
            s = u.sep(3)
            assert s <= s.join(~s) and system.members and system.trivial_ids
            ref = weakref.ref(u)
            del system, u, s
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestTriviality:
    def test_cover_trivial_ids(self, cover2, cover3):
        assert sorted(cover2.trivial_ids) == [0, 2, 4]
        assert sorted(cover3.trivial_ids) == [0, 2, 4, 8, 10, 14, 18]

    def test_graph_trivial_ids(self, p3_s2, k3_s2):
        assert sorted(p3_s2.trivial_ids) == [0, 2]
        assert sorted(k3_s2.trivial_ids) == [0]

    def test_degenerate_is_never_trivial(self, cover2):
        u = cover2.universe
        assert 8 in cover2.degenerate_ids
        assert 8 not in cover2.trivial_ids
        assert cover2.triviality_witness(u.sep(8)) is None

    def test_cotrivial_is_never_trivial(self, cover3):
        u = cover3.universe
        for r in cover3.trivial_ids:
            assert u.inv_id(r) not in cover3.trivial_ids

    def test_trivial_implies_small(self, cover3):
        u = cover3.universe
        for r in cover3.trivial_ids:
            assert u.sep(r).is_small

    def test_witness_strictly_above_both_ways(self, p3_s2):
        u = p3_s2.universe
        for r in p3_s2.trivial_ids:
            w = p3_s2.triviality_witness(u.sep(r))
            assert w is not None
            assert u.sep(r) < w and u.sep(r) < ~w

    def test_triviality_depends_on_the_system(self, cover2):
        # keep only one inverse pair: no witness can remain
        small = gen.subsystem(cover2, [0])
        assert small.trivial_ids == frozenset()


class TestConsistency:
    def test_orientation_requires_every_pair(self, cover2):
        full = (0, 1, 2, 4, 8)
        assert is_orientation(full, cover2)
        assert not is_orientation(full[:-1], cover2)  # degenerate missing
        assert not is_orientation((0, 1, 2, 4, 8, 5), cover2)

    def test_consistency_frozen_example(self, cover2):
        # the corner orientation is consistent; swapping one trivial
        # orientation against the rest is not
        assert is_consistent((0, 1, 2, 4, 8), cover2)
        bad = (5, 1, 2, 4, 8)
        assert not is_consistent(bad, cover2)
        wit = find_inconsistency(bad, cover2)
        assert wit is not None
        a, b = wit
        assert ~a < b or ~b < a

    def test_find_inconsistency_ignores_same_underlying(self, cover2):
        # an antisymmetry breach alone is not an inconsistency witness
        assert find_inconsistency((0, 5), cover2) is None

    def test_degenerate_pairs_can_clash(self, cover2):
        u = cover2.universe
        # degenerate 8 = (V, V); 0 = (∅, V) < 8 and inv(0) has 8 below it
        assert u.lt_ids(u.inv_id(8), u.inv_id(0)) == u.lt_ids(8, 5)


class TestStars:
    def test_star_predicate(self, cover2):
        u = cover2.universe
        assert is_star([])
        assert is_star([u.sep(1)])
        assert is_star([u.sep(0), u.sep(2)])
        assert not is_star([u.sep(8)])  # degenerate
        # {s, s*} is formally a star; two different corners are not
        assert is_star([u.sep(1), u.sep(3)])
        assert not is_star([u.sep(1), u.sep(2)])

    def test_star_of_mixed_universes_rejected(self, cover2, cover3):
        with pytest.raises(MalformedInput):
            is_star([cover2.universe.sep(0), cover3.universe.sep(0)])
        # even when an element is degenerate, which alone ends the check
        with pytest.raises(MalformedInput):
            is_star([cover2.universe.sep(8), cover3.universe.sep(1)])

    def test_star_collapses_repeats(self, cover2):
        u = cover2.universe
        # repeats count once, small element or not
        assert is_star([u.sep(0), u.sep(0)])
        assert is_star([u.sep(1), u.sep(1)])


@given(st.integers(0, 2 ** 13 - 1))
def test_orientation_picks_always_orient(code):
    system = gen.full_cover_system(3)
    from tangleduct import orientation_picks

    picks = orientation_picks(system, code % (1 << len(system.nondegenerate_reps)))
    assert is_orientation(picks, system)


@given(st.sets(st.integers(0, 26), max_size=8), st.randoms(use_true_random=False))
def test_subsystem_members_closed_under_inverse(ids, rnd):
    base = gen.full_cover_system(3)
    if not ids:
        return
    sub = gen.subsystem(base, ids)
    u = sub.universe
    for m in sub.members:
        assert u.inv_id(m) in sub.member_ids


class TestJson:
    def test_set_universe_roundtrip(self, p3_s2):
        d = system_to_json_dict(p3_s2)
        back = system_from_json_dict(d)
        assert back.members == p3_s2.members
        assert np.array_equal(
            back.universe.leq_matrix(), p3_s2.universe.leq_matrix()
        )
        assert back.universe.ground == p3_s2.universe.ground
        assert back.universe.set_labels == p3_s2.universe.set_labels

    def test_abstract_universe_roundtrip(self):
        u = chain_universe()
        system = SeparationSystem(u, range(6))
        d = system_to_json_dict(system)
        assert "leq" in d and "ground" not in d
        assert "join" not in d and "meet" not in d
        back = system_from_json_dict(d)
        assert back.members == system.members
        assert np.array_equal(gen.join_columns(back.universe), gen.join_columns(u))

    def test_members_default_to_all(self):
        u = singleton_universe()
        d = u.to_json_dict()
        back = system_from_json_dict(d)
        assert back.members == (0,)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(elements=[0, 2]),
            lambda d: d.update(inverse={"0": 1}),
            lambda d: gen.add_leq(d)["leq"].append([0, 99]),
            lambda d: d.update(inverse=[0]),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        d = gen.full_cover_system(2).universe.to_json_dict()
        mutate(d)
        with pytest.raises(MalformedInput):
            system_from_json_dict(d)

    def test_order_required_without_labels(self):
        d = chain_universe().to_json_dict()
        del d["leq"]
        with pytest.raises(MalformedInput, match="'leq' is required"):
            system_from_json_dict(d)

    @pytest.mark.parametrize("drop,keep", [("ground", "labels"), ("labels", "ground")])
    def test_half_labelled_documents_rejected(self, cover2, drop, keep):
        # the order pairs alone could load the document; the stray key is
        # refused whatever it holds, and so it is without the pairs
        d = gen.add_leq(system_to_json_dict(cover2))
        del d[drop]
        unordered = {k: v for k, v in d.items() if k != "leq"}
        for doc in (d, {**d, keep: "not even a list"}, unordered):
            with pytest.raises(MalformedInput) as info:
                system_from_json_dict(doc)
            assert str(info.value) == "'ground' and 'labels' must be given together"

    def test_labels_disagreeing_with_order_rejected(self, cover2):
        d = gen.add_leq(system_to_json_dict(cover2))
        d["leq"] = [p for p in d["leq"] if p != [0, 1]]
        with pytest.raises(MalformedInput):
            system_from_json_dict(d)

    def test_labels_checked_beside_a_join(self, cover2):
        # a supplied join must not switch off the label check
        d = system_to_json_dict(cover2)
        join = gen.join_columns(cover2.universe)
        d["join"] = [[r, s, int(v)] for (r, s), v in np.ndenumerate(join)]
        system_from_json_dict(d)
        d["labels"][0], d["labels"][1] = d["labels"][1], d["labels"][0]
        with pytest.raises(MalformedInput, match="sorted"):
            system_from_json_dict(d)


    def test_label_tables_checked_against_the_labels(self, cover2, p3_s2):
        d = system_to_json_dict(cover2)
        n = len(cover2.universe)
        for key, table in (("join", gen.join_columns(cover2.universe)),
                           ("meet", gen.meet_table(cover2.universe))):
            good = [[r, s, int(v)] for (r, s), v in np.ndenumerate(table)]
            system_from_json_dict({**d, key: good})
            bad = [[r, s, (v + 1) % n if (r, s) == (0, 1) else v] for r, s, v in good]
            with pytest.raises(MalformedInput) as info:
                system_from_json_dict({**d, key: bad})
            assert str(info.value) == f"'{key}' disagrees with the set labels at (0, 1)"
        # a join table can only name ids, so any for p3 disagrees with its
        # labels where a join of members is not a member
        d = system_to_json_dict(p3_s2)
        n = len(p3_s2.universe)
        join = np.maximum(gen.join_columns(p3_s2.universe), 0)
        d["join"] = [[r, s, int(v)] for (r, s), v in np.ndenumerate(join)]
        with pytest.raises(MalformedInput, match="'join' disagrees with the set labels"):
            system_from_json_dict(d)

    def test_documents_listing_the_closure_load(self, p3_s2):
        # older writers listed every element of the members' join/meet
        # closure; any sorted, flip-closed set of labels is a universe
        closed = reference_closure(p3_s2.universe.set_labels, 10**6)
        ids = {m: i for i, m in enumerate(closed)}
        doc = MaskUniverse(closed, p3_s2.universe.ground).to_json_dict(
            members=[ids[m] for m in p3_s2.universe.set_labels]
        )
        back = system_from_json_dict(doc)
        assert len(back.universe) == 17 and len(back) == 10
        labels = back.universe.set_labels
        assert [labels[m] for m in back.members] == list(p3_s2.universe.set_labels)
        assert back.trivial_ids == {ids[p3_s2.universe.set_labels[m]] for m in p3_s2.trivial_ids}


def assert_label_document_roundtrip(system, rng):
    """A set-labelled document carries no ``leq``; it loads to the same
    universe, with or without the order pairs added back, and order pairs
    that differ from the labels' order in one pair are rejected."""
    u = system.universe
    doc = system_to_json_dict(system)
    assert "leq" not in doc and "join" not in doc
    old = {**doc, "leq": np.argwhere(u.leq_matrix()).tolist()}
    for d in (doc, old):
        back = system_from_json_dict(d)
        assert back.members == system.members
        v = back.universe
        assert np.array_equal(v.leq_matrix(), u.leq_matrix())
        assert np.array_equal(v.inverse_table(), u.inverse_table())
        assert isinstance(v, MaskUniverse)
        assert np.array_equal(gen.join_columns(v), gen.join_columns(u))
        assert v.set_labels == u.set_labels and v.ground == u.ground
    pairs = old["leq"]
    drop = rng.randrange(len(pairs))
    wrong = [pairs[:drop] + pairs[drop + 1 :]]
    missing = np.flatnonzero(~u.leq_matrix())
    if len(missing):
        pair = divmod(int(missing[rng.randrange(len(missing))]), len(u))
        wrong.append(sorted(pairs + [list(pair)]))
    for leq in wrong:
        with pytest.raises(MalformedInput, match="'leq' disagrees with the set labels"):
            system_from_json_dict({**old, "leq": leq})


def test_label_documents_of_the_bench_ladder(rng):
    for name, k in sorted(gen.bench_tk().EXPECTED_KIND):
        assert_label_document_roundtrip(gen.ladder_system(name, k), rng)


@given(st.randoms(use_true_random=False))
def test_label_documents_of_random_systems(rnd):
    assert_label_document_roundtrip(gen.random_system(rnd), rnd)
