"""Shifting, separators, and the two duality engines.

The frozen expectations on the 2-element covering universe use this id
table (sides of {1, 2}):

    0=(∅|12)  1=(1|2)  2=(1|12)  3=(2|1)  4=(2|12)
    5=(12|∅)  6=(12|1) 7=(12|2)  8=(12|12)
"""

import gc
import random
import re

import numpy as np
import pytest

import gen
from tangleduct import (
    Certificate,
    GraphInput,
    InternalInvariant,
    MalformedInput,
    NotFSeparable,
    STree,
    SeparationSystem,
    StarFamily,
    Universe,
    emulates_for_family,
    enumerate_orientations,
    find_separator,
    is_consistent,
    is_orientation,
    shift_stree,
    standardize,
    strong_duality,
    validate_stree,
    verify_certificate,
    graph_separations,
    weak_duality,
)
from tangleduct import duality
from tangleduct.duality import _emulating_column, _shift_map, _violating_star
from tangleduct.errors import FNotStandard, ShiftLeftS, TargetNotAboveR
from tangleduct.stree import find_guided_sink
from test_tables import GRID4X4


@pytest.fixture(scope="module")
def std2():
    """cover2 plus the standardized empty family (forces 0, 2, 4)."""
    system = gen.full_cover_system(2)
    return system, standardize(StarFamily(system.universe, ()), system)


class TestFamilyBasics:
    def test_standardize_adds_cotrivial_singletons(self, std2):
        system, fam = std2
        assert sorted(map(sorted, fam.stars)) == [[5], [6], [7]]
        assert fam.is_standard_for(system)

    def test_standardize_is_idempotent(self, std2):
        system, fam = std2
        again = standardize(fam, system)
        assert again == fam

    def test_violating_star_picks_least(self, cover2):
        u = cover2.universe
        fam = StarFamily(u, [[0, 1], [1]])
        picks = (0, 1, 2, 4, 8)
        assert _violating_star(picks, fam) == frozenset({1})
        assert _violating_star((0, 3, 2, 4, 8), fam) is None


class TestShiftMap:
    def test_base_and_inverse_move_to_s0(self, cover2):
        # r=1=(1|2), s0=7=(12|2) ≥ r
        assert _shift_map(1, 7, 1, cover2).id == 7
        assert _shift_map(1, 7, 3, cover2).id == 4  # r* ↦ s0* = (2|12)

    def test_targets_join_on_the_orientation_above(self, cover2):
        u = cover2.universe
        # 5=(12|∅) ≥ 1: plain join
        assert _shift_map(1, 7, 5, cover2).id == u.join_id(5, 7)
        # 0=(∅|12) is not above 1, its inverse 5 is: image is inverted back
        assert _shift_map(1, 7, 0, cover2).id == u.inv_id(u.join_id(5, 7))

    def test_unrelated_target_rejected(self, cover2):
        with pytest.raises(TargetNotAboveR):
            _shift_map(1, 7, 8, cover2)

    def test_preconditions(self, cover2):
        with pytest.raises(MalformedInput):
            _shift_map(0, 5, 1, cover2)  # trivial base
        with pytest.raises(MalformedInput):
            _shift_map(8, 8, 1, cover2)  # degenerate base
        with pytest.raises(MalformedInput):
            _shift_map(1, 6, 1, cover2)  # s0 not above r

    def test_non_members_refused(self, cover2):
        # 1 is a usable base of both subsystems; 7 lies above it
        with pytest.raises(MalformedInput, match="^s0 is not a member of the system$"):
            _shift_map(1, 7, 1, gen.subsystem(cover2, [1]))
        with pytest.raises(MalformedInput, match="^shift target is not a member of the system$"):
            _shift_map(1, 7, 5, gen.subsystem(cover2, [1, 7]))


class TestEmulation:
    def test_full_cover_joins_never_leave(self, cover2):
        # with every covering pair a member, emulation is just s0 ≥ r
        u = cover2.universe
        for r in (1, 3):
            for s0 in cover2.members:
                assert (_emulating_column(cover2, s0, r) is not None) == u.leq_ids(r, s0)

    def test_emulation_fails_when_a_join_escapes(self, cover2):
        # members {0,2,4} ∪ inverses: the degenerate join (2|12) ∨ (1|12)
        # lands on (12|12), which is not a member
        sub = gen.subsystem(cover2, [0, 2, 4])
        u = sub.universe
        assert u.join_id(4, 2) == 8 and 8 not in sub.member_ids
        assert _emulating_column(sub, 2, 0) is None
        # the same base works fine when the join stays inside
        assert (_emulating_column(sub, 6, 0) is not None) == all(
            u.join_id(m, 6) in sub.member_ids
            for m in sub.members
            if m != u.inv_id(0) and u.leq_ids(0, m)
        )

    def test_joins_leaving_the_universe_are_not_members(self):
        # the universe of P4 at k=3 is its members alone: emulation and
        # shift images must take a join outside it as "not a member", as
        # the side masks say, never as some id
        system = gen.graph_system("p4", 3)
        u = system.universe
        labels = u.set_labels
        ids = {m: i for i, m in enumerate(labels)}

        def join(a, b):
            return ids.get((labels[a][0] | labels[b][0], labels[a][1] & labels[b][1]))

        outside = 0
        for r in system.members:
            if u.is_degenerate_id(r):
                continue
            above = [m for m in system.members if m != u.inv_id(r) and u.leq_ids(r, m)]
            for s0 in system.members:
                want = u.leq_ids(r, s0) and all(join(m, s0) is not None for m in above)
                assert (_emulating_column(system, s0, r) is not None) == want, (s0, r)
                if r in system.trivial_ids or not u.leq_ids(r, s0):
                    continue
                for t in system.members:
                    if t in (r, u.inv_id(r)):
                        continue
                    # the orientation of t above r joins s0; inverses follow
                    flip = not u.leq_ids(r, t)
                    base = u.inv_id(t) if flip else t
                    if not u.leq_ids(r, base):
                        continue
                    image = join(base, s0)
                    if image is None:
                        outside += 1
                        with pytest.raises(MalformedInput, match="outside the universe"):
                            _shift_map(r, s0, t, system)
                    else:
                        want = u.inv_id(image) if flip else image
                        assert _shift_map(r, s0, t, system).id == want
        assert outside

    def test_family_emulation_checks_star_images(self, std2):
        system, fam = std2
        # s0 = r: every qualifying star shifts to itself
        assert emulates_for_family(1, 1, system, fam)
        # growing the family by a star above r keeps images inside only
        # if their shifts appear too
        grown = fam.with_star([1, 3])  # contains inv(r)=3: never qualifies
        assert emulates_for_family(1, 1, system, grown)

    def test_family_emulation_refuses_a_non_member_s0(self, cover2):
        # the base 1 is usable in the subsystem {1, 3}; 7 lies above it
        system = gen.subsystem(cover2, [1])
        fam = StarFamily(cover2.universe, ())
        with pytest.raises(MalformedInput, match="^s0 is not a member of the system$"):
            emulates_for_family(7, 1, system, fam)

    def test_family_emulation_detects_escaping_image(self):
        system = gen.full_cover_system(3)
        fam = standardize(StarFamily(system.universe, [[1, 3, 9]]), system)
        # the corner star {1,3,9} shifts across s0=11 to a star outside fam
        assert not emulates_for_family(11, 1, system, fam)


class TestFindSeparator:
    def test_footnote_case_base_is_its_own_separator(self, std2):
        system, fam = std2
        assert find_separator(1, 1, system, fam).id == 1

    def test_endpoints_must_be_ordered(self, std2):
        system, fam = std2
        with pytest.raises(MalformedInput):
            find_separator(1, 6, system, fam)

    def test_forced_endpoint_rejected(self, std2):
        system, fam = std2
        with pytest.raises(MalformedInput):
            find_separator(0, 1, system, fam)  # 0 is trivial and forced

    def test_unseparable_pair_returns_none(self):
        system = gen.full_cover_system(3)
        fam = standardize(StarFamily(system.universe, [[1, 3, 9]]), system)
        assert find_separator(1, 11, system, fam) is None

    def test_endpoint_outside_the_system_rejected(self, std2):
        system, fam = std2
        sub = gen.subsystem(system, [1])
        with pytest.raises(MalformedInput) as info:
            find_separator(1, 7, sub, fam)
        assert str(info.value) == "separator endpoints must be members of the system"

    def test_end_forced_by_the_family_rejected(self, std2):
        # 1 and its inverse 3 are nontrivial; {3} forces 1, {1} forces 3
        system, fam = std2
        with pytest.raises(MalformedInput, match="^r is forced by the family$"):
            find_separator(1, 1, system, fam.with_star([3]))
        with pytest.raises(MalformedInput, match="^inverse of r_prime is forced by the family$"):
            find_separator(1, 1, system, fam.with_star([1]))


class TestShiftStree:
    def test_identity_shift_fixes_the_tree(self, std2):
        system, fam = std2
        with_star = fam.with_star([0, 1])
        tree = STree(system, [(0, 1), (0, 2)], {(1, 0): 0, (2, 0): 1})
        shifted = shift_stree(tree, 2, 1, with_star)
        assert shifted.alpha == tree.alpha
        assert shifted.node_star(2) == frozenset({3})

    def test_refusals(self, std2):
        system, fam = std2
        with_star = fam.with_star([0, 1])
        tree = STree(system, [(0, 1), (0, 2)], {(1, 0): 0, (2, 0): 1})
        with pytest.raises(MalformedInput, match="^node 0 is not a leaf$"):
            shift_stree(tree, 0, 1, with_star)
        # 6 = (12|1) does not lie above the root label 1 = (1|2)
        with pytest.raises(MalformedInput, match="^s0 must be a member above the root label$"):
            shift_stree(tree, 2, 6, with_star)
        with pytest.raises(MalformedInput, match="^star at node 0 is not in the family$"):
            shift_stree(tree, 2, 1, fam)
        # node 0 carries 1 and its inverse 3: the tree is not tight
        loose = STree(system, [(0, 1), (0, 2)], {(1, 0): 1, (2, 0): 3})
        with pytest.raises(
            MalformedInput, match="^tree must be irredundant and tight before shifting$"
        ):
            shift_stree(loose, 1, 7, fam.with_star([1, 3]))

    def test_shift_relabels_away_edges_by_joins(self):
        system = gen.full_cover_system(3)
        u = system.universe
        # star tree on σ = {1, 3, 9}, rooted at the leaf sending 1; shift
        # across s0 = 11 ≥ 1 and close the family under the shift images
        s0 = 11
        assert u.leq_ids(1, s0)
        stars = [[1, 3, 9], [u.inv_id(3)], [u.inv_id(9)]]
        images = [
            frozenset(_shift_map(1, s0, t, system).id for t in sigma)
            for sigma in stars
        ]
        fam = StarFamily(u, stars + images)
        tree = STree(
            system,
            [(1, 0), (2, 0), (3, 0)],
            {(1, 0): 1, (2, 0): 3, (3, 0): 9},
        )
        shifted = shift_stree(tree, 1, s0, fam)
        got = {t: sorted(shifted.node_star(t)) for t in shifted.nodes}
        assert got == {0: [0, 3, 11], 1: [3], 2: [11], 3: [19]}
        assert shifted.node_star(1) == frozenset({u.inv_id(s0)})
        # every away edge carries the join of its old label with s0
        for t in (2, 3):
            old = tree.alpha[(0, t)]
            assert shifted.alpha[(0, t)] == _shift_map(1, s0, old, system).id
        assert validate_stree(shifted, fam).is_order_respecting

    def test_a_kept_shift_still_checks_the_family(self):
        """A shift is kept on its input tree per (root, s0), but a call with
        another family checks it again, on the input's stars and on the
        kept output's, and raises as a call on a fresh tree does."""
        system = gen.full_cover_system(3)
        u = system.universe
        s0 = 11
        stars = [[1, 3, 9], [u.inv_id(3)], [u.inv_id(9)]]
        images = [
            frozenset(_shift_map(1, s0, t, system).id for t in sigma)
            for sigma in stars
        ]
        fam = StarFamily(u, stars + images)
        tree = STree(system, [(1, 0), (2, 0), (3, 0)], {(1, 0): 1, (2, 0): 3, (3, 0): 9})
        shifted = shift_stree(tree, 1, s0, fam)
        assert shift_stree(tree, 1, s0, fam) is shifted
        # the input's non-root stars are {1, 3, 9}, {11} and {5}; the
        # shifted ones {0, 3, 11}, {11} and {19}
        cases = [
            ({5}, MalformedInput, "star at node 3 is not in the family"),
            ({0, 3, 11}, InternalInvariant, "shifted star at node 0 left the family"),
            ({19}, InternalInvariant, "shifted star at node 3 left the family"),
        ]
        for dropped, error, message in cases:
            lacking = StarFamily(u, fam.stars - {frozenset(dropped)})
            fresh = STree(system, tree.edges, tree.alpha)
            for t in (tree, fresh):
                with pytest.raises(error) as exc:
                    shift_stree(t, 1, s0, lacking)
                assert str(exc.value) == message
        assert shift_stree(tree, 1, s0, fam) is shifted

    def test_label_leaving_the_system_raises_shift_left_s(self):
        # 23 lies above the root label 1 but does not emulate it: its join
        # with 21, the inverse of 4 and the label of the away edge (0, 2),
        # is 19, which the subsystem lacks
        base = gen.full_cover_system(3)
        system = gen.subsystem(base, [1, 4, 7, 10, 14, 15, 16, 21, 23, 24, 26])
        u = system.universe
        tree = STree(system, [(1, 0), (2, 0), (3, 0)], {(1, 0): 1, (2, 0): 4, (3, 0): 10},
                     root_leaf=1)
        family = StarFamily(u, [[1, 4, 10], [u.inv_id(4)], [u.inv_id(10)]])
        assert _emulating_column(system, 23, 1) is None
        with pytest.raises(ShiftLeftS) as exc:
            shift_stree(tree, 1, 23, family)
        assert exc.value.witness == ((0, 2), 19)
        assert str(exc.value) == (
            "shifting edge (0, 2) produced label 19 outside the system:"
            " the shift needs s0 to emulate the root label"
        )

    def test_root_label_must_be_usable(self, std2):
        system, fam = std2
        tree = STree(system, [(0, 1)], {(0, 1): 0})
        from tangleduct.errors import RootLabelTrivial

        with pytest.raises(RootLabelTrivial):
            shift_stree(tree, 0, 0, fam)


def assert_certificate_checks(cert, system, family):
    ok, problems = verify_certificate(cert, system, family)
    assert ok, problems
    assert cert.verified


class TestWeakDuality:
    def test_empty_family_yields_an_orientation(self, cover2):
        fam = StarFamily(cover2.universe, ())
        cert = weak_duality(cover2, fam)
        assert cert.kind == "orientation"
        assert is_orientation(cert.picks, cover2)
        assert_certificate_checks(cert, cover2, fam)

    def test_forcing_both_orientations_yields_k2(self, cover2):
        fam = StarFamily(cover2.universe, [[1], [3]])
        cert = weak_duality(cover2, fam)
        assert cert.kind == "stree"
        assert len(cert.tree.nodes) == 2
        assert_certificate_checks(cert, cover2, fam)

    def test_orientation_need_not_be_consistent(self, cover2):
        # forbidding the trivial 0 forces its co-trivial inverse 5 into any
        # avoiding orientation, which then clashes with 1 or 3 — weak
        # duality hands it over anyway
        fam = StarFamily(cover2.universe, [[0]])
        cert = weak_duality(cover2, fam)
        assert cert.kind == "orientation"
        assert 5 in cert.picks
        assert not is_consistent(cert.picks, cover2)
        assert_certificate_checks(cert, cover2, fam)

    def test_agreement_with_census(self, rng):
        trees = orientations = 0
        for _ in range(120):
            system = gen.random_system(rng, max_pairs=4)
            fam = gen.random_family(rng, system, standard=False)
            census = enumerate_orientations(system, fam, "avoiding")
            cert = weak_duality(system, fam)
            if cert.kind == "orientation":
                orientations += 1
                assert tuple(sorted(cert.picks)) in census.f_avoiding
            else:
                trees += 1
                assert not census.f_avoiding
            assert_certificate_checks(cert, system, fam)
        # the random mix must actually exercise both outcomes
        assert trees > 10 and orientations > 10

    def test_splice_hosted_by_the_first_branch(self, cover2):
        # the first branch hosts the splice only when the inverse of the
        # least undecided member is trivial; no generated system labels its
        # ids so, but cover2 relabelled old -> new by this permutation does
        perm = [4, 3, 8, 1, 5, 6, 7, 2, 0]
        base = cover2.universe
        leq = np.zeros((len(perm), len(perm)), dtype=bool)
        leq[np.ix_(perm, perm)] = base.leq_matrix()
        inverse = [0] * len(perm)
        for old, new in enumerate(perm):
            inverse[new] = perm[base.inv_id(old)]
        u = Universe(leq, inverse)
        system = SeparationSystem(u, range(len(u)))
        fam = StarFamily(u, [[1, 8], [2], [3], [4, 7], [4, 8], [6]])
        cert = weak_duality(system, fam)
        assert_certificate_checks(cert, system, fam)
        assert cert.kind == "stree"
        assert not enumerate_orientations(system, fam, "avoiding").f_avoiding
        (s0,) = (
            int(m.group(1))
            for line in cert.transcript
            if (m := re.search(r"splicing \d+ branch copy\(ies\) at separation (\d+)", line))
        )
        assert u.inv_id(s0) in system.trivial_ids


class TestStrongDuality:
    def test_requires_standard_family(self, cover2):
        fam = StarFamily(cover2.universe, ())
        with pytest.raises(FNotStandard):
            strong_duality(cover2, fam)
        cert = strong_duality(cover2, fam, auto_standardize=True)
        assert cert.kind == "tangle"

    def test_corner_tangle_frozen(self, std2):
        system, fam = std2
        cert = strong_duality(system, fam)
        assert cert.kind == "tangle"
        assert cert.picks == (0, 1, 2, 4, 8)
        assert is_consistent(cert.picks, system)
        assert_certificate_checks(cert, system, fam)

    def test_splice_produces_the_frozen_tree(self, cover2):
        fam = standardize(
            StarFamily(cover2.universe, [[0, 1], [0, 3]]), cover2
        )
        with gen.recorded_shifts() as trace:
            cert = strong_duality(cover2, fam)
        assert cert.kind == "stree"
        stars = {t: sorted(cert.tree.node_star(t)) for t in cert.tree.nodes}
        assert stars == {0: [0, 1], 1: [5], 2: [0, 3], 3: [5]}
        assert cert.tree.edges == ((0, 1), (0, 2), (2, 3))
        assert len(trace) == 2
        for rec in trace:
            assert rec.r_id == rec.s0_id  # both shifts were identities here
            assert rec.root in rec.after.nodes
        assert_certificate_checks(cert, cover2, fam)

    def test_inseparable_family_raises(self):
        system = gen.full_cover_system(3)
        fam = standardize(StarFamily(system.universe, [[1, 3, 9]]), system)
        with pytest.raises(NotFSeparable) as err:
            strong_duality(system, fam)
        assert "(1, 11)" in str(err.value)

    def test_tree_guides_every_consistent_orientation(self, cover2):
        fam = standardize(
            StarFamily(cover2.universe, [[0, 1], [0, 3]]), cover2
        )
        cert = strong_duality(cover2, fam)
        census = enumerate_orientations(cover2, fam, "tangle")
        assert not census.f_tangles
        for picks in census.consistent:
            sink = find_guided_sink(cert.tree, picks)
            assert cert.tree.node_star(sink) <= set(picks)

    def test_exclusive_with_census(self, rng):
        trees = tangles = skipped = 0
        for _ in range(100):
            system = gen.random_system(rng, max_pairs=4)
            fam = gen.random_family(rng, system, standard=True)
            census = enumerate_orientations(system, fam, "tangle")
            try:
                cert = strong_duality(system, fam)
            except NotFSeparable:
                skipped += 1
                continue
            if cert.kind == "tangle":
                tangles += 1
                assert tuple(sorted(cert.picks)) in census.f_tangles
            else:
                trees += 1
                assert not census.f_tangles
            assert_certificate_checks(cert, system, fam)
        assert trees > 5 and tangles > 5

    def test_transcript_records_decisions(self, std2):
        system, fam = std2
        cert = strong_duality(system, fam)
        assert any("tangle" in line for line in cert.transcript)

    @pytest.mark.parametrize(
        "members, stars, line, edges, node_stars",
        [
            pytest.param(
                [2, 5, 6, 9, 12, 20, 26],
                [(2, 9), (2, 12), (6,), (20,)],
                "[0] shifted second branch is over the family",
                ((0, 1), (0, 2)),
                {0: [2, 12], 1: [20], 2: [6]},
                id="second",
            ),
            pytest.param(
                [2, 3, 4, 6, 10, 11, 12, 13, 14, 17, 20, 21, 23, 24, 26],
                [(3, 14), (6, 14), (10, 14), (12,), (20,)],
                "[0] shifted first branch is over the family",
                ((0, 1), (0, 2)),
                {0: [6, 14], 1: [12], 2: [24]},
                id="first",
            ),
        ],
    )
    def test_shifted_branch_over_the_family(
        self, members, stars, line, edges, node_stars
    ):
        # the separator's inverse forces a singleton family star, so the
        # shifted branch tree is the answer without a splice
        system = gen.subsystem(gen.full_cover_system(3), members)
        fam = standardize(StarFamily(system.universe, stars), system)
        cert = strong_duality(system, fam)
        assert cert.kind == "stree"
        assert line in cert.transcript
        assert_certificate_checks(cert, system, fam)
        assert cert.tree.edges == edges
        stars_at = {t: sorted(cert.tree.node_star(t)) for t in cert.tree.nodes}
        assert stars_at == node_stars


@pytest.fixture()
def strong_calls(monkeypatch):
    """The depth of every ``duality._strong`` level, the root's included,
    as the count of extra singleton stars of its family: each level adds
    one to its parent's, and these tests start from a root family."""
    depths = []
    inner = duality._strong

    def spy(system, fam, *args):
        depths.append(fam.extra.bit_count())
        return inner(system, fam, *args)

    monkeypatch.setattr(duality, "_strong", spy)
    return depths


def splice_family(system):
    """cover2's standard family whose strong answer is a spliced tree."""
    return standardize(StarFamily(system.universe, [[0, 1], [0, 3]]), system)


def unmet_family(system):
    """A standard family on cover3 with no separator at the pair (1, 11)."""
    return standardize(StarFamily(system.universe, [[1, 3, 9]]), system)


class TestStrongMemo:
    def test_repeat_call_returns_the_held_certificate(self, cover2, strong_calls):
        fam = splice_family(cover2)
        cert = strong_duality(cover2, fam)
        assert strong_calls[:2] == [0, 1]
        del strong_calls[:]
        assert strong_duality(cover2, fam) is cert
        assert strong_calls == []

    def test_repeat_unmet_call_raises_afresh(self, strong_calls):
        system = gen.full_cover_system(3)
        fam = unmet_family(system)
        with pytest.raises(NotFSeparable) as first:
            strong_duality(system, fam)
        del strong_calls[:]
        with pytest.raises(NotFSeparable) as second:
            strong_duality(system, fam)
        assert strong_calls == []
        assert second.value is not first.value
        assert second.value.witness == first.value.witness == (1, 11)
        assert str(second.value) == str(first.value)

    def test_dropped_certificate_is_recomputed(self, cover2, strong_calls):
        fam = splice_family(cover2)
        doc = strong_duality(cover2, fam).to_json_dict()
        gc.collect()
        del strong_calls[:]
        again = strong_duality(cover2, fam)
        assert strong_calls[:1] == [0]
        assert again.to_json_dict() == doc

    @pytest.mark.parametrize("kind", ["stree", "unmet"])
    def test_long_lived_family_keeps_no_system_alive(self, kind):
        base = gen.full_cover_system(2 if kind == "stree" else 3)
        fam = splice_family(base) if kind == "stree" else unmet_family(base)
        held = []
        for _ in range(200):
            system = SeparationSystem(base.universe, base.members)
            try:
                held.append(strong_duality(system, fam))
            except NotFSeparable:
                held.append(system)
        assert len(fam.memo) == 200
        assert {getattr(h, "kind", "unmet") for h in held} == {kind}
        del held, system
        gc.collect()
        assert len(fam.memo) == 0

    def test_child_family_matches_an_equal_root(self, cover2, strong_calls):
        root = standardize(StarFamily(cover2.universe, ()), cover2)
        held = [strong_duality(cover2, root)]
        for ids in ([1], [1, 3]):
            child = root
            for i in ids:
                child = child.with_star([i])
            assert child.root is root
            cert = strong_duality(cover2, child)
            fresh = StarFamily(cover2.universe, child.stars)
            assert cert.to_json_dict() == strong_duality(cover2, fresh).to_json_dict()
            held.append(cert)
        assert [c.kind for c in held] == ["tangle", "tangle", "stree"]
        assert held[0].picks != held[1].picks
        # an equal child made again reads its own entry in the root's memo
        del strong_calls[:]
        assert strong_duality(cover2, root.with_star([1])) is held[1]
        assert strong_duality(cover2, root) is held[0]
        assert strong_calls == []

    def test_auto_standardize_on_a_non_standard_family(self, cover2):
        def answer(cert):
            return {k: v for k, v in cert.to_json_dict().items() if k != "transcript"}

        fam = StarFamily(cover2.universe, [[0, 1], [0, 3]])
        want = answer(strong_duality(cover2, splice_family(cover2)))
        for _ in range(2):
            with pytest.raises(FNotStandard):
                strong_duality(cover2, fam)
            cert = strong_duality(cover2, fam, auto_standardize=True)
            assert cert.kind == "stree" and answer(cert) == want


def test_grid4x4_k3_has_a_tangle():
    # the 4x4 grid has branch-width 4, so a tangle of order 3; its 282
    # members have a join/meet closure of 209,871 elements
    graph = GraphInput.parse(GRID4X4)
    system = graph_separations(graph, 3)
    family = gen.bench_tk().tk_family(system, graph)
    assert len(system) == len(system.universe) == 282
    strong = strong_duality(system, family)
    weak = weak_duality(system, family)
    assert (strong.kind, weak.kind) == ("tangle", "orientation")
    for cert in (strong, weak):
        assert verify_certificate(cert, system, family) == (True, ())


class TestCertificates:
    def test_json_roundtrip_tree(self, cover2):
        fam = standardize(
            StarFamily(cover2.universe, [[0, 1], [0, 3]]), cover2
        )
        cert = strong_duality(cover2, fam)
        d = cert.to_json_dict()
        back = Certificate.from_json_dict(cover2, d)
        assert back.kind == "stree"
        assert back.tree == cert.tree
        ok, problems = verify_certificate(back, cover2, fam)
        assert ok, problems

    def test_json_roundtrip_tangle(self, std2):
        system, fam = std2
        cert = strong_duality(system, fam)
        back = Certificate.from_json_dict(system, cert.to_json_dict())
        assert back.picks == cert.picks
        ok, _ = verify_certificate(back, system, fam)
        assert ok

    def test_unknown_kind_rejected(self, cover2):
        with pytest.raises(MalformedInput):
            Certificate.from_json_dict(cover2, {"kind": "wat"})

    @pytest.mark.parametrize(
        "cert, problem",
        [
            (Certificate(kind="tangle"), "certificate has no picks"),
            (Certificate(kind="stree"), "certificate has no tree"),
            (
                # a copy of cover2's system: same universe and members
                Certificate(kind="stree", tree=STree(
                    SeparationSystem(gen.full_cover_system(2).universe, range(9)),
                    [(0, 1)], {(0, 1): 1})),
                "tree belongs to a different system",
            ),
            (Certificate(kind="wat", picks=(0,)), "unknown certificate kind 'wat'"),
        ],
        ids=["tangle-without-picks", "stree-without-tree", "tree-of-another-system",
             "unknown-kind"],
    )
    def test_verify_rejects_a_malformed_certificate(self, cover2, cert, problem):
        family = StarFamily(cover2.universe, ())
        assert verify_certificate(cert, cover2, family) == (False, (problem,))

    def test_verify_names_only_the_star_outside_the_family(self):
        # the strong certificate on C5 at k=3 is not tight; a certificate
        # need not be, so only the missing node star is reported
        tk = gen.bench_tk()
        graph = GraphInput.parse(tk.GRAPHS["C5"])
        system = graph_separations(graph, 3)
        family = tk.tk_family(system, graph)
        cert = strong_duality(system, family)
        assert verify_certificate(cert, system, family) == (True, ())
        star = cert.tree.node_star(0)
        smaller = StarFamily(system.universe, family.stars - {star}, validate=False)
        problem = "star at node 0 is outside the family"
        assert verify_certificate(cert, system, smaller) == (False, (problem,))

    def test_verify_rejects_wrong_picks(self, std2):
        system, fam = std2
        bad = Certificate(kind="tangle", picks=(0, 1, 2, 4))  # misses 8
        ok, problems = verify_certificate(bad, system, fam)
        assert not ok
        assert any("orientation" in p for p in problems)

    def test_verify_rejects_picks_outside_the_system(self, cover2):
        system = gen.subsystem(cover2, [1])
        fam = standardize(StarFamily(cover2.universe, ()), system)
        cert = strong_duality(system, fam)
        assert cert.kind == "tangle" and 7 not in system.member_ids
        bad = Certificate(kind="tangle", picks=(*cert.picks, 7))
        problem = "picks are not a full orientation of the system"
        assert verify_certificate(bad, system, fam) == (False, (problem,))

    def test_verify_rejects_family_violation(self, std2):
        system, fam = std2
        bad = Certificate(kind="tangle", picks=(5, 1, 6, 7, 8))
        ok, problems = verify_certificate(bad, system, fam)
        assert not ok
        assert any("star" in p for p in problems)
