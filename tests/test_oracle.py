"""Exhaustive orientation census and the duality cross-checker.

cover2 orientation ids, for reading the frozen picks below:
0=(∅|12) 1=(1|2) 2=(1|12) 3=(2|1) 4=(2|12) 5=(12|∅) 6=(12|1) 7=(12|2) 8=(12|12)
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from tangleduct import oracle
from tangleduct import (
    Certificate,
    MalformedInput,
    STree,
    StarFamily,
    TooLarge,
    cross_check,
    enumerate_orientations,
    find_guided_sink,
    find_separator,
    orientation_picks,
    standardize,
    strong_duality,
    verify_certificate,
)
from tangleduct.errors import InternalInvariant


def empty_family(system):
    return StarFamily(system.universe, ())


@pytest.fixture()
def listed(monkeypatch):
    """The flags of every listing built while the test runs."""
    flags = []
    real = oracle._listing_chunks

    def spy(system, f):
        flags.append(f)
        return real(system, f)

    monkeypatch.setattr(oracle, "_listing_chunks", spy)
    return flags


class TestOrientationPicks:
    def test_code_zero_is_all_representatives(self, cover2):
        assert orientation_picks(cover2, 0) == (0, 1, 2, 4, 8)
        # flipping bit 0 swaps the least representative for its inverse
        assert orientation_picks(cover2, 1) == (1, 2, 4, 5, 8)

    def test_every_code_orients_every_member(self, cover3):
        n = len(cover3.nondegenerate_reps)
        seen = set()
        for code in range(2**n):
            picks = orientation_picks(cover3, code)
            assert len(picks) == n + len(cover3.degenerate_ids)
            seen.add(picks)
        assert len(seen) == 2**n

    @pytest.mark.parametrize("bad", [-1, 16, 10**9])
    def test_code_out_of_range(self, cover2, bad):
        with pytest.raises(MalformedInput):
            orientation_picks(cover2, bad)


class TestCensus:
    def test_cover2_empty_family(self, cover2):
        c = enumerate_orientations(cover2, empty_family(cover2), "tangle")
        assert c.total == 16
        assert len(c.consistent) == 2
        assert len(c.f_avoiding) == 16
        assert len(c.f_tangles) == 2
        # the two consistent orientations differ only on the proper pair 1/3
        assert set(c.f_tangles) == {(0, 1, 2, 4, 8), (0, 2, 3, 4, 8)}

    def test_p3_demo_family_has_no_tangles(self, p3_s2):
        from tangleduct.cli import _demo_family

        fam = _demo_family(p3_s2)
        c = enumerate_orientations(p3_s2, fam, "tangle")
        assert (c.total, len(c.consistent)) == (32, 4)
        assert c.f_avoiding == () and c.f_tangles == ()

    def test_mode_is_only_recorded(self, cover2):
        for stars in ([], [[0, 1], [0, 3]]):
            fam = standardize(StarFamily(cover2.universe, stars), cover2)
            c = enumerate_orientations(cover2, fam, "avoiding")
            assert c.mode == "avoiding"
            assert set(c.f_tangles) <= set(c.f_avoiding)
            # both modes classify alike: the censuses differ in ``mode`` only
            t = enumerate_orientations(cover2, fam, "tangle")
            assert dataclasses.replace(c, mode="tangle") == t

    def test_compared_hashed_and_printed_without_listing(self, listed):
        base = gen.full_cover_system(4)
        system = gen.subsystem(base, base.nondegenerate_reps[:15])
        fam = empty_family(system)
        c = enumerate_orientations(system, fam, "tangle")
        d = enumerate_orientations(system, fam, "tangle")
        assert c == d and hash(c) == hash(d)
        assert len(repr(c)) < 200
        assert listed == []
        assert c.total == len(c.f_avoiding) == 2**15
        assert listed == [c.avoiding_codes]

    def test_bad_mode(self, cover2):
        with pytest.raises(MalformedInput):
            enumerate_orientations(cover2, empty_family(cover2), "fastest")

    def test_cap(self, cover3):
        with pytest.raises(TooLarge):
            enumerate_orientations(cover3, empty_family(cover3), "tangle", cap=10)
        # explicit generous cap admits the 13-pair system
        c = enumerate_orientations(cover3, empty_family(cover3), "tangle", cap=13)
        assert c.total == 2**13

    def test_consistent_orientations_take_all_trivials(self, rng):
        for _ in range(40):
            system = gen.random_system(rng, max_pairs=4)
            c = enumerate_orientations(system, empty_family(system), "tangle")
            for picks in c.consistent:
                assert system.trivial_ids <= set(picks)

    @given(st.integers(0, 2**4 - 1))
    def test_flip_symmetry_of_the_full_space(self, code):
        # with no family, avoiding == all orientations, closed under flips
        system = gen.full_cover_system(2)
        c = enumerate_orientations(system, empty_family(system), "avoiding")
        picks = orientation_picks(system, code)
        flipped = tuple(sorted(system.universe.inv_id(p) for p in picks))
        assert picks in c.f_avoiding and flipped in c.f_avoiding


class TestCrossCheck:
    def test_tangle_side(self, cover2):
        fam = standardize(empty_family(cover2), cover2)
        rep = cross_check(cover2, fam)
        assert rep.kind == "tangle"
        assert rep.agree and not rep.hypothesis_failed
        assert rep.tangle_count == 2
        assert rep.certificate.verified

    def test_tree_side(self, cover2):
        fam = standardize(StarFamily(cover2.universe, [[0, 1], [0, 3]]), cover2)
        rep = cross_check(cover2, fam)
        assert rep.kind == "stree"
        assert rep.agree and rep.tangle_count == 0
        ok, problems = verify_certificate(rep.certificate, cover2, fam)
        assert ok and problems == ()
        # every consistent orientation is guided to an inhabited star
        assert len(rep.exhibits) == 2
        for picks, sink, star in rep.exhibits:
            assert sink in rep.certificate.tree.nodes
            assert set(star) <= set(picks)

    def test_lists_only_what_it_reads(self, cover2, cover3, listed):
        # cross_check decides on the truth tables and lists nothing; reading
        # a tree answer's exhibits lists the consistent codes once
        cases = (
            (cover2, [], "tangle"),
            (cover2, [[0, 1], [0, 3]], "stree"),
            (cover3, [[1, 3, 9]], None),
        )
        for system, stars, kind in cases:
            fam = standardize(StarFamily(system.universe, stars), system)
            consistent = enumerate_orientations(system, fam).consistent_codes
            listed.clear()
            rep = cross_check(system, fam)
            assert rep.kind == kind
            assert listed == []
            rep.exhibits
            rep.exhibits
            assert listed == [consistent] * (kind == "stree")

    def test_hypothesis_failure_is_reported_not_raised(self, cover3):
        fam = standardize(StarFamily(cover3.universe, [[1, 3, 9]]), cover3)
        assert find_separator(1, 11, cover3, fam) is None
        rep = cross_check(cover3, fam)
        assert rep.hypothesis_failed
        assert rep.kind is None and rep.agree is None
        assert rep.certificate is None
        # the census side still ran: some orientations do avoid the family
        assert rep.tangle_count > 0

    def test_random_agreement(self, rng):
        kinds = {"tangle": 0, "stree": 0}
        for _ in range(80):
            system = gen.random_system(rng, max_pairs=4)
            fam = gen.random_family(rng, system, standard=True)
            rep = cross_check(system, fam)
            if rep.hypothesis_failed:
                continue
            assert rep.agree
            kinds[rep.kind] += 1
        assert min(kinds.values()) > 5


def _reference_exhibits(system, family, cert):
    """The exhibits as one guided walk per listed consistent orientation."""
    tree = cert.tree
    census = enumerate_orientations(system, family, "tangle")
    out = []
    for picks in census.consistent:
        sink = find_guided_sink(tree, picks)
        out.append((picks, sink, tuple(sorted(tree.node_star(sink)))))
    return tuple(out)


class TestCrossCheckReference:
    """cross_check's truth-table answers against listings and per-code walks."""

    def check(self, system, fam):
        rep = cross_check(system, fam)
        census = enumerate_orientations(system, fam, "tangle")
        assert rep.tangle_count == len(census.f_tangles)
        if rep.kind == "stree":
            assert rep.exhibits == _reference_exhibits(system, fam, rep.certificate)
        else:
            assert rep.exhibits == ()
        return rep

    def test_random_instances(self, rng):
        kinds = {"tangle": 0, "stree": 0, None: 0}
        degenerate = 0
        for _ in range(240):
            system = gen.random_system(rng, max_pairs=5)
            fam = gen.random_family(rng, system, standard=True, allow_empty_star=True)
            kinds[self.check(system, fam).kind] += 1
            degenerate += bool(system.degenerate_ids)
        assert min(kinds.values()) > 5
        assert degenerate > 20

    def test_one_node_tree_of_the_empty_star(self, cover2):
        fam = standardize(StarFamily(cover2.universe, [[]]), cover2)
        rep = self.check(cover2, fam)
        assert rep.certificate.tree.nodes == (0,)
        assert rep.exhibits == (((0, 1, 2, 4, 8), 0, ()), ((0, 2, 3, 4, 8), 0, ()))

    def test_pair_tree(self, cover2):
        fam = standardize(StarFamily(cover2.universe, [[1], [3]]), cover2)
        rep = self.check(cover2, fam)
        assert rep.certificate.tree.edges == ((0, 1),)
        assert rep.exhibits == (((0, 1, 2, 4, 8), 1, (1,)), ((0, 2, 3, 4, 8), 0, (3,)))


class TestCrossCheckInvariants:
    """Each disagreement with the census raises, for a doctored engine."""

    def doctor(self, monkeypatch, cert):
        monkeypatch.setattr(oracle, "strong_duality", lambda system, family: cert)

    def test_tangle_missing_from_the_census(self, cover2, monkeypatch):
        # consistent orientations are (0,1,2,4,8) and (0,2,3,4,8); code 1
        # picks both 1 and its clashing partner 5
        fam = standardize(empty_family(cover2), cover2)
        self.doctor(monkeypatch, Certificate("tangle", picks=(1, 2, 4, 5, 8)))
        with pytest.raises(InternalInvariant, match="^engine's tangle is missing from the census listing$"):
            cross_check(cover2, fam)
        # picks that are no full orientation at all
        self.doctor(monkeypatch, Certificate("tangle", picks=(0, 2, 4, 8)))
        with pytest.raises(InternalInvariant, match="^engine's tangle is missing from the census listing$"):
            cross_check(cover2, fam)

    def test_tangle_when_the_census_has_none(self, cover2, monkeypatch):
        fam = standardize(StarFamily(cover2.universe, [[0, 1], [0, 3]]), cover2)
        self.doctor(monkeypatch, Certificate("tangle", picks=(0, 1, 2, 4, 8)))
        with pytest.raises(InternalInvariant, match="^engine returned a tangle but the census found none$"):
            cross_check(cover2, fam)

    def test_tree_when_the_census_has_a_tangle(self, cover2, monkeypatch):
        tree_fam = standardize(StarFamily(cover2.universe, [[0, 1], [0, 3]]), cover2)
        self.doctor(monkeypatch, strong_duality(cover2, tree_fam))
        fam = standardize(empty_family(cover2), cover2)
        with pytest.raises(InternalInvariant, match="^engine returned a tree but the census found a tangle$"):
            cross_check(cover2, fam)

    def test_tree_with_a_sink_star_outside_the_family(self, cover2, monkeypatch):
        # the K2 tree's stars {1} and {3} are not stars of this family
        fam = standardize(StarFamily(cover2.universe, [[0, 1], [0, 3]]), cover2)
        tree = STree(cover2, [(0, 1)], {(0, 1): 1})
        self.doctor(monkeypatch, Certificate("stree", tree=tree))
        with pytest.raises(InternalInvariant, match="^sink star is not a family star$"):
            cross_check(cover2, fam)
