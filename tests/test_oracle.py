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
    MalformedInput,
    StarFamily,
    TooLarge,
    cross_check,
    enumerate_orientations,
    find_separator,
    orientation_picks,
    standardize,
    verify_certificate,
)


def empty_family(system):
    return StarFamily(system.universe, ())


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
        from tangleduct.cli import demo_family

        fam = demo_family(p3_s2)
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

    def test_lists_only_what_it_reads(self, cover2, monkeypatch):
        # the census lists on first read: cross_check reads the tangles, and
        # the consistent orientations only for a tree answer's exhibits
        listed = []
        real = oracle._listing_chunks

        def spy(system, flags):
            listed.append(flags)
            return real(system, flags)

        monkeypatch.setattr(oracle, "_listing_chunks", spy)
        for stars, kind in (([], "tangle"), ([[0, 1], [0, 3]], "stree")):
            fam = standardize(StarFamily(cover2.universe, stars), cover2)
            consistent, avoiding = oracle._truth_tables(cover2, fam, 20)
            listed.clear()
            assert cross_check(cover2, fam).kind == kind
            want = [consistent & avoiding] + [consistent] * (kind == "stree")
            assert listed == want

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
