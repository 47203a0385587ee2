"""Trivial-free cores of families and trees, and expansion back."""

import pytest

import gen
from tangleduct import (
    MalformedInput,
    STree,
    StarFamily,
    enumerate_orientations,
    essential_core,
    essentialize_stree,
    expand_to_family,
    is_over,
    standardize,
    strong_duality,
    validate_stree,
)
from tangleduct.errors import FNotStandard, NoMatchingStar


@pytest.fixture(scope="module")
def spliced():
    """cover2, the two-corner family, and its strong-duality tree."""
    system = gen.full_cover_system(2)
    fam = standardize(StarFamily(system.universe, [[0, 1], [0, 3]]), system)
    cert = strong_duality(system, fam)
    assert cert.kind == "stree"
    return system, fam, cert.tree


class TestEssentialCore:
    def test_strips_trivial_orientations(self, spliced):
        system, fam, _ = spliced
        core = essential_core(fam, system)
        assert sorted(map(sorted, core.stars)) == [[1], [3], [5], [6], [7]]

    def test_collapse_and_empty_star(self, cover2):
        fam = StarFamily(cover2.universe, [[0], [0, 2], [2, 4]])
        core = essential_core(fam, cover2)
        # {0} collapses to the empty star; {0,2} and {2,4} both vanish
        assert core.stars == frozenset({frozenset()})

    def test_same_universe_required(self, cover2, cover3):
        fam = StarFamily(cover3.universe, ())
        with pytest.raises(MalformedInput):
            essential_core(fam, cover2)

    def test_tangles_unchanged_by_coring(self, rng):
        """Orientations avoid a family iff they avoid its essential core."""
        checked = 0
        for _ in range(60):
            system = gen.random_system(rng, max_pairs=4)
            fam = gen.random_family(rng, system, standard=True)
            core = essential_core(fam, system)
            full = enumerate_orientations(system, fam, "tangle")
            cored = enumerate_orientations(system, core, "tangle")
            assert full.f_tangles == cored.f_tangles
            checked += 1
        assert checked == 60


class TestEssentializeStree:
    def test_frozen_splice_tree(self, spliced):
        system, fam, tree = spliced
        slim = essentialize_stree(tree)
        assert len(slim.nodes) == 2
        stars = sorted(sorted(slim.node_star(t)) for t in slim.nodes)
        assert stars == [[1], [3]]
        for lab in slim.alpha.values():
            assert lab not in system.trivial_ids

    def test_result_is_over_the_core(self, spliced):
        system, fam, tree = spliced
        slim = essentialize_stree(tree)
        core = essential_core(fam, system)
        assert is_over(slim, core)
        rep = validate_stree(slim)
        assert rep.is_essential

    def test_tree_without_trivial_labels_unchanged(self, cover2):
        t = STree(cover2, [(0, 1)], {(0, 1): 1})
        slim = essentialize_stree(t)
        assert slim.alpha == t.alpha

    def test_trivial_k2_collapses_to_a_point(self, cover2):
        t = STree(cover2, [(0, 1)], {(0, 1): 0})
        slim = essentialize_stree(t)
        assert len(slim.nodes) == 1 and not slim.edges

    def test_requires_order_respecting_input(self, cover2):
        # consecutive path labels that are not comparable the right way
        t = STree(cover2, [(0, 1), (1, 2)], {(0, 1): 5, (1, 2): 1})
        with pytest.raises(MalformedInput):
            essentialize_stree(t)

    def test_redundant_duplicate_branch_is_pruned_first(self, cover2):
        # two leaves hang the same label off one node; pruning keeps one
        t = STree(cover2, [(0, 1), (0, 2)], {(1, 0): 1, (2, 0): 1})
        slim = essentialize_stree(t)
        assert len(slim.nodes) == 2
        assert set(slim.alpha.values()) == {1, 3}


class TestExpandToFamily:
    def test_round_trip_is_over_the_original(self, spliced):
        system, fam, tree = spliced
        slim = essentialize_stree(tree)
        grown = expand_to_family(slim, fam)
        assert is_over(grown, fam)
        rep = validate_stree(grown, fam)
        assert rep.is_stree and rep.over_family

    def test_added_leaves_carry_cotrivial_singletons(self, spliced):
        system, fam, tree = spliced
        slim = essentialize_stree(tree)
        grown = expand_to_family(slim, fam)
        new_nodes = set(grown.nodes) - set(slim.nodes)
        assert new_nodes
        for n in new_nodes:
            (star,) = [grown.node_star(n)]
            assert star in fam.stars
            assert len(star) == 1

    def test_requires_standard_family(self, cover2):
        fam = StarFamily(cover2.universe, [[1]])
        t = STree(cover2, [(0, 1)], {(0, 1): 1})
        with pytest.raises(FNotStandard):
            expand_to_family(t, fam)

    def test_no_matching_star_reported(self, cover2):
        fam = standardize(StarFamily(cover2.universe, ()), cover2)
        t = STree(cover2, [(0, 1)], {(0, 1): 1})
        # node 1's star {1} has no preimage among the singleton stars
        with pytest.raises(NoMatchingStar):
            expand_to_family(t, fam)

    def test_random_round_trips(self, rng):
        done = 0
        for _ in range(80):
            system = gen.random_system(rng, max_pairs=4)
            fam = gen.random_family(rng, system, standard=True)
            from tangleduct import NotFSeparable

            try:
                cert = strong_duality(system, fam)
            except NotFSeparable:
                continue
            if cert.kind != "stree":
                continue
            slim = essentialize_stree(cert.tree)
            assert is_over(slim, essential_core(fam, system))
            grown = expand_to_family(slim, fam)
            assert is_over(grown, fam)
            done += 1
        assert done > 10
