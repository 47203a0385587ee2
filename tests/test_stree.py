"""Star families, labeled trees, surgery, and the guided-sink walk."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import (
    Certificate,
    FNotStars,
    GraphInput,
    MalformedInput,
    STree,
    StarFamily,
    contract_to_tight,
    graph_separations,
    is_order_respecting,
    is_over,
    is_star,
    prune_to_irredundant,
    star_sort_key,
    strong_duality,
    tighten_rooted,
    validate_stree,
    verify_certificate,
)
from tangleduct.errors import (
    AlphaImageOutsideS,
    AlphaNotInvolutive,
    RootLabelTrivial,
)
from tangleduct.core import _is_star_ids
from tangleduct.duality import _forced_row
from tangleduct.stree import _redundant_triple, find_guided_sink


def ref_is_star(universe, ids) -> bool:
    """The star test by its definition: no degenerate element, and
    ``s <= inv(t)`` for any two distinct elements."""
    ids = set(ids)
    if any(universe.is_degenerate_id(s) for s in ids):
        return False
    return all(universe.leq_ids(s, universe.inv_id(t)) for s in ids for t in ids if s != t)


@given(st.integers(0, 2**32 - 1))
def test_star_check_on_ids_matches_is_star(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        system = gen.ladder_system(*rng.choice(sorted(gen.bench_tk().EXPECTED_KIND)))
    else:
        system = gen.random_system(rng)
    u = system.universe
    for _ in range(20):
        star = sorted(gen.random_star_ids(rng, system) or ())
        near = star + rng.sample(system.members, rng.randint(0, 2))
        anywhere = rng.sample(range(len(u)), rng.randint(0, min(4, len(u))))
        for ids in (star, near, anywhere):
            want = ref_is_star(u, ids)
            assert _is_star_ids(u, ids) == is_star(u.sep(i) for i in ids) == want, ids


class TestStarFamily:
    def test_canonicalizes_and_sorts(self, cover2):
        fam = StarFamily(cover2.universe, [[2, 0], [1], [0, 2]])
        assert len(fam) == 2
        assert fam.sorted_stars == (frozenset({1}), frozenset({0, 2}))
        assert [1] in fam and (0, 2) in fam and [0] not in fam

    def test_sort_key_orders_by_size_then_ids(self):
        stars = [frozenset({9}), frozenset(), frozenset({1, 2}), frozenset({3})]
        ordered = sorted(stars, key=star_sort_key)
        assert ordered == [
            frozenset(),
            frozenset({3}),
            frozenset({9}),
            frozenset({1, 2}),
        ]

    def test_non_star_rejected(self, cover2):
        with pytest.raises(FNotStars):
            StarFamily(cover2.universe, [[1, 2]])
        with pytest.raises(FNotStars):
            StarFamily(cover2.universe, [[8]])  # degenerate

    def test_first_failing_star_or_id_out_of_range_raises(self, cover2):
        u = cover2.universe
        with pytest.raises(FNotStars) as exc:
            StarFamily(u, [[1, 2], [0, 2], [8], [7, 1]])
        assert exc.value.witness == frozenset({8})
        for bad in (-1, len(u)):
            with pytest.raises(IndexError, match=f"element id {bad} outside"):
                StarFamily(u, [[0, 2], [bad]])
            with pytest.raises(IndexError, match=f"element id {bad} outside"):
                StarFamily(u, [[1]]).with_star([bad])

    def test_empty_star_allowed(self, cover2):
        fam = StarFamily(cover2.universe, [()])
        assert frozenset() in fam.stars

    def test_with_star(self, cover2):
        fam = StarFamily(cover2.universe, [[1]])
        grown = fam.with_star([0, 2])
        assert len(grown) == 2 and len(fam) == 1
        with pytest.raises(FNotStars):
            fam.with_star([1, 2])

    def test_forces_and_forced_ids(self, cover2):
        u = cover2.universe
        fam = StarFamily(u, [[5], [1, 3]])
        assert fam.singles >> u.inv_id(0) & 1  # inv(0) = 5 is a singleton star
        assert not fam.singles >> u.inv_id(1) & 1
        assert _forced_row(cover2, fam) == 1 << 0
        assert fam.singles & cover2.member_mask == 1 << 5

    def test_forced_ids_respect_membership(self, cover2):
        u = cover2.universe
        fam = StarFamily(u, [[5]])
        sub = gen.subsystem(cover2, [1])  # 0 is not a member there
        assert _forced_row(sub, fam) == 0
        assert fam.singles & sub.member_mask == 0

    def test_standardness(self, cover2):
        u = cover2.universe
        assert sorted(cover2.trivial_ids) == [0, 2, 4]
        fam = StarFamily(u, [[5], [6]])
        assert fam.missing_standard(cover2) == (4,)
        assert not fam.is_standard_for(cover2)
        assert fam.with_star([7]).is_standard_for(cover2)

    def test_restricted_to(self, cover2):
        u = cover2.universe
        fam = StarFamily(u, [[1], [0, 2]])
        sub = gen.subsystem(cover2, [1])
        kept = fam.restricted_to(sub)
        assert kept.stars == frozenset({frozenset({1})})

    def test_json_roundtrip(self, cover2):
        fam = StarFamily(cover2.universe, [[1], [0, 2], []])
        d = fam.to_json_dict()
        assert d == {"stars": [[], [1], [0, 2]]}
        back = StarFamily.from_json_dict(cover2.universe, d)
        assert back == fam

    def test_json_rejects_out_of_range(self, cover2):
        with pytest.raises(MalformedInput):
            StarFamily.from_json_dict(cover2.universe, {"stars": [[99]]})
        with pytest.raises(MalformedInput):
            StarFamily.from_json_dict(cover2.universe, {})


class TestSTreeConstruction:
    def test_k2(self, cover2):
        t = STree(cover2, [(0, 1)], {(0, 1): 1})
        assert t.alpha[(1, 0)] == 3  # inverse filled in automatically
        assert t.node_star(0) == frozenset({3})
        assert t.node_star(1) == frozenset({1})
        assert t.leaves() == (0, 1)

    def test_explicit_inverse_must_match(self, cover2):
        with pytest.raises(AlphaNotInvolutive):
            STree(cover2, [(0, 1)], {(0, 1): 1, (1, 0): 1})

    def test_labels_must_be_members(self, cover2):
        sub = gen.subsystem(cover2, [0])
        with pytest.raises(AlphaImageOutsideS):
            STree(sub, [(0, 1)], {(0, 1): 1})

    def test_rejects_non_trees(self, cover2):
        with pytest.raises(MalformedInput):
            STree(cover2, [(0, 0)], {(0, 0): 1})
        with pytest.raises(MalformedInput):
            STree(
                cover2,
                [(0, 1), (1, 2), (2, 0)],
                {(0, 1): 1, (1, 2): 1, (2, 0): 1},
            )
        with pytest.raises(MalformedInput):
            # disconnected: an isolated extra node
            STree(cover2, [(0, 1)], {(0, 1): 1}, nodes=[0, 1, 7])

    def test_missing_label_rejected(self, cover2):
        with pytest.raises(MalformedInput):
            STree(cover2, [(0, 1), (1, 2)], {(0, 1): 1})

    def test_root_must_be_leaf(self, cover2):
        with pytest.raises(MalformedInput):
            STree(
                cover2,
                [(0, 1), (1, 2)],
                {(0, 1): 1, (2, 1): 1},
                root_leaf=1,
            )

    def test_single_node_tree(self, cover2):
        t = STree(cover2, [], {}, nodes=[4])
        assert t.nodes == (4,)
        assert t.node_star(4) == frozenset()

    def test_no_nodes_rejected(self, cover2):
        with pytest.raises(MalformedInput, match="^a tree needs at least one node$"):
            STree(cover2, [], {})

    def test_root_leaf_must_be_a_node(self, cover2):
        with pytest.raises(MalformedInput, match="^root leaf 5 is not a node$"):
            STree(cover2, [], {}, nodes=[0], root_leaf=5)

    def test_path_and_edge_order(self, cover2):
        t = STree(
            cover2,
            [(0, 1), (1, 2)],
            {(0, 1): 0, (1, 2): 1},
        )
        assert t.path(0, 2) == (0, 1, 2)
        assert t.edge_leq((0, 1), (1, 2))
        assert not t.edge_leq((1, 2), (0, 1))
        assert t.edge_leq((0, 1), (0, 1))
        assert not t.edge_leq((0, 1), (1, 0))

    def test_json_roundtrip(self, cover2):
        t = STree(cover2, [(0, 1), (1, 2)], {(0, 1): 0, (1, 2): 1}, root_leaf=0)
        back = STree.from_json_dict(cover2, t.to_json_dict())
        assert back == t

    def test_dot_output_mentions_every_edge(self, cover2):
        t = STree(cover2, [(0, 1), (1, 2)], {(0, 1): 0, (1, 2): 1}, root_leaf=0)
        dot = t.to_dot()
        assert "0 -- 1" in dot and "1 -- 2" in dot
        assert "doublecircle" in dot  # the root is marked


class TestValidation:
    def test_partition_trees_validate(self, rng):
        for i in range(40):
            t = gen.random_partition_stree(rng, rng.randint(2, 4))
            fam = gen.node_star_family(t)
            rep = validate_stree(t, fam)
            assert rep.is_stree and rep.is_over_stars and rep.over_family
            assert rep.is_order_respecting
            assert is_over(t, fam)

    def test_over_family_detects_missing_star(self, cover2):
        t = STree(cover2, [(0, 1)], {(0, 1): 1})
        fam = StarFamily(cover2.universe, [[1]])
        rep = validate_stree(t, fam)
        assert rep.over_family is False
        assert any("outside the family" in p for p in rep.problems)
        assert validate_stree(t).over_family is None

    def test_redundancy_and_tightness_flags(self, cover2):
        # two empty leaves into node 0: redundant; a chain through an
        # unlabeled middle node: not tight
        t = STree(cover2, [(0, 1), (0, 2)], {(1, 0): 0, (2, 0): 0})
        rep = validate_stree(t)
        assert not rep.is_irredundant
        assert rep.is_tight

        chain = STree(cover2, [(0, 1), (1, 2)], {(0, 1): 1, (2, 1): 3})
        rep = validate_stree(chain)
        assert rep.is_irredundant
        assert not rep.is_tight

    def test_star_flag_names_the_node(self, cover2):
        # 8 = (12|12) is degenerate, so no star holds it
        rep = validate_stree(STree(cover2, [(0, 1)], {(0, 1): 8}))
        assert rep.is_stree and not rep.is_over_stars
        assert rep.problems == ("star at node 0 is not a star",)

    def test_order_flag_on_a_repeated_label(self, cover2):
        # both leaves send 5 = (12|∅) into node 0, so the edge (1, 0) comes
        # before (0, 2), labelled 0 = (∅|12), which is not above 5; node 0's
        # star {5} is a star, as every leaf's {0} is
        rep = validate_stree(STree(cover2, [(0, 1), (0, 2)], {(1, 0): 5, (2, 0): 5}))
        assert rep.is_over_stars and not rep.is_order_respecting
        assert "labeling does not respect the edge order" in rep.problems


def doctored_trees(cover2):
    """Trees the trusted path builds without a check, each with one fault,
    and the message the structural check names it by."""
    def derived(system, edges, alpha, nodes, root_leaf=None):
        # the trusted path takes its edges from the labels, so a label and
        # an edge that disagree are assembled by hand
        out = STree.__new__(STree)
        out._assemble(system, edges, alpha, nodes, root_leaf, None)
        return out

    path = {(0, 1): 1, (1, 0): 3, (1, 2): 0, (2, 1): 5}
    triangle = {**path, (0, 2): 2, (2, 0): 6}
    return [
        (derived(cover2, [(0, 1), (0, 2), (1, 2)], triangle, [0, 1, 2, 3]),
         "edge set is not connected"),
        (derived(cover2, [(0, 1), (2, 3)], {(0, 1): 1, (1, 0): 3, (2, 3): 0, (3, 2): 5},
                 [0, 1, 2, 3]),
         "4 nodes need 3 edges to form a tree, got 2"),
        (derived(cover2, [(0, 1), (1, 2)], {(0, 1): 1, (1, 0): 3, (1, 2): 0}, [0, 1, 2]),
         "oriented edge (2, 1) has no label"),
        (derived(cover2, [(0, 1), (1, 2)], {**path, (2, 1): 0}, [0, 1, 2]),
         "edge labels do not commute with the involution on (1, 2): label 0 reversed is not 0"),
        (derived(gen.subsystem(cover2, [0]), [(0, 1)], {(0, 1): 1, (1, 0): 3}, [0, 1]),
         "edge (0, 1) is labeled 1, not a member of the system"),
        (derived(cover2, [(0, 1)], {(0, 1): 1, (1, 0): 3, (0, 2): 0}, [0, 1]),
         "label on (0, 2), which is not an edge"),
        (derived(cover2, [(0, 1), (1, 2)], path, [0, 1, 2], 1), "root 1 is not a leaf"),
    ]


class TestStructureCheck:
    def test_verify_names_each_fault_of_a_trusted_tree(self, cover2):
        for tree, message in doctored_trees(cover2):
            family = StarFamily(tree.system.universe, [])
            cert = Certificate(kind="stree", tree=tree)
            assert verify_certificate(cert, tree.system, family) == (
                False,
                (f"not an S-tree: {message}",),
            )

    def test_validate_reports_is_stree_from_the_check(self, cover2):
        for tree, message in doctored_trees(cover2):
            rep = validate_stree(tree, StarFamily(tree.system.universe, []))
            assert not rep.is_stree and rep.over_family is False
            assert rep.problems == (f"not an S-tree: {message}",)
        t = STree(cover2, [(0, 1)], {(0, 1): 1})
        assert validate_stree(t).is_stree

    def test_public_constructor_raises_the_same_messages(self, cover2):
        for tree, message in doctored_trees(cover2):
            if message.startswith("oriented edge"):
                continue  # the constructor labels it with the inverse
            with pytest.raises((MalformedInput, AlphaImageOutsideS, AlphaNotInvolutive)) as exc:
                STree(tree.system, tree.edges, tree.alpha, nodes=tree.nodes,
                      root_leaf=tree.root_leaf)
            assert str(exc.value) == message


class TestListedOnce:
    """A tree names each node and edge once, and its edges end at its
    nodes; the P3 certificate below passed ``verify_certificate`` with
    each fault when the constructor folded its lists into sets."""

    def test_constructor_names_the_first_repeat(self, cover2):
        cases = [
            ({"edges": [(0, 1)], "nodes": [0, 1, 0]}, "tree node 0 is listed twice"),
            ({"edges": [(0, 1), (0, 1)]}, "tree edge (0, 1) is listed twice"),
            ({"edges": [(0, 1), (1, 0)]}, "tree edge (0, 1) is listed twice"),
            ({"edges": [(0, 1)], "nodes": [0]},
             "edge (0, 1) ends at node 1, which is not among the nodes"),
        ]
        for parts, message in cases:
            with pytest.raises(MalformedInput) as exc:
                STree(cover2, parts.pop("edges"), {(0, 1): 1}, **parts)
            assert str(exc.value) == message
        assert STree(cover2, [(0, 1)], {(0, 1): 1}).nodes == (0, 1)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["nodes"].append(d["nodes"][0]), "tree node 0 is listed twice"),
        (lambda d: d["edges"].append(list(d["edges"][0])), "tree edge (0, 1) is listed twice"),
        (lambda d: d["edges"].append(d["edges"][0][::-1]), "tree edge (0, 1) is listed twice"),
        (lambda d: d["nodes"].remove(3), "edge (2, 3) ends at node 3, which is not among the nodes"),
    ], ids=["node twice", "edge twice", "edge both ways", "endpoint not a node"])
    def test_p3_certificate_document(self, edit, message):
        tk = gen.bench_tk()
        graph = GraphInput.parse(tk.GRAPHS["P3"])
        system = graph_separations(graph, 3)
        family = tk.tk_family(system, graph)
        doc = strong_duality(system, family).to_json_dict()
        assert (doc["nodes"], doc["edges"]) == ([0, 1, 2, 3], [[0, 1], [0, 2], [2, 3]])
        assert verify_certificate(Certificate.from_json_dict(system, doc), system, family)[0]
        edit(doc)
        with pytest.raises(MalformedInput) as exc:
            Certificate.from_json_dict(system, doc)
        assert str(exc.value) == message


class TestSurgery:
    def test_prune_removes_duplicate_branch(self, rng):
        for _ in range(25):
            t = gen.random_partition_stree(rng, 3, redundant=True)
            p = prune_to_irredundant(t)
            assert validate_stree(p).is_irredundant
            # pruning only deletes whole branches
            assert set(p.nodes) <= set(t.nodes)
            for node in p.nodes:
                assert p.node_star(node) == t.node_star(node)

    def test_prune_protects_root(self, cover2):
        t = STree(cover2, [(0, 1), (0, 2)], {(1, 0): 0, (2, 0): 0})
        for keep in (1, 2):
            p = prune_to_irredundant(t, root=keep)
            assert keep in p.nodes

    def test_prune_is_identity_on_irredundant(self, rng):
        t = gen.random_partition_stree(rng, 3)
        p = prune_to_irredundant(t)
        assert prune_to_irredundant(p) is p

    def test_contract_removes_inverse_pair(self, cover3):
        # a path 0-1-2 with no ground vertex at node 1: the star at 1 is
        # an inverse pair, so node 1 contracts away
        tree = gen.partition_stree(
            cover3, [(0, 1), (1, 2)], {0: 0, 1: 2, 2: 2}, 3
        )
        u = cover3.universe
        star1 = sorted(tree.node_star(1))
        assert u.inv_id(star1[0]) == star1[1]
        tight = contract_to_tight(tree)
        assert set(tight.nodes) == {0, 2}
        assert tight.alpha[(0, 2)] == tree.alpha[(0, 1)]
        assert validate_stree(tight).is_tight

    def test_contracted_trees_keep_true_verdicts(self, rng):
        """A contracted tree's redundancy verdict, whether the input's was
        kept before the contraction or not, is what a fresh scan of its
        public-constructor copy says."""
        contracted = 0
        for _ in range(60):
            t = gen.random_partition_stree(rng, 3, max_nodes=8, redundant=rng.random() < 0.5)
            if rng.random() < 0.5:
                _redundant_triple(t)
            tight = contract_to_tight(t)
            contracted += tight is not t
            public = STree(tight.system, tight.edges, tight.alpha, nodes=tight.nodes)
            assert _redundant_triple(tight) == _redundant_triple(public)
        assert contracted

    def test_tighten_rooted_keeps_root_label_unique(self, cover3):
        tree = gen.partition_stree(
            cover3, [(0, 1), (1, 2)], {0: 0, 1: 2, 2: 2}, 3
        )
        root_label = tree.alpha[(0, 1)]
        assert root_label not in cover3.trivial_ids
        t = tighten_rooted(tree, 0)
        assert t.root_leaf == 0
        assert t.alpha[(0, t.adj[0][0])] == root_label
        assert sum(1 for lab in t.alpha.values() if lab == root_label) == 1

    def test_tighten_rooted_keeps_its_copy_of_a_tight_tree(self, cover3):
        """An irredundant, tight tree tightens to a copy rooted at the
        leaf, which shares the tree's verdicts and node stars, starts with
        no results of its own, and is kept: a second call returns it."""
        tree = gen.partition_stree(cover3, [(0, 1), (1, 2)], {0: 0, 1: 1, 2: 2}, 3)
        report = validate_stree(tree)
        assert report.is_irredundant and report.is_tight
        t = tighten_rooted(tree, 0)
        assert tighten_rooted(tree, 0) is t
        assert t is not tree and t.root_leaf == 0
        assert t._verdicts is tree._verdicts and t._stars is tree._stars
        assert t._results == {}

    def test_tighten_rejects_trivial_root_label(self, cover3):
        # assign nothing to the root's side: its outgoing label (∅, V) is
        # trivial in the full cover system
        tree = gen.partition_stree(cover3, [(0, 1)], {0: 1, 1: 1, 2: 1}, 2)
        with pytest.raises(RootLabelTrivial):
            tighten_rooted(tree, 0)

    def test_tighten_rejects_non_leaf(self, cover3):
        tree = gen.partition_stree(
            cover3, [(0, 1), (1, 2)], {0: 0, 1: 1, 2: 2}, 3
        )
        with pytest.raises(MalformedInput):
            tighten_rooted(tree, 1)


class TestGuidedSink:
    def test_walks_to_inhabited_star(self, rng):
        from tangleduct import enumerate_orientations

        for _ in range(30):
            t = gen.random_partition_stree(rng, 3)
            sub = gen.subsystem(t.system, set(t.alpha.values()))
            census = enumerate_orientations(
                sub, StarFamily(sub.universe, ()), "avoiding"
            )
            for picks in census.consistent:
                sink = find_guided_sink(t, picks)
                assert t.node_star(sink) <= set(picks)

    def test_k2_sink_follows_the_picked_label(self, cover2):
        t = STree(cover2, [(0, 1)], {(0, 1): 1})
        assert find_guided_sink(t, [1, 0, 2, 4, 8]) == 1
        assert find_guided_sink(t, [3, 0, 2, 4, 8]) == 0

    def test_inconsistent_picks_can_fail(self, cover2):
        # both orientations of the K2 label missing: a caller's mistake,
        # named before any walk, not an internal fault
        t = STree(cover2, [(0, 1)], {(0, 1): 1})
        with pytest.raises(MalformedInput, match=r"neither label of edge \(0, 1\)"):
            find_guided_sink(t, [0])
