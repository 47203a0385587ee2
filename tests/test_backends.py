"""Set universes, graph separation systems, and order functions."""

import tracemalloc
from itertools import combinations
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from gen import brute_force_separations
from tangleduct import (
    GROUND_CAP,
    GraphInput,
    MalformedInput,
    OrientedSep,
    Universe,
    build_set_universe,
    graph_separations,
    is_improper,
    side_masks,
    system_from_json_dict,
)
from tangleduct import backends, core
from tangleduct.backends import _graph_separation_masks
from tangleduct.core import _as_id
from tangleduct.errors import ClosureTooLarge, GroundSetTooLarge
from test_closure import closed_universe, reference_closure


class OrderFunction:
    """A flip-invariant, non-negative integer cost on a universe's separations."""

    def __init__(self, universe: Universe, values: Sequence[int]):
        vals = np.asarray(values, dtype=np.int64)
        if vals.shape != (len(universe),):
            raise MalformedInput("order function needs one value per element")
        if (vals < 0).any():
            i = int(np.flatnonzero(vals < 0)[0])
            raise MalformedInput(f"negative order at element {i}")
        for i in range(len(universe)):
            j = universe.inv_id(i)
            if vals[i] != vals[j]:
                raise MalformedInput(
                    f"order not invariant under flips: element {i} has {vals[i]},"
                    f" its inverse {j} has {vals[j]}"
                )
        self.universe = universe
        self.values = vals
        self.values.setflags(write=False)

    @classmethod
    def vertex_overlap(cls, universe: Universe) -> "OrderFunction":
        """The standard graph order |A ∩ B|, from a set universe's labels."""
        if universe.set_labels is None:
            raise MalformedInput("not a set universe")
        return cls(universe, [bin(a & b).count("1") for a, b in universe.set_labels])

    def of(self, sep) -> int:
        return int(self.values[_as_id(sep)])


def submodularity_violation(
    order: OrderFunction, universe: Universe
) -> Optional[tuple[OrientedSep, OrientedSep]]:
    """Least pair (r, s) with order(r ∨ s) + order(r ∧ s) > order(r) + order(s),
    on a universe built from tables."""
    vals = order.values
    lhs = vals[gen.join_columns(universe)] + vals[gen.meet_table(universe)]
    rhs = vals[:, None] + vals[None, :]
    bad = lhs > rhs
    if bad.any():
        r, s = (int(x) for x in np.argwhere(bad)[0])
        return universe.sep(r), universe.sep(s)
    return None


def is_submodular(order: OrderFunction, universe: Universe) -> bool:
    """True iff order(r ∨ s) + order(r ∧ s) <= order(r) + order(s) for all pairs."""
    return submodularity_violation(order, universe) is None


class TestBuildSetUniverse:
    def test_flips_added_and_closed(self):
        s = build_set_universe(["x", "y"], [(["x"], ["x", "y"])])
        u = s.universe
        assert len(s.members) == 2
        masks = {side_masks(u.sep(m)) for m in s.member_ids}
        assert masks == {(1, 3), (3, 1)}
        # the pair is already join/meet closed: s ∨ s* = s* here
        assert u.set_labels == ((1, 3), (3, 1))

    def test_sides_must_cover(self):
        with pytest.raises(MalformedInput):
            build_set_universe(["x", "y"], [(["x"], ["x"])])

    def test_repeated_ground_names_rejected(self):
        with pytest.raises(MalformedInput):
            build_set_universe(["x", "x"], [(["x"], ["x"])])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(MalformedInput, match="^vertex 'z' not in the ground set$"):
            build_set_universe(["x", "y"], [(["x", "z"], ["y"])])

    def test_empty_pool_rejected(self):
        with pytest.raises(MalformedInput, match="^empty separation pool$"):
            build_set_universe(["x", "y"], [])

    def test_closure_cap_enforced(self):
        # the cap bounds the 16 pairs and flips, not their closure of 256
        ground = [str(i) for i in range(8)]
        pairs = [([g], ground) for g in ground]
        assert len(build_set_universe(ground, pairs, max_closure=16).universe) == 16
        with pytest.raises(ClosureTooLarge):
            build_set_universe(ground, pairs, max_closure=15)

    def test_negative_cap_rejected(self):
        # refused up front, before the pool is read
        with pytest.raises(MalformedInput, match="^max_closure must be non-negative$"):
            build_set_universe(["x"], [(["x"], ["y"])], max_closure=-5)

    def test_ground_cap_enforced(self):
        ground = [str(i) for i in range(33)]
        with pytest.raises(GroundSetTooLarge):
            build_set_universe(ground, [(ground, ground)])

    def test_improper_means_full_second_side(self, cover2):
        u = cover2.universe
        flags = [is_improper(u.sep(i)) for i in range(len(u))]
        # exactly the (A, V) separations: ids 0, 2, 4, 8
        assert [i for i, f in enumerate(flags) if f] == [0, 2, 4, 8]


class TestGraphInput:
    def test_parse_edges_comments_and_lone_vertices(self):
        g = GraphInput.parse("# a path\n1 2\n\n2 3  # tail\n9\n")
        assert g.vertices == ("1", "2", "3", "9")
        assert g.edges == (("1", "2"), ("2", "3"))
        assert g.neighbor_masks[3] == 0  # vertex 9 is isolated

    def test_parse_rejects_wide_lines(self):
        with pytest.raises(MalformedInput):
            GraphInput.parse("1 2 3\n")

    def test_parse_rejects_empty_text(self):
        with pytest.raises(MalformedInput):
            GraphInput.parse("# nothing here\n")

    def test_self_loops_dropped(self):
        g = GraphInput(["a", "b"], [("a", "a"), ("a", "b")])
        assert g.edges == (("a", "b"),)

    def test_unknown_edge_vertex_rejected(self):
        with pytest.raises(MalformedInput):
            GraphInput(["a"], [("a", "b")])


class TestGraphSeparations:
    @pytest.mark.parametrize(
        "name,k,closure_size,member_count,pair_count",
        [
            ("p3", 1, 2, 2, 1),
            ("p3", 2, 17, 10, 5),
            ("k3", 1, 2, 2, 1),
            ("k3", 2, 15, 8, 4),
        ],
    )
    def test_frozen_shapes(self, name, k, closure_size, member_count, pair_count):
        # the universe is the members alone; their join/meet closure is larger
        s = gen.graph_system(name, k)
        assert len(s.universe) == member_count
        assert len(reference_closure(s.universe.set_labels, 10**6)) == closure_size
        assert len(s.members) == member_count
        assert len(s.nondegenerate_reps) == pair_count

    @pytest.mark.parametrize("name", sorted(gen._GRAPHS))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_members_match_brute_force(self, name, k):
        graph = GraphInput.parse(gen._GRAPHS[name])
        system = graph_separations(graph, k, max_closure=4096)
        u = system.universe
        got = {side_masks(u.sep(m)) for m in system.member_ids}
        assert got == brute_force_separations(graph, k)

    @pytest.mark.parametrize("name", sorted(gen.bench_tk().GRAPHS))
    def test_separator_listing_matches_brute_force_on_the_ladder(self, name):
        graph = GraphInput.parse(gen.bench_tk().GRAPHS[name])
        assert_separator_listing(graph)

    @given(
        n=st.integers(1, 6),
        edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    )
    def test_separator_listing_matches_brute_force_on_random_graphs(self, n, edges):
        graph = GraphInput(
            [str(v) for v in range(n)], [(str(u % n), str(v % n)) for u, v in edges]
        )
        assert_separator_listing(graph)

    def test_universe_elements_are_graph_separations(self, p3_s2):
        # the universe holds valid graph separations only
        graph = GraphInput.parse(gen._GRAPHS["p3"])
        u = p3_s2.universe
        valid = brute_force_separations(graph, len(graph.vertices) + 1)
        for i in range(len(u)):
            assert side_masks(u.sep(i)) in valid

    @pytest.mark.parametrize(
        "graph,k",
        [
            # the 20-vertex path: separators of up to 7 vertices split it
            # in up to 2^8 ways
            (GraphInput([f"{v:02}" for v in range(20)], [(f"{v:02}", f"{v + 1:02}")
                                                        for v in range(19)]), 8),
            # a star with 20 leaves: its centre splits them in 2^20 ways
            (GraphInput([f"{v:02}" for v in range(21)], [("00", f"{v:02}")
                                                        for v in range(1, 21)]), 2),
        ],
    )
    def test_cap_refused_before_the_listing_ends(self, graph, k):
        # the listing stops one past the default cap of 4096 separations
        tracemalloc.start()
        try:
            with pytest.raises(ClosureTooLarge, match="cap of 4096 elements"):
                graph_separations(graph, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_negative_k_rejected(self):
        graph = GraphInput.parse("1 2\n")
        with pytest.raises(MalformedInput):
            graph_separations(graph, -1)

    def test_negative_cap_rejected(self):
        graph = GraphInput.parse("1 2\n")
        for cap in (-1, -5):
            with pytest.raises(MalformedInput, match="^max_closure must be non-negative$"):
                graph_separations(graph, 2, max_closure=cap)
        # a cap of 0 is a cap: the listing is refused as too large
        with pytest.raises(ClosureTooLarge, match="cap of 0 elements"):
            graph_separations(graph, 2, max_closure=0)

    def test_k_zero_has_no_separations(self):
        graph = GraphInput.parse("1 2\n")
        with pytest.raises(MalformedInput):
            graph_separations(graph, 0)


def assert_separator_listing(graph: GraphInput) -> None:
    """Every order ``k`` from 0 to n + 1 lists each separation once."""
    n = len(graph.vertices)
    every = brute_force_separations(graph, n + 1)
    for k in range(n + 2):
        got = list(_graph_separation_masks(graph, k))
        assert len(got) == len(set(got))
        assert set(got) == {(a, b) for a, b in every if bin(a & b).count("1") < k}


class TestOrderFunctions:
    def test_vertex_overlap_is_submodular(self, p3_s2, cover3):
        # the structural hypothesis behind separability, on the bench ladder too
        tk = gen.bench_tk()
        ladder = [
            graph_separations(GraphInput.parse(tk.GRAPHS[name]), k)
            for name, k in sorted(tk.EXPECTED_KIND)
        ]
        for system in (p3_s2, cover3, *ladder):
            # on the universe of the members' join/meet closure
            u, _ = closed_universe(system.universe.set_labels)
            assert is_submodular(OrderFunction.vertex_overlap(u), u)

    def test_vertex_overlap_values(self, p3_s2):
        order = OrderFunction.vertex_overlap(p3_s2.universe)
        for m in p3_s2.members:
            a, b = side_masks(p3_s2.universe.sep(m))
            assert order.of(m) == bin(a & b).count("1") < 2

    def test_flip_invariance_required(self, cover2):
        u = cover2.universe
        vals = [0] * len(u)
        vals[0] = 1  # but not its inverse
        with pytest.raises(MalformedInput):
            OrderFunction(u, vals)

    def test_negative_values_rejected(self, cover2):
        with pytest.raises(MalformedInput):
            OrderFunction(cover2.universe, [-1] * len(cover2.universe))

    def test_violation_reported_for_crafted_order(self, cover2):
        # every covering pair: the closure is the pool, with the same ids
        u, _ = closed_universe(cover2.universe.set_labels)
        # charge everything 1 except one join result, forced too high
        vals = np.ones(len(u), dtype=int)
        j = u.join_id(1, 3)
        vals[j] = 5
        vals[u.inv_id(j)] = 5
        order = OrderFunction(u, vals)
        hit = submodularity_violation(order, u)
        assert hit is not None
        r, s = hit
        lhs = order.of(r.join(s)) + order.of(r.meet(s))
        assert lhs > order.of(r) + order.of(s)


@pytest.mark.parametrize("size", [GROUND_CAP, GROUND_CAP + 1])
def test_one_ground_cap_at_every_entry_point(size):
    # 32 vertices fill the 32-bit sides of a mask universe's pair keys
    assert GROUND_CAP == core.GROUND_CAP == backends.GROUND_CAP == 32
    names = [f"v{i:02}" for i in range(size)]
    full = (1 << size) - 1
    doc = {"elements": [0], "inverse": {"0": 0}, "ground": names, "labels": [[names, names]]}

    def entry_points():
        yield lambda: build_set_universe(names, [(names, names)])
        yield lambda: graph_separations(GraphInput(names, zip(names, names[1:])), 1)
        yield lambda: system_from_json_dict(doc)

    if size <= GROUND_CAP:
        set_system, path, labelled = (make() for make in entry_points())
        assert set_system.universe.set_labels == labelled.universe.set_labels == ((full, full),)
        assert path.universe.set_labels == ((0, full), (full, 0))
        return
    for make, error in zip(entry_points(), (GroundSetTooLarge, GroundSetTooLarge, MalformedInput)):
        with pytest.raises(error, match=str(GROUND_CAP)):
            make()


def test_wrong_length_order_rejected(cover2):
    with pytest.raises(MalformedInput):
        OrderFunction(cover2.universe, [0, 1])
