"""Set universes, graph separation systems, and order functions."""

from itertools import combinations
from typing import Optional, Sequence

import numpy as np
import pytest

import gen
from gen import brute_force_separations
from tangleduct import (
    GraphInput,
    MalformedInput,
    OrientedSep,
    Universe,
    build_set_universe,
    graph_separations,
    is_improper,
    side_masks,
)
from tangleduct.core import _as_id
from tangleduct.errors import ClosureTooLarge, GroundSetTooLarge


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
    """Least pair (r, s) with order(r ∨ s) + order(r ∧ s) > order(r) + order(s)."""
    vals = order.values
    lhs = vals[universe.join_table()] + vals[universe.meet_table()]
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

    def test_closure_cap_enforced(self):
        ground = [str(i) for i in range(8)]
        pairs = [([g], ground) for g in ground]
        with pytest.raises(ClosureTooLarge):
            build_set_universe(ground, pairs, max_closure=20)

    def test_ground_cap_enforced(self):
        ground = [str(i) for i in range(25)]
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
        "name,k,universe_size,member_count,pair_count",
        [
            ("p3", 1, 2, 2, 1),
            ("p3", 2, 17, 10, 5),
            ("k3", 1, 2, 2, 1),
            ("k3", 2, 15, 8, 4),
        ],
    )
    def test_frozen_shapes(self, name, k, universe_size, member_count, pair_count):
        s = gen.graph_system(name, k)
        assert len(s.universe) == universe_size
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

    def test_universe_elements_are_graph_separations(self, p3_s2):
        # closure never leaves the space of valid graph separations
        graph = GraphInput.parse(gen._GRAPHS["p3"])
        u = p3_s2.universe
        valid = brute_force_separations(graph, len(graph.vertices) + 1)
        for i in range(len(u)):
            assert side_masks(u.sep(i)) in valid

    def test_negative_k_rejected(self):
        graph = GraphInput.parse("1 2\n")
        with pytest.raises(MalformedInput):
            graph_separations(graph, -1)

    def test_k_zero_has_no_separations(self):
        graph = GraphInput.parse("1 2\n")
        with pytest.raises(MalformedInput):
            graph_separations(graph, 0)


class TestOrderFunctions:
    def test_vertex_overlap_is_submodular(self, p3_s2, cover3):
        # the structural hypothesis behind separability, on the bench ladder too
        tk = gen.bench_tk()
        ladder = [
            graph_separations(GraphInput.parse(tk.GRAPHS[name]), k)
            for name, k in sorted(tk.EXPECTED_KIND)
        ]
        for system in (p3_s2, cover3, *ladder):
            order = OrderFunction.vertex_overlap(system.universe)
            assert is_submodular(order, system.universe)

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
        u = cover2.universe
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


def test_wrong_length_order_rejected(cover2):
    with pytest.raises(MalformedInput):
        OrderFunction(cover2.universe, [0, 1])
