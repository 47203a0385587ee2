"""The Robertson–Seymour tangle family T_k, built for the benchmark.

T_k is the set of stars of at most three member separations of S_k whose
small sides together cover every vertex and every edge of the graph.  An
orientation of S_k avoiding T_k and consistent is a tangle of order k, so
the strong engine's answer on (S_k, T_k) is fixed by branch-width facts:
``EXPECTED_KIND`` records it for every graph the benchmark runs.

Sides are read only through ``side_masks``.  Stars of size three are found
by completing compatible pairs with a third member compatible with both,
never by walking all triples.
"""

from __future__ import annotations

from tangleduct import StarFamily, side_masks, standardize

# Edge lists: vertex names are two-character strings, so the sorted order
# the graph backend uses is fixed and the universes are the same every run.
GRAPHS = {
    "P3": "a b\nb c\n",
    "P5": "a b\nb c\nc d\nd e\n",
    "P6": "a b\nb c\nc d\nd e\ne f\n",
    "C5": "a b\nb c\nc d\nd e\ne a\n",
    "C6": "a b\nb c\nc d\nd e\ne f\nf a\n",
    "C7": "a b\nb c\nc d\nd e\ne f\nf g\ng a\n",
    "K4": "a b\na c\na d\nb c\nb d\nc d\n",
    "K5": "a b\na c\na d\na e\nb c\nb d\nb e\nc d\nc e\nd e\n",
    "grid2x3": "11 12\n12 13\n21 22\n22 23\n11 21\n12 22\n13 23\n",
    "grid2x4": (
        "11 12\n12 13\n13 14\n21 22\n22 23\n23 24\n"
        "11 21\n12 22\n13 23\n14 24\n"
    ),
    "grid3x3": (
        "11 12\n12 13\n21 22\n22 23\n31 32\n32 33\n"
        "11 21\n21 31\n12 22\n22 32\n13 23\n23 33\n"
    ),
}

# (graph, k) -> the kind the strong engine must return on (S_k, T_k): a
# tangle of order k exists exactly when the branch-width is at least k
# (for these small graphs; Robertson–Seymour, Graph Minors X).
EXPECTED_KIND = {
    ("P3", 2): "tangle",
    ("P3", 3): "stree",
    ("K4", 3): "tangle",
    ("K4", 4): "stree",
    ("K5", 4): "tangle",
    ("grid3x3", 2): "tangle",
    ("C5", 3): "stree",
    ("C6", 3): "stree",
    ("C7", 3): "stree",
    ("grid2x3", 3): "stree",
    ("grid2x4", 3): "stree",
    ("P5", 3): "stree",
    ("P6", 3): "stree",
}


def _edge_masks(graph) -> list[int]:
    index = {v: i for i, v in enumerate(graph.vertices)}
    return [(1 << index[a]) | (1 << index[b]) for a, b in graph.edges]


def _covered_edges(side: int, edge_masks: list[int]) -> int:
    """Bitmask over edge positions of the edges with both ends in ``side``."""
    out = 0
    for i, e in enumerate(edge_masks):
        if e & side == e:
            out |= 1 << i
    return out


def tk_star_ids(system, graph) -> list[frozenset[int]]:
    """Stars of T_k: at most three members whose small sides cover the graph.

    ``system`` must be the order-< k system of ``graph`` built by the graph
    backend; a member (A, B) has small side A.  Two members s, t are
    compatible (may share a star) when s <= t.inverse; a star is a set of
    pairwise compatible nondegenerate members.
    """
    u = system.universe
    all_vertices = (1 << len(graph.vertices)) - 1
    edge_masks = _edge_masks(graph)
    all_edges = (1 << len(edge_masks)) - 1

    ids = [m for m in system.members if not u.is_degenerate_id(m)]
    small = {}
    for m in ids:
        a, _ = side_masks(u.sep(m))
        small[m] = (a, _covered_edges(a, edge_masks))

    def covers(vs: int, es: int) -> bool:
        return vs == all_vertices and es == all_edges

    compatible = {
        m: [x for x in ids if x > m and u.leq_ids(m, u.inv_id(x))]
        for m in ids
    }
    out = []
    for s in ids:
        vs, es = small[s]
        if covers(vs, es):
            out.append(frozenset((s,)))
        later = compatible[s]
        for j, t in enumerate(later):
            vt, et = small[t]
            if covers(vs | vt, es | et):
                out.append(frozenset((s, t)))
            # an edge with one end in each side belongs to neither, so the
            # third side must hold every uncovered vertex and both ends of
            # every uncovered edge
            need_v = all_vertices & ~(vs | vt)
            need_e = all_edges & ~(es | et)
            for i, e in enumerate(edge_masks):
                if need_e >> i & 1:
                    need_v |= e
            t_compatible = set(compatible[t])
            for x in later[j + 1:]:
                if x not in t_compatible:
                    continue
                vx, ex = small[x]
                if vx & need_v == need_v and covers(vs | vt | vx, es | et | ex):
                    out.append(frozenset((s, t, x)))
    return out


def tk_family(system, graph) -> StarFamily:
    """T_k as a standardized star family of ``system``."""
    fam = StarFamily(system.universe, tk_star_ids(system, graph), validate=False)
    return standardize(fam, system)
