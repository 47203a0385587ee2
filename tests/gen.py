"""Random instance generators shared by the unit and acceptance tests.

Everything here is seeded through an explicit ``random.Random`` so suites
stay reproducible run to run.  The generators lean on two sources of
systems: full covering-pair universes on tiny ground sets (every (A, B)
with A ∪ B = V is present, so joins and meets never leave the member set)
and order-bounded graph separation systems on small graphs.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from tangleduct import (
    GraphInput,
    STree,
    SeparationSystem,
    StarFamily,
    build_set_universe,
    graph_separations,
    standardize,
    system_from_json_dict,
)
from tangleduct import duality
from tangleduct.core import _as_id


# --- systems -------------------------------------------------------------------


def _names(ground: list[str], mask: int) -> list[str]:
    return [g for i, g in enumerate(ground) if mask >> i & 1]


@lru_cache(maxsize=None)
def full_cover_system(n: int) -> SeparationSystem:
    """Every covering pair (A, B) with A ∪ B = {1..n}, all of them members.

    The universe equals the member set (it is already closed under joins
    and meets), which makes emulation questions about joins easy: images
    never leave the system.
    """
    ground = [str(i + 1) for i in range(n)]
    full = (1 << n) - 1
    pairs = [
        (_names(ground, a), _names(ground, b))
        for a in range(full + 1)
        for b in range(full + 1)
        if a | b == full
    ]
    return build_set_universe(ground, pairs, max_closure=3 ** n + 8)


def bipartition_system(n: int) -> tuple[SeparationSystem, StarFamily]:
    """Every bipartition (A, B) of {0..n-1}, all of them members, and the
    standard family of no other stars.

    The engines answer it on a chain of levels as long as the system has
    nondegenerate separations: at ``n=11``, 2,048 members and over a
    thousand levels, more than the interpreter's default recursion limit.
    """
    ground = [str(i) for i in range(n)]
    full = (1 << n) - 1
    pairs = [(_names(ground, a), _names(ground, full & ~a)) for a in range(full + 1)]
    system = build_set_universe(ground, pairs)
    return system, standardize(StarFamily(system.universe, []), system)


def subsystem(base: SeparationSystem, ids) -> SeparationSystem:
    """A system on the same universe holding ``ids`` plus their inverses."""
    u = base.universe
    closed = set()
    for i in ids:
        closed.add(int(i))
        closed.add(u.inv_id(int(i)))
    return SeparationSystem(u, closed)


def random_subsystem(
    rng: random.Random,
    base: SeparationSystem,
    max_pairs: int = 5,
    *,
    allow_degenerate: bool = True,
) -> SeparationSystem:
    """Random inversion-closed member subset with at most ``max_pairs``
    nondegenerate underlying separations."""
    reps = list(base.nondegenerate_reps)
    k = rng.randint(1, min(max_pairs, len(reps)))
    chosen = rng.sample(reps, k)
    if allow_degenerate:
        for d in sorted(base.degenerate_ids):
            if rng.random() < 0.3:
                chosen.append(d)
    return subsystem(base, chosen)


_GRAPHS = {
    "p3": "1 2\n2 3\n",
    "p4": "1 2\n2 3\n3 4\n",
    "k3": "1 2\n2 3\n1 3\n",
    "star4": "0 1\n0 2\n0 3\n",
    "c4": "1 2\n2 3\n3 4\n4 1\n",
    "paw": "1 2\n2 3\n1 3\n3 4\n",
}


def bench_tk():
    """``bench/tk.py``: the T_k family and the graph ladder of the benchmark."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tk.py"
    spec = importlib.util.spec_from_file_location("bench_tk", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def ladder_system(name: str, k: int) -> SeparationSystem:
    """S_k of a graph of the benchmark ladder, ``GRAPHS`` in ``bench/tk.py``."""
    return graph_separations(GraphInput.parse(bench_tk().GRAPHS[name]), k)


@lru_cache(maxsize=None)
def graph_system(name: str, k: int) -> SeparationSystem:
    return graph_separations(GraphInput.parse(_GRAPHS[name]), k, max_closure=4096)


def random_system(rng: random.Random, max_pairs: int = 5) -> SeparationSystem:
    """A small validated system: covering-pair based or graph based."""
    roll = rng.random()
    if roll < 0.55:
        base = full_cover_system(rng.randint(2, 3))
        return random_subsystem(rng, base, max_pairs)
    if roll < 0.75:
        base = full_cover_system(4)
        return random_subsystem(rng, base, max_pairs)
    name = rng.choice(sorted(_GRAPHS))
    k = rng.randint(1, 3)
    return random_subsystem(rng, graph_system(name, k), max_pairs)


def random_tk_system(rng: random.Random) -> tuple[SeparationSystem, StarFamily]:
    """A random graph on 3 to 5 vertices, none isolated, its system S_k at
    k in 1..3 and the T_k family of ``bench/tk.py``.

    S_k is separable for T_k, so the strong engine answers, and both
    engines cut and splice trees on about a third of the draws, shifting
    them too: the tree surgery that :func:`random_system` seldom reaches.
    """
    n = rng.randint(3, 5)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
    for v in range(1, n):
        if not any(v in e for e in edges):
            edges.append((rng.randrange(v), v))
    graph = GraphInput.parse("".join(f"{a} {b}\n" for a, b in edges))
    system = graph_separations(graph, rng.randint(1, 3))
    return system, bench_tk().tk_family(system, graph)


def add_leq(doc: dict) -> dict:
    """Turn a set-labelled system document into the older format, which
    also lists the order as ``[a, b]`` pairs; returns ``doc``.

    The pairs are those of the universe the document loads to, in the
    row-major order the writer used to emit them.
    """
    leq = system_from_json_dict(doc).universe.leq_matrix()
    doc["leq"] = np.argwhere(leq).tolist()
    return doc


def join_columns(universe) -> np.ndarray:
    """Every join column of a universe side by side: the ``int32`` join
    table, -1 where a mask universe does not hold the join."""
    return np.stack([universe.join_column(s) for s in range(len(universe))], axis=1)


def meet_table(universe) -> np.ndarray:
    """The ``int32`` meet table of a universe that holds every join, by De
    Morgan: ``meet(r, s) = join(r*, s*)*``."""
    inv = universe.inverse_table()
    return inv.astype(np.int32)[join_columns(universe)[np.ix_(inv, inv)]]


def add_tables(doc: dict) -> dict:
    """Turn an unlabelled system document into the older format, which
    also lists the join and meet as ``[a, b, value]`` triples; returns
    ``doc``.

    The triples are those of the universe the document loads to, in the
    row-major order the writer used to emit them.
    """
    u = system_from_json_dict(doc).universe
    for key, table in (("join", join_columns(u)), ("meet", meet_table(u))):
        doc[key] = [[r, s, int(v)] for (r, s), v in np.ndenumerate(table)]
    return doc


# --- star families -------------------------------------------------------------


def is_valid_star(ids, system: SeparationSystem) -> bool:
    u = system.universe
    ids = list(ids)
    if len(set(ids)) != len(ids):
        return False
    for i in ids:
        if u.is_degenerate_id(i):
            return False
    return all(
        u.leq_ids(a, u.inv_id(b)) for a in ids for b in ids if a != b
    )


def random_star_ids(
    rng: random.Random,
    system: SeparationSystem,
    max_size: int = 3,
    *,
    tries: int = 60,
) -> Optional[frozenset[int]]:
    """One random star drawn from the system's members, or None."""
    u = system.universe
    pool = [m for m in system.members if not u.is_degenerate_id(m)]
    if not pool:
        return None
    for _ in range(tries):
        size = rng.randint(1, min(max_size, len(pool)))
        sigma = rng.sample(pool, size)
        if is_valid_star(sigma, system):
            return frozenset(sigma)
    return None


def random_family(
    rng: random.Random,
    system: SeparationSystem,
    max_stars: int = 4,
    *,
    standard: bool = True,
    allow_empty_star: bool = False,
) -> StarFamily:
    """A random star family on the system's universe.

    With ``standard`` the family is completed so that it forces every
    trivial orientation of the system.
    """
    stars = set()
    for _ in range(rng.randint(0, max_stars)):
        sigma = random_star_ids(rng, system)
        if sigma is not None:
            stars.add(sigma)
    if allow_empty_star and rng.random() < 0.1:
        stars.add(frozenset())
    family = StarFamily(system.universe, stars)
    if standard:
        family = standardize(family, system)
    return family


# --- partition S-trees -----------------------------------------------------------


def random_tree_shape(rng: random.Random, n_nodes: int) -> list[tuple[int, int]]:
    """Random labelled tree on nodes 0..n_nodes-1 (incremental attachment)."""
    return [(rng.randrange(i), i) for i in range(1, n_nodes)]


def partition_stree(
    system: SeparationSystem,
    edges: list[tuple[int, int]],
    assignment: dict[int, int],
    n_nodes: int,
) -> STree:
    """S-tree from a tree shape plus a ground-vertex-to-node assignment.

    Edge (t1, t2) is labelled by the separation whose first side collects
    the ground vertices assigned to the t1 half of the tree.  The system
    must come from :func:`full_cover_system` so every bipartition exists.
    """
    u = system.universe
    ground = u.ground
    assert ground is not None
    full = (1 << len(ground)) - 1
    by_mask = {m: i for i, m in enumerate(u.set_labels)}

    adj: dict[int, list[int]] = {t: [] for t in range(n_nodes)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    def side_mask(start: int, banned: int) -> int:
        seen = {start}
        stack = [start]
        mask = 0
        while stack:
            t = stack.pop()
            for v, node in assignment.items():
                if node == t:
                    mask |= 1 << v
            for nb in adj[t]:
                if nb != banned and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return mask

    alpha = {}
    for a, b in edges:
        am = side_mask(a, b)
        bm = full & ~am
        alpha[(a, b)] = by_mask[(am, bm)]
        alpha[(b, a)] = by_mask[(bm, am)]
    return STree(system, edges, alpha, nodes=range(n_nodes))


def random_partition_stree(
    rng: random.Random,
    n_ground: int,
    *,
    max_nodes: int = 6,
    redundant: bool = False,
) -> STree:
    """Random S-tree over the full covering-pair system on ``n_ground``.

    With ``redundant`` an extra leaf carrying an already-present label may
    be attached, producing a redundant node for pruning tests.
    """
    system = full_cover_system(n_ground)
    n_nodes = rng.randint(1, max_nodes)
    edges = random_tree_shape(rng, n_nodes)
    assignment = {v: rng.randrange(n_nodes) for v in range(n_ground)}
    tree = partition_stree(system, edges, assignment, n_nodes)
    if redundant:
        # attach two empty-side leaves to one host node: their shared
        # incoming label is the small separation with nothing on its own
        # side, so the duplicate keeps the labeling order-respecting
        u = system.universe
        by_mask = {m: i for i, m in enumerate(u.set_labels)}
        full = (1 << n_ground) - 1
        host = rng.choice(tree.nodes)
        base = max(tree.nodes) + 1
        new_edges = list(tree.edges) + [(host, base), (host, base + 1)]
        new_alpha = dict(tree.alpha)
        for leaf in (base, base + 1):
            new_alpha[(leaf, host)] = by_mask[(0, full)]
            new_alpha[(host, leaf)] = by_mask[(full, 0)]
        tree = STree(
            system,
            new_edges,
            new_alpha,
            nodes=list(tree.nodes) + [base, base + 1],
        )
    return tree


def node_star_family(tree: STree) -> StarFamily:
    """The family of the tree's node stars (repeats collapsed)."""
    stars = {tree.node_star(t) for t in tree.nodes}
    return StarFamily(tree.system.universe, stars)


# --- recorded engine shifts -------------------------------------------------------


@dataclass(frozen=True)
class ShiftRecord:
    """One tree shift made through ``duality.shift_stree``."""

    before: STree
    after: STree
    root: int
    r_id: int
    s0_id: int
    family: StarFamily


@contextmanager
def recorded_shifts():
    """Yield a list that receives a :class:`ShiftRecord` for every tree
    shift made while the block runs.

    The engines call ``shift_stree`` through the ``duality`` module global,
    so swapping that global for a recorder sees every shift they make; the
    original is restored on exit.  ``r_id`` is the label of the root's edge,
    the separation the shift moves across ``s0``.  A strong call answered
    from the family's memo makes no shifts, so pass a fresh family or
    system.
    """
    records: list[ShiftRecord] = []
    shift = duality.shift_stree

    def recorder(tree, root, s0, family):
        after = shift(tree, root, s0, family)
        r_id = tree.alpha[(root, tree.adj[root][0])]
        records.append(ShiftRecord(tree, after, root, r_id, _as_id(s0), family))
        return after

    duality.shift_stree = recorder
    try:
        yield records
    finally:
        duality.shift_stree = shift


def brute_force_separations(graph: GraphInput, k: int) -> set[tuple[int, int]]:
    """Reference enumeration: walk every covering pair and filter directly."""
    n = len(graph.vertices)
    full = (1 << n) - 1
    nbr = graph.neighbor_masks
    out = set()
    for a in range(full + 1):
        for b in range(full + 1):
            if a | b != full:
                continue
            if bin(a & b).count("1") >= k:
                continue
            only_a, only_b = a & ~b, b & ~a
            if any(
                only_a >> v & 1 and nbr[v] & only_b for v in range(n)
            ):
                continue
            out.add((a, b))
    return out
