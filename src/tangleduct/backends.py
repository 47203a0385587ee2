"""Concrete sources of separation systems: set pairs and graphs.

A *set separation* of a ground set V is a pair (A, B) with A ∪ B = V, ordered
by ``(A, B) <= (C, D)  iff  A ⊆ C and B ⊇ D``, flipped by swapping sides, and
combined by ``join = (A ∪ C, B ∩ D)`` / ``meet = (A ∩ C, B ∪ D)``.  A *graph
separation* is an unordered such pair with no edge between A∖B and B∖A; its
order is ``|A ∩ B|``.

Sides are bitmasks over an indexed ground set (capped at 24 vertices).
Universes are materialized by closing a pool of pairs under join and meet,
subject to a configurable closure cap.  The closure is a distributive
lattice, so it is generated by joins alone from a few meets of the pool,
one per coordinate: the proof is at :func:`_close_under_join_meet`.  It
becomes a :class:`~tangleduct.core.MaskUniverse`, whose laws hold by
construction and are not re-checked, and which looks joins up by column on
demand instead of storing an n×n join table.

The order-``< k`` separations of a graph are listed from their separators
``X = A ∩ B`` with ``|X| < k``, one per split of the components of G − X
(:func:`_graph_separation_masks`), not by walking all 2^n sets A.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .core import MaskUniverse, OrientedSep, SeparationSystem
from .core import Universe, tables_from_masks  # noqa: F401  (spanned by bench/run.py)
from .errors import ClosureTooLarge, GroundSetTooLarge, MalformedInput

GROUND_CAP = 24
DEFAULT_CLOSURE_CAP = 4096


# --- set separation universes -----------------------------------------------


_LO = np.uint64((1 << 32) - 1)  # B in the low half of a packed key A << 32 | B
_HI = ~_LO
_CHUNK = 1 << 16  # candidate keys, or coordinate cells, per chunk


def _join_irreducibles(keys: np.ndarray) -> np.ndarray:
    """The sorted keys of ``J``: every ``j_c`` of a pool, and its bottom.

    ``j_c`` is the meet of the pool elements with coordinate ``c`` set, for
    each coordinate that some element sets; the bottom is the meet of the
    whole pool.  One reduction over a (pool, 2·width) coordinate mask, in
    row chunks of about ``_CHUNK`` cells, gives every ``j_c`` at once.
    """
    a, b = keys >> np.uint64(32), keys & _LO
    width = int(np.bitwise_or.reduce(a | b)).bit_length()
    bits = np.uint64(1) << np.arange(width, dtype=np.uint64)
    meet_a = np.full(2 * width, _LO)
    meet_b = np.zeros(2 * width, dtype=np.uint64)
    hit = np.zeros(2 * width, dtype=bool)
    rows = max(1, _CHUNK // max(2 * width, 1))
    for lo in range(0, len(keys), rows):
        ra, rb = a[lo : lo + rows, None], b[lo : lo + rows, None]
        # coordinate c < width is bit c of A, coordinate width + c bit c of V∖B
        coords = np.concatenate(((ra & bits) != 0, (rb & bits) == 0), axis=1)
        meet_a &= np.bitwise_and.reduce(np.where(coords, ra, _LO), axis=0)
        meet_b |= np.bitwise_or.reduce(np.where(coords, rb, np.uint64(0)), axis=0)
        hit |= coords.any(axis=0)
    bottom = np.bitwise_and.reduce(a) << np.uint64(32) | np.bitwise_or.reduce(b)
    return np.union1d(meet_a[hit] << np.uint64(32) | meet_b[hit], [bottom])


def _close_under_join_meet(
    pool: Iterable[tuple[int, int]], cap: int
) -> list[tuple[int, int]]:
    """Close a pool of (A, B) masks and their flips under joins and meets.

    Read (A, B) as the bit vector of its coordinates over V = the bits the
    masks use: the bits of A, then the bits of V∖B.  The join is then the
    coordinate-wise OR and the meet the coordinate-wise AND, so the closure
    L is a distributive lattice, and each of its elements is a join of
    meets of pool elements.  Let ``j_c`` be the meet of the pool elements
    with coordinate ``c`` set.  If ``c`` is set in ``y = m_1 ∨ … ∨ m_k``,
    it is set in some ``m_i``, hence in every pool element of that meet, so
    ``j_c <= m_i <= y``; and ``c`` is set in ``j_c``.  So ``y`` is the join
    of the ``j_c`` with ``c`` set in ``y``, or, with no coordinate set, the
    meet of the whole pool.  L is thus the pool plus every join of
    ``J = {j_c} ∪ {bottom}`` (:func:`_join_irreducibles`).  Frontier
    rounds of ``frontier ∨ J`` on packed keys ``A << 32 | B`` find it, as
    every element found joins every member of J once: |L|·|J| candidates,
    where |J| <= 2·width + 1.

    Raises :class:`ClosureTooLarge` as soon as the part of L found so far
    holds more than ``max(cap, p)`` elements, p the size of the pool with
    its flips.  That part lies in L and ends as L, so this happens exactly
    when the closure has grown past the pool and holds more than ``cap``
    elements; a closed pool of any size passes.
    """
    keys = np.array([a << 32 | b for a, b in pool], dtype=np.uint64)
    seen = np.union1d(keys, (keys & _LO) << np.uint64(32) | keys >> np.uint64(32))
    if not len(seen):
        return []
    bound = max(cap, len(seen))
    irreducibles = _join_irreducibles(seen)
    frontier = seen = np.union1d(seen, irreducibles)
    if len(seen) > bound:
        raise ClosureTooLarge(cap)
    rows = max(1, _CHUNK // len(irreducibles))
    while len(frontier):
        new = np.empty(0, dtype=np.uint64)
        for lo in range(0, len(frontier), rows):
            f = frontier[lo : lo + rows, None]
            found = np.unique(((f | irreducibles) & _HI) | (f & irreducibles & _LO))
            at = np.searchsorted(seen, found)
            np.clip(at, 0, len(seen) - 1, out=at)
            new = np.union1d(new, found[seen[at] != found])
            if len(seen) + len(new) > bound:
                raise ClosureTooLarge(cap)
        seen = np.union1d(seen, new)
        frontier = new
    low = (1 << 32) - 1
    return [(k >> 32, k & low) for k in seen.tolist()]


def build_set_universe(
    ground: Sequence[str],
    pairs: Iterable[tuple[Iterable[str], Iterable[str]]],
    *,
    max_closure: int = DEFAULT_CLOSURE_CAP,
) -> SeparationSystem:
    """Universe from a pool of set separations, closed under join and meet.

    ``pairs`` lists the members of the resulting system by their sides, as
    vertex-name iterables; flips are added automatically.  Every pair must
    cover the ground set.  The closure becomes the universe; raises
    :class:`ClosureTooLarge` past ``max_closure`` elements.
    """
    ground = [str(g) for g in ground]
    if len(ground) != len(set(ground)):
        raise MalformedInput("ground set has repeated vertex names")
    if len(ground) > GROUND_CAP:
        raise GroundSetTooLarge(len(ground), GROUND_CAP)
    index = {g: i for i, g in enumerate(ground)}
    full = (1 << len(ground)) - 1

    def mask(side: Iterable[str]) -> int:
        m = 0
        for v in side:
            if str(v) not in index:
                raise MalformedInput(f"vertex {v!r} not in the ground set")
            m |= 1 << index[str(v)]
        return m

    member_masks = set()
    for a_side, b_side in pairs:
        a, b = mask(a_side), mask(b_side)
        if a | b != full:
            raise MalformedInput(
                f"separation sides do not cover the ground set: ({a:#x}, {b:#x})"
            )
        member_masks.add((a, b))
        member_masks.add((b, a))
    if not member_masks:
        raise MalformedInput("empty separation pool")

    return _universe_from_masks(ground, member_masks, max_closure)


def _universe_from_masks(
    ground: Sequence[str], member_masks: set[tuple[int, int]], max_closure: int
) -> SeparationSystem:
    closed = _close_under_join_meet(member_masks, max_closure)
    universe = MaskUniverse(closed, ground)
    ids = {m: i for i, m in enumerate(closed)}
    return SeparationSystem(universe, (ids[m] for m in member_masks))


def side_masks(sep: OrientedSep) -> tuple[int, int]:
    """The (A, B) bitmasks of a separation from a set universe."""
    labels = sep.universe.set_labels
    if labels is None:
        raise MalformedInput("not a set universe: elements carry no side masks")
    return labels[sep.id]


def is_improper(sep: OrientedSep) -> bool:
    """True iff the separation has the whole ground set as its second side."""
    ground = sep.universe.ground
    if ground is None:
        raise MalformedInput("not a set universe")
    _, b = side_masks(sep)
    return b == (1 << len(ground)) - 1


# --- graphs ------------------------------------------------------------------


class GraphInput:
    """An undirected graph given as vertex names and an edge list."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.vertices = tuple(sorted({str(v) for v in vertices}))
        if len(self.vertices) > GROUND_CAP:
            raise GroundSetTooLarge(len(self.vertices), GROUND_CAP)
        index = {v: i for i, v in enumerate(self.vertices)}
        seen = set()
        for u, v in edges:
            u, v = str(u), str(v)
            if u not in index or v not in index:
                raise MalformedInput(f"edge ({u!r}, {v!r}) uses unknown vertices")
            if u == v:
                continue
            seen.add((min(u, v), max(u, v)))
        self.edges = tuple(sorted(seen))
        self._index = index
        # neighbor bitmasks, indexed by vertex position
        nbr = [0] * len(self.vertices)
        for u, v in self.edges:
            nbr[index[u]] |= 1 << index[v]
            nbr[index[v]] |= 1 << index[u]
        self.neighbor_masks = tuple(nbr)

    @classmethod
    def parse(cls, text: str) -> "GraphInput":
        """Parse whitespace edge-list text: one ``u v`` edge (or a lone
        vertex name) per line; blank lines and ``#`` comments are skipped."""
        vertices: list[str] = []
        edges: list[tuple[str, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) == 1:
                vertices.append(tokens[0])
            elif len(tokens) == 2:
                vertices.extend(tokens)
                edges.append((tokens[0], tokens[1]))
            else:
                raise MalformedInput(
                    f"line {lineno}: expected 'u v' or a single vertex, got {raw!r}"
                )
        if not vertices:
            raise MalformedInput("graph text lists no vertices")
        return cls(vertices, edges)


def _graph_separation_masks(graph: GraphInput, k: int) -> list[tuple[int, int]]:
    """All (A, B) with A ∪ B = V, no edge across A∖B — B∖A, and |A ∩ B| < k.

    Each is ``(X ∪ P, X ∪ Q)`` for its separator ``X = A ∩ B`` and a split
    of the components of G − X into ``P`` and ``Q``: a component meeting
    both A∖B and B∖A would hold an edge across.  Conversely every split
    gives such a pair with ``A ∩ B = X``.  So listing each separator of
    fewer than k vertices with every split of its components lists each
    separation exactly once.
    """
    n = len(graph.vertices)
    full = (1 << n) - 1
    out = []
    for size in range(min(k, n + 1)):
        for combo in combinations(range(n), size):
            x = sum(1 << v for v in combo)
            rest = full & ~x
            sides = [0]  # unions of components: every choice of P
            for comp in _components(graph.neighbor_masks, rest):
                sides += [p | comp for p in sides]
            out.extend((x | p, x | (rest & ~p)) for p in sides)
    return out


def _components(nbr: Sequence[int], rest: int):
    """Vertex masks of the components of the subgraph induced on ``rest``."""
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbr[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & rest & ~comp
            comp |= frontier
        rest &= ~comp
        yield comp


def graph_separations(
    graph: GraphInput, k: int, *, max_closure: int = DEFAULT_CLOSURE_CAP
) -> SeparationSystem:
    """The system of graph separations of order < k inside its closure universe.

    The members are exactly the order-``< k`` separations; the universe is
    their join/meet closure (graph separations are closed under both, so every
    universe element is itself a graph separation).
    """
    if k < 0:
        raise MalformedInput("k must be non-negative")
    masks = set(_graph_separation_masks(graph, k))
    if not masks:
        raise MalformedInput(f"the graph has no separations of order < {k}")
    return _universe_from_masks(graph.vertices, masks, max_closure)
