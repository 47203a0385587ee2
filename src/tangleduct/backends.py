"""Concrete sources of separation systems: set pairs and graphs.

A *set separation* of a ground set V is a pair (A, B) with A ∪ B = V, ordered
by ``(A, B) <= (C, D)  iff  A ⊆ C and B ⊇ D``, flipped by swapping sides, and
combined by ``join = (A ∪ C, B ∩ D)`` / ``meet = (A ∩ C, B ∪ D)``.  A *graph
separation* is an unordered such pair with no edge between A∖B and B∖A; its
order is ``|A ∩ B|``.

Sides are bitmasks over an indexed ground set (capped at 32 vertices).  A
system's universe is its members alone, sorted by ``(A, B)``: a
:class:`~tangleduct.core.MaskUniverse`, whose order and flips hold by
construction and which looks a join ``(A ∪ C, B ∩ D)`` up among the
members on demand, finding none when it is not one.  No join or meet of
members is ever added, so the universe is as large as the system, and a
configurable cap bounds it.

The order-``< k`` separations of a graph are listed from their separators
``X = A ∩ B`` with ``|X| < k``, one per split of the components of G − X
(:func:`_graph_separation_masks`), not by walking all 2^n sets A.  The
listing is lazy, so a graph with more separations than the cap is refused
as soon as the cap is passed.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Collection, Iterable, Iterator, Sequence

from .core import GROUND_CAP, MaskUniverse, OrientedSep, SeparationSystem
from .errors import ClosureTooLarge, GroundSetTooLarge, MalformedInput

DEFAULT_CLOSURE_CAP = 4096


# --- set separation universes -----------------------------------------------


def build_set_universe(
    ground: Sequence[str],
    pairs: Iterable[tuple[Iterable[str], Iterable[str]]],
    *,
    max_closure: int = DEFAULT_CLOSURE_CAP,
) -> SeparationSystem:
    """The system of a pool of set separations, in the universe of its members.

    ``pairs`` lists the members of the resulting system by their sides, as
    vertex-name iterables; flips are added automatically.  Every pair must
    cover the ground set.  Raises :class:`ClosureTooLarge` when the members
    with their flips are more than ``max_closure``, a non-negative cap.
    """
    if max_closure < 0:
        raise MalformedInput("max_closure must be non-negative")
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
    ground: Sequence[str], member_masks: Collection[tuple[int, int]], max_closure: int
) -> SeparationSystem:
    """The system of flip-closed, distinct side pairs, all of them members,
    in the universe of those pairs alone, sorted by ``(A, B)``."""
    if len(member_masks) > max_closure:
        raise ClosureTooLarge(max_closure)
    pool = sorted(member_masks)
    return SeparationSystem(MaskUniverse(pool, ground), range(len(pool)))


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


def _graph_separation_masks(graph: GraphInput, k: int) -> Iterator[tuple[int, int]]:
    """All (A, B) with A ∪ B = V, no edge across A∖B — B∖A, and |A ∩ B| < k.

    Each is ``(X ∪ P, X ∪ Q)`` for its separator ``X = A ∩ B`` and a split
    of the components of G − X into ``P`` and ``Q``: a component meeting
    both A∖B and B∖A would hold an edge across.  Conversely every split
    gives such a pair with ``A ∩ B = X``.  So listing each separator of
    fewer than k vertices with every split of its components lists each
    separation exactly once.  The splits of one separator are the unions
    of a choice from each half of its components, so they are listed one
    at a time from two lists of about the square root of their number.
    """
    n = len(graph.vertices)
    full = (1 << n) - 1
    for size in range(min(k, n + 1)):
        for combo in combinations(range(n), size):
            x = sum(1 << v for v in combo)
            rest = full & ~x
            comps = list(_components(graph.neighbor_masks, rest))
            half = len(comps) // 2
            low = _unions(comps[:half])
            for high in _unions(comps[half:]):
                for p in low:
                    yield x | p | high, x | (rest & ~(p | high))


def _unions(comps: Sequence[int]) -> list[int]:
    """The union of every subset of some vertex masks."""
    sides = [0]
    for comp in comps:
        sides += [p | comp for p in sides]
    return sides


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
    """The system of graph separations of order < k, in the universe of its
    members.

    The members are exactly the order-``< k`` separations, and the universe
    holds nothing else: the join of two members is looked up among them
    (:class:`~tangleduct.core.MaskUniverse`).  Raises
    :class:`ClosureTooLarge` when there are more than ``max_closure``, a
    non-negative cap.
    """
    if k < 0:
        raise MalformedInput("k must be non-negative")
    if max_closure < 0:
        raise MalformedInput("max_closure must be non-negative")
    # one past the cap is enough to refuse it, so the listing stops there
    masks = list(islice(_graph_separation_masks(graph, k), max_closure + 1))
    if not masks:
        raise MalformedInput(f"the graph has no separations of order < {k}")
    return _universe_from_masks(graph.vertices, masks, max_closure)
