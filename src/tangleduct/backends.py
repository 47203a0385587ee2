"""Concrete sources of separation systems: set pairs and graphs.

A *set separation* of a ground set V is a pair (A, B) with A ∪ B = V, ordered
by ``(A, B) <= (C, D)  iff  A ⊆ C and B ⊇ D``, flipped by swapping sides, and
combined by ``join = (A ∪ C, B ∩ D)`` / ``meet = (A ∩ C, B ∪ D)``.  A *graph
separation* is an unordered such pair with no edge between A∖B and B∖A; its
order is ``|A ∩ B|``.

Sides are bitmasks over an indexed ground set (capped at 24 vertices).
Universes are materialized by closing a pool of pairs under join and meet,
subject to a configurable closure cap.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import OrientedSep, SeparationSystem, Universe, _as_id, tables_from_masks
from .errors import ClosureTooLarge, GroundSetTooLarge, MalformedInput

GROUND_CAP = 24
DEFAULT_CLOSURE_CAP = 4096


# --- set separation universes -----------------------------------------------


_LO = (1 << 32) - 1  # B in the low half of a packed key A << 32 | B
_HI = ~_LO
_CHUNK = 1 << 16  # candidate keys per table and chunk


def _close_under_join_meet(
    pool: Iterable[tuple[int, int]], cap: int
) -> list[tuple[int, int]]:
    """Close a flip-closed pool of (A, B) masks under joins and meets.

    Works in rounds on packed keys ``A << 32 | B``: each round joins and
    meets the elements new in the last round with everything seen so far.
    Raises :class:`ClosureTooLarge` once the closure has grown past the pool
    and holds more than ``cap`` elements; a closed pool of any size passes.
    """
    keys = np.array([a << 32 | b for a, b in pool], dtype=np.int64)
    seen = np.union1d(keys, (keys & _LO) << 32 | keys >> 32)
    frontier = seen
    while len(frontier):
        rows = max(1, _CHUNK // len(seen))
        new = np.empty(0, dtype=np.int64)
        for start in range(0, len(frontier), rows):
            f = frontier[start : start + rows, None]
            union, common = f | seen, f & seen
            joins = (union & _HI) | (common & _LO)
            meets = (common & _HI) | (union & _LO)
            found = np.setdiff1d(np.concatenate((joins.ravel(), meets.ravel())), seen)
            new = np.union1d(new, found)
            if len(new) and len(seen) + len(new) > cap:
                raise ClosureTooLarge(cap)
        seen = np.union1d(seen, new)
        frontier = new
    return [(k >> 32, k & _LO) for k in seen.tolist()]


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
    leq, inverse, join = tables_from_masks(closed)
    universe = Universe(leq, inverse, join, set_labels=closed, ground=ground)
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
    """All (A, B) with A ∪ B = V, no edge across A∖B — B∖A, and |A ∩ B| < k."""
    n = len(graph.vertices)
    full = (1 << n) - 1
    nbr = graph.neighbor_masks
    out = []
    for a in range(full + 1):
        rest = full & ~a
        boundary = 0
        for v in range(n):
            if a >> v & 1 and nbr[v] & rest:
                boundary |= 1 << v
        if bin(boundary).count("1") >= k:
            continue
        # B = rest | C for any boundary ⊆ C ⊆ A with |C| < k
        free = a & ~boundary
        free_bits = [v for v in range(n) if free >> v & 1]
        budget = k - 1 - bin(boundary).count("1")
        for extra in _subsets_up_to(free_bits, budget):
            out.append((a, rest | boundary | extra))
    return out


def _subsets_up_to(bits: list[int], budget: int):
    """Masks of all subsets of ``bits`` with at most ``budget`` elements."""
    for size in range(min(budget, len(bits)) + 1):
        for combo in combinations(bits, size):
            m = 0
            for v in combo:
                m |= 1 << v
            yield m


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


# --- order functions ---------------------------------------------------------


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
