"""Trees labeled by oriented separations, and families of stars.

An *S-tree* is a finite tree together with a labeling of its oriented edges
by members of a separation system, commuting with the involution: the label
of ``(u, v)`` reversed is the label of ``(v, u)``.  The oriented edges of a
tree are partially ordered: ``(x, y) < (u, v)`` iff the edges differ and the
path from ``x`` to ``v`` traverses first ``x→y`` and last ``u→v``.

The *star at a node* ``t`` is the label set of its incoming edges.  A tree is
*over* a family when every node's star belongs to it.  Surgery operations
(pruning to irredundancy, contracting to tightness, deleting leaves) return
new trees and never mutate.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .core import (
    OrientedSep,
    SeparationSystem,
    Universe,
    _as_id,
    _id_entry,
    _is_id,
    is_star,
)
from .errors import (
    AlphaImageOutsideS,
    AlphaNotInvolutive,
    FNotStars,
    InternalInvariant,
    MalformedInput,
    RootLabelTrivial,
)

# a node id as it appears in the halves of an alpha key "u->v"
_NODE_ID = re.compile(r"-?[0-9]+")


def star_sort_key(sigma: frozenset[int]) -> tuple:
    return (len(sigma), tuple(sorted(sigma)))


def _star_mask(sigma: frozenset[int]) -> int:
    mask = 0
    for i in sigma:
        mask |= 1 << i
    return mask


def _bit_ids(mask: int) -> list[int]:
    """The ids whose bits are set in ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class StarFamily:
    """A canonicalized set of stars, each a set of element ids of one universe.

    Besides ``stars`` a family keeps an index for the engines: the stars in
    canonical order (``sorted_stars``), each star's bit row over element ids
    (``star_masks``, with ``mask_set`` for membership tests), and the ids
    its singleton stars force.  Each part is built from ``stars`` on first
    use.

    A family built by the constructor is a *root*: ``root`` is ``None`` and
    it holds its ``stars``, plus a ``memo`` that the engines fill per
    ``(s0, r, system)``.  :meth:`with_star` adds a singleton star without
    copying: the child's ``root`` is the root family and ``extra`` is the
    bit row of the ids whose singleton stars it adds, so ``sigma in child``
    is ``sigma in root.stars`` or a single id whose bit is in ``extra``.
    Both engines only ever add singletons; any other star makes a new root
    by copy.  A child's other parts are built from its root's on first use.
    """

    def __init__(self, universe: Universe, stars: Iterable, *, validate: bool = True):
        self.universe = universe
        self.stars = frozenset(frozenset(map(_as_id, sigma)) for sigma in stars)
        self.root: Optional[StarFamily] = None
        self.extra = 0
        self.memo: dict = {}
        if validate:
            for sigma in self.sorted_stars:
                if not is_star(universe.sep(i) for i in sigma):
                    raise FNotStars(sigma)

    def _extra_stars(self) -> list[frozenset[int]]:
        return [frozenset((i,)) for i in _bit_ids(self.extra)]

    @cached_property
    def stars(self) -> frozenset[frozenset[int]]:
        # only a child gets here: ``__init__`` sets a root's stars
        return self.root.stars.union(self._extra_stars())

    @cached_property
    def sorted_stars(self) -> tuple[frozenset[int], ...]:
        if self.root is None:
            return tuple(sorted(self.stars, key=star_sort_key))
        # singletons sort first, so the extra ones merge into the root's
        base = self.root.sorted_stars
        cut = bisect_left(base, 2, key=len)
        ones = sorted(base[:cut] + tuple(self._extra_stars()), key=star_sort_key)
        return tuple(ones) + base[cut:]

    @cached_property
    def star_masks(self) -> tuple[int, ...]:
        """Bit row of each star, in ``sorted_stars`` order."""
        return tuple(_star_mask(sigma) for sigma in self.sorted_stars)

    @cached_property
    def mask_set(self) -> frozenset[int]:
        if self.root is None:
            return frozenset(self.star_masks)
        return self.root.mask_set.union(1 << i for i in _bit_ids(self.extra))

    @cached_property
    def _inverse_singletons(self) -> frozenset[int]:
        inv = self.universe.inv_id
        return frozenset(inv(next(iter(s))) for s in self.stars if len(s) == 1)

    @cached_property
    def _inside(self) -> dict[tuple[int, int], tuple[frozenset[int], ...]]:
        return {}

    def __iter__(self):
        return iter(self.sorted_stars)

    def __len__(self) -> int:
        return len(self.stars)

    def __contains__(self, sigma) -> bool:
        ids = frozenset(map(_as_id, sigma))
        if self.root is None:
            return ids in self.stars
        if len(ids) == 1 and self.extra >> next(iter(ids)) & 1:
            return True
        return ids in self.root.stars

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StarFamily)
            and other.universe is self.universe
            and other.stars == self.stars
        )

    def __hash__(self) -> int:
        return hash((id(self.universe), self.stars))

    def with_star(self, sigma) -> "StarFamily":
        ids = frozenset(map(_as_id, sigma))
        if not is_star(self.universe.sep(i) for i in ids):
            raise FNotStars(ids)
        if ids in self:
            return self
        if len(ids) != 1:
            return StarFamily(self.universe, self.stars | {ids}, validate=False)
        (i,) = ids
        out = object.__new__(StarFamily)
        out.universe = self.universe
        out.root = self.root if self.root is not None else self
        out.extra = self.extra | 1 << i
        out._inverse_singletons = self._inverse_singletons | {self.universe.inv_id(i)}
        return out

    def stars_inside(self, allowed: int, touching: int) -> tuple[frozenset[int], ...]:
        """Stars, in canonical order, with every element's bit in ``allowed``
        and some element's bit in ``touching`` (cached per argument pair)."""
        key = (allowed, touching)
        hit = self._inside.get(key)
        if hit is None:
            outside = ~allowed
            hit = self._inside[key] = tuple([
                sigma
                for sigma, mask in zip(self.sorted_stars, self.star_masks)
                if mask & touching and not mask & outside
            ])
        return hit

    def restricted_to(self, system: SeparationSystem) -> "StarFamily":
        """The sub-family of stars lying entirely inside the system."""
        return StarFamily(
            self.universe,
            (sigma for sigma in self.stars if sigma <= system.member_ids),
            validate=False,
        )

    def forces(self, sep: OrientedSep) -> bool:
        """True iff the family contains the singleton star of ``sep``'s inverse."""
        return frozenset((sep.universe.inv_id(sep.id),)) in self

    def forced_ids(self, system: SeparationSystem) -> frozenset[int]:
        """All member orientations whose inverse forms a singleton star here."""
        return self._inverse_singletons & system.member_ids

    def missing_standard(self, system: SeparationSystem) -> tuple[int, ...]:
        """Trivial orientations of the system that the family fails to force."""
        u = self.universe
        return tuple(
            r
            for r in sorted(system.trivial_ids)
            if frozenset((u.inv_id(r),)) not in self
        )

    def is_standard_for(self, system: SeparationSystem) -> bool:
        return not self.missing_standard(system)

    def to_json_dict(self) -> dict:
        return {"stars": [sorted(sigma) for sigma in self.sorted_stars]}

    @classmethod
    def from_json_dict(cls, universe: Universe, d: dict) -> "StarFamily":
        if not isinstance(d, dict) or not isinstance(d.get("stars"), list):
            raise MalformedInput("family JSON needs a 'stars' list")
        stars = []
        for sigma in d["stars"]:
            if not isinstance(sigma, list):
                raise MalformedInput(f"a star must be a list of element ids, got {sigma!r}")
            for i in sigma:
                if not _is_id(i):
                    raise MalformedInput(f"star {sigma!r} holds a non-integer element {i!r}")
                if not 0 <= i < len(universe):
                    raise MalformedInput(f"star element {i} outside the universe")
            stars.append(sigma)
        return cls(universe, stars)

    def __repr__(self) -> str:
        return f"<family of {len(self)} stars>"


def _check_same_universe(family: StarFamily, system: SeparationSystem) -> None:
    if family.universe is not system.universe:
        raise MalformedInput("family and system live in different universes")


class STree:
    """An immutable tree with separation-labeled oriented edges."""

    def __init__(
        self,
        system: SeparationSystem,
        edges: Iterable[tuple[int, int]],
        alpha: dict,
        *,
        nodes: Optional[Iterable[int]] = None,
        root_leaf: Optional[int] = None,
    ):
        edge_set = {(int(u), int(v)) for u, v in edges}
        for u, v in list(edge_set):
            if u == v:
                raise MalformedInput(f"self-loop at node {u}")
            edge_set.discard((max(u, v), min(u, v)))
            edge_set.add((min(u, v), max(u, v)))
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edge_set))

        node_set = {int(n) for n in nodes} if nodes is not None else set()
        for u, v in self.edges:
            node_set.update((u, v))
        if not node_set:
            raise MalformedInput("a tree needs at least one node")
        self.nodes: tuple[int, ...] = tuple(sorted(node_set))

        adj: dict[int, list[int]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj: dict[int, tuple[int, ...]] = {
            n: tuple(sorted(ws)) for n, ws in adj.items()
        }
        self._check_is_tree()

        self.system = system
        self.alpha: dict[tuple[int, int], int] = self._normalize_alpha(alpha)

        self.root_leaf = int(root_leaf) if root_leaf is not None else None
        if self.root_leaf is not None:
            if self.root_leaf not in self.adj:
                raise MalformedInput(f"root leaf {self.root_leaf} is not a node")
            if len(self.adj[self.root_leaf]) > 1:
                raise MalformedInput(f"root {self.root_leaf} is not a leaf")

    def _check_is_tree(self) -> None:
        if len(self.edges) != len(self.nodes) - 1:
            raise MalformedInput(
                f"{len(self.nodes)} nodes need {len(self.nodes) - 1} edges to"
                f" form a tree, got {len(self.edges)}"
            )
        seen = {self.nodes[0]}
        frontier = [self.nodes[0]]
        while frontier:
            nxt = []
            for n in frontier:
                for w in self.adj[n]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        if len(seen) != len(self.nodes):
            raise MalformedInput("edge set is not connected")

    def _normalize_alpha(self, alpha: dict) -> dict[tuple[int, int], int]:
        u_inv = self.system.universe.inv_id
        out: dict[tuple[int, int], int] = {}
        for key, val in alpha.items():
            u, v = (int(x) for x in key)
            out[(u, v)] = _as_id(val)
        # members only: the system is closed under the involution, so the
        # inverses filled in below are members too
        for (u, v), label in sorted(out.items()):
            if label not in self.system.member_ids:
                raise AlphaImageOutsideS((u, v), label)
        for u, v in self.edges:
            fwd, bwd = out.get((u, v)), out.get((v, u))
            if fwd is None and bwd is None:
                raise MalformedInput(f"edge ({u}, {v}) has no label")
            if fwd is None:
                out[(u, v)] = u_inv(bwd)
            elif bwd is None:
                out[(v, u)] = u_inv(fwd)
            elif u_inv(fwd) != bwd:
                raise AlphaNotInvolutive((u, v), fwd, bwd)
        edge_set = set(self.edges)
        for u, v in sorted(out):
            if (min(u, v), max(u, v)) not in edge_set:
                raise MalformedInput(f"label on ({u}, {v}), which is not an edge")
        return out

    # -- basic queries ---------------------------------------------------

    def node_star(self, t: int) -> frozenset[int]:
        """Label set of the edges pointing at ``t``."""
        return frozenset(self.alpha[(w, t)] for w in self.adj[t])

    def leaves(self) -> tuple[int, ...]:
        return tuple(n for n in self.nodes if len(self.adj[n]) == 1)

    def oriented_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.alpha))

    def path(self, a: int, b: int) -> tuple[int, ...]:
        """The unique a–b path, as a node sequence."""
        parent = {a: None}
        frontier = [a]
        while frontier and b not in parent:
            nxt = []
            for n in frontier:
                for w in self.adj[n]:
                    if w not in parent:
                        parent[w] = n
                        nxt.append(w)
            frontier = nxt
        out = [b]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return tuple(reversed(out))

    def edge_leq(self, e: tuple[int, int], f: tuple[int, int]) -> bool:
        """Natural partial order on oriented edges."""
        if {e[0], e[1]} == {f[0], f[1]}:
            return e == f
        p = self.path(e[0], f[1])
        return len(p) >= 2 and p[1] == e[1] and p[-2] == f[0]

    def component_nodes(self, start: int, cut: Iterable[tuple[int, int]]) -> frozenset[int]:
        """Nodes reachable from ``start`` without crossing the cut edges."""
        banned = set()
        for u, v in cut:
            banned.add((u, v))
            banned.add((v, u))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for n in frontier:
                for w in self.adj[n]:
                    if (n, w) not in banned and w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return frozenset(seen)

    # -- derived trees -----------------------------------------------------

    def without_nodes(self, drop: Iterable[int], *, root_leaf=None) -> "STree":
        dropped = set(drop)
        kept = [n for n in self.nodes if n not in dropped]
        edges = [(u, v) for u, v in self.edges if u not in dropped and v not in dropped]
        alpha = {
            (u, v): lab
            for (u, v), lab in self.alpha.items()
            if u not in dropped and v not in dropped
        }
        keep_root = root_leaf if root_leaf is not None else self.root_leaf
        if keep_root in dropped:
            keep_root = None
        return STree(self.system, edges, alpha, nodes=kept, root_leaf=keep_root)

    def _key(self) -> tuple:
        return (
            id(self.system),
            self.nodes,
            self.edges,
            tuple(sorted(self.alpha.items())),
            self.root_leaf,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, STree) and other._key() == self._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<stree on {len(self.nodes)} nodes>"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        d = {
            "nodes": list(self.nodes),
            "edges": [[u, v] for u, v in self.edges],
            "alpha": {f"{u}->{v}": lab for (u, v), lab in sorted(self.alpha.items())},
        }
        if self.root_leaf is not None:
            d["root_leaf"] = self.root_leaf
        return d

    @classmethod
    def from_json_dict(cls, system: SeparationSystem, d: dict) -> "STree":
        """Read a tree document; every node id and label must be a JSON integer."""
        nodes, edges, alpha = d.get("nodes"), d.get("edges", []), d.get("alpha", {})
        if not isinstance(nodes, list) or not all(_is_id(n) for n in nodes):
            raise MalformedInput("tree 'nodes' must be a list of integer node ids")
        if not isinstance(edges, list):
            raise MalformedInput("tree 'edges' must be a list of [u, v] pairs")
        edges = [_id_entry(e, 2, "tree edge", "[u, v] pairs") for e in edges]
        if not isinstance(alpha, dict):
            raise MalformedInput("tree 'alpha' must map 'u->v' keys to element ids")
        labels = {}
        for key, val in alpha.items():
            u, arrow, v = key.partition("->")
            if not (arrow and _NODE_ID.fullmatch(u) and _NODE_ID.fullmatch(v)):
                raise MalformedInput(f"tree 'alpha' key {key!r} is not of the form 'u->v'")
            if not _is_id(val):
                raise MalformedInput(f"tree label {val!r} on {key!r} is not an integer id")
            labels[(int(u), int(v))] = val
        root_leaf = d.get("root_leaf")
        if root_leaf is not None and not _is_id(root_leaf):
            raise MalformedInput(f"tree 'root_leaf' {root_leaf!r} is not an integer node id")
        return cls(system, edges, labels, nodes=nodes, root_leaf=root_leaf)

    def to_dot(self) -> str:
        lines = ["graph stree {"]
        for n in self.nodes:
            shape = "doublecircle" if n == self.root_leaf else "circle"
            lines.append(f'  {n} [shape={shape}];')
        for u, v in self.edges:
            lines.append(
                f'  {u} -- {v} [label="{self.alpha[(u, v)]}/{self.alpha[(v, u)]}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


# --- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class STreeReport:
    is_stree: bool
    is_over_stars: bool
    is_irredundant: bool
    is_tight: bool
    is_order_respecting: bool
    is_essential: bool
    over_family: Optional[bool]
    problems: tuple[str, ...]


def _redundant_triple(tree: STree) -> Optional[tuple[int, int, int]]:
    """Least (node, n1, n2) with two incoming edges sharing a label."""
    for t in tree.nodes:
        ws = tree.adj[t]
        for i, n1 in enumerate(ws):
            for n2 in ws[i + 1:]:
                if tree.alpha[(n1, t)] == tree.alpha[(n2, t)]:
                    return t, n1, n2
    return None


def _inverse_pair_triple(tree: STree) -> Optional[tuple[int, int, int]]:
    """Least (node, n1, n2) whose incoming labels are nondegenerate inverses."""
    inv = tree.system.universe.inv_id
    for t in tree.nodes:
        ws = tree.adj[t]
        for i, n1 in enumerate(ws):
            a = tree.alpha[(n1, t)]
            if inv(a) == a:
                continue
            for n2 in ws[i + 1:]:
                if tree.alpha[(n2, t)] == inv(a):
                    return t, n1, n2
    return None


def is_order_respecting(tree: STree) -> bool:
    """True iff ``e < f`` in the edge order implies ``alpha(e) <= alpha(f)``.

    Only adjacent pairs ``(x, y) < (y, z)`` with ``z != x`` are checked,
    O(Σ deg²) in all: every comparable pair is joined by a chain of
    adjacent ones, and the universe order is transitive.
    """
    u = tree.system.universe
    alpha = tree.alpha
    for y, ws in tree.adj.items():
        outgoing = [(z, alpha[(y, z)]) for z in ws]
        for x in ws:
            above = u.above_mask(alpha[(x, y)])
            for z, label in outgoing:
                if z != x and not above >> label & 1:
                    return False
    return True


def validate_stree(tree: STree, family: Optional[StarFamily] = None) -> STreeReport:
    """Structural report for a labeled tree.

    Construction already guarantees treeness and an involutive labeling into
    the system, so ``is_stree`` holds for every :class:`STree` instance; the
    remaining flags classify it further.  ``over_family`` is ``None`` when no
    family is supplied.
    """
    problems = []
    system = tree.system
    u = system.universe

    over_stars = True
    for t in tree.nodes:
        if not is_star(u.sep(i) for i in tree.node_star(t)):
            over_stars = False
            problems.append(f"star at node {t} is not a star")
            break

    irredundant = _redundant_triple(tree) is None
    if not irredundant:
        problems.append(f"redundant at {_redundant_triple(tree)}")

    tight = _inverse_pair_triple(tree) is None
    if not tight:
        problems.append(f"non-antisymmetric star at {_inverse_pair_triple(tree)}")

    order_ok = is_order_respecting(tree)
    if not order_ok:
        problems.append("labeling does not respect the edge order")

    no_trivial = all(lab not in system.trivial_ids for lab in tree.alpha.values())
    essential = irredundant and tight and no_trivial

    over_family: Optional[bool] = None
    if family is not None:
        over_family = all(tree.node_star(t) in family for t in tree.nodes)
        if not over_family:
            bad = next(
                t for t in tree.nodes if tree.node_star(t) not in family
            )
            problems.append(f"star at node {bad} is outside the family")

    return STreeReport(
        is_stree=True,
        is_over_stars=over_stars,
        is_irredundant=irredundant,
        is_tight=tight,
        is_order_respecting=order_ok,
        is_essential=essential,
        over_family=over_family,
        problems=tuple(problems),
    )


def is_over(tree: STree, family: StarFamily) -> bool:
    return all(tree.node_star(t) in family for t in tree.nodes)


# --- surgery -------------------------------------------------------------------


def prune_to_irredundant(tree: STree, root: Optional[int] = None) -> STree:
    """Drop duplicate branches until every node's incoming labels are distinct.

    When two edges into a node carry the same label, the branch hanging off
    one of them is deleted; node stars are unchanged as sets, so the result
    is over every family the input was over.  A ``root`` leaf (default: the
    tree's own root leaf) is never deleted, nor is its edge.
    """
    if root is None:
        root = tree.root_leaf
    t = tree
    while True:
        hit = _redundant_triple(t)
        if hit is None:
            return t
        node, n1, n2 = hit
        branch2 = t.component_nodes(n2, cut=[(node, n2)])
        if root is not None and root in branch2:
            drop = t.component_nodes(n1, cut=[(node, n1)])
        else:
            drop = branch2
        if root is not None and root in drop:
            raise InternalInvariant("pruning would delete the protected root")
        t = t.without_nodes(drop)


def contract_to_tight(tree: STree) -> STree:
    """Contract away nodes whose star holds a nondegenerate inverse pair.

    If edges (n1, t) and (n2, t) carry a separation and its inverse, the part
    of the tree between n1 and n2 (containing t) is deleted and n1, n2 are
    joined by an edge inheriting those labels.  Stars at surviving nodes are
    unchanged.  Nodes are resolved in increasing id order.
    """
    t = tree
    while True:
        hit = _inverse_pair_triple(t)
        if hit is None:
            return t
        node, n1, n2 = hit
        mid = t.component_nodes(node, cut=[(n1, node), (node, n2)])
        fwd = t.alpha[(n1, node)]
        edges = [
            (u, v) for u, v in t.edges if u not in mid and v not in mid
        ] + [(n1, n2)]
        alpha = {
            k: v
            for k, v in t.alpha.items()
            if k[0] not in mid and k[1] not in mid
        }
        alpha[(n1, n2)] = fwd
        alpha[(n2, n1)] = t.system.universe.inv_id(fwd)
        keep_root = t.root_leaf if t.root_leaf not in mid else None
        kept = [n for n in t.nodes if n not in mid]
        t = STree(t.system, edges, alpha, nodes=kept, root_leaf=keep_root)


def tighten_rooted(tree: STree, root: int) -> STree:
    """Prune and contract a rooted tree, keeping the root and its edge.

    Requires the label pointing away from the root to be nontrivial and
    nondegenerate; the result is irredundant, tight, and carries that label
    on exactly one oriented edge (the root's own).
    """
    if root not in tree.adj or len(tree.adj[root]) != 1:
        raise MalformedInput(f"node {root} is not a leaf")
    nb = tree.adj[root][0]
    r_id = tree.alpha[(root, nb)]
    system = tree.system
    if r_id in system.trivial_ids or system.universe.is_degenerate_id(r_id):
        raise RootLabelTrivial(root, r_id)

    t = prune_to_irredundant(tree, root)
    t = contract_to_tight(t)
    if root not in t.adj or t.alpha.get((root, t.adj[root][0])) != r_id:
        raise InternalInvariant("tightening lost the root or its label")
    count = sum(1 for lab in t.alpha.values() if lab == r_id)
    if count != 1:
        raise InternalInvariant(
            f"root label appears on {count} oriented edges after tightening"
        )
    return STree(
        t.system, t.edges, t.alpha, nodes=t.nodes, root_leaf=root
    )


def find_guided_sink(tree: STree, picks) -> int:
    """Follow edges whose labels the orientation picks, to a node all of
    whose incoming labels are picked.

    Each edge (x, y) is directed towards ``y`` iff the label of (x, y) is
    picked; for a full orientation a directed walk in a tree must end in a
    sink, whose star is then a subset of the picks.
    """
    ids = set(map(_as_id, picks))
    t = tree.nodes[0]
    for _ in range(len(tree.nodes) + 1):
        step = None
        for w in tree.adj[t]:
            if tree.alpha[(w, t)] not in ids:
                step = w
                break
        if step is None:
            return t
        t = step
    raise InternalInvariant("guided walk did not reach a sink")
