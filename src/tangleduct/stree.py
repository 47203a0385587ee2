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

The public :class:`STree` constructor checks its input from first
principles; a tree that surgery derives from a checked tree is built on a
trusted path, and a tree keeps its scan verdicts and surgery results.

A :class:`StarFamily` child adds singleton stars to a root family as a bit
row and derives everything else, its forced inverses included, from the
root on demand.
"""

from __future__ import annotations

import copy
import re
import weakref
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import chain
from typing import Iterable, Optional

import numpy as np

from .core import (
    SeparationSystem,
    Universe,
    _all_stars,
    _as_id,
    _bit_rows,
    _chunk_rows,
    _flat,
    _id_entry,
    _id_row,
    _ids_within,
    _is_id,
    _is_star_ids,
    _readonly,
)
from .errors import (
    AlphaImageOutsideS,
    AlphaNotInvolutive,
    FNotStars,
    InternalInvariant,
    MalformedInput,
    RootLabelTrivial,
)

# a node id in the halves of an alpha key "u->v", spelled as str(int) does
_NODE_ID = re.compile(r"0|-?[1-9][0-9]*")


# a family of more than this many stars is large: the one size rule of StarFamily
_SMALL_FAMILY = 64


def star_sort_key(sigma: frozenset[int]) -> tuple:
    return (len(sigma), tuple(sorted(sigma)))


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
    (``star_masks``), the nonempty stars as rows of ids (``star_rows``), and
    the bit row of the ids of its singleton stars (``singles``).  Each part
    is built from ``stars`` on first use and then read from the instance
    dict.  Its size is the one rule (:attr:`_large`): a family of more than
    ``_SMALL_FAMILY`` stars builds the first three at the first read of any
    of them, in one numpy pass (:meth:`_index`), and the separator search
    gathers a large root's stars through ``star_rows``; a small one builds
    the first two alone, with a Python sort key per star.  The constructor
    checks the stars before either build.  Whether the family holds
    ``{i}``, and so forces ``i``'s inverse, is one bit of ``singles``.

    A family built by the constructor is a *root*: ``root`` is ``None`` and
    it holds its ``stars``, plus a ``memo`` that the engines fill per
    system, with the separator search's answers per ``(s0, r)``, the
    indices of its qualifying stars per base ``r`` and the strong engine's
    answers per ``extra`` row.  The memo holds its systems weakly, so a
    family used with many systems keeps none of them alive.
    :meth:`with_star` adds a singleton star without copying, through
    :meth:`_child`, which both engines call directly: the child's ``root``
    is the root family and ``extra`` is the bit row of the ids whose
    singleton stars it adds, so ``sigma in child`` is ``sigma in
    root.stars`` or a single id whose bit is in ``extra``.  Both engines
    only ever add singletons; any other star makes a new root by copy.  A
    child holds only its root and its ``extra`` row, so a level of the
    engines copies nothing: its ``singles`` is its root's OR ``extra``, and
    every other part is built on first use, as a root's is.  The engines'
    levels read only a child's ``extra`` and its root's parts.
    """

    def __init__(self, universe: Universe, stars: Iterable, *, validate: bool = True):
        self.universe = universe
        sets = [frozenset(sigma) for sigma in stars]
        if not set(map(type, chain.from_iterable(sets))) <= {int}:
            sets = [frozenset(map(_as_id, sigma)) for sigma in sets]  # handles, numpy ids
        self.stars = frozenset(sets)
        self.root: Optional[StarFamily] = None
        self.extra = 0
        self.memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        if validate and not _all_stars(universe, sets):
            # name the canonically least star that fails; the index is not
            # built, as a non-star may hold an id outside the universe
            for sigma in sorted(self.stars, key=star_sort_key):
                if not _is_star_ids(universe, sigma):
                    raise FNotStars(sigma)

    @cached_property
    def stars(self) -> frozenset[frozenset[int]]:
        # only a child gets here: ``__init__`` sets a root's stars
        return self.root.stars.union(frozenset((i,)) for i in _bit_ids(self.extra))

    @property
    def _large(self) -> bool:
        return len(self.stars) > _SMALL_FAMILY

    @property
    def _root_family(self) -> "StarFamily":
        # a root's ``root`` stays None, so that no root refers to itself
        return self if self.root is None else self.root

    @cached_property
    def sorted_stars(self) -> tuple[frozenset[int], ...]:
        if self._large:
            return self._index()["sorted_stars"]
        return tuple(sorted(self.stars, key=star_sort_key))

    @cached_property
    def star_masks(self) -> tuple[int, ...]:
        """Bit row of each star, in ``sorted_stars`` order."""
        if self._large:
            return self._index()["star_masks"]
        return tuple(_id_row(sigma) for sigma in self.sorted_stars)

    @cached_property
    def star_rows(self) -> np.ndarray:
        """The nonempty stars, in canonical order, as the rows of a
        read-only ``int32`` matrix; a star shorter than the longest repeats
        its least id, which leaves it the same set."""
        return self._index()["star_rows"]

    def _index(self) -> dict:
        """Build ``sorted_stars``, ``star_masks`` and ``star_rows`` into the
        instance dict, keeping any view already read, and return it.

        The ids of each nonempty star are sorted in a matrix padded with
        its least id, which is ``star_rows`` once one ``np.lexsort`` by
        ``(len, sorted ids)`` puts its rows in canonical order; the empty
        star, if held, leads.  The bit rows come from ``np.packbits`` of
        the rows' boolean matrix, a chunk of ``_chunk_rows(n)`` rows at a time.
        """
        stars = [sigma for sigma in self.stars if sigma]
        n = len(self.universe)
        lens = np.fromiter(map(len, stars), dtype=np.intp, count=len(stars))
        held = np.arange(lens.max(initial=0)) < lens[:, None]
        rows = np.full(held.shape, n, dtype=np.int32)  # n sorts after every id
        rows[held] = np.fromiter(chain.from_iterable(stars), dtype=np.int32, count=held.sum())
        rows.sort(axis=1)
        rows = np.where(held, rows, rows[:, :1])
        order = np.lexsort((*rows.T[::-1], lens))  # by length, then by ids
        rows = _readonly(rows[order])
        masks = []
        step = _chunk_rows(n)
        for lo in range(0, len(rows), step):
            chunk = rows[lo : lo + step]
            bits = np.zeros((len(chunk), n), dtype=bool)
            np.put_along_axis(bits, chunk, True, axis=1)
            masks += _bit_rows(bits)
        empty = (frozenset(),) if len(stars) < len(self.stars) else ()
        views = vars(self)
        views.setdefault("sorted_stars", empty + tuple(map(stars.__getitem__, order.tolist())))
        views.setdefault("star_masks", (0,) * len(empty) + tuple(masks))
        views.setdefault("star_rows", rows)
        return views

    @cached_property
    def singles(self) -> int:
        """Bit row of the ids whose singleton stars the family holds."""
        if self.root is not None:
            return self.root.singles | self.extra
        return _id_row(i for sigma in self.stars if len(sigma) == 1 for i in sigma)

    def __iter__(self):
        return iter(self.sorted_stars)

    def __len__(self) -> int:
        return len(self.stars)

    def __contains__(self, sigma) -> bool:
        return self._has(frozenset(map(_as_id, sigma)))

    def _has(self, ids: frozenset[int]) -> bool:
        """``ids in self`` for a star already given as a set of element ids."""
        if len(ids) == 1 and self.extra >> next(iter(ids)) & 1:  # a root's extra is 0
            return True
        return ids in self._root_family.stars

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
        if len(ids) == 1:
            return self._child(next(iter(ids)))
        if not _is_star_ids(self.universe, ids):
            raise FNotStars(ids)
        if self._has(ids):
            return self
        return StarFamily(self.universe, self.stars | {ids}, validate=False)

    def _child(self, i: int) -> "StarFamily":
        """This family plus the singleton star ``{i}``: ``self`` when it
        holds it, else a child of the root.  A singleton is a star unless
        ``i`` is degenerate; an id outside the universe raises
        ``IndexError``."""
        u = self.universe
        n = len(u)
        if not 0 <= i < n:
            raise IndexError(f"element id {i} outside a universe of {n}")
        if u.inv_id(i) == i:
            raise FNotStars((i,))
        if self.singles >> i & 1:
            return self
        out = object.__new__(StarFamily)
        out.universe = u
        out.root = self._root_family
        out.extra = self.extra | 1 << i
        return out

    def restricted_to(self, system: SeparationSystem) -> "StarFamily":
        """The sub-family of stars lying entirely inside the system; the
        family itself when no star is dropped, so its caches carry over."""
        kept = [sigma for sigma in self.stars if sigma <= system.member_ids]
        if len(kept) == len(self.stars):
            return self
        return StarFamily(self.universe, kept, validate=False)

    def missing_standard(self, system: SeparationSystem) -> tuple[int, ...]:
        """Trivial orientations of the system that the family fails to force."""
        u = self.universe
        return tuple(
            r
            for r in sorted(system.trivial_ids)
            if not self.singles >> u.inv_id(r) & 1
        )

    def is_standard_for(self, system: SeparationSystem) -> bool:
        return not self.missing_standard(system)

    def to_json_dict(self) -> dict:
        return {"stars": [sorted(sigma) for sigma in self.sorted_stars]}

    @classmethod
    def from_json_dict(cls, universe: Universe, d: dict) -> "StarFamily":
        """Read a ``stars`` list of id lists by the rule of :mod:`.core`, naming the
        first bad star or id in document order, then the least non-star."""
        if not isinstance(d, dict) or not isinstance(d.get("stars"), list):
            raise MalformedInput("family JSON needs a 'stars' list")
        stars, n = d["stars"], len(universe)
        if not _ids_within(_flat(stars), n):
            for sigma in stars:
                if not isinstance(sigma, list):
                    raise MalformedInput(f"a star must be a list of element ids, got {sigma!r}")
                for i in sigma:
                    if not _is_id(i):
                        raise MalformedInput(f"star {sigma!r} holds a non-integer element {i!r}")
                    if not 0 <= i < n:
                        raise MalformedInput(f"star element {i} outside the universe")
        return cls(universe, stars)

    def __repr__(self) -> str:
        return f"<family of {len(self)} stars>"


def _check_same_universe(family: StarFamily, system: SeparationSystem) -> None:
    if family.universe is not system.universe:
        raise MalformedInput("family and system live in different universes")


def _listed_once(items: Iterable, what: str) -> set:
    """The set of ``items``, refusing the first one listed twice."""
    seen = set()
    for x in items:
        if x in seen:
            raise MalformedInput(f"tree {what} {x} is listed twice")
        seen.add(x)
    return seen


def _filled_alpha(
    system: SeparationSystem, edges: Iterable[tuple[int, int]], alpha: dict
) -> dict[tuple[int, int], int]:
    """``alpha`` keyed by pairs of node ids with labels as ids, each member
    label's inverse added on the other orientation of its edge where that
    has no label.  :meth:`STree._check` reports what is wrong or missing."""
    out = {(int(u), int(v)): _as_id(val) for (u, v), val in alpha.items()}
    members, u_inv = system.member_ids, system.universe.inv_id
    for u, v in edges:
        fwd, bwd = out.get((u, v)), out.get((v, u))
        if bwd is None and fwd in members:
            out[(v, u)] = u_inv(fwd)
        elif fwd is None and bwd in members:
            out[(u, v)] = u_inv(bwd)
    return out


class STree:
    """An immutable tree with separation-labeled oriented edges.

    The constructor refuses a node or edge listed twice, or an edge ending
    outside the ``nodes`` given, normalizes its input (edges as ``(min,
    max)`` pairs, the missing orientation of an edge labelled by its
    inverse) and runs :meth:`_check`.  Trees the engines derive from
    checked trees are built by :meth:`_derived`, which takes their edges
    from their labels and trusts them; ``verify_certificate`` runs
    :meth:`_check` on every tree certificate, which covers them.

    A tree is never mutated, so it keeps what is read off it in two
    dicts, each with one rule.  ``_verdicts`` holds scan answers only,
    each under the function that computes it: :func:`_redundant_triple`,
    :func:`_inverse_pair_triple` and, for the last root family the tree
    was checked against (held weakly), :func:`_lacked_stars`.  It never
    holds a tree, so a :meth:`_with_root_leaf` copy shares it, as it
    shares the node stars, and a tree passed up the engines' levels is
    scanned once.  ``_results`` holds the trees that surgery built from
    this one: :func:`tighten_rooted` per root and ``duality.shift_stree``
    per ``(root, s0)``, each stored after the checks of its input.  Each
    is built after its owner, so an entry only points from an older tree
    to a newer one and no entry closes a reference cycle; a copy starts
    with its own empty ``_results``.  :func:`validate_stree` and
    ``verify_certificate`` read neither dict.
    """

    def __init__(
        self,
        system: SeparationSystem,
        edges: Iterable[tuple[int, int]],
        alpha: dict,
        *,
        nodes: Optional[Iterable[int]] = None,
        root_leaf: Optional[int] = None,
    ):
        edge_list = [(int(u), int(v)) for u, v in edges]
        loop = next((u for u, v in edge_list if u == v), None)
        if loop is not None:
            raise MalformedInput(f"self-loop at node {loop}")
        node_set = _listed_once(() if nodes is None else map(int, nodes), "node")
        edge_list = [(min(e), max(e)) for e in edge_list]
        edge_set = _listed_once(edge_list, "edge")
        if nodes is not None and not node_set.issuperset(chain.from_iterable(edge_list)):
            e, n = next((e, n) for e in edge_list for n in e if n not in node_set)
            raise MalformedInput(f"edge {e} ends at node {n}, which is not among the nodes")
        node_set.update(chain.from_iterable(edge_set))
        labels = _filled_alpha(system, edge_set, alpha)
        root = int(root_leaf) if root_leaf is not None else None
        self._assemble(system, edge_set, labels, node_set, root, None)
        self._check()

    @classmethod
    def _derived(
        cls,
        system: SeparationSystem,
        alpha: dict[tuple[int, int], int],
        nodes: Iterable[int],
        root_leaf: Optional[int] = None,
        adj: Optional[dict[int, tuple[int, ...]]] = None,
    ) -> "STree":
        """A tree from trusted parts: members labelling both orientations
        of the edges of a tree on ``nodes``, each the other's inverse; the
        edges are the keys ``(u, v)`` with ``u < v``.  Nothing is checked;
        ``adj``, when given, is the adjacency of the same nodes and edges."""
        out = cls.__new__(cls)
        out._assemble(system, [e for e in alpha if e[0] < e[1]], alpha, nodes, root_leaf, adj)
        return out

    def _assemble(self, system, edges, alpha, nodes, root_leaf, adj) -> None:
        self.system = system
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edges))
        self.nodes: tuple[int, ...] = tuple(sorted(nodes))
        self.alpha: dict[tuple[int, int], int] = alpha
        self.root_leaf: Optional[int] = root_leaf
        self._stars: dict[int, frozenset[int]] = {}
        self._verdicts: dict[object, object] = {}
        self._results: dict[tuple, STree] = {}
        if adj is None:
            # sorted (min, max) edges list each node's smaller neighbours,
            # then its larger ones, each in increasing order
            lists: dict[int, list[int]] = {n: [] for n in self.nodes}
            for u, v in self.edges:
                lists[u].append(v)
                lists[v].append(u)
            adj = {n: tuple(ws) for n, ws in lists.items()}
        self.adj: dict[int, tuple[int, ...]] = adj

    def _check(self) -> None:
        """Check the tree from first principles: at least one node, the
        edges form a tree on the nodes, every label is a member, both
        orientations of every edge are labelled, each by the other's
        inverse, no label sits off an edge, and the root leaf, if any, is a
        leaf.  Raises on the first failure."""
        if not self.nodes:
            raise MalformedInput("a tree needs at least one node")
        if len(self.edges) != len(self.nodes) - 1:
            raise MalformedInput(
                f"{len(self.nodes)} nodes need {len(self.nodes) - 1} edges to"
                f" form a tree, got {len(self.edges)}"
            )
        if len(self._parents(self.nodes[0])) != len(self.nodes):
            raise MalformedInput("edge set is not connected")
        members = self.system.member_ids
        for (u, v), label in sorted(self.alpha.items()):
            if label not in members:
                raise AlphaImageOutsideS((u, v), label)
        u_inv = self.system.universe.inv_id
        for u, v in self.edges:
            fwd, bwd = self.alpha.get((u, v)), self.alpha.get((v, u))
            if fwd is None and bwd is None:
                raise MalformedInput(f"edge ({u}, {v}) has no label")
            if fwd is None or bwd is None:
                a, b = (u, v) if fwd is None else (v, u)
                raise MalformedInput(f"oriented edge ({a}, {b}) has no label")
            if u_inv(fwd) != bwd:
                raise AlphaNotInvolutive((u, v), fwd, bwd)
        # every edge holds two labels, so only a surplus can sit off an edge
        if len(self.alpha) != 2 * len(self.edges):
            edge_set = set(self.edges)
            for u, v in sorted(self.alpha):
                if (min(u, v), max(u, v)) not in edge_set:
                    raise MalformedInput(f"label on ({u}, {v}), which is not an edge")
        if self.root_leaf is not None:
            if self.root_leaf not in self.adj:
                raise MalformedInput(f"root leaf {self.root_leaf} is not a node")
            if len(self.adj[self.root_leaf]) > 1:
                raise MalformedInput(f"root {self.root_leaf} is not a leaf")

    # -- basic queries ---------------------------------------------------

    def node_star(self, t: int) -> frozenset[int]:
        """Label set of the edges pointing at ``t`` (cached per node)."""
        star = self._stars.get(t)
        if star is None:
            star = self._stars[t] = frozenset(self.alpha[(w, t)] for w in self.adj[t])
        return star

    def leaves(self) -> tuple[int, ...]:
        return tuple(n for n in self.nodes if len(self.adj[n]) == 1)

    def oriented_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.alpha))

    def _parents(
        self, start: int, cut: Iterable[tuple[int, int]] = ()
    ) -> dict[int, Optional[int]]:
        """The parent of each node reachable from ``start`` without crossing
        the ``cut`` edges, in either direction; ``start`` maps to ``None``.
        In a tree the parents are unique, whatever the order of the walk."""
        banned = set()
        for u, v in cut:
            banned.update(((u, v), (v, u)))
        parent: dict[int, Optional[int]] = {start: None}
        order = [start]
        for n in order:
            for w in self.adj[n]:
                if w not in parent and (n, w) not in banned:
                    parent[w] = n
                    order.append(w)
        return parent

    def path(self, a: int, b: int) -> tuple[int, ...]:
        """The unique a–b path, as a node sequence."""
        parent = self._parents(a)
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
        return frozenset(self._parents(start, cut))

    # -- derived trees -----------------------------------------------------

    def _with_root_leaf(self, root: int) -> "STree":
        """This tree with ``root`` as its root leaf, sharing its checked
        parts, its node stars and its verdicts, with no results kept."""
        if len(self.adj[root]) > 1:
            raise MalformedInput(f"root {root} is not a leaf")
        out = copy.copy(self)
        out.root_leaf = root
        out._results = {}
        return out

    def _without(self, dropped: set[int]) -> "STree":
        """This tree minus nodes whose deletion leaves a tree, such as a
        branch or a leaf, on the trusted path."""
        kept = [n for n in self.nodes if n not in dropped]
        alpha = {
            (u, v): lab
            for (u, v), lab in self.alpha.items()
            if u not in dropped and v not in dropped
        }
        keep_root = None if self.root_leaf in dropped else self.root_leaf
        return STree._derived(self.system, alpha, kept, keep_root)

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
        if not isinstance(nodes, list) or not _ids_within(nodes):
            raise MalformedInput("tree 'nodes' must be a list of integer node ids")
        if not isinstance(edges, list):
            raise MalformedInput("tree 'edges' must be a list of [u, v] pairs")
        if not _ids_within(_flat(edges, 2)):
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


def _kept(scan):
    """``scan(tree)``, kept on the tree from its first call under the
    returned function itself as key; its ``__wrapped__`` scans afresh."""

    @wraps(scan)
    def kept(tree: STree):
        verdicts = tree._verdicts
        if kept not in verdicts:
            verdicts[kept] = scan(tree)
        return verdicts[kept]

    return kept


@_kept
def _redundant_triple(tree: STree) -> Optional[tuple[int, int, int]]:
    """Least (node, n1, n2) with two incoming edges sharing a label."""
    for t in tree.nodes:
        ws = tree.adj[t]
        for i, n1 in enumerate(ws):
            for n2 in ws[i + 1:]:
                if tree.alpha[(n1, t)] == tree.alpha[(n2, t)]:
                    return t, n1, n2
    return None


@_kept
def _inverse_pair_triple(tree: STree) -> Optional[tuple[int, int, int]]:
    """Least (node, n1, n2) whose incoming labels are nondegenerate inverses."""
    inv = tree.system.universe.inv_id
    for t in tree.nodes:
        ws = tree.adj[t]
        for i, n1 in enumerate(ws):
            a = tree.alpha[(n1, t)]
            b = inv(a)
            if b == a:
                continue
            for n2 in ws[i + 1:]:
                if tree.alpha[(n2, t)] == b:
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


def _structure_problem(tree: STree) -> Optional[str]:
    """The failure :meth:`STree._check` raises on ``tree``, as a problem
    line, or ``None`` when the tree passes."""
    try:
        tree._check()
    except (MalformedInput, AlphaImageOutsideS, AlphaNotInvolutive) as exc:
        return f"not an S-tree: {exc}"
    return None


def validate_stree(tree: STree, family: Optional[StarFamily] = None) -> STreeReport:
    """Structural report for a labeled tree.

    ``is_stree`` is :meth:`STree._check`'s verdict: a tree whose oriented
    edges are all labelled, involutively, by members of the system, with a
    leaf as its root leaf.  A tree that fails it gets every other flag
    false and the check's message as its one problem.  The remaining flags
    classify an S-tree further.  ``over_family`` is ``None`` when no family
    is supplied.
    """
    problem = _structure_problem(tree)
    if problem is not None:
        over = None if family is None else False
        return STreeReport(False, False, False, False, False, False, over, (problem,))
    problems = []
    system = tree.system
    u = system.universe

    over_stars = _all_stars(u, [tree.node_star(t) for t in tree.nodes])
    if not over_stars:
        t = next(t for t in tree.nodes if not _is_star_ids(u, tree.node_star(t)))
        problems.append(f"star at node {t} is not a star")

    # scanned afresh, not read from the verdicts the tree keeps
    redundant = _redundant_triple.__wrapped__(tree)
    irredundant = redundant is None
    if not irredundant:
        problems.append(f"redundant at {redundant}")

    inverse_pair = _inverse_pair_triple.__wrapped__(tree)
    tight = inverse_pair is None
    if not tight:
        problems.append(f"non-antisymmetric star at {inverse_pair}")

    order_ok = is_order_respecting(tree)
    if not order_ok:
        problems.append("labeling does not respect the edge order")

    no_trivial = all(lab not in system.trivial_ids for lab in tree.alpha.values())
    essential = irredundant and tight and no_trivial

    over_family: Optional[bool] = None
    if family is not None:
        bad = _star_outside(tree, family)
        over_family = bad is None
        if not over_family:
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
    """True iff every node star is a star of the family: one AND of the
    row of singletons the tree needs beyond the family's root
    (:func:`_lacked_stars`) against the family's ``extra`` row."""
    need, _ = _lacked_stars(tree, family)
    return not need & ~family.extra


def _star_outside(tree: STree, family: StarFamily) -> Optional[int]:
    """The first node whose star is not in ``family``, scanned afresh."""
    return next((t for t in tree.nodes if not family._has(tree.node_star(t))), None)


def _lacked_stars(
    tree: STree, family: StarFamily
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The nodes, in order, whose stars the root of ``family`` lacks, each
    with the bit row that a family's ``extra`` must cover to hold its star
    (the bit of its id for a singleton, -1, which no row covers, for any
    other star), and the OR of those rows.  Kept on the tree for the last
    root asked, which it holds weakly."""
    root = family._root_family
    kept = tree._verdicts.get(_lacked_stars)
    if kept is not None and kept[0]() is root:
        return kept[1], kept[2]
    stars = root.stars
    lacked = []
    need = 0
    for t in tree.nodes:
        star = tree.node_star(t)
        if star not in stars:
            bit = 1 << next(iter(star)) if len(star) == 1 else -1
            lacked.append((t, bit))
            need |= bit
    out = tuple(lacked)
    tree._verdicts[_lacked_stars] = (weakref.ref(root), need, out)
    return need, out


# --- surgery -------------------------------------------------------------------


def prune_to_irredundant(tree: STree, root: Optional[int] = None) -> STree:
    """Drop duplicate branches until every node's incoming labels are distinct.

    When two edges into a node carry the same label, the branch hanging off
    one of them is deleted; node stars are unchanged as sets, so the result
    is over every family the input was over.  A ``root`` leaf (default: the
    tree's own root leaf) is never deleted, nor is its edge.  An
    irredundant tree is returned as it is, after one kept scan.
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
        t = t._without(drop)


def contract_to_tight(tree: STree) -> STree:
    """Contract away nodes whose star holds a nondegenerate inverse pair.

    If edges (n1, t) and (n2, t) carry a separation and its inverse, the part
    of the tree between n1 and n2 (containing t) is deleted and n1, n2 are
    joined by an edge inheriting those labels.  Stars at surviving nodes are
    unchanged, each label kept as often as before.  Nodes are resolved in
    increasing id order.
    """
    t = tree
    while True:
        hit = _inverse_pair_triple(t)
        if hit is None:
            return t
        node, n1, n2 = hit
        mid = t.component_nodes(node, cut=[(n1, node), (node, n2)])
        fwd = t.alpha[(n1, node)]
        alpha = {
            k: v
            for k, v in t.alpha.items()
            if k[0] not in mid and k[1] not in mid
        }
        alpha[(n1, n2)] = fwd
        alpha[(n2, n1)] = t.system.universe.inv_id(fwd)
        keep_root = t.root_leaf if t.root_leaf not in mid else None
        kept = [n for n in t.nodes if n not in mid]
        # every surviving node keeps the labels of its incoming edges, so
        # a tree known to be irredundant stays irredundant
        irredundant = t._verdicts.get(_redundant_triple, ()) is None
        t = STree._derived(t.system, alpha, kept, keep_root)
        if irredundant:
            t._verdicts[_redundant_triple] = None


def tighten_rooted(tree: STree, root: int) -> STree:
    """Prune and contract a rooted tree, keeping the root and its edge.

    Requires the label pointing away from the root to be nontrivial and
    nondegenerate; the result is irredundant, tight, and carries that label
    on exactly one oriented edge (the root's own).  It is a new tree with
    ``root`` as its root leaf, a :meth:`~STree._with_root_leaf` copy when
    ``tree`` is already irredundant and tight, and is kept in ``tree``'s
    results per ``root``, looked up after the leaf and label checks.
    """
    if root not in tree.adj or len(tree.adj[root]) != 1:
        raise MalformedInput(f"node {root} is not a leaf")
    nb = tree.adj[root][0]
    r_id = tree.alpha[(root, nb)]
    system = tree.system
    if r_id in system.trivial_ids or system.universe.is_degenerate_id(r_id):
        raise RootLabelTrivial(root, r_id)
    key = ("tighten", root)
    kept = tree._results.get(key)
    if kept is not None:
        return kept

    t = prune_to_irredundant(tree, root)
    t = contract_to_tight(t)
    if root not in t.adj or t.alpha.get((root, t.adj[root][0])) != r_id:
        raise InternalInvariant("tightening lost the root or its label")
    count = sum(1 for lab in t.alpha.values() if lab == r_id)
    if count != 1:
        raise InternalInvariant(
            f"root label appears on {count} oriented edges after tightening"
        )
    out = tree._results[key] = t._with_root_leaf(root)
    return out


def find_guided_sink(tree: STree, picks) -> int:
    """Follow edges whose labels the orientation picks, to a node all of
    whose incoming labels are picked.

    Each edge (x, y) is directed towards ``y`` iff the label of (x, y) is
    picked; for a full orientation a directed walk in a tree must end in a
    sink, whose star is then a subset of the picks.  Raises
    :class:`MalformedInput` when the picks hold neither label of an edge.
    """
    ids = set(map(_as_id, picks))
    for x, y in tree.edges:
        if tree.alpha[(x, y)] not in ids and tree.alpha[(y, x)] not in ids:
            raise MalformedInput(f"the picks hold neither label of edge ({x}, {y})")
    # every edge is left only towards a node whose label is picked, so the
    # walk never turns back and ends within len(nodes) steps
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
