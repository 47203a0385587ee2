"""A per-entry reference reader for system, family and certificate documents.

It reads each id list one entry at a time, in document order, and stops at
the first bad entry with the message the documents' reading rules give
(the README's paragraphs on system documents and on ids, and the
docstrings of ``system_from_json_dict``, ``StarFamily.from_json_dict`` and
``STree.from_json_dict``).  It shares no reading code with the library: it
checks stars, tables and ranges itself, and calls the library only to build
the objects it returns (``Universe`` and ``MaskUniverse`` with their law
checks, ``SeparationSystem``, ``STree`` with its structure check), so the
tests can hold the library's whole-list reading against it.
"""

from __future__ import annotations

import re

import numpy as np

from tangleduct import Certificate, FNotStars, MalformedInput, SeparationSystem, STree, StarFamily
from tangleduct.core import GROUND_CAP, MaskUniverse, Universe
from tangleduct.stree import star_sort_key

NODE_ID = re.compile(r"0|-?[1-9][0-9]*")


def is_id(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def id_entries(n: int, items, what: str, size: int) -> list[tuple[int, ...]]:
    kind, shape = ("pair", "[a, b] pairs") if size == 2 else ("triple", "[a, b, value] triples")
    if not isinstance(items, (list, tuple)):
        raise MalformedInput(f"{what} must be a list of {shape}")
    out = []
    for item in items:
        if not isinstance(item, (list, tuple)) or len(item) != size:
            raise MalformedInput(f"{what} entries must be {shape}")
        for x in item:
            if not is_id(x):
                raise MalformedInput(f"{what} entry {item!r} holds a non-integer id {x!r}")
        if not all(0 <= x < n for x in item):
            raise MalformedInput(f"{what} {kind} {tuple(item)} outside element range")
        out.append(tuple(item))
    return out


def table(n: int, triples, what: str) -> list[list[int]]:
    cells = [[-1] * n for _ in range(n)]
    for a, b, v in id_entries(n, triples, what, 3):
        cells[a][b] = v  # a pair listed twice keeps its last value
    for a in range(n):
        for b in range(n):
            if cells[a][b] < 0:
                raise MalformedInput(f"{what} table is missing the pair ({a}, {b})")
    return cells


def set_labels(ground, labels, n: int) -> tuple[list[str], list[tuple[int, int]]]:
    if not isinstance(ground, list) or len(ground) > GROUND_CAP:
        raise MalformedInput(f"'ground' must be a list of at most {GROUND_CAP} vertex names")
    if not isinstance(labels, list) or len(labels) != n:
        raise MalformedInput("'labels' must list one (A, B) pair per element")
    names = [str(g) for g in ground]
    if len(set(names)) != len(names):
        raise MalformedInput("ground set has repeated vertex names")
    masks = []
    for item in labels:
        if not (
            isinstance(item, list)
            and len(item) == 2
            and all(isinstance(side, list) for side in item)
        ):
            raise MalformedInput(f"'labels' entry {item!r} is not a pair of vertex lists")
        pair = []
        for side in item:
            mask = 0
            for v in side:
                if str(v) not in names:
                    raise MalformedInput(f"'labels' name a vertex outside 'ground': {v!r}")
                mask |= 1 << names.index(str(v))
            pair.append(mask)
        masks.append((pair[0], pair[1]))
    return names, masks


def check_tables(universe, join, meet, source: str) -> None:
    """Column ``s`` of the join, then of the meet, for ascending ``s``;
    row ``t`` within it."""
    n = len(universe)
    inv = [universe.inv_id(i) for i in range(n)]

    def join_of(t: int, s: int) -> int:
        return int(universe.join_column(s)[t])

    for s in range(n):
        for what, given in (("join", join), ("meet", meet)):
            if given is None:
                continue
            for t in range(n):
                if what == "join":
                    want = join_of(t, s)
                else:
                    j = join_of(inv[t], inv[s])
                    want = -1 if j < 0 else inv[j]
                if given[t][s] != want:
                    raise MalformedInput(f"'{what}' disagrees with the {source} at ({t}, {s})")


def read_system(d: dict) -> SeparationSystem:
    try:
        elements = list(d["elements"])
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad or missing 'elements': {exc}") from exc
    n = len(elements)
    if not all(is_id(e) for e in elements) or sorted(elements) != list(range(n)):
        raise MalformedInput("'elements' must be the ids 0..n-1")
    inv_map = d.get("inverse")
    if not isinstance(inv_map, dict):
        raise MalformedInput("'inverse' must be an object mapping id -> id")
    inverse = []
    for i in range(n):
        if str(i) not in inv_map:
            raise MalformedInput(f"bad 'inverse' table: {str(i)!r}")
        x = inv_map[str(i)]
        if not (is_id(x) and 0 <= x < n):
            raise MalformedInput(f"bad 'inverse' table: {i} maps to {x!r}, not an element id")
        inverse.append(x)
    for key in inv_map:
        if key not in [str(i) for i in range(n)]:
            raise MalformedInput(f"bad 'inverse' table: key {key!r} is not an element id")

    leq = None
    if "leq" in d:
        leq = np.zeros((n, n), dtype=bool)
        for a, b in id_entries(n, d["leq"], "'leq'", 2):
            leq[a, b] = True
    join = table(n, d["join"], "join") if "join" in d else None
    meet = table(n, d["meet"], "meet") if "meet" in d else None

    labelled = "labels" in d
    if labelled != ("ground" in d):
        raise MalformedInput("'ground' and 'labels' must be given together")
    if labelled:
        names, masks = set_labels(d["ground"], d["labels"], n)
        universe = MaskUniverse(masks, names)
        if leq is not None and not np.array_equal(universe.leq_matrix(), leq):
            raise MalformedInput("'leq' disagrees with the set labels")
        if [universe.inv_id(i) for i in range(n)] != inverse:
            raise MalformedInput("'inverse' disagrees with the set labels")
    elif leq is None:
        raise MalformedInput("'leq' is required without 'ground' and 'labels'")
    else:
        universe = Universe(leq, inverse)
    check_tables(universe, join, meet, "set labels" if labelled else "order")
    members = d.get("members")
    if members is None:
        members = range(n)
    elif not isinstance(members, list) or not all(is_id(m) for m in members):
        raise MalformedInput("'members' must be a list of element ids")
    return SeparationSystem(universe, members)


def is_star(universe, sigma: frozenset[int]) -> bool:
    """No degenerate element, and ``s <= inv(t)`` for distinct ``s, t``."""
    if any(universe.inv_id(s) == s for s in sigma):
        return False
    return all(universe.leq_ids(s, universe.inv_id(t)) for s in sigma for t in sigma if s != t)


def read_family(universe, d) -> StarFamily:
    if not isinstance(d, dict) or not isinstance(d.get("stars"), list):
        raise MalformedInput("family JSON needs a 'stars' list")
    n = len(universe)
    for sigma in d["stars"]:
        if not isinstance(sigma, list):
            raise MalformedInput(f"a star must be a list of element ids, got {sigma!r}")
        for i in sigma:
            if not is_id(i):
                raise MalformedInput(f"star {sigma!r} holds a non-integer element {i!r}")
            if not 0 <= i < n:
                raise MalformedInput(f"star element {i} outside the universe")
    stars = {frozenset(sigma) for sigma in d["stars"]}
    # the canonically least star that is not one is named
    for sigma in sorted(stars, key=star_sort_key):
        if not is_star(universe, sigma):
            raise FNotStars(sigma)
    return StarFamily(universe, stars, validate=False)


def read_tree(system: SeparationSystem, d: dict) -> STree:
    nodes, edges, alpha = d.get("nodes"), d.get("edges", []), d.get("alpha", {})
    if not isinstance(nodes, list) or not all(is_id(x) for x in nodes):
        raise MalformedInput("tree 'nodes' must be a list of integer node ids")
    if not isinstance(edges, list):
        raise MalformedInput("tree 'edges' must be a list of [u, v] pairs")
    pairs = []
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise MalformedInput("tree edge entries must be [u, v] pairs")
        for x in e:
            if not is_id(x):
                raise MalformedInput(f"tree edge entry {e!r} holds a non-integer id {x!r}")
        pairs.append(tuple(e))
    if not isinstance(alpha, dict):
        raise MalformedInput("tree 'alpha' must map 'u->v' keys to element ids")
    labels = {}
    for key, val in alpha.items():
        u, arrow, v = key.partition("->")
        if not (arrow and NODE_ID.fullmatch(u) and NODE_ID.fullmatch(v)):
            raise MalformedInput(f"tree 'alpha' key {key!r} is not of the form 'u->v'")
        if not is_id(val):
            raise MalformedInput(f"tree label {val!r} on {key!r} is not an integer id")
        labels[(int(u), int(v))] = val
    root_leaf = d.get("root_leaf")
    if root_leaf is not None and not is_id(root_leaf):
        raise MalformedInput(f"tree 'root_leaf' {root_leaf!r} is not an integer node id")
    return STree(system, pairs, labels, nodes=nodes, root_leaf=root_leaf)


def read_certificate(system: SeparationSystem, d: dict) -> Certificate:
    kind = d.get("kind")
    if kind not in ("tangle", "orientation", "stree"):
        raise MalformedInput(f"unknown certificate kind: {kind!r}")
    picks = None
    if "picks" in d:
        items, n = d["picks"], len(system.universe)
        if not isinstance(items, list):
            raise MalformedInput("certificate 'picks' must be a list of element ids")
        for i in items:
            if not is_id(i):
                raise MalformedInput(f"certificate pick {i!r} is not an integer id")
            if not 0 <= i < n:
                raise MalformedInput(f"certificate pick {i} outside a universe of {n}")
        picks = tuple(items)
    tree = read_tree(system, d) if kind == "stree" else None
    transcript = d.get("transcript", [])
    if not isinstance(transcript, list) or not all(isinstance(t, str) for t in transcript):
        raise MalformedInput("certificate 'transcript' must be a list of strings")
    verified = d.get("verified", False)
    if not isinstance(verified, bool):
        raise MalformedInput(f"certificate 'verified' {verified!r} is not a boolean")
    return Certificate(kind, picks, tree, verified, tuple(transcript))
