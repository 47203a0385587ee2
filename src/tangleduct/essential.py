"""Essential cores: strip trivial separations from families and trees.

Removing the trivial orientations of a system from every star of a family
does not change which orientations avoid it (a trivial orientation sits
below both orientations of a witness, so consistent orientations pick it
anyway, and the stripped star is a subset of the original).  The stripped
family — its *essential core* — is often much smaller, and trees over it
are free of trivial labels.  This module computes cores, trims trees down
to essential ones, and re-expands essential trees over the core into trees
over the original family.
"""

from __future__ import annotations

from .core import SeparationSystem
from .errors import FNotStandard, InternalInvariant, MalformedInput, NoMatchingStar
from .stree import (
    STree,
    StarFamily,
    _check_same_universe,
    contract_to_tight,
    is_order_respecting,
    prune_to_irredundant,
)


def essential_core(family: StarFamily, system: SeparationSystem) -> StarFamily:
    """The family with the system's trivial orientations removed from every star.

    Stars turn into their nontrivial parts (kept as a set, so several stars
    may collapse onto one); an all-trivial star leaves the empty star behind,
    which no orientation can avoid.
    """
    _check_same_universe(family, system)
    trivial = system.trivial_ids
    return StarFamily(
        family.universe, (sigma - trivial for sigma in family.stars), validate=False
    )


def essentialize_stree(tree: STree) -> STree:
    """Trim a tree over stars down to an essential one over the core.

    Prunes to irredundant, contracts to tight, then repeatedly deletes the
    least leaf whose outgoing label is trivial; each deletion removes
    exactly that trivial element from the neighbouring star.  The result is
    essential — irredundant, tight, and free of trivial labels — and its
    stars are the nontrivial parts of stars of the input tree.
    """
    system = tree.system
    out = contract_to_tight(prune_to_irredundant(tree))
    if not is_order_respecting(out):
        raise MalformedInput("tree does not respect the edge order")
    trivial = system.trivial_ids
    while True:
        doomed = None
        for n in out.nodes:
            if len(out.adj[n]) == 1 and out.alpha[(n, out.adj[n][0])] in trivial:
                doomed = n
                break
        if doomed is None:
            break
        if len(out.nodes) == 1:
            raise InternalInvariant("essentialization tried to delete the last node")
        out = out._without({doomed})
    for a, b in out.oriented_edges():
        if out.alpha[(a, b)] in trivial:
            raise InternalInvariant(
                f"trivial label survived essentialization on edge ({a}, {b})"
            )
    return out


def expand_to_family(tree: STree, family: StarFamily) -> STree:
    """Grow a tree over the essential core back into one over the family.

    Every node star must be the nontrivial part of at least one family star
    (else :class:`NoMatchingStar`); the canonically least such star is
    completed by hanging one fresh leaf per missing trivial element off the
    node.  The family must be standard for the system, so each new leaf's
    singleton star is present.
    """
    system = tree.system
    _check_same_universe(family, system)
    if not family.is_standard_for(system):
        raise FNotStandard(family.missing_standard(system))
    trivial = system.trivial_ids
    inv = system.universe.inv_id

    edges = list(tree.edges)
    alpha = dict(tree.alpha)
    nodes = list(tree.nodes)
    next_id = max(nodes) + 1
    for t in tree.nodes:
        star = tree.node_star(t)
        chosen = next((sigma for sigma in family.sorted_stars if sigma - trivial == star), None)
        if chosen is None:
            raise NoMatchingStar(sorted(star))
        for s in sorted(chosen - star):
            leaf = next_id
            next_id += 1
            nodes.append(leaf)
            edges.append((t, leaf))
            alpha[(leaf, t)] = s
            alpha[(t, leaf)] = inv(s)
    return STree(system, edges, alpha, nodes=nodes)
