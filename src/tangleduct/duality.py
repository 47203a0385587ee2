"""Duality engines: find a family-avoiding orientation or a tree witness.

Given a finite separation system inside a universe and a family of stars,
exactly one of two things exists: an orientation of the system avoiding the
family (for the strong engine, additionally consistent — a *tangle*), or a
tree over the family whose node stars certify that no such orientation can
exist.  Both engines construct their answer recursively and re-verify it
before returning.

The strong engine needs the family to be *standard* (it forces every trivial
member) and relies on *separability*: for suitable pairs ``r ≤ r'`` some
member ``s0`` must sit between them whose orientations keep joins inside the
system and map qualifying stars back into the family.  Separability is not
checked globally up front (that would be exponential); it is witnessed on
demand, and a failure surfaces as :class:`NotFSeparable` with the offending
pair.

The separator search is the strong engine's hot path: each candidate is an
emulation check against every qualifying star of the family.  It works on
bit rows (see :mod:`tangleduct.core`).  A star qualifies for base ``r``
when its bit row lies inside the system's domain row for ``r`` and meets
the members-above-``r`` row, and the family caches that selection per row
pair.  The family-independent parts are kept in the system's ``memo``: the
plain emulation answer per ``(s0, r)``, and per ``(r, s0)`` the shift image
of every id, built from one column of the join table.  Each image is then
checked by its bit row against the family's set of star rows.

Only a root family's stars are scanned.  Every family the engines recurse
on is a root plus extra singleton stars (:meth:`StarFamily.with_star`),
so the root is scanned once per ``(s0, r)``, and its ``memo`` keeps the
bit row of the ids ``y`` whose singleton image ``{y}`` it lacks, or -1
when it lacks a larger image, which no child can add.  A child passes iff
those bits lie in its ``extra`` row and each qualifying extra singleton
``{x}`` shifts to a singleton that the root or ``extra`` holds.  The
search still checks every candidate in the same order, so its answers and
its count of emulation checks are those of a scan from scratch.

The strong engine memoizes its recursion by the family's forced ids, not
by its star set.  Each step recurses on the family plus one singleton star
``{inv(r)}`` for a member ``r`` the family did not force yet, so every
family below the root is the root family plus the singletons
``{inv(f)}`` of its forced ids ``f``: the forced ids determine it, and
they cost a set of at most one id per member instead of the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    OrientedSep,
    SeparationSystem,
    _as_id,
    _is_id,
    find_inconsistency,
    is_consistent,
    is_orientation,
)
from .errors import (
    FNotStandard,
    InternalInvariant,
    MalformedInput,
    NotFSeparable,
    RootLabelTrivial,
    ShiftLeftS,
    TargetNotAboveR,
)
from .stree import (
    STree,
    StarFamily,
    _bit_ids,
    _check_same_universe,
    _inverse_pair_triple,
    _redundant_triple,
    is_order_respecting,
    is_over,
    prune_to_irredundant,
    tighten_rooted,
    validate_stree,
)


# --- orientations vs. families --------------------------------------------------


def violating_star(picks, family: StarFamily) -> Optional[frozenset[int]]:
    """The canonically least family star inside the picks, if any.

    A star lies inside the picks when its bit row has no bit outside the
    picks' row; the root's cached ``star_masks`` are scanned in canonical
    order.  A child's extra stars are singletons, and singletons sort before
    larger stars and by id, so the least extra id among the picks is beaten
    only by a root star that is empty or a singleton of smaller id.
    """
    n = len(family.universe)
    picked = 0
    for i in map(_as_id, picks):
        if 0 <= i < n:  # no star holds an id outside the universe
            picked |= 1 << i
    outside = ~picked
    root = family if family.root is None else family.root
    extra = family.extra & picked
    least = extra & -extra
    for sigma, mask in zip(root.sorted_stars, root.star_masks):
        if least and (len(sigma) > 1 or mask > least):
            break
        if not mask & outside:
            return sigma
    return frozenset((least.bit_length() - 1,)) if least else None


def avoids(picks, family: StarFamily) -> bool:
    """True iff no star of the family is a subset of the picks."""
    return violating_star(picks, family) is None


def standardize(family: StarFamily, system: SeparationSystem) -> StarFamily:
    """Add the singleton star of the inverse of every trivial member."""
    _check_same_universe(family, system)
    inv = system.universe.inv_id
    extra = {frozenset((inv(r),)) for r in system.trivial_ids}
    return StarFamily(family.universe, family.stars | extra, validate=False)


# --- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Outcome of a duality engine: one side of the alternative, verified.

    ``kind`` is ``"tangle"`` (consistent family-avoiding orientation),
    ``"orientation"`` (family-avoiding but not necessarily consistent — the
    weak engine's orientation side), or ``"stree"`` (a tree over the family).
    """

    kind: str
    picks: Optional[tuple[int, ...]] = None
    tree: Optional[STree] = None
    verified: bool = False
    transcript: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind, "verified": self.verified}
        if self.picks is not None:
            d["picks"] = list(self.picks)
        if self.tree is not None:
            d.update(self.tree.to_json_dict())
        d["transcript"] = list(self.transcript)
        return d

    @classmethod
    def from_json_dict(cls, system: SeparationSystem, d: dict) -> "Certificate":
        kind = d.get("kind")
        if kind not in ("tangle", "orientation", "stree"):
            raise MalformedInput(f"unknown certificate kind: {kind!r}")
        picks = _picks_from_json(d["picks"], len(system.universe)) if "picks" in d else None
        tree = STree.from_json_dict(system, d) if kind == "stree" else None
        transcript = d.get("transcript", [])
        if not isinstance(transcript, list) or not all(isinstance(t, str) for t in transcript):
            raise MalformedInput("certificate 'transcript' must be a list of strings")
        verified = d.get("verified", False)
        if not isinstance(verified, bool):
            raise MalformedInput(f"certificate 'verified' {verified!r} is not a boolean")
        return cls(
            kind=kind,
            picks=picks,
            tree=tree,
            verified=verified,
            transcript=tuple(transcript),
        )


def _picks_from_json(items, n: int) -> tuple[int, ...]:
    if not isinstance(items, list):
        raise MalformedInput("certificate 'picks' must be a list of element ids")
    for i in items:
        if not _is_id(i):
            raise MalformedInput(f"certificate pick {i!r} is not an integer id")
        if not 0 <= i < n:
            raise MalformedInput(f"certificate pick {i} outside a universe of {n}")
    return tuple(items)


def verify_certificate(
    cert: Certificate, system: SeparationSystem, family: StarFamily
) -> tuple[bool, tuple[str, ...]]:
    """Re-check a certificate from scratch; returns (ok, problems)."""
    problems: list[str] = []
    if cert.kind in ("tangle", "orientation"):
        if cert.picks is None:
            return False, ("certificate has no picks",)
        if not is_orientation(cert.picks, system):
            problems.append("picks are not a full orientation of the system")
        if cert.kind == "tangle" and not is_consistent(cert.picks, system):
            problems.append("picks are not consistent")
        sigma = violating_star(cert.picks, family)
        if sigma is not None:
            problems.append(f"picks contain the family star {sorted(sigma)}")
    elif cert.kind == "stree":
        if cert.tree is None:
            return False, ("certificate has no tree",)
        if cert.tree.system is not system:
            problems.append("tree belongs to a different system")
        else:
            report = validate_stree(cert.tree, family)
            if not report.over_family:
                problems.extend(report.problems)
    else:
        problems.append(f"unknown certificate kind {cert.kind!r}")
    return (not problems), tuple(problems)


# --- shifting ---------------------------------------------------------------


def _is_trivial_id(system: SeparationSystem, i: int) -> bool:
    if i in system.member_ids:
        return i in system.trivial_ids
    return system.triviality_witness(system.universe.sep(i)) is not None


def _require_usable_base(r: int, system: SeparationSystem, what: str) -> None:
    if system.universe.is_degenerate_id(r):
        raise MalformedInput(f"{what} is degenerate")
    if _is_trivial_id(system, r):
        raise MalformedInput(f"{what} is trivial in the system")


def _shift_target_id(system: SeparationSystem, r: int, s0: int, target: int) -> int:
    u = system.universe
    if target == r:
        return s0
    if target == u.inv_id(r):
        return u.inv_id(s0)
    t_inv = u.inv_id(target)
    above = u.leq_ids(r, target)
    above_inv = u.leq_ids(r, t_inv)
    if above and above_inv:
        raise InternalInvariant(
            "both orientations of a shift target lie above the base"
        )
    if above:
        return u.join_id(target, s0)
    if above_inv:
        return u.inv_id(u.join_id(t_inv, s0))
    raise TargetNotAboveR(target, r)


def shift_map(r, s0, target, system: SeparationSystem) -> OrientedSep:
    """Shift one separation across ``s0``.

    ``r`` (nontrivial, nondegenerate) is the base; ``s0 ≥ r`` a member.  The
    base maps to ``s0`` and its inverse to the inverse of ``s0``; any other
    target is joined with ``s0`` on whichever of its orientations lies above
    ``r`` (unique, since ``r`` is nontrivial), inverses going to inverses.
    """
    u = system.universe
    r_id, s0_id, t_id = _as_id(r), _as_id(s0), _as_id(target)
    _require_usable_base(r_id, system, "shift base")
    if s0_id not in system.member_ids:
        raise MalformedInput("s0 is not a member of the system")
    if not u.leq_ids(r_id, s0_id):
        raise MalformedInput("s0 does not lie above the shift base")
    if t_id not in system.member_ids and t_id not in (r_id, u.inv_id(r_id)):
        raise MalformedInput("shift target is not a member of the system")
    return u.sep(_shift_target_id(system, r_id, s0_id, t_id))


def emulates(s0, r, system: SeparationSystem) -> bool:
    """Does ``s0 ≥ r`` keep every join with a member above ``r`` inside?

    Checks ``s ∨ s0`` for membership, over all members ``s ≥ r`` other than
    the inverse of ``r``.  The answer depends on the system alone, so it is
    kept in the system's ``memo``.
    """
    return _emulates_ids(_as_id(s0), _as_id(r), system)


def _emulates_ids(s0: int, r: int, system: SeparationSystem) -> bool:
    key = ("emulates", s0, r)
    ok = system.memo.get(key)
    if ok is None:
        # a pair in the memo has passed these checks on this same system
        if s0 not in system.member_ids:
            raise MalformedInput("s0 is not a member of the system")
        if system.universe.is_degenerate_id(r):
            raise MalformedInput("emulation base is degenerate")
        ok = system.memo[key] = _joins_stay_inside(system, s0, r)
    return ok


def _joins_stay_inside(system: SeparationSystem, s0: int, r: int) -> bool:
    u = system.universe
    if not u.leq_ids(r, s0):
        return False
    flags = system.member_flags
    above = flags & u.leq_matrix()[r]
    above[u.inv_id(r)] = False
    return bool(flags[u.join_table()[:, s0][above]].all())


def _shift_image_bits(system: SeparationSystem, r: int, s0: int) -> list[int]:
    """The bit of each member's shift across ``s0`` (as ``_shift_target_id``).

    Built from one column of the join table for every id at once (``r``
    itself joins to ``s0``, as ``r <= s0``) and cached per pair.  Only the
    entries read by ``emulates_for_family`` are meaningful: members with an
    orientation above ``r``, other than ``r``'s inverse, which no qualifying
    star holds.  Non-members get 0, so a list costs O(members · n/8) bytes.
    """
    key = ("shift", r, s0)
    bits = system.memo.get(key)
    if bits is not None:
        return bits
    u = system.universe
    inv = u.inverse_table()
    col = u.join_table()[:, s0]
    up = u.leq_matrix()[r]
    both = up & up[inv] & system.member_flags
    both[[r, inv[r]]] = False
    if both.any():
        raise InternalInvariant(
            "both orientations of a shift target lie above the base"
        )
    image = np.where(up, col, inv[col[inv]]).tolist()
    bits = [0] * len(image)
    for t in system.members:
        bits[t] = 1 << image[t]
    system.memo[key] = bits
    return bits


def emulates_for_family(s0, r, system: SeparationSystem, family: StarFamily) -> bool:
    """Emulation plus: qualifying family stars shift back into the family.

    A star qualifies when all its elements belong to separations with an
    orientation above ``r``, none of them is the inverse of ``r``, and at
    least one lies above ``r`` itself.  The root family's stars are scanned
    once per ``(s0, r)`` (:func:`_root_lacks`); a
    :meth:`~StarFamily.with_star` child then checks only its extra
    singletons.
    """
    _check_same_universe(family, system)
    s0_id, r_id = _as_id(s0), _as_id(r)
    _require_usable_base(r_id, system, "emulation base")
    if not _emulates_ids(s0_id, r_id, system):
        return False
    root = family.root if family.root is not None else family
    lacking, extra = _root_lacks(system, root, s0_id, r_id), family.extra
    if lacking < 0 or lacking & ~extra:
        return False
    allowed = system.domain_mask(r_id) & ~(1 << system.universe.inv_id(r_id))
    qualifying = extra & allowed & system.members_above(r_id)
    if not qualifying:
        return True
    bits = _shift_image_bits(system, r_id, s0_id)
    present = root.mask_set
    return all(
        bits[x] & extra or bits[x] in present for x in _bit_ids(qualifying)
    )


def _root_lacks(system: SeparationSystem, root: StarFamily, s0: int, r: int) -> int:
    """The bit row of the ids ``y`` whose singleton ``{y}`` is the shift
    image of a qualifying star that the root family lacks, or -1 when the
    root lacks a larger image, which no child can add.  Kept in
    ``root.memo`` under ``(s0, r, system)``, as the system decides which
    stars qualify."""
    key = (s0, r, system)
    lacking = root.memo.get(key)
    if lacking is not None:
        return lacking
    allowed = system.domain_mask(r) & ~(1 << system.universe.inv_id(r))
    qualifying = root.stars_inside(allowed, system.members_above(r))
    lacking = 0
    if qualifying:
        bits = _shift_image_bits(system, r, s0)
        present = root.mask_set
        for sigma in qualifying:
            image = 0
            for t in sigma:
                image |= bits[t]
            if image not in present:
                if image & (image - 1):
                    lacking = -1
                    break
                lacking |= image
    root.memo[key] = lacking
    return lacking


def find_separator(
    r, r_prime, system: SeparationSystem, family: StarFamily
) -> Optional[OrientedSep]:
    """Least member between ``r`` and ``r_prime`` emulating both ends.

    Searches for ``s0`` whose forward orientation emulates ``r`` for the
    family while its inverse emulates the inverse of ``r_prime``.  Both ``r``
    and the inverse of ``r_prime`` must be nontrivial, nondegenerate members
    not forced by the family.  ``None`` means separability fails at this
    pair.
    """
    _check_same_universe(family, system)
    u = system.universe
    r_id, rp_id = _as_id(r), _as_id(r_prime)
    if r_id not in system.member_ids or rp_id not in system.member_ids:
        raise MalformedInput("separator endpoints must be members of the system")
    if not u.leq_ids(r_id, rp_id):
        raise MalformedInput("separator endpoints are not ordered r <= r_prime")
    rp_inv = u.inv_id(rp_id)
    for val, what in ((r_id, "r"), (rp_inv, "inverse of r_prime")):
        _require_usable_base(val, system, what)
        if family.forces(u.sep(val)):
            raise MalformedInput(f"{what} is forced by the family")
    # a candidate passing both checks lies between r and r_prime, so only
    # those members are tried, least id first
    between = system.members_above(r_id) & u.below_mask(rp_id)
    while between:
        low = between & -between
        between ^= low
        cand = low.bit_length() - 1
        if emulates_for_family(cand, r_id, system, family) and emulates_for_family(
            u.inv_id(cand), rp_inv, system, family
        ):
            return u.sep(cand)
    return None


def shift_stree(tree: STree, root: int, s0, family: StarFamily) -> STree:
    """Shift a tight, irredundant rooted tree across ``s0``.

    Every edge pointing away from the root has its label joined with ``s0``
    (inverses follow suit).  On a tree whose root label ``r`` is nontrivial
    and nondegenerate, with ``s0`` emulating ``r`` for the family and all
    non-root stars in the family, the result is order-respecting, carries
    the star of ``s0``'s inverse at the root and at no other leaf, and all
    its other stars stay in the family; these conclusions are asserted.
    """
    system = tree.system
    u = system.universe
    _check_same_universe(family, system)
    s0_id = _as_id(s0)
    if root not in tree.adj or len(tree.adj[root]) != 1:
        raise MalformedInput(f"node {root} is not a leaf")
    r_id = tree.alpha[(root, tree.adj[root][0])]
    if u.is_degenerate_id(r_id) or _is_trivial_id(system, r_id):
        raise RootLabelTrivial(root, r_id)
    if s0_id not in system.member_ids or not u.leq_ids(r_id, s0_id):
        raise MalformedInput("s0 must be a member above the root label")
    if _redundant_triple(tree) is not None or _inverse_pair_triple(tree) is not None:
        raise MalformedInput("tree must be irredundant and tight before shifting")
    for t in tree.nodes:
        if t != root and tree.node_star(t) not in family:
            raise MalformedInput(f"star at node {t} is not in the family")

    parent = {root: None}
    order = [root]
    for n in order:
        for w in tree.adj[n]:
            if w not in parent:
                parent[w] = n
                order.append(w)
    alpha: dict[tuple[int, int], int] = {}
    for u_, v_ in tree.edges:
        away = (u_, v_) if parent[v_] == u_ else (v_, u_)
        shifted = u.join_id(tree.alpha[away], s0_id)
        if shifted not in system.member_ids:
            raise ShiftLeftS(away, shifted)
        alpha[away] = shifted
        alpha[(away[1], away[0])] = u.inv_id(shifted)
    out = STree(system, tree.edges, alpha, nodes=tree.nodes, root_leaf=root)

    inv_s0 = frozenset((u.inv_id(s0_id),))
    if out.node_star(root) != inv_s0:
        raise InternalInvariant("shifted root star is not the inverse of s0")
    for t in out.nodes:
        if t == root:
            continue
        if out.node_star(t) == inv_s0 and len(out.adj[t]) == 1:
            raise InternalInvariant(
                f"shifted star of s0's inverse appears at leaf {t} besides the root"
            )
        if out.node_star(t) not in family:
            raise InternalInvariant(
                f"shifted star at node {t} left the family"
            )
    if not is_order_respecting(out):
        raise InternalInvariant("shifted tree does not respect the edge order")
    return out


# --- tree assembly helpers -----------------------------------------------------


def _star_tree(system: SeparationSystem, sigma: frozenset[int]) -> STree:
    if not sigma:
        return STree(system, [], {}, nodes=[0])
    alpha = {}
    for i, s in enumerate(sorted(sigma), start=1):
        alpha[(i, 0)] = s
    return STree(system, alpha.keys(), alpha)


def _splice(
    host: STree, host_leaves: list[int], donor: STree, donor_leaf: int
) -> STree:
    """Replace each listed host leaf with a fresh copy of donor minus its leaf.

    The joining edge inherits, on each side, the label the removed leaf used
    to contribute there, so every surviving node keeps its star.
    """
    system = host.system
    u = system.universe
    donor_nb = donor.adj[donor_leaf][0]
    into_donor_side = donor.alpha[(donor_leaf, donor_nb)]
    dropped = set(host_leaves)
    relabel: dict[int, int] = {}
    for n in host.nodes:
        if n not in dropped:
            relabel[n] = len(relabel)
    edges: list[tuple[int, int]] = []
    alpha: dict[tuple[int, int], int] = {}
    for a, b in host.edges:
        if a in dropped or b in dropped:
            continue
        edges.append((relabel[a], relabel[b]))
        alpha[(relabel[a], relabel[b])] = host.alpha[(a, b)]
        alpha[(relabel[b], relabel[a])] = host.alpha[(b, a)]
    nodes = list(relabel.values())
    for leaf in sorted(dropped):
        nb = host.adj[leaf][0]
        into_host_side = host.alpha[(leaf, nb)]
        if into_host_side != u.inv_id(into_donor_side):
            raise InternalInvariant("splice labels do not invert each other")
        base = max(nodes) + 1
        kept = [n for n in donor.nodes if n != donor_leaf]
        copy_map = {n: base + i for i, n in enumerate(kept)}
        nodes.extend(copy_map.values())
        for a, b in donor.edges:
            if a == donor_leaf or b == donor_leaf:
                continue
            edges.append((copy_map[a], copy_map[b]))
            alpha[(copy_map[a], copy_map[b])] = donor.alpha[(a, b)]
            alpha[(copy_map[b], copy_map[a])] = donor.alpha[(b, a)]
        edges.append((copy_map[donor_nb], relabel[nb]))
        alpha[(copy_map[donor_nb], relabel[nb])] = into_host_side
        alpha[(relabel[nb], copy_map[donor_nb])] = into_donor_side
    return STree(system, edges, alpha, nodes=nodes)


def _leaves_with_star(tree: STree, star: frozenset[int]) -> list[int]:
    return [
        n
        for n in tree.nodes
        if len(tree.adj[n]) == 1 and tree.node_star(n) == star
    ]


# --- the weak engine -------------------------------------------------------------


def weak_duality(system: SeparationSystem, family: StarFamily) -> Certificate:
    """Produce a family-avoiding orientation or a tree over the family.

    The orientation returned need not be consistent.  Stars of the family
    not contained in the system are ignored — they can neither be oriented
    towards nor appear as node stars.
    """
    _check_same_universe(family, system)
    fam = family.restricted_to(system)
    transcript = [
        f"restricted family to the system: {len(fam)} of {len(family)} stars kept"
    ]
    kind, payload = _weak(system, fam, transcript, depth=0)
    return _certify("weak", kind, payload, system, family, transcript)


def _certify(
    engine: str,
    kind: str,
    payload,
    system: SeparationSystem,
    family: StarFamily,
    transcript: list[str],
) -> Certificate:
    """Prune a tree answer (or sort picks), re-verify it, mark it verified."""
    if kind == "tree":
        cert = Certificate(kind="stree", tree=prune_to_irredundant(payload))
    else:
        cert = Certificate(kind=kind, picks=tuple(sorted(payload)))
    ok, problems = verify_certificate(cert, system, family)
    if not ok:
        raise InternalInvariant(
            f"{engine} certificate failed re-verification: {problems}"
        )
    transcript.append(f"re-verified {cert.kind} certificate")
    return replace(cert, verified=True, transcript=tuple(transcript))


def _forced_pair_tree(
    system: SeparationSystem, forced: frozenset[int]
) -> Optional[STree]:
    inv = system.universe.inv_id
    for s in sorted(forced):
        if inv(s) in forced:
            return STree(system, [(0, 1)], {(0, 1): s})
    return None


def _settled(
    system: SeparationSystem,
    fam: StarFamily,
    forced: frozenset[int],
    transcript: list[str],
    depth: int,
    kind: str,
) -> tuple[str, object]:
    """Every separation is forced: the forced and degenerate picks as ``kind``
    if they avoid the family, else the tree of the least star inside them."""
    picks = forced | system.degenerate_ids
    sigma = violating_star(picks, fam)
    if sigma is None:
        found = "avoid the family" if kind == "orientation" else "form a tangle"
        transcript.append(f"[{depth}] forced picks {found}")
        return kind, picks
    if len(sigma) == 1:
        raise InternalInvariant("violating star is a singleton of a forced pick")
    transcript.append(
        f"[{depth}] forced picks contain star {sorted(sigma)}: star tree"
    )
    return "tree", _star_tree(system, sigma)


def _weak(
    system: SeparationSystem, fam: StarFamily, transcript: list[str], depth: int
) -> tuple[str, object]:
    if depth > len(system.members) + 2:
        raise InternalInvariant("weak recursion exceeded its depth bound")
    u = system.universe
    forced = fam.forced_ids(system)
    k2 = _forced_pair_tree(system, forced)
    if k2 is not None:
        transcript.append(f"[{depth}] family forces both orientations: 2-node tree")
        return "tree", k2

    s0 = None
    for m in system.members:
        if u.is_degenerate_id(m):
            continue
        if m not in forced and u.inv_id(m) not in forced:
            s0 = m
            break
    if s0 is None:
        return _settled(system, fam, forced, transcript, depth, "orientation")

    inv_s0 = u.inv_id(s0)
    transcript.append(f"[{depth}] splitting on undecided separation {s0}")
    trees = []
    for side, pick in (("first", s0), ("second", inv_s0)):
        kind, res = _weak(system, fam.with_star([pick]), transcript, depth + 1)
        if kind == "orientation":
            return kind, res
        t = prune_to_irredundant(res)
        if is_over(t, fam):
            transcript.append(
                f"[{depth}] {side} branch tree is already over the family"
            )
            return "tree", t
        trees.append(t)
    t1, t2 = trees

    if inv_s0 in system.trivial_ids:
        host, donor = t1, t2
        host_star = frozenset((s0,))
        donor_leaves = _leaves_with_star(t2, frozenset((inv_s0,)))
    else:
        host, donor = t2, t1
        host_star = frozenset((inv_s0,))
        donor_leaves = _leaves_with_star(t1, frozenset((s0,)))
    host_leaves = _leaves_with_star(host, host_star)
    if not host_leaves or not donor_leaves:
        raise InternalInvariant("branch tree lost its splice leaf")
    if len(donor_leaves) > 1:
        raise InternalInvariant("donor tree has several splice leaves")
    if len(host_leaves) > 1 and s0 not in system.trivial_ids:
        raise InternalInvariant("multiple splice leaves for a nontrivial separation")
    transcript.append(
        f"[{depth}] splicing {len(host_leaves)} branch copy(ies) at separation {s0}"
    )
    return "tree", _splice(host, host_leaves, donor, donor_leaves[0])


# --- the strong engine -----------------------------------------------------------


def strong_duality(
    system: SeparationSystem,
    family: StarFamily,
    *,
    auto_standardize: bool = False,
) -> Certificate:
    """Produce a tangle of the system or a tree over the family.

    The family must be standard for the system (force every trivial member);
    pass ``auto_standardize=True`` to add the missing singleton stars
    instead of failing.  The certificate is the only output: the tree
    shifts the recursion makes are steps towards it, made through the
    module-level :func:`shift_stree`, so a caller that wants to replay them
    can wrap that function.

    Raises :class:`NotFSeparable` when the separability hypothesis fails at
    some pair, in which case neither alternative is certified.
    """
    _check_same_universe(family, system)
    fam = family.restricted_to(system)
    transcript = [
        f"restricted family to the system: {len(fam)} of {len(family)} stars kept"
    ]
    if not fam.is_standard_for(system):
        missing = fam.missing_standard(system)
        if not auto_standardize:
            raise FNotStandard(missing)
        fam = standardize(fam, system)
        transcript.append(
            f"standardized: forced {len(missing)} trivial orientation(s)"
        )
    kind, payload = _strong(system, fam, transcript, {}, depth=0)
    return _certify("strong", kind, payload, system, fam, transcript)


def _assert_consistent_forced(
    system: SeparationSystem, fam: StarFamily, forced: frozenset[int]
) -> None:
    hit = find_inconsistency(forced | system.degenerate_ids, system)
    if hit is None:
        return
    a, b = hit
    if a.is_degenerate or b.is_degenerate:
        raise InternalInvariant(
            "forced orientations conflict with a degenerate separation"
        )
    r_fwd = a.inverse
    probe = find_separator(r_fwd, b, system, fam)
    if probe is not None:
        raise InternalInvariant(
            "forced orientations are inconsistent yet a separator exists"
        )
    raise NotFSeparable(
        r_fwd.id,
        b.id,
        detail="the family forces two separations pointing away from each other",
    )


def _least_minimal_below(system: SeparationSystem, pool: int, bound: int) -> int:
    """Least id among the minimal members of the bit row ``pool`` that lie
    at or below ``bound``."""
    u = system.universe
    below = rest = pool & u.below_mask(bound)
    while rest:
        low = rest & -rest
        m = low.bit_length() - 1
        if below & u.below_mask(m) == low:
            return m
        rest ^= low
    raise InternalInvariant("no minimal element below an undecided separation")


def _strong(
    system: SeparationSystem,
    fam: StarFamily,
    transcript: list[str],
    memo: dict,
    depth: int,
) -> tuple[str, object]:
    """One recursion level, memoized by the forced ids, which determine the
    family (see the module docstring).  With :func:`_strong_step`, which
    calls back here for each branch, a level takes two Python frames."""
    if depth > len(system.members) + 2:
        raise InternalInvariant("strong recursion exceeded its depth bound")
    forced = fam.forced_ids(system)
    result = memo.get(forced)
    if result is None:
        result = memo[forced] = _strong_step(
            system, fam, forced, transcript, memo, depth
        )
    return result


def _strong_step(
    system: SeparationSystem,
    fam: StarFamily,
    forced: frozenset[int],
    transcript: list[str],
    memo: dict,
    depth: int,
) -> tuple[str, object]:
    """Settle the family, or split an undecided separation at a separator.

    Each side ``(r_min, s)``, first ``(r1, s0)`` then ``(r2_back, inv(s0))``,
    unless ``inv(s)`` is forced, recurses with ``r_min`` forced, then prunes,
    tightens at the added leaf and shifts across ``s``.  A tangle, a tree
    already over the family, or a shifted tree whose root singleton
    ``{inv(s)}`` is a family star answers the step; else both are spliced.
    """
    u = system.universe
    k2 = _forced_pair_tree(system, forced)
    if k2 is not None:
        transcript.append(f"[{depth}] family forces both orientations: 2-node tree")
        return "tree", k2
    _assert_consistent_forced(system, fam, forced)

    undecided = [
        m
        for m in system.nondegenerate_reps
        if m not in forced and u.inv_id(m) not in forced
    ]
    if not undecided:
        return _settled(system, fam, forced, transcript, depth, "tangle")

    r0 = min(undecided)
    # the members neither forced nor degenerate
    pool = system.member_mask
    for m in forced | system.degenerate_ids:
        pool &= ~(1 << m)
    r1 = _least_minimal_below(system, pool, r0)
    r2_back = _least_minimal_below(system, pool, u.inv_id(r0))
    r2_fwd = u.inv_id(r2_back)
    s0 = find_separator(r1, r2_fwd, system, fam)
    if s0 is None:
        raise NotFSeparable(
            r1, r2_fwd, detail="no member emulates this pair for the family"
        )
    s0_id = s0.id
    inv_s0 = u.inv_id(s0_id)
    transcript.append(
        f"[{depth}] undecided {r0}: separating {r1} from {r2_fwd} at {s0_id}"
    )

    shifted: list[STree] = []
    for side, r_min, s in (("first", r1, s0_id), ("second", r2_back, inv_s0)):
        if u.inv_id(s) in forced:
            continue
        inv_r = u.inv_id(r_min)
        sub = fam.with_star([inv_r])
        kind, payload = _strong(system, sub, transcript, memo, depth + 1)
        if kind == "tangle":
            return kind, payload
        t = prune_to_irredundant(payload)
        if is_over(t, fam):
            transcript.append(f"[{depth}] {side} branch tree is over the family")
            return "tree", t
        leaves = _leaves_with_star(t, frozenset((inv_r,)))
        if not leaves:
            raise InternalInvariant("branch tree lost the leaf of its added star")
        tight = tighten_rooted(t, leaves[0])
        out = shift_stree(tight, leaves[0], s, fam)
        if frozenset((u.inv_id(s),)) in fam:
            transcript.append(f"[{depth}] shifted {side} branch is over the family")
            return "tree", out
        shifted.append(out)
    # a skipped side's separator inverse is forced, so the other side's root
    # singleton is a family star and that side has returned above
    if len(shifted) != 2:
        raise InternalInvariant(
            "forced inverse of the separator lacks its singleton star"
        )
    t1, t2 = shifted
    spliced = _splice(t1, [t1.root_leaf], t2, t2.root_leaf)
    transcript.append(f"[{depth}] spliced both branches at {s0_id}")
    return "tree", spliced
