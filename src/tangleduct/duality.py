"""Duality engines: find a family-avoiding orientation or a tree witness.

Given a finite separation system inside a universe and a family of stars,
exactly one of two things exists: an orientation of the system avoiding the
family (for the strong engine, additionally consistent — a *tangle*), or a
tree over the family whose node stars certify that no such orientation can
exist.  Both engines construct their answer recursively and re-verify it
before returning.

Each engine follows the paper's induction: a level orients one more
separation, runs a child level on each orientation and combines their
answers.  A level is a generator, and one loop, :func:`_run`, runs the
levels of a call on an explicit stack: a level yields the generator of a
child, which is run on top of the stack and whose answer is sent back, or
a transcript line, which the loop writes under the level's depth.  So a
level holds no Python frame while its child runs, the interpreter's
recursion limit does not bound the depth, and the loop holds the one
depth guard.

The strong engine needs the family to be *standard* (it forces every trivial
member) and relies on *separability*: for suitable pairs ``r ≤ r'`` some
member ``s0`` must sit between them whose orientations keep joins inside the
system and map qualifying stars back into the family.  Separability is not
checked globally up front (that would be exponential); it is witnessed on
demand, and a failure surfaces as :class:`NotFSeparable` with the offending
pair.

The separator search is the strong engine's hot path: each candidate
``s0`` for a base ``r`` is an emulation check against every star that
qualifies for ``r``: its bit row (see :mod:`tangleduct.core`) lies inside
the system's domain row for ``r``, minus ``inv(r)``, and meets the
members-above-``r`` row.  Emulation itself is read off bit rows: ``s0``
must lie in the up-row of ``r``, and its join with each member above
``r`` but ``inv(r)``, read from the join column of ``s0`` as a list, must
be a member.  Only a root family's stars are scanned, once per
``(s0, r)``, into one entry of the dict that the root keeps for the system
in its ``memo``: ``None`` when ``s0`` does not emulate ``r``, else
``lacking``, the bit row of the ids ``y`` whose singleton image ``{y}``
the root lacks, or -1 when it lacks a larger image, which no child can
add.  The same dict keeps, per base ``r``, the indices of the root's
qualifying stars in its canonical order.  A small root's scan shifts
them one by one in Python, with no numpy call; a large root's
(:attr:`StarFamily._large`) shifts every id with numpy and gathers the
rows of its stars (:attr:`StarFamily.star_rows`).  Every family
the engines recurse on is a root plus extra singletons
(:meth:`StarFamily.with_star`); a child passes iff ``lacking`` lies in its
``extra`` row and each qualifying extra ``{x}``, which lies above ``r``,
joins ``s0`` to a singleton that the root or ``extra`` holds.  A child
check walks only the qualifying extras not above ``s0``: an extra above
``s0`` is its own join with ``s0``, which ``extra`` holds.  The base
``r`` and ``s0`` are checked only on a memo miss, since a key in the memo
passed those checks on the same system.  Candidates are checked in the
same order, so the answers and the count of emulation checks are those of
a scan from scratch.  Nothing is kept on the system.

The strong engine memoizes its recursion by the family's forced ids, not
by its star set.  Each step recurses on the family plus one singleton star
``{inv(r)}`` for a member ``r`` the family did not force yet, so every
family below the root is the root family plus the singletons
``{inv(f)}`` of its forced ids ``f``: the forced ids determine it, and
their bit row costs one bit per id instead of the whole family.

The engines pass their forced state from parent to child as one bit
row, the forced ids, whose inverses are the family's ``singles``: a root
family, standardized or not, holds only stars of members, and a child
adds ``{inv(r)}`` as it forces ``r``.  Each check on it is one rule,
applied at every level, the root included: a pair of inverses is the
least bit of ``forced & singles``, and the strong engine's conflict
scan runs over the ids not yet checked, at the root all forced and
degenerate ids, at a child the one id it adds to its parent's, which
passed both checks.  Either way the least witness of the whole set is
named.  The root is the caller's family itself when the system drops none
of its stars (:meth:`StarFamily.restricted_to`), so the family's caches
and its root scans, kept per system, carry over from call to call.

A repeat :func:`strong_duality` call on the same system and family is
answered from the memo that the root family keeps for the system, under
a key holding the family's ``extra`` row, so a
:meth:`~StarFamily.with_star` child has its own entry.  A certificate is
held there by a weak reference: its tree holds the system, and a value
that held its own weak key would keep the system alive as long as the
family lives.  So the first answer is returned again while its caller
still holds it, and is worked out afresh once it is dropped.  An unmet
hypothesis is held as the witness pair and detail of its
:class:`NotFSeparable`, never as the exception, whose traceback holds
the system, and a repeat call raises a new one with the same message.
Nothing else is kept: every other error is raised afresh.

The level memo hands equal branch answers up as one tree object, so the
strong engine's levels repeat the same tree surgery on the same input.
Tightening and shifting keep their results in the input tree's
``_results`` (see :class:`~tangleduct.stree.STree`), which only ever
point from a tree to one built after it, so no entry closes a reference
cycle: :func:`~tangleduct.stree.tighten_rooted` per root and
:func:`shift_stree` per ``(root, s0)``, after every check of its input,
and on a kept shift it checks again the one conclusion that depends on
the family.  Within one :func:`strong_duality` call, the dict that the
call passes to its levels holds the level answers, the star tree of each
family star and the splice of each pair of shifted trees, each built
once; a :func:`weak_duality` call passes its levels a dict that holds
the star tree of each family star.  A splice stays in the strong call's
dict, not on a tree: one input can descend from the other through its
results, so an entry from one to the other could close a cycle.  It is
keyed by the identities of both inputs and its entry holds both, so no
id is reused while it lives.  None of these goes in the family's memo,
which must not hold the system.  The engines still
call :func:`shift_stree` and :func:`~tangleduct.stree.tighten_rooted`
at every level, through this module's globals, so a wrapper sees every
call.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass, replace
from typing import NoReturn, Optional

import numpy as np

from .core import (
    OrientedSep,
    SeparationSystem,
    Universe,
    _as_id,
    _first_conflict,
    _id_row,
    _ids_within,
    _is_id,
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
    _lacked_stars,
    _redundant_triple,
    _star_outside,
    _structure_problem,
    is_order_respecting,
    is_over,
    prune_to_irredundant,
    tighten_rooted,
)


# --- orientations vs. families --------------------------------------------------


def _violating_star(picks, family: StarFamily) -> Optional[frozenset[int]]:
    """The canonically least family star inside the picks, if any.

    A star lies inside the picks when its bit row has no bit outside the
    picks' row; the root's cached ``star_masks`` are scanned in canonical
    order.  A child's extra stars are singletons, and singletons sort before
    larger stars and by id, so the least extra id among the picks is beaten
    only by a root star that is empty or a singleton of smaller id.
    """
    n = len(family.universe)
    # no star holds an id outside the universe
    return _violating_row(_id_row(i for i in map(_as_id, picks) if 0 <= i < n), family)


def _violating_row(picked: int, family: StarFamily) -> Optional[frozenset[int]]:
    """:func:`_violating_star` of the picks with bit row ``picked``."""
    outside = ~picked
    root = family._root_family
    extra = family.extra & picked
    least = extra & -extra
    for sigma, mask in zip(root.sorted_stars, root.star_masks):
        if least and (len(sigma) > 1 or mask > least):
            break
        if not mask & outside:
            return sigma
    return frozenset((least.bit_length() - 1,)) if least else None


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
    if not _ids_within(items, n):
        for i in items:
            if not _is_id(i):
                raise MalformedInput(f"certificate pick {i!r} is not an integer id")
            if not 0 <= i < n:
                raise MalformedInput(f"certificate pick {i} outside a universe of {n}")
    return tuple(items)


def verify_certificate(
    cert: Certificate, system: SeparationSystem, family: StarFamily
) -> tuple[bool, tuple[str, ...]]:
    """Re-check a certificate from scratch; returns (ok, problems).

    A tree must be an S-tree of ``system``, checked from first principles
    as the public :class:`STree` constructor checks it, with every node
    star in ``family``; neither check reads the verdicts the tree keeps.
    """
    problems: list[str] = []
    if cert.kind in ("tangle", "orientation"):
        if cert.picks is None:
            return False, ("certificate has no picks",)
        if not is_orientation(cert.picks, system):
            problems.append("picks are not a full orientation of the system")
        if cert.kind == "tangle" and not is_consistent(cert.picks, system):
            problems.append("picks are not consistent")
        sigma = _violating_star(cert.picks, family)
        if sigma is not None:
            problems.append(f"picks contain the family star {sorted(sigma)}")
    elif cert.kind == "stree":
        if cert.tree is None:
            return False, ("certificate has no tree",)
        if cert.tree.system is not system:
            problems.append("tree belongs to a different system")
        elif (problem := _structure_problem(cert.tree)) is not None:
            problems.append(problem)
        elif (t := _star_outside(cert.tree, family)) is not None:
            problems.append(f"star at node {t} is outside the family")
    else:
        problems.append(f"unknown certificate kind {cert.kind!r}")
    return (not problems), tuple(problems)


# --- shifting ---------------------------------------------------------------


def _require_usable_base(r: int, system: SeparationSystem, what: str) -> None:
    if system.universe.is_degenerate_id(r):
        raise MalformedInput(f"{what} is degenerate")
    if system._witness_row(r):
        raise MalformedInput(f"{what} is trivial in the system")


def _shift_map(r, s0, target, system: SeparationSystem) -> OrientedSep:
    """Shift one separation across ``s0``.

    ``r`` (nontrivial, nondegenerate) is the base; ``s0 ≥ r`` a member.  The
    base maps to ``s0`` and its inverse to the inverse of ``s0``; any other
    target is joined with ``s0`` on whichever of its orientations lies above
    ``r`` (unique, since ``r`` is nontrivial), inverses going to inverses.
    The engines shift with :func:`_shift_id` and :func:`_shift_all`; this
    checked form, one target at a time, is their reference.
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
    if t_id == r_id:
        return u.sep(s0_id)
    inv_t = u.inv_id(t_id)
    if inv_t == r_id:
        return u.sep(u.inv_id(s0_id))
    above, below = u.leq_ids(r_id, t_id), u.leq_ids(r_id, inv_t)
    if not (above or below):
        raise TargetNotAboveR(t_id, r_id)
    if above and below:
        raise InternalInvariant("both orientations of a shift target lie above the base")
    image = int(u.join_column(s0_id)[t_id if above else inv_t])
    if image < 0:
        raise MalformedInput(f"the shift of {t_id} across {s0_id} lies outside the universe")
    return u.sep(image if above else u.inv_id(image))


def _emulating_column(system: SeparationSystem, s0: int, r: int) -> Optional[list[int]]:
    """The join column of ``s0`` as a list when ``s0`` emulates ``r``, else
    ``None``: the joins of ``s0`` with the members above ``r`` but its
    inverse, read off the bits of their row, must all be members (-1, a
    join outside the universe, is not).  The base ``r`` must be
    nondegenerate: :func:`emulates_for_family` checks it before the root
    entry that calls here is made."""
    u = system.universe
    members = system.member_ids
    if s0 not in members:
        raise MalformedInput("s0 is not a member of the system")
    if not u.above_mask(r) >> s0 & 1:
        return None
    col = u.join_column(s0).tolist()
    rest = system.members_above(r) & ~(1 << u.inv_id(r))
    while rest:
        low = rest & -rest
        if col[low.bit_length() - 1] not in members:
            return None
        rest ^= low
    return col


def _shift_id(u: Universe, r: int, s0: int, col: list[int], y: int) -> int:
    """The shift of ``y`` across ``s0`` for base ``r``, as :func:`_shift_map`
    gives it, from the join column ``col`` of ``s0``: ``y`` must lie in the
    domain of ``r`` and ``s0`` emulate ``r``, so every join read is a member."""
    inv = u.inv_id
    if y == r:
        return s0
    inv_y = inv(y)
    if inv_y == r:
        return inv(s0)
    if u.above_mask(r) >> y & 1:
        return col[y]
    return inv(col[inv_y])


def _shift_all(u: Universe, r: int, s0: int) -> np.ndarray:
    """:func:`_shift_id` of every id in the domain of ``r`` at once, as an
    array; its entries at other ids mean nothing."""
    inv = u.inverse_table()
    col = u.join_column(s0)
    image = np.where(u.leq_matrix()[r], col, inv[col[inv]])
    image[r], image[inv[r]] = s0, inv[s0]
    return image


# the value a key not yet in a root memo reads
_UNSEEN = object()


def emulates_for_family(s0, r, system: SeparationSystem, family: StarFamily) -> bool:
    """Does ``s0`` emulate ``r`` (:func:`_emulating_column`), with every
    qualifying family star shifting back into the family?

    A star qualifies when all its elements belong to separations with an
    orientation above ``r``, none of them is the inverse of ``r``, and at
    least one lies above ``r`` itself.  The root family's answer is kept
    as one entry per ``(s0, r)`` (:func:`_root_entry`), and the base and
    ``s0`` are checked only when the entry is made; a
    :meth:`~StarFamily.with_star` child then checks only its qualifying
    extra singletons not above ``s0``, shifting each by one join lookup.
    """
    _check_same_universe(family, system)
    s0_id, r_id = _as_id(s0), _as_id(r)
    root = family._root_family
    memo = _root_memo(root, system)
    lacking = memo.get((s0_id, r_id), _UNSEEN)
    if lacking is _UNSEEN:
        # only a miss checks the base and s0: a key in the memo passed on
        # this system
        _require_usable_base(r_id, system, "emulation base")
        lacking = memo[s0_id, r_id] = _root_entry(system, root, memo, s0_id, r_id)
    extra = family.extra
    if lacking is None or lacking < 0 or lacking & ~extra:
        return False
    u = system.universe
    # an extra id qualifies when it lies above r and is not inv(r); one
    # above s0 is its own join with s0, which extra holds
    skip = 1 << u.inv_id(r_id) | u.above_mask(s0_id)
    qualifying = extra & system.members_above(r_id) & ~skip
    if not qualifying:
        return True
    # each qualifying id lies above r, so its shift is its join with s0
    col = u.join_column(s0_id)
    while qualifying:
        low = qualifying & -qualifying
        y = int(col[low.bit_length() - 1])
        if not family.singles >> y & 1:
            return False
        qualifying ^= low
    return True


def _root_memo(family: StarFamily, system: SeparationSystem) -> dict:
    """The dict that the root of ``family`` keeps for the system."""
    root = family._root_family
    memo = root.memo.get(system)
    if memo is None:
        memo = root.memo[system] = {}
    return memo


def _root_entry(
    system: SeparationSystem, root: StarFamily, memo: dict, s0: int, r: int
) -> Optional[int]:
    """``None`` when ``s0`` does not emulate ``r``, else the bit row of the
    ids ``y`` whose singleton ``{y}`` is the shift image of a qualifying
    star that the root lacks, or -1 when it lacks a larger image, which no
    child can add.  A small root (:attr:`StarFamily._large`) shifts its
    stars one by one, a large one maps them all with one gather."""
    col = _emulating_column(system, s0, r)
    if col is None:
        return None
    picked = _qualifying(system, root, memo, r)
    u = system.universe
    if not root._large:
        images = (
            frozenset([_shift_id(u, r, s0, col, y) for y in root.sorted_stars[i]])
            for i in picked
        )
    else:
        # star_rows skips the empty star, which leads sorted_stars when present
        rows = root.star_rows[np.asarray(picked) - (frozenset() in root.stars)]
        shifted = _shift_all(u, r, s0)[rows]
        # a star that the shift fixes is its own image, which the root holds
        moved = shifted[(shifted != rows).any(axis=1)].tolist()
        images = map(frozenset, moved)
    stars = root.stars
    lacking = 0
    for image in images:
        if image not in stars:
            if len(image) > 1:
                return -1
            lacking |= _id_row(image)
    return lacking


def _qualifying(
    system: SeparationSystem, root: StarFamily, memo: dict, r: int
) -> array:
    """The indices into ``root.sorted_stars`` of the stars that qualify for
    base ``r``, picked by their bit rows and kept in ``memo`` under
    ``("stars", r)`` as a C ``int`` array: four bytes an index, read as
    Python ints by the scan of a small root and as numpy by a large one's."""
    picked = memo.get(("stars", r))
    if picked is None:
        outside = ~(system.domain_mask(r) & ~(1 << system.universe.inv_id(r)))
        touching = system.members_above(r)
        masks = root.star_masks
        picked = memo["stars", r] = array(
            "i", [i for i, mask in enumerate(masks) if mask & touching and not mask & outside]
        )
    return picked


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
    if not u.above_mask(r_id) >> rp_id & 1:
        raise MalformedInput("separator endpoints are not ordered r <= r_prime")
    rp_inv = u.inv_id(rp_id)
    for val, what in ((r_id, "r"), (rp_inv, "inverse of r_prime")):
        _require_usable_base(val, system, what)
        if family.singles >> u.inv_id(val) & 1:
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
    The result is kept on the input tree per ``(root, s0)``, after every
    check on the input; a kept result is checked again only for the one
    conclusion that depends on the family.
    """
    system = tree.system
    u = system.universe
    _check_same_universe(family, system)
    s0_id = _as_id(s0)
    if root not in tree.adj or len(tree.adj[root]) != 1:
        raise MalformedInput(f"node {root} is not a leaf")
    r_id = tree.alpha[(root, tree.adj[root][0])]
    if u.is_degenerate_id(r_id) or system._witness_row(r_id):
        raise RootLabelTrivial(root, r_id)
    if s0_id not in system.member_ids or not u.above_mask(r_id) >> s0_id & 1:
        raise MalformedInput("s0 must be a member above the root label")
    if _redundant_triple(tree) is not None or _inverse_pair_triple(tree) is not None:
        raise MalformedInput("tree must be irredundant and tight before shifting")
    extra = family.extra
    for t, need in _lacked_stars(tree, family)[1]:
        if t != root and need & ~extra:
            raise MalformedInput(f"star at node {t} is not in the family")

    key = ("shift", root, s0_id)
    out = tree._results.get(key)
    if out is None:
        out = tree._results[key] = _shifted(tree, root, s0_id)
    for t, need in _lacked_stars(out, family)[1]:
        if t != root and need & ~extra:
            raise InternalInvariant(f"shifted star at node {t} left the family")
    return out


def _shifted(tree: STree, root: int, s0: int) -> STree:
    """The labels of :func:`shift_stree`, with the conclusions that depend
    only on the tree, ``root`` and ``s0`` asserted."""
    system = tree.system
    u = system.universe
    parent = tree._parents(root)
    col, members, inv = u.join_column(s0), system.member_ids, u.inv_id
    alpha: dict[tuple[int, int], int] = {}
    for u_, v_ in tree.edges:
        away = (u_, v_) if parent[v_] == u_ else (v_, u_)
        label = tree.alpha[away]
        shifted = int(col[label])
        if shifted not in members:
            u.join_id(label, s0)  # raises for a join outside the universe
            raise ShiftLeftS(away, shifted)
        alpha[away] = shifted
        alpha[(away[1], away[0])] = inv(shifted)
    out = STree._derived(system, alpha, tree.nodes, root, tree.adj)

    inv_s0 = frozenset((inv(s0),))
    if out.node_star(root) != inv_s0:
        raise InternalInvariant("shifted root star is not the inverse of s0")
    for t in out.nodes:
        if t != root and len(out.adj[t]) == 1 and out.node_star(t) == inv_s0:
            raise InternalInvariant(
                f"shifted star of s0's inverse appears at leaf {t} besides the root"
            )
    if not is_order_respecting(out):
        raise InternalInvariant("shifted tree does not respect the edge order")
    return out


# --- tree assembly helpers -----------------------------------------------------


def _star_tree(system: SeparationSystem, sigma: frozenset[int]) -> STree:
    """Node 0 with one leaf per element of the family star ``sigma``."""
    inv = system.universe.inv_id
    alpha = {}
    for i, s in enumerate(sorted(sigma), start=1):
        alpha[(i, 0)] = s
        alpha[(0, i)] = inv(s)
    return STree._derived(system, alpha, range(len(sigma) + 1))


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
    host_kept = [n for n in host.nodes if n not in dropped]
    relabel = {n: i for i, n in enumerate(host_kept)}
    alpha: dict[tuple[int, int], int] = {}
    for (a, b), label in host.alpha.items():
        if a not in dropped and b not in dropped:
            alpha[(relabel[a], relabel[b])] = label
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
        for (a, b), label in donor.alpha.items():
            if a != donor_leaf and b != donor_leaf:
                alpha[(copy_map[a], copy_map[b])] = label
        alpha[(copy_map[donor_nb], relabel[nb])] = into_host_side
        alpha[(relabel[nb], copy_map[donor_nb])] = into_donor_side
    return STree._derived(system, alpha, nodes)


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
    level = _weak(system, fam, _forced_row(system, fam), {})
    kind, payload = _run("weak", level, system, transcript)
    return _certify("weak", kind, payload, system, family, transcript)


def _certify(
    engine: str,
    kind: str,
    payload,
    system: SeparationSystem,
    family: StarFamily,
    transcript: list[str],
) -> Certificate:
    """Prune a tree answer, re-verify it, mark it verified.  Picks arrive
    in ascending order, as :func:`_settled` lists them."""
    if kind == "tree":
        cert = Certificate(kind="stree", tree=prune_to_irredundant(payload))
    else:
        cert = Certificate(kind=kind, picks=tuple(payload))
    ok, problems = verify_certificate(cert, system, family)
    if not ok:
        raise InternalInvariant(
            f"{engine} certificate failed re-verification: {problems}"
        )
    transcript.append(f"re-verified {cert.kind} certificate")
    return replace(cert, verified=True, transcript=tuple(transcript))


def _forced_row(system: SeparationSystem, fam: StarFamily) -> int:
    """The bit row of the forced ids: a member is forced when its inverse
    is a singleton star of the family, one bit of ``fam.singles``."""
    return _id_row(map(system.universe.inv_id, _bit_ids(fam.singles & system.member_mask)))


def _run(engine: str, level, system: SeparationSystem, transcript: list[str]):
    """Run an engine's root ``level`` to its answer (see the module docstring)."""
    stack, answer = [level], None
    while stack:
        try:
            step = stack[-1].send(answer)
        except StopIteration as done:
            stack.pop()
            answer = done.value
            continue
        answer = None
        if isinstance(step, str):
            transcript.append(f"[{len(stack) - 1}] {step}")
        else:
            stack.append(step)
            if len(stack) > len(system.members) + 2:
                raise InternalInvariant(f"{engine} recursion exceeded its depth bound")
    return answer


def _pair_tree(
    system: SeparationSystem, forced: int, singles: int
) -> Optional[tuple[str, tuple[str, object]]]:
    """The transcript line and the 2-node tree when the family forces both
    orientations of a separation, labelled by the least forced id whose
    inverse is forced too: the least bit of ``forced & singles``, the
    family's singleton row.  Below the root a level forces its parent's
    ids, which hold no pair, plus one id, so the only possible pair is that
    id and its inverse."""
    both = forced & singles
    if not both:
        return None
    label = (both & -both).bit_length() - 1
    alpha = {(0, 1): label, (1, 0): system.universe.inv_id(label)}
    tree = STree._derived(system, alpha, [0, 1])
    return "family forces both orientations: 2-node tree", ("tree", tree)


def _settled(
    system: SeparationSystem, fam: StarFamily, forced: int, kind: str, trees: dict
) -> tuple[str, tuple[str, object]]:
    """Every separation is forced: the transcript line, and the forced and
    degenerate picks as ``kind`` if they avoid the family, else the tree of
    the least star inside them, built once per star in ``trees``, the dict
    of the engine call."""
    picks = forced | system.degenerate_mask
    sigma = _violating_row(picks, fam)
    if sigma is None:
        found = "avoid the family" if kind == "orientation" else "form a tangle"
        return f"forced picks {found}", (kind, _bit_ids(picks))
    if len(sigma) == 1:
        raise InternalInvariant("violating star is a singleton of a forced pick")
    line = f"forced picks contain star {sorted(sigma)}: star tree"
    key = ("star", sigma)
    if key not in trees:
        trees[key] = _star_tree(system, sigma)
    return line, ("tree", trees[key])


def _weak(system: SeparationSystem, fam: StarFamily, forced: int, trees):
    """One level on the bit row of the forced ids, run by :func:`_run`;
    their inverses are the family's ``singles``.

    Each branch forces one orientation of a separation with neither
    forced, so only the root can force a pair of inverses.  ``trees`` is
    the call's dict of star trees (see :func:`_settled`).
    """
    pair = _pair_tree(system, forced, fam.singles)
    if pair is not None:
        yield pair[0]
        return pair[1]
    u = system.universe
    # the least nondegenerate member with neither orientation forced
    free = system.member_mask & ~(system.degenerate_mask | forced | fam.singles)
    if not free:
        line, answer = _settled(system, fam, forced, "orientation", trees)
        yield line
        return answer
    s0 = (free & -free).bit_length() - 1

    inv_s0 = u.inv_id(s0)
    yield f"splitting on undecided separation {s0}"
    branches = []
    # the star {pick} forces its inverse
    for side, pick, other in (("first", s0, inv_s0), ("second", inv_s0, s0)):
        kind, res = yield _weak(system, fam._child(pick), forced | 1 << other, trees)
        if kind == "orientation":
            return kind, res
        t = prune_to_irredundant(res)
        if is_over(t, fam):
            yield f"{side} branch tree is already over the family"
            return "tree", t
        branches.append(t)
    t1, t2 = branches

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
    yield f"splicing {len(host_leaves)} branch copy(ies) at separation {s0}"
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
    can wrap that function.  It must then pass a fresh family or system:
    a repeat call is answered from the memo while the first certificate
    is still held (see the module docstring), and makes no shifts.

    Raises :class:`NotFSeparable` when the separability hypothesis fails at
    some pair, in which case neither alternative is certified.
    """
    _check_same_universe(family, system)
    fam = family.restricted_to(system)
    transcript = [
        f"restricted family to the system: {len(fam)} of {len(family)} stars kept"
    ]
    missing = fam.missing_standard(system)
    if missing:
        if not auto_standardize:
            raise FNotStandard(missing)
        fam = standardize(fam, system)
        transcript.append(
            f"standardized: forced {len(missing)} trivial orientation(s)"
        )
    # a repeat call is answered from the memo (see the module docstring)
    answers = _root_memo(fam, system)
    key = ("strong", fam.extra)
    held = answers.get(key)
    if isinstance(held, tuple):
        raise NotFSeparable(*held[0], detail=held[1])
    cert = held() if held is not None else None
    if cert is not None:
        return cert
    forced = _forced_row(system, fam)
    # the root checks every forced and degenerate id for a conflict
    new = forced | system.degenerate_mask
    try:
        level = _strong(system, fam, forced, new, {})
        kind, payload = _run("strong", level, system, transcript)
    except NotFSeparable as exc:
        answers[key] = (exc.witness, exc.detail)
        raise
    cert = _certify("strong", kind, payload, system, fam, transcript)
    answers[key] = weakref.ref(cert)
    return cert


def _raise_inconsistent(
    system: SeparationSystem, fam: StarFamily, a: int, b: int
) -> NoReturn:
    """Raise for the inconsistent forced pair ``(a, b)``: ``inv(a) < b``."""
    u = system.universe
    if u.is_degenerate_id(a) or u.is_degenerate_id(b):
        raise InternalInvariant(
            "forced orientations conflict with a degenerate separation"
        )
    r_fwd = u.inv_id(a)
    probe = find_separator(r_fwd, b, system, fam)
    if probe is not None:
        raise InternalInvariant(
            "forced orientations are inconsistent yet a separator exists"
        )
    raise NotFSeparable(
        r_fwd,
        b,
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


def _strong(system: SeparationSystem, fam: StarFamily, forced: int, new: int, memo):
    """One level, run by :func:`_run`: settle the family, or split an
    undecided separation at a separator.

    ``forced`` is the bit row of the forced ids, whose inverses are the
    family's ``singles``, and ``new`` the row of the picks not yet checked
    for a conflict: at the root every forced and degenerate id, at a child
    the one id it adds to its parent's.  Each side ``(r_min, s)``, first
    ``(r1, s0)`` then ``(r2_back, inv(s0))``, unless ``inv(s)`` is forced,
    recurses with ``r_min`` forced, then prunes, tightens at the added leaf
    and shifts across ``s``.  A tangle, a tree already over the family, or
    a shifted tree whose root singleton ``{inv(s)}`` is a family star
    answers the level; else both are spliced.  ``memo`` is the call's
    dict: the level answers per forced row, the star tree per family star
    and the splice per pair of shifted trees (see the module docstring).
    """
    singles = fam.singles
    pair = _pair_tree(system, forced, singles)
    if pair is not None:
        yield pair[0]
        return pair[1]
    u = system.universe
    hit = _first_conflict(u, forced | system.degenerate_mask, new)
    if hit is not None:
        _raise_inconsistent(system, fam, *hit)
    undecided = system.rep_mask & ~(forced | singles)
    if not undecided:
        line, answer = _settled(system, fam, forced, "tangle", memo)
        yield line
        return answer

    r0 = (undecided & -undecided).bit_length() - 1
    # the members neither forced nor degenerate
    pool = system.member_mask & ~(forced | system.degenerate_mask)
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
    yield f"undecided {r0}: separating {r1} from {r2_fwd} at {s0_id}"

    shifted: list[STree] = []
    for side, r_min, s in (("first", r1, s0_id), ("second", r2_back, inv_s0)):
        if singles >> s & 1:  # inv(s) is forced
            continue
        inv_r = u.inv_id(r_min)
        # memoized by the forced ids, as their bit row, which determine the
        # family (see the module docstring); no child's row is the root's
        row = forced | 1 << r_min
        result = memo.get(row)
        if result is None:
            result = memo[row] = yield _strong(system, fam._child(inv_r), row, 1 << r_min, memo)
        kind, payload = result
        if kind == "tangle":
            return kind, payload
        t = prune_to_irredundant(payload)
        if is_over(t, fam):
            yield f"{side} branch tree is over the family"
            return "tree", t
        leaves = _leaves_with_star(t, frozenset((inv_r,)))
        if not leaves:
            raise InternalInvariant("branch tree lost the leaf of its added star")
        tight = tighten_rooted(t, leaves[0])
        out = shift_stree(tight, leaves[0], s, fam)
        if singles >> u.inv_id(s) & 1:
            yield f"shifted {side} branch is over the family"
            return "tree", out
        shifted.append(out)
    # a skipped side's separator inverse is forced, so the other side's root
    # singleton is a family star and that side has returned above
    if len(shifted) != 2:
        raise InternalInvariant("forced inverse of the separator lacks its singleton star")
    t1, t2 = shifted
    # keyed by identity; the entry holds both inputs, so no id is reused
    key = ("splice", id(t1), id(t2))
    if key not in memo:
        memo[key] = (t1, t2, _splice(t1, [t1.root_leaf], t2, t2.root_leaf))
    yield f"spliced both branches at {s0_id}"
    return "tree", memo[key][2]
