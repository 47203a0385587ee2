"""Finite separation systems.

A *universe* is a finite poset of oriented separations carrying an
order-reversing involution (written ``*`` in math, ``.inverse`` here) and a
total join that is a genuine supremum.  A *separation system* is any
involution-closed subset of a universe's elements.

Elements are integer ids ``0 .. n-1``.  The order lives in a full boolean
matrix, the involution and the join in id tables; every law is verified
exhaustively at construction time, on every universe:

 * partial order (reflexive, antisymmetric, transitive),
 * order reversal:  ``r <= s``  iff  ``s.inverse <= r.inverse``,
 * ``join(r, s)`` is the least upper bound.

The meet is not stored but derived by De Morgan,
``meet(r, s) = join(r*, s*)*``, and these laws make it the greatest lower
bound.  As ``*`` reverses the order and is its own inverse, ``t <= r`` iff
``r* <= t*``.  So ``t`` lies below ``r`` and ``s`` iff ``t*`` lies above
``r*`` and ``s*``, iff ``join(r*, s*) <= t*`` (the join is the least upper
bound), iff ``t <= join(r*, s*)*``.  The lower bounds of ``r`` and ``s`` are
thus the elements below ``join(r*, s*)*``, which is one of them.  A meet
table supplied from outside is still checked to be the infimum, then
dropped: an infimum is unique, so it equals the derived one.

Transitivity and the bound laws compare rows of the order matrix packed
into 64-bit words, so each costs O(n²·⌈n/64⌉) word operations rather than
O(n³) boolean ones.  Where a packed check finds a violation, the dense
check reruns on that row alone to name the same witness.  A supremum is
symmetric in its arguments, and so is the bound law: the join fails at
``(r, s)`` iff it fails at ``(s, r)``.  So when the join table equals its
transpose and no meet table is supplied, row ``r`` of the bound check scans
only ``s >= r``.  If row ``r`` is the least failing row of a full scan and
fails at ``s``, then row ``s`` fails at ``r``, so ``s >= r`` and the half
scan stops at row ``r`` too, where the dense rerun names the same witness.

Memory: a universe of n elements keeps n² + 4n² bytes, n² for the order and
4n² for the ``int32`` join table; :meth:`Universe.meet_table` builds another
4n² on each call.  Building the tables from side masks
(:func:`tables_from_masks`) and the checks of antisymmetry and order
reversal work in row chunks of about ``_CHUNK`` cells, so their temporaries
stay bounded per chunk whatever n is; the packed checks hold the packed
order (n²/8 bytes a direction) plus the packed words one row of a check
compares, which the bound check keeps in two reused buffers of n²/8 bytes
each.  Chunked checks scan rows in ascending order and name the same least
witness as a one-shot check.

The engines' hot path asks set questions ("which picks lie strictly above
this one's inverse?", "do all elements of this star lie in that domain?").
For these, a universe hands out *bit rows*: Python ints whose bit ``b`` is
set when id ``b`` belongs to the row.  :meth:`Universe.above_mask`,
:meth:`Universe.below_mask` and :meth:`Universe.conflict_mask` build one
row per id on first use, from the order matrix through ``np.packbits``, so
each kind of row costs at most n²/8 bytes.
A :class:`SeparationSystem` keeps its member set as a bit row too, and
caches per base ``r`` the members above ``r`` and the members with an
orientation above ``r``; its ``memo`` dict holds what the duality engines
derive from the system alone.  All of it lives on the object it describes
and is dropped with it.

All objects are immutable; operations construct new values.  Ties are broken
by least element id everywhere, so identical inputs give identical outputs.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    InvolutionNotOrderReversing,
    JoinNotSupremum,
    MalformedInput,
    MeetNotInfimum,
    NotAPartialOrder,
    NotInvolution,
)


_CHUNK = 1 << 16  # table cells per row chunk of the table builders and checks


def _chunk_rows(n: int) -> int:
    """Rows per chunk of an n-column table: ``_CHUNK`` cells, at least one row."""
    return max(1, _CHUNK // max(n, 1))


def _is_symmetric(table: np.ndarray) -> bool:
    """True iff ``table == table.T``, compared in row chunks of ``_CHUNK`` cells."""
    n = len(table)
    rows = _chunk_rows(n)
    return all(
        np.array_equal(table[lo : lo + rows], table[:, lo : lo + rows].T)
        for lo in range(0, n, rows)
    )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _bit_row(row: np.ndarray) -> int:
    """A boolean vector as a Python int with bit ``i`` set where ``row[i]`` is."""
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def _pack_rows(m: np.ndarray) -> np.ndarray:
    """Each row of a boolean matrix as zero-padded ``uint64`` bit words."""
    rows, cols = m.shape
    packed = np.zeros((rows, -(-cols // 64) * 8), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(m, axis=1)
    return packed.view(np.uint64)


def _id_table(table, n: int, what: str) -> np.ndarray:
    """A join or meet table as a read-only ``int32`` n-by-n array of ids.

    The range is checked before the cast: a negative entry would index from
    the end of a row, and a cast would wrap values of 2^31 and more.
    """
    t = np.asarray(table)
    if t.shape != (n, n):
        raise MalformedInput("join/meet tables must be n-by-n")
    if n and (t.min() < 0 or t.max() >= n):
        bad = (t < 0) | (t >= n)
        r, s = (int(x) for x in np.argwhere(bad)[0])
        raise MalformedInput(f"{what} table maps ({r}, {s}) to {t[r, s]}, not an id")
    return _readonly(t.astype(np.int32, copy=False))


class Universe:
    """A finite lattice of oriented separations with an order-reversing involution.

    ``join`` is derived from the order when omitted.  A supplied ``meet`` is
    range-checked and checked to be the infimum, then dropped.
    """

    def __init__(
        self,
        leq: np.ndarray,
        inverse: Sequence[int],
        join: Optional[np.ndarray] = None,
        meet: Optional[np.ndarray] = None,
        *,
        set_labels: Optional[Sequence[tuple[int, int]]] = None,
        ground: Optional[Sequence[str]] = None,
    ):
        leq = np.asarray(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise MalformedInput("leq must be a square matrix")
        n = leq.shape[0]
        inv = np.asarray(inverse, dtype=np.int64)
        if inv.shape != (n,) or (n and (inv.min() < 0 or inv.max() >= n)):
            raise MalformedInput("inverse table must map ids to ids")

        self._leq = _readonly(leq)
        self._inv = _readonly(inv)
        up = _pack_rows(leq)  # up[a]: the ids above a
        self._check_order(up)
        self._check_involution()

        if join is None:
            join = self._derive_join(up)
        self._join = _id_table(join, n, "join")
        if meet is not None:
            meet = _id_table(meet, n, "meet")
        self._check_bounds(up, meet)

        self.set_labels = tuple(set_labels) if set_labels is not None else None
        self.ground = tuple(ground) if ground is not None else None
        self._above: list[Optional[int]] = [None] * n
        self._below: list[Optional[int]] = [None] * n
        self._conflict: list[Optional[int]] = [None] * n

    # -- law checks, all vectorized ------------------------------------

    def _check_order(self, up: np.ndarray) -> None:
        rel = self._leq
        n = len(rel)
        if n == 0:
            return
        diag = rel[np.diag_indices(n)]
        if not diag.all():
            i = int(np.flatnonzero(~diag)[0])
            raise NotAPartialOrder(f"not reflexive at {i}", witness=i)
        rows = _chunk_rows(n)
        for lo in range(0, n, rows):
            sym = rel[lo : lo + rows] & rel[:, lo : lo + rows].T
            sym[np.arange(len(sym)), np.arange(lo, lo + len(sym))] = False
            if sym.any():
                a, b = (int(x) for x in np.argwhere(sym)[0])
                raise NotAPartialOrder(
                    f"not antisymmetric at ({lo + a}, {b})", witness=(lo + a, b)
                )
        # transitive iff the up-set of every b above a lies inside a's up-set
        for a in range(n):
            if (up[rel[a]] & ~up[a]).any():
                gap = rel[rel[a]].any(axis=0) & ~rel[a]
                c = int(np.flatnonzero(gap)[0])
                b = int(np.flatnonzero(rel[a] & rel[:, c])[0])
                raise NotAPartialOrder(
                    f"not transitive: {a} <= {b} <= {c} but not {a} <= {c}",
                    witness=(a, b, c),
                )

    def _check_involution(self) -> None:
        inv = self._inv
        n = len(inv)
        if n == 0:
            return
        round_trip = inv[inv]
        bad = round_trip != np.arange(n)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise NotInvolution(i, int(inv[i]), int(round_trip[i]))
        # r <= s  iff  inverse(s) <= inverse(r)
        rel = self._leq
        rows = _chunk_rows(n)
        for lo in range(0, n, rows):
            reversed_rel = rel[np.ix_(inv, inv[lo : lo + rows])].T
            mismatch = rel[lo : lo + rows] != reversed_rel
            if mismatch.any():
                a, b = (int(x) for x in np.argwhere(mismatch)[0])
                raise InvolutionNotOrderReversing(lo + a, b)

    def _derive_join(self, up: np.ndarray) -> np.ndarray:
        """The join table from the order alone: ``join(r, s)`` is the id whose
        packed up-row is ``up[r] & up[s]``, their common upper bounds.

        Antisymmetry makes up-rows distinct, so one dict maps each to its id.
        """
        n = len(up)
        width = up.shape[1] * 8  # bytes a packed row
        ids = {row.tobytes(): i for i, row in enumerate(up)}
        table = np.empty((n, n), dtype=np.int32)
        for r in range(n):
            common = (up[r] & up).tobytes()
            row = [ids.get(common[i : i + width], -1) for i in range(0, n * width, width)]
            if -1 in row:
                raise JoinNotSupremum(r, row.index(-1), -1)
            table[r] = row
        return table

    def _check_bounds(self, up: np.ndarray, meet: Optional[np.ndarray]) -> None:
        # join(r, s) is the supremum iff its upper cone equals the
        # intersection of the cones of r and s; likewise for a supplied
        # meet table below.  Packed rows find the failing r; the dense rows
        # name the witness.
        # Without a meet, a symmetric join is checked on half rows, s >= r:
        # the module docstring shows that this names the same witness.
        rel, join = self._leq, self._join
        n = len(rel)
        down = None if meet is None else _pack_rows(rel.T)
        half = meet is None and _is_symmetric(join)
        # two reused buffers: fresh n-row temporaries per row cost as much
        # again, as malloc hands them back to the system each time
        common, cone = np.empty_like(up), np.empty_like(up)

        def cones_match(rows: np.ndarray, r: int, lo: int, ids: np.ndarray) -> bool:
            m = n - lo
            np.bitwise_and(rows[r], rows[lo:], out=common[:m])
            # ids are in range; "clip" keeps take from buffering its output
            np.take(rows, ids, axis=0, out=cone[:m], mode="clip")
            return np.array_equal(common[:m], cone[:m])

        for r in range(n):
            lo = r if half else 0
            if not cones_match(up, r, lo, join[r, lo:]):
                expect = rel[r][None, :] & rel
                bad = expect != rel[join[r]]
                s, t = (int(x) for x in np.argwhere(bad)[0])
                raise JoinNotSupremum(r, s, t)
            if down is not None and not cones_match(down, r, 0, meet[r]):
                expect = rel[:, r][:, None] & rel
                bad = expect != rel[:, meet[r]]
                t, s = (int(x) for x in np.argwhere(bad)[0])
                raise MeetNotInfimum(r, s, t)

    # -- element access -------------------------------------------------

    def __len__(self) -> int:
        return len(self._leq)

    def sep(self, i: int) -> "OrientedSep":
        # built on demand: a cached tuple of handles would make a reference
        # cycle that keeps every dropped universe alive until a full gc pass
        if not 0 <= i < len(self._inv):
            raise IndexError(f"element id {i} outside a universe of {len(self)}")
        return OrientedSep(self, i)

    def leq_ids(self, a: int, b: int) -> bool:
        return bool(self._leq[a, b])

    def lt_ids(self, a: int, b: int) -> bool:
        return a != b and bool(self._leq[a, b])

    def inv_id(self, a: int) -> int:
        return int(self._inv[a])

    def join_id(self, a: int, b: int) -> int:
        return int(self._join[a, b])

    def meet_id(self, a: int, b: int) -> int:
        inv = self._inv
        return int(inv[self._join[inv[a], inv[b]]])

    def is_degenerate_id(self, a: int) -> bool:
        return int(self._inv[a]) == a

    def above_mask(self, a: int) -> int:
        """Bit row of the ids ``b`` with ``a <= b`` (``a`` itself included)."""
        row = self._above[a]
        if row is None:
            row = self._above[a] = _bit_row(self._leq[a])
        return row

    def below_mask(self, a: int) -> int:
        """Bit row of the ids ``b`` with ``b <= a`` (``a`` itself included)."""
        row = self._below[a]
        if row is None:
            row = self._below[a] = _bit_row(self._leq[:, a])
        return row

    def conflict_mask(self, a: int) -> int:
        """Bit row of the ids strictly above ``a``'s inverse, minus ``a`` and
        its inverse: a pick ``a`` is inconsistent with any pick in it."""
        row = self._conflict[a]
        if row is None:
            ra = int(self._inv[a])
            row = self._conflict[a] = self.above_mask(ra) & ~((1 << a) | (1 << ra))
        return row

    @cached_property
    def degenerate_ids(self) -> frozenset[int]:
        return frozenset(int(i) for i in np.flatnonzero(self._inv == np.arange(len(self))))

    def leq_matrix(self) -> np.ndarray:
        return self._leq

    def inverse_table(self) -> np.ndarray:
        return self._inv

    def join_table(self) -> np.ndarray:
        return self._join

    def meet_table(self) -> np.ndarray:
        """The ``int32`` meet table, derived by De Morgan on each call."""
        inv = self._inv
        return _readonly(inv.astype(np.int32)[self._join[np.ix_(inv, inv)]])

    def element_repr(self, i: int) -> str:
        if self.set_labels is None:
            return str(i)
        a_mask, b_mask = self.set_labels[i]
        names = self.ground or tuple(str(v) for v in range((a_mask | b_mask).bit_length()))

        def side(mask: int) -> str:
            return "{" + ",".join(names[v] for v in range(len(names)) if mask >> v & 1) + "}"

        return f"({side(a_mask)}|{side(b_mask)})"

    def __repr__(self) -> str:
        kind = "set-universe" if self.set_labels is not None else "universe"
        return f"<{kind} of {len(self)} oriented separations>"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self, members: Optional[Iterable[int]] = None) -> dict:
        n = len(self)
        pairs = np.argwhere(self._leq).tolist()
        d = {
            "elements": list(range(n)),
            "inverse": {str(i): int(self._inv[i]) for i in range(n)},
            "leq": pairs,
        }
        if self.set_labels is not None and self.ground is not None:
            # join/meet are recomputed from the labels on read; the explicit
            # n-by-n tables would dominate the file for large closures
            d["ground"] = list(self.ground)
            d["labels"] = [
                [
                    [self.ground[v] for v in range(len(self.ground)) if a >> v & 1],
                    [self.ground[v] for v in range(len(self.ground)) if b >> v & 1],
                ]
                for a, b in self.set_labels
            ]
        else:
            d["join"] = [
                [r, s, int(self._join[r, s])] for r in range(n) for s in range(n)
            ]
            meet = self.meet_table()
            d["meet"] = [[r, s, int(meet[r, s])] for r in range(n) for s in range(n)]
        if members is not None:
            d["members"] = sorted(int(m) for m in members)
        return d


class OrientedSep:
    """Handle to one oriented separation: an id plus its universe.

    Comparison operators follow the universe's partial order; ``~s`` and
    ``s.inverse`` both give the reverse orientation.
    """

    __slots__ = ("universe", "id")

    def __init__(self, universe: Universe, id: int):
        self.universe = universe
        self.id = int(id)

    @property
    def inverse(self) -> "OrientedSep":
        return self.universe.sep(self.universe.inv_id(self.id))

    def __invert__(self) -> "OrientedSep":
        return self.inverse

    @property
    def is_degenerate(self) -> bool:
        return self.universe.is_degenerate_id(self.id)

    @property
    def is_small(self) -> bool:
        return self.universe.leq_ids(self.id, self.universe.inv_id(self.id))

    def join(self, other: "OrientedSep") -> "OrientedSep":
        self._require_same_universe(other, "join")
        return self.universe.sep(self.universe.join_id(self.id, other.id))

    def meet(self, other: "OrientedSep") -> "OrientedSep":
        self._require_same_universe(other, "meet")
        return self.universe.sep(self.universe.meet_id(self.id, other.id))

    def _cmp_ok(self, other) -> bool:
        return isinstance(other, OrientedSep) and other.universe is self.universe

    def _require_same_universe(self, other, what: str) -> None:
        if not self._cmp_ok(other):
            raise MalformedInput(f"cannot {what} separations from different universes")

    def __le__(self, other: "OrientedSep") -> bool:
        self._require_same_universe(other, "compare")
        return self.universe.leq_ids(self.id, other.id)

    def __lt__(self, other: "OrientedSep") -> bool:
        return self.id != other.id and self.__le__(other)

    def __ge__(self, other: "OrientedSep") -> bool:
        self._require_same_universe(other, "compare")
        return self.universe.leq_ids(other.id, self.id)

    def __gt__(self, other: "OrientedSep") -> bool:
        return self.id != other.id and self.__ge__(other)

    def __eq__(self, other) -> bool:
        return self._cmp_ok(other) and other.id == self.id

    def __hash__(self) -> int:
        return hash((id(self.universe), self.id))

    def __repr__(self) -> str:
        return f"sep[{self.universe.element_repr(self.id)}]"


def _as_id(x) -> int:
    """The id of a separation handle, or of an id given as such."""
    return x.id if isinstance(x, OrientedSep) else int(x)


class SeparationSystem:
    """An involution-closed subset of a universe's elements."""

    def __init__(self, universe: Universe, member_ids: Iterable[int]):
        ids = frozenset(int(i) for i in member_ids)
        for i in ids:
            if not 0 <= i < len(universe):
                raise MalformedInput(f"member id {i} outside the universe")
            if universe.inv_id(i) not in ids:
                raise MalformedInput(
                    f"members not closed under the involution: {i} lacks its inverse"
                )
        self.universe = universe
        self.member_ids = ids
        # answers the duality engines derive from this system alone
        # (emulation, shift images); it holds ids and bit rows only
        self.memo: dict = {}
        self._above_members: dict[int, int] = {}
        self._domains: dict[int, int] = {}

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.member_ids))

    @cached_property
    def member_flags(self) -> np.ndarray:
        """Boolean vector over universe ids, true at the members."""
        flags = np.zeros(len(self.universe), dtype=bool)
        flags[list(self.member_ids)] = True
        return _readonly(flags)

    @cached_property
    def member_mask(self) -> int:
        """Bit row of the members."""
        return _bit_row(self.member_flags)

    def members_above(self, r: int) -> int:
        """Bit row of the members ``m`` with ``r <= m`` (cached per ``r``)."""
        row = self._above_members.get(r)
        if row is None:
            row = self._above_members[r] = self.universe.above_mask(r) & self.member_mask
        return row

    def domain_mask(self, r: int) -> int:
        """Bit row of the members with an orientation above ``r`` (cached per ``r``)."""
        row = self._domains.get(r)
        if row is None:
            u = self.universe
            up = u.leq_matrix()[r]
            row = self._domains[r] = _bit_row(up | up[u.inverse_table()]) & self.member_mask
        return row

    @cached_property
    def seps(self) -> tuple[OrientedSep, ...]:
        return tuple(self.universe.sep(i) for i in self.members)

    def __len__(self) -> int:
        return len(self.member_ids)

    def __contains__(self, sep) -> bool:
        return _as_id(sep) in self.member_ids

    def sep(self, i: int) -> OrientedSep:
        return self.universe.sep(i)

    @cached_property
    def degenerate_ids(self) -> frozenset[int]:
        return frozenset(i for i in self.member_ids if self.universe.is_degenerate_id(i))

    @cached_property
    def underlying_reps(self) -> tuple[int, ...]:
        """One canonical (least) orientation id per underlying separation."""
        return tuple(
            sorted(i for i in self.member_ids if i <= self.universe.inv_id(i))
        )

    @cached_property
    def nondegenerate_reps(self) -> tuple[int, ...]:
        return tuple(i for i in self.underlying_reps if not self.universe.is_degenerate_id(i))

    def triviality_witness(self, r: OrientedSep) -> Optional[OrientedSep]:
        """Least-id member strictly above both orientations of which ``r`` sits.

        Returns an orientation of the witnessing underlying separation, or
        ``None`` when ``r`` is nontrivial in this system.
        """
        u = self.universe
        for i in self.members:
            j = u.inv_id(i)
            if u.lt_ids(r.id, i) and u.lt_ids(r.id, j):
                return u.sep(i)
        return None

    @cached_property
    def trivial_ids(self) -> frozenset[int]:
        """Ids of all orientations that are trivial in this system: the
        members ``r`` with some member ``s`` such that ``r < s`` and
        ``r < inv(s)``."""
        u = self.universe
        leq, inv, flags = u.leq_matrix(), u.inverse_table(), self.member_flags
        out = set()
        for r in self.members:
            up = leq[r] & flags  # the members strictly above r
            up[r] = False
            if (up & up[inv]).any():
                out.add(r)
        return frozenset(out)

    def __repr__(self) -> str:
        return f"<system of {len(self)} orientations in {self.universe!r}>"


# --- predicates ------------------------------------------------------------


def is_small(s: OrientedSep) -> bool:
    """True iff the separation is below its own inverse."""
    return s.is_small


def find_inconsistency(
    picks, system: SeparationSystem
) -> Optional[tuple[OrientedSep, OrientedSep]]:
    """Least witness pair for inconsistency of a partial orientation.

    A set is inconsistent when it contains ``r.inverse`` and ``s`` for two
    distinct underlying separations with ``r < s``.  Returns the picked pair
    ``(r.inverse, s)``, or ``None`` if consistent.
    """
    u = system.universe
    ids = sorted(map(_as_id, picks))
    if ids and not (0 <= ids[0] and ids[-1] < len(u)):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise IndexError(f"element id {bad} outside a universe of {len(u)}")
    picked = 0
    for a in ids:
        picked |= 1 << a
    for a in ids:
        hit = u.conflict_mask(a) & picked
        if hit:
            return u.sep(a), u.sep((hit & -hit).bit_length() - 1)
    return None


def is_consistent(picks, system: SeparationSystem) -> bool:
    """True iff no two picked orientations point away from each other."""
    return find_inconsistency(picks, system) is None


def is_antisymmetric(picks, system: SeparationSystem) -> bool:
    """True iff the set holds no nondegenerate element together with its inverse."""
    u = system.universe
    ids = set(map(_as_id, picks))
    return not any(
        u.inv_id(i) in ids and not u.is_degenerate_id(i) for i in ids
    )


def is_orientation(picks, system: SeparationSystem) -> bool:
    """True iff exactly one orientation of every member separation is picked."""
    ids = set(map(_as_id, picks))
    if not ids <= system.member_ids:
        return False
    u = system.universe
    for i in system.underlying_reps:
        j = u.inv_id(i)
        if i == j:
            if i not in ids:
                return False
        elif (i in ids) == (j in ids):
            return False
    return True


def is_star(sigma: Iterable[OrientedSep]) -> bool:
    """True iff the set of orientations all point towards each other.

    Every element must be nondegenerate and satisfy ``s <= t.inverse`` for
    each other element ``t``.  The empty set is a star.
    """
    elems = list({s.id: s for s in sigma}.values())
    if any(s.is_degenerate for s in elems):
        return False
    for i, s in enumerate(elems):
        for j, t in enumerate(elems):
            if i != j and not s <= t.inverse:
                return False
    return True


def is_nested(r: OrientedSep, s: OrientedSep) -> bool:
    """True iff some orientations of the two separations are comparable."""
    for a in (r, r.inverse):
        for b in (s, s.inverse):
            if a <= b or b <= a:
                return True
    return False


# --- JSON ------------------------------------------------------------------


def tables_from_masks(
    masks: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order, involution and join tables for a pool of side-pair bitmasks.

    The pool must be sorted by ``(A, B)`` and closed under flips and joins
    ``(A|C, B&D)``; ids are positions in the pool.  It is then closed under
    meets ``(A&C, B|D)`` too, each the flip of the join of the flips.  The
    join is an ``int32`` table, built in row chunks of about ``_CHUNK``
    cells that each look their keys up in the pool.  The key of ``(r, s)``
    is the key of ``(s, r)``, so a chunk of rows from ``lo`` looks up only
    the columns from ``lo`` on and writes that block and its transpose; a
    join missing from the pool is missing in both orders, so the same pools
    are rejected.
    """
    a = np.array([m[0] for m in masks], dtype=np.int64)
    b = np.array([m[1] for m in masks], dtype=np.int64)
    packed = (a << 32) | b
    n = len(packed)
    if n > 1 and not (np.diff(packed) > 0).all():
        raise MalformedInput("mask pool must be sorted by (A, B) without repeats")

    def lookup(pa: np.ndarray, pb: np.ndarray, what: str) -> np.ndarray:
        keys = (pa << 32) | pb
        idx = np.searchsorted(packed, keys)
        np.clip(idx, 0, n - 1, out=idx)
        if not (packed[idx] == keys).all():
            raise MalformedInput(f"mask pool is not closed under {what}")
        return idx

    inverse = lookup(b, a, "flips")
    leq = np.empty((n, n), dtype=bool)
    join = np.empty((n, n), dtype=np.int32)
    rows = _chunk_rows(n)
    for lo in range(0, n, rows):
        hi = lo + rows
        ra, rb = a[lo:hi, None], b[lo:hi, None]
        leq[lo:hi] = ((ra & ~a) == 0) & ((b & ~rb) == 0)
        join[lo:hi, lo:] = lookup(ra | a[lo:], rb & b[lo:], "joins")
        join[hi:, lo:hi] = join[lo:hi, hi:].T
    return leq, inverse, join


def _is_id(x) -> bool:
    """True for a JSON integer; ``true``/``false`` load as ``bool``, an ``int`` subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _id_entry(item, size: int, what: str, shape: str) -> tuple[int, ...]:
    """One ``[a, b]`` or ``[a, b, value]`` entry, rejecting non-integer ids."""
    if not isinstance(item, (list, tuple)) or len(item) != size:
        raise MalformedInput(f"{what} entries must be {shape}")
    for x in item:
        if not _is_id(x):
            raise MalformedInput(f"{what} entry {item!r} holds a non-integer id {x!r}")
    return tuple(item)


def _leq_from_pairs(n: int, items) -> np.ndarray:
    if not isinstance(items, (list, tuple)):
        raise MalformedInput("'leq' must be a list of [a, b] pairs")
    leq = np.zeros((n, n), dtype=bool)
    try:
        pairs = np.asarray(items)
    except (ValueError, TypeError, OverflowError):  # ragged or odd entries
        pairs = None
    # the whole list at once when it is a clean in-range integer (k, 2) array;
    # numpy reads a bool mixed with ints as an int, hence the type scan
    if (
        pairs is not None
        and pairs.dtype.kind == "i"
        and pairs.shape[1:] == (2,)
        and (not len(pairs) or (pairs.min() >= 0 and pairs.max() < n))
        and bool not in set(map(type, chain.from_iterable(items)))
    ):
        leq[pairs[:, 0], pairs[:, 1]] = True
        return leq
    for item in items:
        a, b = _id_entry(item, 2, "'leq'", "[a, b] pairs")
        if not (0 <= a < n and 0 <= b < n):
            raise MalformedInput(f"'leq' pair ({a}, {b}) outside element range")
        leq[a, b] = True
    return leq


def _table_from_triples(n: int, triples, what: str) -> np.ndarray:
    if not isinstance(triples, (list, tuple)):
        raise MalformedInput(f"{what} must be a list of [a, b, value] triples")
    table = np.full((n, n), -1, dtype=np.int32)
    for item in triples:
        a, b, v = _id_entry(item, 3, what, "[a, b, value] triples")
        if not (0 <= a < n and 0 <= b < n and 0 <= v < n):
            raise MalformedInput(f"{what} triple ({a}, {b}, {v}) outside element range")
        table[a, b] = v
    if (table < 0).any():
        a, b = (int(x) for x in np.argwhere(table < 0)[0])
        raise MalformedInput(f"{what} table is missing the pair ({a}, {b})")
    return table


def _set_labels(ground, labels, n: int) -> tuple[list[str], list[tuple[int, int]]]:
    """Ground names and one ``(A, B)`` bitmask pair per element."""
    # tables_from_masks keys a pair as A << 32 | B
    if not isinstance(ground, list) or len(ground) > 32:
        raise MalformedInput("'ground' must be a list of at most 32 vertex names")
    if not isinstance(labels, list) or len(labels) != n:
        raise MalformedInput("'labels' must list one (A, B) pair per element")
    names = [str(g) for g in ground]
    index = {g: i for i, g in enumerate(names)}
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
                if str(v) not in index:
                    raise MalformedInput(f"'labels' name a vertex outside 'ground': {v!r}")
                mask |= 1 << index[str(v)]
            pair.append(mask)
        masks.append((pair[0], pair[1]))
    return names, masks


def system_from_json_dict(d: dict) -> SeparationSystem:
    """Build a validated universe plus system from the JSON schema.

    Expected keys: ``elements`` (list of ids 0..n-1), ``inverse`` (id map),
    ``leq`` (list of ``[a, b]`` pairs), optional ``join``/``meet`` tables as
    ``[a, b, value]`` triples (derived from the order when omitted), optional
    ``members`` (defaults to all elements), optional ``ground``/``labels``
    annotations for set universes.  Every id must be a JSON integer.
    """
    try:
        elements = list(d["elements"])
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad or missing 'elements': {exc}") from exc
    n = len(elements)
    if not all(_is_id(e) for e in elements) or sorted(elements) != list(range(n)):
        raise MalformedInput("'elements' must be the ids 0..n-1")

    inv_map = d.get("inverse")
    if not isinstance(inv_map, dict):
        raise MalformedInput("'inverse' must be an object mapping id -> id")
    try:
        inverse = [inv_map[str(i)] for i in range(n)]
    except KeyError as exc:
        raise MalformedInput(f"bad 'inverse' table: {exc}") from exc
    for i, x in enumerate(inverse):
        if not (_is_id(x) and 0 <= x < n):
            raise MalformedInput(f"bad 'inverse' table: {i} maps to {x!r}, not an element id")

    leq = _leq_from_pairs(n, d.get("leq", ()))
    join = _table_from_triples(n, d["join"], "join") if "join" in d else None
    meet = _table_from_triples(n, d["meet"], "meet") if "meet" in d else None

    set_labels = None
    ground = None
    if "labels" in d and "ground" in d:
        ground, set_labels = _set_labels(d["ground"], d["labels"], n)
        label_leq, label_inv, label_join = tables_from_masks(set_labels)
        if not np.array_equal(label_leq, leq):
            raise MalformedInput("'leq' disagrees with the set labels")
        if not np.array_equal(label_inv, np.asarray(inverse)):
            raise MalformedInput("'inverse' disagrees with the set labels")
        # a supplied join is law-checked by Universe, and a supremum is
        # unique, so it cannot disagree with the labels' join either
        if join is None:
            join = label_join

    universe = Universe(leq, inverse, join, meet, set_labels=set_labels, ground=ground)
    members = d.get("members")
    if members is None:
        members = range(n)
    elif not isinstance(members, list) or not all(_is_id(m) for m in members):
        raise MalformedInput("'members' must be a list of element ids")
    return SeparationSystem(universe, members)


def system_to_json_dict(system: SeparationSystem) -> dict:
    return system.universe.to_json_dict(members=system.member_ids)
