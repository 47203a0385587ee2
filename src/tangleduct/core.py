"""Finite separation systems.

A *universe* is a finite poset of oriented separations carrying an
order-reversing involution (written ``*`` in math, ``.inverse`` here) and a
join that is a genuine supremum wherever the universe holds it.  A
*separation system* is any involution-closed subset of a universe's
elements.

Elements are integer ids ``0 .. n-1``.  The order lives in a full boolean
matrix, the involution in an id table.  A :class:`Universe` is built from
these two tables alone, as every JSON document without set labels is, and
stores its join as an id table.  It checks the order and the involution
exhaustively at construction time:

 * partial order (reflexive, antisymmetric, transitive),
 * order reversal:  ``r <= s``  iff  ``s.inverse <= r.inverse``.

The join is derived from the order: ``join(r, s)`` is the id whose up-set
is the set of common upper bounds of ``r`` and ``s``, found by looking up
the AND of their up-rows among the up-rows of all ids.  That id lies in
its own up-set, so it is an upper bound, and its up-set holds every upper
bound, so it is the least one.  The derived join is thus the supremum by
construction and is not re-checked; the derivation fails when some pair
has no such id.

The meet is not stored but derived by De Morgan,
``meet(r, s) = join(r*, s*)*``, and these laws make it the greatest lower
bound.  As ``*`` reverses the order and is its own inverse, ``t <= r`` iff
``r* <= t*``.  So ``t`` lies below ``r`` and ``s`` iff ``t*`` lies above
``r*`` and ``s*``, iff ``join(r*, s*) <= t*`` (the join is the least upper
bound), iff ``t <= join(r*, s*)*``.  The lower bounds of ``r`` and ``s`` are
thus the elements below ``join(r*, s*)*``, which is one of them.

So the order and the involution fix the join and the meet, and a join or
meet table in a document only repeats them.  :func:`system_from_json_dict`
compares such a table, entry by entry, with the join of the universe it
built and its De Morgan meet, then drops it.  Suprema and infima are
unique, so a table passes exactly when it holds the least upper (greatest
lower) bounds.  The document a universe writes carries its order and flips,
and no join or meet table.

A :class:`MaskUniverse` is built from a pool L of side pairs ``(A, B)`` of
bitmasks, sorted and closed under flips, as the set and graph backends'
member sets are; it need not be closed under anything else.  Its order is
``(A, B) <= (C, D)`` iff ``A ⊆ C`` and ``B ⊇ D``, its flip swaps the sides,
and the join of two of its pairs is ``(A|C, B&D)`` if L holds that pair.
The laws hold by construction, so none is re-checked:

 * the order is reflexive and transitive, as ``⊆`` and ``⊇`` are;
 * it is antisymmetric: ``x <= y <= x`` makes both sides equal, and the
   pairs of L are distinct;
 * the flip reverses the order, ``(A, B) <= (C, D)`` iff ``(D, C) <=
   (B, A)``, and flipping twice gives the pair back;
 * ``(A|C, B&D)`` lies above ``(A, B)`` and ``(C, D)``, and below every
   ``(E, F)`` above both (``A, C ⊆ E`` gives ``A|C ⊆ E``, and ``B, D ⊇ F``
   gives ``B&D ⊇ F``), so it is their least upper bound among all side
   pairs; when it lies in L it is also their least upper bound in L, as L
   holds only side pairs.  The meet ``(A&C, B|D)``, the flip of the join
   of the flips, is likewise the greatest lower bound in L when L holds it.

It stores no join table: :meth:`Universe.join_column` looks one column up
in the sorted pair keys on first use and keeps it, with -1 where the join
is not in L.  The engines read -1 as "not a member".
:meth:`Universe.join_id`, :meth:`Universe.meet_id` and
:meth:`OrientedSep.join`/``meet`` raise :class:`MalformedInput` for a join
or meet outside the universe, and a flip missing from the pool raises it
too.

Transitivity compares rows of the order matrix packed into 64-bit words,
so it costs O(n²·⌈n/64⌉) word operations rather than O(n³) boolean ones.
Where the packed check finds a violation, the dense check reruns on that
row alone to name the same witness.

Memory: a universe of n elements keeps n² bytes for the order; one built
from tables adds 4n² for the ``int32`` join table, and a mask universe 4n
bytes per join column it was asked for.  The order of a mask universe and
the checks of antisymmetry and order reversal work in row chunks of about
``_CHUNK`` cells, so their temporaries stay bounded per chunk whatever n
is; the transitivity check holds the packed order (n²/8 bytes) plus the
packed words one row of it compares.  Chunked checks scan rows in
ascending order and name the same least witness as a one-shot check.

The engines' hot path asks set questions ("which picks lie strictly above
this one's inverse?", "do all elements of this star lie in that domain?").
For these, a universe hands out *bit rows*: Python ints whose bit ``b`` is
set when id ``b`` belongs to the row.  :meth:`Universe.above_mask`,
:meth:`Universe.below_mask` and :meth:`Universe.conflict_mask` build one
row per id on first use, from the order matrix through ``np.packbits``, so
each kind of row costs at most n²/8 bytes; a universe built from tables
builds every up-row as it derives its join.
A :class:`SeparationSystem` keeps its member set as a bit row too, and
caches per base ``r`` the members above ``r``.  Its other set questions
are a few ANDs of the universe's rows and its member row: the members
with an orientation above ``r`` (its domain), and the members strictly
between ``r`` and ``inv(r)``, which witness that ``r`` is trivial.  All of
it lives on the object it describes and is dropped with it; what the
duality engines derive from a system and a family lives on the family (see
:mod:`tangleduct.duality`).

:func:`system_from_json_dict` reads a document's ``leq`` pairs one entry
at a time, checking that each holds two JSON integers inside the element
range and naming the first entry that does not.  That loop is linear in
the pairs; on a table document the law checks of :class:`Universe` cost
far more, and a set-labelled document needs no pairs at all.

All objects are immutable; operations construct new values.  Ties are broken
by least element id everywhere, so identical inputs give identical outputs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    InvolutionNotOrderReversing,
    JoinNotSupremum,
    MalformedInput,
    NotAPartialOrder,
    NotInvolution,
)


_CHUNK = 1 << 16  # table cells per row chunk of the table builders and checks

# most vertices of a ground set: a mask universe keys a side pair (A, B) as
# the uint64 A << 32 | B
GROUND_CAP = 32


def _chunk_rows(n: int) -> int:
    """Rows per chunk of an n-column table: ``_CHUNK`` cells, at least one row."""
    return max(1, _CHUNK // max(n, 1))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _id_row(ids: Iterable[int]) -> int:
    """The bit row of some ids."""
    row = 0
    for i in ids:
        row |= 1 << i
    return row


def _bit_row(row: np.ndarray) -> int:
    """A boolean vector as a Python int with bit ``i`` set where ``row[i]`` is."""
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def _pack_rows(m: np.ndarray) -> np.ndarray:
    """Each row of a boolean matrix as zero-padded ``uint64`` bit words."""
    rows, cols = m.shape
    packed = np.zeros((rows, -(-cols // 64) * 8), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(m, axis=1)
    return packed.view(np.uint64)


class Universe:
    """A finite lattice of oriented separations with an order-reversing involution.

    The order and the involution are law-checked in full, and the join is
    derived from the order; the meet follows by De Morgan.  An order in
    which some pair has no least upper bound raises :class:`JoinNotSupremum`.
    """

    set_labels: Optional[tuple[tuple[int, int], ...]] = None  # side pairs, if any
    ground: Optional[tuple[str, ...]] = None  # their vertex names

    def __init__(self, leq: np.ndarray, inverse: Sequence[int]):
        leq = np.asarray(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise MalformedInput("leq must be a square matrix")
        n = leq.shape[0]
        inv = np.asarray(inverse, dtype=np.int64)
        if inv.shape != (n,) or (n and (inv.min() < 0 or inv.max() >= n)):
            raise MalformedInput("inverse table must map ids to ids")

        self._store(leq, inv)
        self._check_order(_pack_rows(leq))  # packed up[a]: the ids above a
        self._check_involution()
        self._join = self._derive_join()  # the supremum by construction

    def _store(self, leq: np.ndarray, inv: np.ndarray) -> None:
        """Keep the order and the involution, and start the bit row caches.

        The involution is kept twice: as a numpy table for the vectorized
        paths, and as a list of Python ints for the scalar lookups of the
        engines, where indexing a list is several times faster.
        """
        n = len(inv)
        self._leq = _readonly(leq)
        self._inv = _readonly(inv)
        self._inv_list: list[int] = self._inv.tolist()
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

    def _derive_join(self) -> np.ndarray:
        """The join table from the order alone: ``join(r, s)`` is the id
        whose up-row is the common up-row of ``r`` and ``s``.

        Each id's ``above_mask`` row is mapped to the id, so a join is one
        lookup of ``above_mask(r) & above_mask(s)``.  The table is
        symmetric: row ``r`` looks up only the ``s >= r`` and is mirrored
        into column ``r``.  A pair without a join raises at the first miss,
        which is the first such pair in row-major order, as that pair has
        ``r <= s``.
        """
        n = len(self._leq)
        up = [self.above_mask(r) for r in range(n)]
        of_row = {row: i for i, row in enumerate(up)}
        table = np.empty((n, n), dtype=np.int32)
        for r, row in enumerate(up):
            joins = [of_row.get(row & t, -1) for t in up[r:]]
            if -1 in joins:
                raise JoinNotSupremum(r, r + joins.index(-1))
            table[r, r:] = joins
            table[r:, r] = joins
        return _readonly(table)

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
        return self._inv_list[a]

    def join_id(self, a: int, b: int) -> int:
        j = int(self.join_column(b)[a])
        if j < 0:
            raise MalformedInput(f"the join of {a} and {b} lies outside the universe")
        return j

    def meet_id(self, a: int, b: int) -> int:
        inv = self._inv_list
        j = int(self.join_column(inv[b])[inv[a]])
        if j < 0:
            raise MalformedInput(f"the meet of {a} and {b} lies outside the universe")
        return inv[j]

    def is_degenerate_id(self, a: int) -> bool:
        return self._inv_list[a] == a

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
            ra = self._inv_list[a]
            row = self._conflict[a] = self.above_mask(ra) & ~((1 << a) | (1 << ra))
        return row

    def leq_matrix(self) -> np.ndarray:
        return self._leq

    def inverse_table(self) -> np.ndarray:
        return self._inv

    def join_column(self, s: int) -> np.ndarray:
        """The read-only ``int32`` ids ``join(t, s)`` over all ids ``t``, -1
        where a mask universe does not hold the join."""
        return self._join[:, s]

    def element_repr(self, i: int) -> str:
        return str(i)

    def __repr__(self) -> str:
        return f"<universe of {len(self)} oriented separations>"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self, members: Optional[Iterable[int]] = None) -> dict:
        n = len(self)
        d = {
            "elements": list(range(n)),
            "inverse": {str(i): v for i, v in enumerate(self._inv_list)},
            **self._order_json(),
        }
        if members is not None:
            d["members"] = sorted(int(m) for m in members)
        return d

    def _order_json(self) -> dict:
        # the order fixes the join, its supremum, and the meet, by De Morgan
        return {"leq": np.argwhere(self._leq).tolist()}


class MaskUniverse(Universe):
    """The universe of a sorted, flip-closed pool of side pairs ``(A, B)`` of
    bitmasks, named over the vertices ``ground``.

    Ids are positions in the pool.  The laws hold by construction (the
    module docstring proves them), so none is checked, and no join table is
    kept: each join column is looked up in the sorted pair keys on first
    use and cached per id, like the bit rows, with -1 where the join is not
    in the pool.
    """

    def __init__(self, masks: Sequence[tuple[int, int]], ground: Sequence[str]):
        a, b, keys = _mask_keys(masks)
        leq, inverse = _order_and_flips(a, b, keys)
        self._store(leq, inverse)
        self.set_labels = tuple(masks)
        self.ground = tuple(ground)
        self._a, self._b, self._keys = a, b, keys
        self._columns: list[Optional[np.ndarray]] = [None] * len(keys)

    def join_column(self, s: int) -> np.ndarray:
        col = self._columns[s]
        if col is None:
            a, b = self._a, self._b
            col = _find_keys(self._keys, a | a[s], b & b[s]).astype(np.int32)
            col = self._columns[s] = _readonly(col)
        return col

    def element_repr(self, i: int) -> str:
        names = self.ground

        def side(mask: int) -> str:
            return "{" + ",".join(names[v] for v in range(len(names)) if mask >> v & 1) + "}"

        a_mask, b_mask = self.set_labels[i]
        return f"({side(a_mask)}|{side(b_mask)})"

    def __repr__(self) -> str:
        return f"<set-universe of {len(self)} oriented separations>"

    def _order_json(self) -> dict:
        # the side pairs fix the order, (A, B) <= (C, D) iff A ⊆ C and
        # B ⊇ D, and the join (A ∪ C, B ∩ D): the reader rebuilds both from
        # the labels, so the order pairs, which would dominate the file,
        # are not written
        names = self.ground
        return {
            "ground": list(names),
            "labels": [
                [
                    [names[v] for v in range(len(names)) if a >> v & 1],
                    [names[v] for v in range(len(names)) if b >> v & 1],
                ]
                for a, b in self.set_labels
            ],
        }


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
        self._require_same_universe(other, "compare")
        return self.universe.lt_ids(self.id, other.id)

    def __ge__(self, other: "OrientedSep") -> bool:
        self._require_same_universe(other, "compare")
        return self.universe.leq_ids(other.id, self.id)

    def __gt__(self, other: "OrientedSep") -> bool:
        self._require_same_universe(other, "compare")
        return self.universe.lt_ids(other.id, self.id)

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
        n, inv = len(universe), universe._inv_list
        for i in ids:
            if not 0 <= i < n:
                raise MalformedInput(f"member id {i} outside the universe")
            if inv[i] not in ids:
                raise MalformedInput(
                    f"members not closed under the involution: {i} lacks its inverse"
                )
        self.universe = universe
        self.member_ids = ids
        self._above_members: dict[int, int] = {}

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.member_ids))

    @cached_property
    def member_mask(self) -> int:
        """Bit row of the members."""
        return _id_row(self.member_ids)

    def members_above(self, r: int) -> int:
        """Bit row of the members ``m`` with ``r <= m`` (cached per ``r``)."""
        row = self._above_members.get(r)
        if row is None:
            row = self._above_members[r] = self.universe.above_mask(r) & self.member_mask
        return row

    def domain_mask(self, r: int) -> int:
        """Bit row of the members with an orientation above ``r``: those
        above ``r`` or, as the involution reverses the order, below ``inv(r)``."""
        u = self.universe
        return (u.above_mask(r) | u.below_mask(u.inv_id(r))) & self.member_mask

    def __len__(self) -> int:
        return len(self.member_ids)

    def __contains__(self, sep) -> bool:
        return _as_id(sep) in self.member_ids

    @cached_property
    def degenerate_ids(self) -> frozenset[int]:
        return frozenset(i for i in self.member_ids if self.universe.is_degenerate_id(i))

    @cached_property
    def degenerate_mask(self) -> int:
        """Bit row of the degenerate members."""
        return _id_row(self.degenerate_ids)

    @cached_property
    def rep_mask(self) -> int:
        """Bit row of the nondegenerate representatives."""
        return _id_row(self.nondegenerate_reps)

    @cached_property
    def underlying_reps(self) -> tuple[int, ...]:
        """One canonical (least) orientation id per underlying separation."""
        return tuple(
            sorted(i for i in self.member_ids if i <= self.universe.inv_id(i))
        )

    @cached_property
    def nondegenerate_reps(self) -> tuple[int, ...]:
        return tuple(i for i in self.underlying_reps if not self.universe.is_degenerate_id(i))

    def _witness_row(self, r: int) -> int:
        """Bit row of the members ``s`` with ``r < s`` and ``r < inv(s)``: as
        the involution reverses the order, those strictly between ``r`` and
        ``inv(r)``."""
        u = self.universe
        ri = u.inv_id(r)
        return u.above_mask(r) & u.below_mask(ri) & self.member_mask & ~(1 << r | 1 << ri)

    def triviality_witness(self, r: OrientedSep) -> Optional[OrientedSep]:
        """Least-id member strictly above both orientations of which ``r`` sits.

        Returns an orientation of the witnessing underlying separation, or
        ``None`` when ``r`` is nontrivial in this system.
        """
        row = self._witness_row(r.id)
        return self.universe.sep((row & -row).bit_length() - 1) if row else None

    @cached_property
    def trivial_ids(self) -> frozenset[int]:
        """Ids of all orientations that are trivial in this system: the
        members ``r`` with some member ``s`` such that ``r < s`` and
        ``r < inv(s)``."""
        return frozenset(r for r in self.member_ids if self._witness_row(r))

    def __repr__(self) -> str:
        return f"<system of {len(self)} orientations in {self.universe!r}>"


# --- predicates ------------------------------------------------------------


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
    picked = _id_row(ids)
    hit = _first_conflict(u, picked, picked)
    return None if hit is None else (u.sep(hit[0]), u.sep(hit[1]))


def _first_conflict(universe: Universe, picked: int, new: int) -> Optional[tuple[int, int]]:
    """The least inconsistent pair of the bit row ``picked`` that holds an id
    of the row ``new``, as ids ``(a, b)`` with ``inv(a) < b``, or ``None``.

    The ids of ``new`` are scanned in ascending order; the first whose
    conflict row meets ``picked``, with the least id ``c`` it meets, makes
    the pair.  Conflict is symmetric, so with ``new = picked`` this is the
    least witness of the whole set, and so it is with ``new = 1 << x`` when
    every conflict within ``picked`` holds ``x``.
    """
    while new:
        a = (new & -new).bit_length() - 1
        hit = universe.conflict_mask(a) & picked
        if hit:
            c = (hit & -hit).bit_length() - 1
            return min(a, c), max(a, c)
        new &= new - 1
    return None


def is_consistent(picks, system: SeparationSystem) -> bool:
    """True iff no two picked orientations point away from each other."""
    return find_inconsistency(picks, system) is None


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
    each other element ``t``.  The empty set is a star; elements of
    different universes raise :class:`MalformedInput`.
    """
    elems = list(sigma)
    for s in elems[1:]:
        elems[0]._require_same_universe(s, "compare")
    return not elems or _is_star_ids(elems[0].universe, [s.id for s in elems])


def _is_star_ids(universe: Universe, ids: Collection[int]) -> bool:
    """:func:`is_star` on element ids, read off bit rows.

    A star holds no degenerate element, and for any two distinct elements
    ``s`` and ``t`` the bit of ``inv(t)`` is set in ``above_mask(s)``.  An
    id outside the universe raises ``IndexError``, as ``Universe.sep`` does.
    The ids are walked in place, with no copy of them or of their inverses.
    """
    n = len(universe)
    if ids and not (0 <= min(ids) and max(ids) < n):
        bad = next(i for i in ids if not 0 <= i < n)
        raise IndexError(f"element id {bad} outside a universe of {n}")
    inv = universe._inv_list
    row = 0
    for i in ids:
        f = inv[i]
        if f == i:
            return False
        row |= 1 << f
    if len(ids) > 1:
        above = universe.above_mask
        for i in ids:
            # s <= inv(s) is not required, so the bit of inv(s) is let through
            if row & ~(above(i) | 1 << inv[i]):
                return False
    return True


# --- JSON ------------------------------------------------------------------


def _mask_keys(
    masks: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sides ``A`` and ``B`` of a mask pool and its keys ``A << 32 | B``,
    as ``uint64`` arrays; the keys must ascend."""
    a = np.array([m[0] for m in masks], dtype=np.uint64)
    b = np.array([m[1] for m in masks], dtype=np.uint64)
    if ((a | b) >> np.uint64(32)).any():
        raise MalformedInput("side masks must fit in 32 bits")
    keys = a << np.uint64(32) | b
    if not (keys[1:] > keys[:-1]).all():
        raise MalformedInput("mask pool must be sorted by (A, B) without repeats")
    return a, b, keys


def _find_keys(keys: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The positions of the pairs ``(a, b)`` in the sorted ``keys``, -1
    where one is missing."""
    want = a << np.uint64(32) | b
    idx = np.searchsorted(keys, want)
    np.clip(idx, 0, len(keys) - 1, out=idx)
    return np.where(keys[idx] == want, idx, -1)


def _order_and_flips(
    a: np.ndarray, b: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The order matrix of a sorted mask pool, in row chunks of about
    ``_CHUNK`` cells, and the id of each pair's flip."""
    inverse = _find_keys(keys, b, a)
    if (inverse < 0).any():
        raise MalformedInput("mask pool is not closed under flips")
    n = len(keys)
    leq = np.empty((n, n), dtype=bool)
    rows = _chunk_rows(n)
    for lo in range(0, n, rows):
        ra, rb = a[lo : lo + rows, None], b[lo : lo + rows, None]
        leq[lo : lo + rows] = ((ra & ~a) == 0) & ((b & ~rb) == 0)
    return leq, inverse


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
    if not isinstance(ground, list) or len(ground) > GROUND_CAP:
        raise MalformedInput(f"'ground' must be a list of at most {GROUND_CAP} vertex names")
    if not isinstance(labels, list) or len(labels) != n:
        raise MalformedInput("'labels' must list one (A, B) pair per element")
    names = [str(g) for g in ground]
    index = {g: i for i, g in enumerate(names)}
    if len(index) != len(names):
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
                if str(v) not in index:
                    raise MalformedInput(f"'labels' name a vertex outside 'ground': {v!r}")
                mask |= 1 << index[str(v)]
            pair.append(mask)
        masks.append((pair[0], pair[1]))
    return names, masks


def _check_tables(
    universe: Universe,
    join: Optional[np.ndarray],
    meet: Optional[np.ndarray],
    source: str,
) -> None:
    """A given join or meet table must equal the universe's join, or its De
    Morgan meet ``meet(t, s) = join(t*, s*)*``, at every pair, and so hold
    no pair whose join or meet lies outside the universe.

    Column ``s`` of the join table is compared, then of the meet table, for
    ascending ``s``; the first differing row ``t`` names the pair ``(t, s)``.
    ``source`` names what fixed the universe's tables.
    """
    inv = universe.inverse_table()

    def require(what: str, given: np.ndarray, want: np.ndarray, s: int) -> None:
        bad = given != want
        if bad.any():
            t = int(np.argmax(bad))
            raise MalformedInput(f"'{what}' disagrees with the {source} at ({t}, {s})")

    for s in range(len(universe)):
        if join is not None:
            require("join", join[:, s], universe.join_column(s), s)
        if meet is not None:
            col = universe.join_column(int(inv[s]))[inv]
            require("meet", meet[:, s], np.where(col < 0, -1, inv[col]), s)


def system_from_json_dict(d: dict) -> SeparationSystem:
    """Build a validated universe plus system from the JSON schema.

    Expected keys: ``elements`` (list of ids 0..n-1), ``inverse`` (id map),
    ``leq`` (list of ``[a, b]`` pairs), optional ``join``/``meet`` tables as
    ``[a, b, value]`` triples (derived from the order when omitted, as the
    writer omits them; older documents carry them), optional
    ``members`` (defaults to all elements), optional ``ground``/``labels``
    for set universes.  Every id must be a JSON integer.

    With ``ground`` and ``labels`` present the side pairs fix the order, the
    flips and the joins, so ``leq`` is optional, and the document loads as
    a :class:`MaskUniverse` with no law check.  The labels must be distinct,
    sorted by their ``(A, B)`` masks and closed under flips; ``inverse``
    and a ``leq`` that is given must equal what they give.  Any such pool is
    valid, so documents listing more elements than their members load too.
    Without labels the order and the flips are law-checked in full by
    :class:`Universe`, which derives the join; ``ground`` without
    ``labels``, or ``labels`` without ``ground``, is refused.  Either way a
    ``join`` or ``meet`` that is given must equal the universe's join and
    its De Morgan meet at every pair.
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

    leq = _leq_from_pairs(n, d["leq"]) if "leq" in d else None
    join = _table_from_triples(n, d["join"], "join") if "join" in d else None
    meet = _table_from_triples(n, d["meet"], "meet") if "meet" in d else None

    labelled = "labels" in d
    if labelled != ("ground" in d):
        raise MalformedInput("'ground' and 'labels' must be given together")
    if labelled:
        ground, set_labels = _set_labels(d["ground"], d["labels"], n)
        universe = MaskUniverse(set_labels, ground)
        if leq is not None and not np.array_equal(universe.leq_matrix(), leq):
            raise MalformedInput("'leq' disagrees with the set labels")
        if not np.array_equal(universe.inverse_table(), np.asarray(inverse)):
            raise MalformedInput("'inverse' disagrees with the set labels")
    elif leq is None:
        raise MalformedInput("'leq' is required without 'ground' and 'labels'")
    else:
        universe = Universe(leq, inverse)
    _check_tables(universe, join, meet, "set labels" if labelled else "order")
    members = d.get("members")
    if members is None:
        members = range(n)
    elif not isinstance(members, list) or not all(_is_id(m) for m in members):
        raise MalformedInput("'members' must be a list of element ids")
    return SeparationSystem(universe, members)


def system_to_json_dict(system: SeparationSystem) -> dict:
    return system.universe.to_json_dict(members=system.member_ids)
