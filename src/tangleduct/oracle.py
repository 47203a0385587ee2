"""Exhaustive orientation census, independent of the duality engines.

Every full orientation of a system is numbered by a code of ``n`` bits, one
per nondegenerate underlying separation (degenerate members are always
picked); :func:`orientation_picks` states the numbering.  The census
classifies all ``2**n`` codes at once on truth tables: bit ``c`` of a
``2**n``-bit Python int stands for code ``c``, each orientation of each
separation has the column of codes that pick it, each clashing pair of
picks (``inv(a) < b`` for distinct separations) clears the AND of its two
columns from the consistent codes, and each star clears the AND of its
columns from the avoiding codes.  The consistent table is grown one
separation at a time, so each clashing pair is applied once, at the
width of its later separation.  A census is these two tables; all else
is derived from them on demand, and a listing of the flagged codes as
picks tuples is built in bounded numpy chunks when it is first read.

The census stays independent: it classifies every code, prunes nothing,
reads only the order and inverse tables and uses no engine logic.  The
cross-check plays the strong engine against it on the truth tables alone:
a tree is returned exactly when no tangle exists, a returned tangle is
the code whose bit the tangle table sets, and on tree instances all
consistent codes walk the tree at once, each to a sink node whose star it
picks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .core import SeparationSystem, _bit_row, _chunk_rows
from .duality import Certificate, strong_duality
from .errors import InternalInvariant, MalformedInput, NotFSeparable, TooLarge
from .stree import StarFamily, STree, _check_same_universe

_CENSUS_CAP = 20


def orientation_picks(system: SeparationSystem, code: int) -> tuple[int, ...]:
    """Picked ids of the census orientation numbered ``code``, sorted.

    Bit ``i`` of ``code`` orients the ``i``-th nondegenerate underlying
    separation (sorted by least orientation id): 0 keeps that least
    orientation, 1 takes its inverse.  Degenerate members are always
    included.  This is the enumeration rule every census listing follows.
    """
    u = system.universe
    reps = system.nondegenerate_reps
    if not 0 <= code < (1 << len(reps)):
        raise MalformedInput(
            f"orientation code {code} out of range for {len(reps)} underlying separations"
        )
    picks = list(system.degenerate_ids)
    for i, r in enumerate(reps):
        picks.append(u.inv_id(r) if (code >> i) & 1 else r)
    return tuple(sorted(picks))


@dataclass(frozen=True)
class OrientationCensus:
    """Complete classification of the orientation space of a system.

    The census holds two ``2**n``-bit truth tables, one bit per code
    numbered as by :func:`orientation_picks`: ``consistent_codes`` and
    ``avoiding_codes`` (the codes whose orientation contains no family
    star).  ``mode`` records which question the census was asked for; it
    changes nothing else, as both modes classify every code alike.

    Everything else is derived from the tables: ``total`` counts all full
    orientations and ``tangle_codes`` is the table of the consistent,
    avoiding codes.  The listings ``consistent``, ``f_avoiding`` and
    ``f_tangles`` hold the picked id tuples (sorted ascending) of their
    codes in code order; each is built on first read and kept.  Equality,
    hashing and ``repr`` read the system and the tables only, so they list
    nothing.
    """

    # kept out of repr: the system is large, and a 2**n-bit int has more
    # digits than int-to-str allows once n >= 14
    system: SeparationSystem = field(repr=False)
    consistent_codes: int = field(repr=False)
    avoiding_codes: int = field(repr=False)
    mode: str

    @property
    def total(self) -> int:
        return 1 << len(self.system.nondegenerate_reps)

    @property
    def tangle_codes(self) -> int:
        return self.consistent_codes & self.avoiding_codes

    @cached_property
    def consistent(self) -> tuple[tuple[int, ...], ...]:
        return _listing(self.system, self.consistent_codes)

    @cached_property
    def f_avoiding(self) -> tuple[tuple[int, ...], ...]:
        return _listing(self.system, self.avoiding_codes)

    @cached_property
    def f_tangles(self) -> tuple[tuple[int, ...], ...]:
        return _listing(self.system, self.tangle_codes)


@cache
def _columns(n: int) -> tuple[tuple[int, int], ...]:
    """Truth-table columns of the ``2**n`` census codes.

    ``cols[i][b]`` has bit ``c`` set iff bit ``i`` of code ``c`` is ``b``; an
    AND of columns is the set of codes making all those choices at once.
    """
    codes = np.arange(1 << n, dtype=np.int64)
    cols = []
    for i in range(n):
        one = ((codes >> i) & 1).astype(bool)
        cols.append((_bit_row(~one), _bit_row(one)))
    return tuple(cols)


def _bits(flags: int, total: int) -> np.ndarray:
    """The bits of a ``total``-bit flag int as a 0/1 array, code by code."""
    raw = np.frombuffer(flags.to_bytes(-(-total // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=total, bitorder="little")


def _codes(flags: int, total: int) -> np.ndarray:
    """The codes whose bit is set in a ``total``-bit flag int, ascending."""
    return np.flatnonzero(_bits(flags, total))


def _choices(system: SeparationSystem) -> np.ndarray:
    """Row ``i``: the two orientations of the ``i``-th nondegenerate
    separation, in the order bit ``i`` of a code selects them."""
    choice = np.empty((len(system.nondegenerate_reps), 2), dtype=np.int64)
    choice[:, 0] = system.nondegenerate_reps
    choice[:, 1] = system.universe.inverse_table()[choice[:, 0]]
    return choice


def _pick_columns(system: SeparationSystem) -> dict[int, int]:
    """Each member's truth-table column: the codes that pick it.

    The two orientations of the ``i``-th nondegenerate separation take the
    two columns of bit ``i``; degenerate members, which every code picks,
    take the full table.
    """
    reps = system.nondegenerate_reps
    inv = system.universe.inv_id
    cols = {}
    for r, (keep, flip) in zip(reps, _columns(len(reps))):
        cols[r] = keep
        cols[inv(r)] = flip
    full = (1 << (1 << len(reps))) - 1
    for d in sorted(system.degenerate_ids):
        cols[d] = full
    return cols


def _truth_tables(system: SeparationSystem, family: StarFamily) -> tuple[int, int]:
    """Classify every code: the ``2**n``-bit ints of the consistent codes
    and of the codes avoiding the family.

    The consistent codes are built by :func:`_consistent_codes`; every
    star clears the AND of its columns from the avoiding codes.  Raises
    :class:`TooLarge` when the system has more than ``_CENSUS_CAP``
    nondegenerate underlying separations.
    """
    _check_same_universe(family, system)
    n = len(system.nondegenerate_reps)
    if n > _CENSUS_CAP:
        raise TooLarge(n, _CENSUS_CAP)
    full = (1 << (1 << n)) - 1
    cols = _pick_columns(system)
    consistent = _consistent_codes(system)
    avoiding = full
    deg = system.degenerate_ids
    for sigma in family.sorted_stars:
        inside = full
        for e in sigma:
            c = cols.get(e)
            if c is None or e in deg:
                break  # outside S, or degenerate, which no star holds: never inside
            inside &= c
        else:
            avoiding &= ~inside
    return consistent, avoiding


def _consistent_codes(system: SeparationSystem) -> int:
    """The ``2**n``-bit table of the consistent codes, one bit at a time.

    Picks ``a`` and ``b`` clash when ``inv(a) <= b`` and ``b`` is neither
    ``a`` nor ``inv(a)``; the relation is symmetric, as the involution
    reverses the order.  The table of the first ``k`` bits, over ``2**k``
    codes, grows to ``k + 1`` bits by doubling: a code keeps bit ``k`` at
    0 or sets it, and is dropped when that orientation of the ``k``-th
    separation clashes with one of its earlier picks, degenerate members
    included.  So each clashing pair is applied once, at the width of its
    later separation, from that separation's row of the order.
    """
    u = system.universe
    reps = system.nondegenerate_reps
    deg = system.degenerate_mask
    # two clashing degenerate members, which every code picks
    if any(u.conflict_mask(d) & deg for d in system.degenerate_ids):
        return 0
    # the earlier picks: degenerate members, then both orientations of each
    # separation added so far, by their bit and side
    where: dict[int, tuple[int, int]] = {}
    earlier = deg
    table = 1
    for k, r in enumerate(reps):
        cols = _columns(k)
        pair = (r, u.inv_id(r))
        halves = []
        for x in pair:
            row = u.conflict_mask(x) & earlier
            if row & deg:  # a degenerate partner, which every code picks
                halves.append(0)
                continue
            hit = 0
            while row:
                low = row & -row
                i, side = where[low.bit_length() - 1]
                hit |= cols[i][side]
                row ^= low
            halves.append(table & ~hit)
        table = halves[0] | halves[1] << (1 << k)
        for side, x in enumerate(pair):
            where[x] = (k, side)
            earlier |= 1 << x
    return table


def _listing_chunks(
    system: SeparationSystem, flags: int
) -> Iterator[list[tuple[int, ...]]]:
    """The sorted picks tuples of the codes flagged in ``flags``, in
    ascending code order, in lists of ``_chunk_rows(picks per code)`` codes."""
    choice = _choices(system)
    n = len(choice)
    deg = np.array(sorted(system.degenerate_ids), dtype=np.int64)
    shifts = np.arange(n)
    codes = _codes(flags, 1 << n)
    step = _chunk_rows(n + len(deg))
    for at in range(0, len(codes), step):
        part = codes[at : at + step]
        picks = np.empty((len(part), n + len(deg)), dtype=np.int64)
        picks[:, :n] = choice[shifts, (part[:, None] >> shifts) & 1]
        picks[:, n:] = deg
        picks.sort(axis=1)
        yield list(map(tuple, picks.tolist()))


def _listing(system: SeparationSystem, flags: int) -> tuple[tuple[int, ...], ...]:
    """The sorted picks tuples of the codes flagged in ``flags``, in code order."""
    return tuple(chain.from_iterable(_listing_chunks(system, flags)))


def enumerate_orientations(
    system: SeparationSystem, family: StarFamily, mode: str = "tangle"
) -> OrientationCensus:
    """Census every orientation, numbered as by :func:`orientation_picks`.

    Each code's consistency and avoidance is one bit of a ``2**n``-bit
    truth table (see :func:`_truth_tables`); the census holds the two
    tables.  Raises :class:`TooLarge` when the system has more than 20
    nondegenerate underlying separations.  ``mode`` (``"tangle"`` or
    ``"avoiding"``) is only recorded in the census: both modes classify and
    list alike.
    """
    if mode not in ("avoiding", "tangle"):
        raise MalformedInput(f"unknown census mode {mode!r}")
    return OrientationCensus(system, *_truth_tables(system, family), mode)


@dataclass(frozen=True)
class CrossCheckReport:
    """Outcome of playing the strong engine against the census.

    ``kind`` is the strong engine's answer, or ``None`` on a hypothesis
    failure (no separator at some pair), where nothing is asserted and
    ``agree`` is ``None``.  Otherwise ``agree`` is True: a disagreement
    raises :class:`InternalInvariant` instead of returning.
    ``tangle_count`` counts the census's tangles.  For tree answers
    ``exhibits`` lists, per consistent orientation in code order, the
    picks, the sink node the orientation walks to and the star it contains
    there; it is built from the census tables when first read, and is
    empty for other answers.
    """

    kind: Optional[str]
    census: OrientationCensus
    certificate: Optional[Certificate]

    @property
    def hypothesis_failed(self) -> bool:
        return self.kind is None

    @property
    def agree(self) -> Optional[bool]:
        return None if self.kind is None else True

    @property
    def tangle_count(self) -> int:
        return self.census.tangle_codes.bit_count()

    @cached_property
    def exhibits(self) -> tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]:
        if self.kind != "stree":
            return ()
        census, tree = self.census, self.certificate.tree
        total = census.total
        sink_of = np.empty(total, dtype=np.int64)
        stars = {}
        for t, codes in _sinks(tree, _pick_columns(census.system), census.consistent_codes):
            sink_of[_codes(codes, total)] = t
            stars[t] = tuple(sorted(tree.node_star(t)))
        sinks = sink_of[_codes(census.consistent_codes, total)].tolist()
        return tuple((picks, t, stars[t]) for picks, t in zip(census.consistent, sinks))


def _sinks(tree: STree, cols: dict[int, int], codes: int) -> list[tuple[int, int]]:
    """Walk the ``codes`` through ``tree`` at once, by the rule of
    :func:`~tangleduct.stree.find_guided_sink`: the ``(node, codes)`` pairs
    of the codes that sink at each node.

    At node ``t`` the codes that do not pick the label of ``(w, t)`` move
    to ``w``, for the first such ``w`` in ``tree.adj[t]``; the codes that
    pick every incoming label sink at ``t``.  ``cols`` maps a member to
    the codes that pick it.
    """
    frontier = [(tree.nodes[0], codes)]
    sinks = []
    for _ in range(len(tree.nodes) + 1):
        if not frontier:
            return sinks
        step = []
        for t, here in frontier:
            for w in tree.adj[t]:
                away = here & ~cols.get(tree.alpha[(w, t)], 0)
                if away:
                    step.append((w, away))
                    here ^= away
            if here:
                sinks.append((t, here))
        frontier = step
    raise InternalInvariant("guided walk did not reach a sink")


def cross_check(system: SeparationSystem, family: StarFamily) -> CrossCheckReport:
    """Run the strong engine and the census; assert they tell the same story.

    Every answer is checked on the census truth tables; nothing is listed
    unless the report's ``exhibits`` are read.  The engine's answer is
    reused when the caller still holds the certificate of a
    :func:`strong_duality` call on this system and family, or when that
    call raised :class:`NotFSeparable` (see :mod:`tangleduct.duality`).
    """
    census = enumerate_orientations(system, family, "tangle")
    tangles = census.tangle_codes
    try:
        cert = strong_duality(system, family)
    except NotFSeparable:
        return CrossCheckReport(None, census, None)
    if cert.kind == "tangle":
        if not tangles:
            raise InternalInvariant(
                "engine returned a tangle but the census found none"
            )
        picks = tuple(sorted(cert.picks))
        inv = system.universe.inv_id
        code = sum(
            1 << i for i, r in enumerate(system.nondegenerate_reps) if inv(r) in picks
        )
        if orientation_picks(system, code) != picks or not tangles >> code & 1:
            raise InternalInvariant(
                "engine's tangle is missing from the census listing"
            )
        return CrossCheckReport("tangle", census, cert)
    if tangles:
        raise InternalInvariant(
            "engine returned a tree but the census found a tangle"
        )
    fam = family.restricted_to(system)
    cols = _pick_columns(system)
    for t, codes in _sinks(cert.tree, cols, census.consistent_codes):
        star = cert.tree.node_star(t)
        if any(codes & ~cols.get(label, 0) for label in star):
            raise InternalInvariant(
                "sink star is not contained in the consistent orientation"
            )
        if star not in fam.stars:
            raise InternalInvariant("sink star is not a family star")
    return CrossCheckReport("stree", census, cert)
