"""Exhaustive orientation census, independent of the duality engines.

Every full orientation of a system is numbered by a code of ``n`` bits, one
per nondegenerate underlying separation (degenerate members are always
picked); :func:`orientation_picks` states the numbering.  The census
classifies all ``2**n`` codes at once on truth tables: bit ``c`` of a
``2**n``-bit Python int stands for code ``c``, each orientation of each
separation has the column of codes that pick it, each clashing pair of
picks (``inv(a) < b`` for distinct separations) clears the AND of its two
columns from the consistent codes, and each star clears the AND of its
columns from the avoiding codes.  The flagged codes are listed as picks
tuples in bounded numpy chunks, when a listing is first read.

The census stays independent: it classifies every code, prunes nothing,
reads only the order and inverse tables and uses no engine logic.  The
cross-check plays the strong engine against it: a tree is returned exactly
when no tangle exists, and on tree instances every consistent orientation
is walked to a sink node whose star it contains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .core import SeparationSystem, _bit_row
from .duality import Certificate, strong_duality
from .errors import InternalInvariant, MalformedInput, NotFSeparable, TooLarge
from .stree import StarFamily, _check_same_universe, find_guided_sink

DEFAULT_CENSUS_CAP = 20
# codes listed per numpy pass: bounds the temporary picks matrix
_CHUNK = 4096


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
class _Unlisted:
    """A census listing not built yet: the codes flagged in ``flags``."""

    system: SeparationSystem
    flags: int


class _Listing:
    """A census field that builds its listing from an :class:`_Unlisted`
    value on first read, and holds a given tuple as it is."""

    def __set_name__(self, owner, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            # no class-level default, so the dataclass field stays required
            raise AttributeError(self.slot)
        value = obj.__dict__[self.slot]
        if isinstance(value, _Unlisted):
            value = tuple(chain.from_iterable(_listing_chunks(value.system, value.flags)))
            obj.__dict__[self.slot] = value
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class OrientationCensus:
    """Complete classification of the orientation space of a system.

    ``total`` counts all full orientations; the three listings hold the
    picked id tuples (sorted ascending) of the consistent, family-avoiding,
    and tangle (consistent and avoiding) orientations, in enumeration
    order.  ``mode`` records which question the census was asked for; it
    changes nothing else, as both modes classify every code alike.

    :func:`enumerate_orientations` leaves each listing to be built from
    its truth table when it is first read, so a caller that reads one
    listing builds only that one.  Equality, hashing and ``repr`` read all
    three.
    """

    total: int
    consistent: tuple[tuple[int, ...], ...] = _Listing()
    f_avoiding: tuple[tuple[int, ...], ...] = _Listing()
    f_tangles: tuple[tuple[int, ...], ...] = _Listing()
    mode: str


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


def _truth_tables(
    system: SeparationSystem, family: StarFamily, cap: int
) -> tuple[int, int]:
    """Classify every code: the ``2**n``-bit ints of the consistent codes
    and of the codes avoiding the family.

    Every clashing pair of picks clears the AND of its two code columns,
    every star the AND of its columns.  Raises :class:`TooLarge` when the
    system has more than ``cap`` nondegenerate underlying separations.
    """
    _check_same_universe(family, system)
    u = system.universe
    n = len(system.nondegenerate_reps)
    if n > cap:
        raise TooLarge(n, cap)
    full = (1 << (1 << n)) - 1
    inv = u.inverse_table()
    deg = np.array(sorted(system.degenerate_ids), dtype=np.int64)
    choice = _choices(system)

    # every possible pick: both orientations of each nondegenerate separation,
    # then the degenerate members, which every code picks; ``col[k]`` holds
    # the codes that pick ``ids[k]``
    ids = np.concatenate([choice.ravel(), deg])
    col = [c for pair in _columns(n) for c in pair] + [full] * len(deg)
    # picks a, b clash when inv(a) < b and b is neither a nor inv(a);
    # the codes making both picks are inconsistent
    inv_ids = inv[ids]
    clash = u.leq_matrix()[inv_ids][:, ids]
    clash &= (inv_ids[:, None] != ids) & (ids[:, None] != ids)
    hits = [0] * len(col)
    for k, l in np.argwhere(np.triu(clash | clash.T)).tolist():
        hits[k] |= col[l]
    consistent = full
    for c, hit in zip(col, hits):
        if hit:
            consistent &= ~(c & hit)

    where = dict(zip(choice.ravel().tolist(), col))
    avoiding = full
    for sigma in family.sorted_stars:
        inside = full
        for e in sigma:
            c = where.get(e)
            if c is None:
                break  # never picked: outside S or degenerate
            inside &= c
        else:
            avoiding &= ~inside
    return consistent, avoiding


def _listing_chunks(
    system: SeparationSystem, flags: int
) -> Iterator[list[tuple[int, ...]]]:
    """The sorted picks tuples of the codes flagged in ``flags``, in
    ascending code order, as lists of at most ``_CHUNK`` codes each."""
    choice = _choices(system)
    n = len(choice)
    deg = np.array(sorted(system.degenerate_ids), dtype=np.int64)
    shifts = np.arange(n)
    codes = _codes(flags, 1 << n)
    for at in range(0, len(codes), _CHUNK):
        part = codes[at : at + _CHUNK]
        picks = np.empty((len(part), n + len(deg)), dtype=np.int64)
        picks[:, :n] = choice[shifts, (part[:, None] >> shifts) & 1]
        picks[:, n:] = deg
        picks.sort(axis=1)
        yield list(map(tuple, picks.tolist()))


def enumerate_orientations(
    system: SeparationSystem,
    family: StarFamily,
    mode: str = "tangle",
    *,
    cap: int = DEFAULT_CENSUS_CAP,
) -> OrientationCensus:
    """Census every orientation, numbered as by :func:`orientation_picks`.

    Each code's consistency and avoidance is one bit of a ``2**n``-bit
    truth table (see :func:`_truth_tables`); the listings are built from
    the tables when first read.  Raises :class:`TooLarge`
    when the system has more than ``cap`` nondegenerate underlying
    separations.  ``mode`` (``"tangle"`` or ``"avoiding"``) is only
    recorded in the census: both modes classify and list alike.
    """
    if mode not in ("avoiding", "tangle"):
        raise MalformedInput(f"unknown census mode {mode!r}")
    consistent, avoiding = _truth_tables(system, family, cap)
    return OrientationCensus(
        1 << len(system.nondegenerate_reps),
        *(_Unlisted(system, f) for f in (consistent, avoiding, consistent & avoiding)),
        mode=mode,
    )


@dataclass(frozen=True)
class CrossCheckReport:
    """Outcome of playing the strong engine against the census.

    On a hypothesis failure (no separator at some pair) nothing is
    asserted and ``agree`` is ``None``.  Otherwise ``agree`` is True — a
    disagreement raises :class:`InternalInvariant` instead of returning —
    and for tree answers ``exhibits`` lists, per consistent orientation,
    the sink node the orientation walks to and the star it contains there.
    """

    kind: Optional[str]
    hypothesis_failed: bool
    tangle_count: int
    agree: Optional[bool]
    exhibits: tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...] = ()
    certificate: Optional[Certificate] = None


def cross_check(
    system: SeparationSystem,
    family: StarFamily,
    *,
    cap: int = DEFAULT_CENSUS_CAP,
) -> CrossCheckReport:
    """Run the strong engine and the census; assert they tell the same story."""
    census = enumerate_orientations(system, family, "tangle", cap=cap)
    try:
        cert = strong_duality(system, family)
    except NotFSeparable:
        return CrossCheckReport(
            kind=None,
            hypothesis_failed=True,
            tangle_count=len(census.f_tangles),
            agree=None,
        )
    if cert.kind == "tangle":
        if not census.f_tangles:
            raise InternalInvariant(
                "engine returned a tangle but the census found none"
            )
        if tuple(sorted(cert.picks)) not in census.f_tangles:
            raise InternalInvariant(
                "engine's tangle is missing from the census listing"
            )
        return CrossCheckReport(
            kind="tangle",
            hypothesis_failed=False,
            tangle_count=len(census.f_tangles),
            agree=True,
            certificate=cert,
        )
    if census.f_tangles:
        raise InternalInvariant(
            "engine returned a tree but the census found a tangle"
        )
    fam = family.restricted_to(system)
    exhibits = []
    for picks in census.consistent:
        sink = find_guided_sink(cert.tree, picks)
        star = cert.tree.node_star(sink)
        if not star <= frozenset(picks):
            raise InternalInvariant(
                "sink star is not contained in the consistent orientation"
            )
        if star not in fam.stars:
            raise InternalInvariant("sink star is not a family star")
        exhibits.append((picks, sink, tuple(sorted(star))))
    return CrossCheckReport(
        kind="stree",
        hypothesis_failed=False,
        tangle_count=0,
        agree=True,
        exhibits=tuple(exhibits),
        certificate=cert,
    )
