"""The truth-table census against a per-code reference classifier.

The reference numbers orientations with ``orientation_picks`` and decides
each one with ``is_consistent`` and plain star containment, one code at a
time.  ``enumerate_orientations`` must return the same census field by
field: the total, all three listings, in code order, and the mode.  Its
consistency table, grown one bit at a time, must also equal the table of
the full-width clash loop it replaced, on systems up to 16 pairs.
"""

from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from tangleduct import (
    SeparationSystem,
    StarFamily,
    TooLarge,
    Universe,
    enumerate_orientations,
    is_consistent,
    orientation_picks,
    standardize,
)
from tangleduct.oracle import _CENSUS_CAP, _pick_columns


def reference_census(system, family, mode="tangle") -> SimpleNamespace:
    n = len(system.nondegenerate_reps)
    consistent, avoiding, tangles = [], [], []
    for code in range(1 << n):
        picks = orientation_picks(system, code)
        c = is_consistent(picks, system)
        a = not any(star <= set(picks) for star in family.stars)
        if c:
            consistent.append(picks)
        if a:
            avoiding.append(picks)
        if c and a:
            tangles.append(picks)
    return SimpleNamespace(
        total=1 << n,
        consistent=tuple(consistent),
        f_avoiding=tuple(avoiding),
        f_tangles=tuple(tangles),
        mode=mode,
    )


def clash_loop_codes(system) -> int:
    """The consistent codes as a full-width clash loop finds them: every
    pick clears the AND of its code column with the column of each partner
    above its inverse, so each clashing pair is applied from both ends."""
    u = system.universe
    full = (1 << (1 << len(system.nondegenerate_reps))) - 1
    cols = _pick_columns(system)
    picked = sum(1 << a for a in cols)
    consistent = full
    for a, col in cols.items():
        ra = u.inv_id(a)
        row = u.above_mask(ra) & picked & ~((1 << a) | (1 << ra))
        hit = 0
        while row:
            low = row & -row
            hit |= cols[low.bit_length() - 1]
            row ^= low
        consistent &= ~(col & hit)
    return consistent


def code_of(system, picks) -> int:
    """The census code whose orientation is ``picks``."""
    inv = system.universe.inv_id
    return sum(
        1 << i for i, r in enumerate(system.nondegenerate_reps) if inv(r) in picks
    )


def assert_same_census(got, want):
    assert got.total == want.total
    assert got.consistent == want.consistent
    assert got.f_avoiding == want.f_avoiding
    assert got.f_tangles == want.f_tangles
    assert got.mode == want.mode


def assert_matches_reference(system, family, mode="tangle"):
    got = enumerate_orientations(system, family, mode)
    assert_same_census(got, reference_census(system, family, mode))
    assert got.consistent_codes == clash_loop_codes(system)
    for listing in (got.consistent, got.f_avoiding, got.f_tangles):
        for picks in listing:
            assert picks == orientation_picks(system, code_of(system, picks))
    return got


@cache
def cover(n: int) -> SeparationSystem:
    return gen.full_cover_system(n)


@st.composite
def cover_instances(draw):
    """A random subsystem of cover3 or cover4 with a random family whose
    stars may hold elements outside the subsystem."""
    base = cover(draw(st.sampled_from((3, 4))))
    u = base.universe
    chosen = draw(
        st.lists(st.sampled_from(base.nondegenerate_reps), min_size=1, max_size=8, unique=True)
    )
    if draw(st.booleans()):
        chosen += sorted(base.degenerate_ids)
    system = gen.subsystem(base, chosen)
    nondegenerate = [i for i in range(len(u)) if not u.is_degenerate_id(i)]
    inside = [m for m in system.members if not u.is_degenerate_id(m)] or nondegenerate
    stars = []
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.integers(1, 3))
        sigma = {
            draw(st.sampled_from(inside if draw(st.integers(0, 4)) else nondegenerate))
            for _ in range(size)
        }
        if gen.is_valid_star(sigma, system):
            stars.append(sigma)
    if draw(st.integers(0, 9)) == 0:
        stars.append(())
    family = StarFamily(u, stars)
    if draw(st.booleans()):
        family = standardize(family, system)
    return system, family


@settings(max_examples=150)
@given(cover_instances(), st.sampled_from(("tangle", "avoiding")))
def test_cover_subsystems_match_reference(instance, mode):
    system, family = instance
    assert_matches_reference(system, family, mode)


@settings(max_examples=80)
@given(st.randoms(use_true_random=False))
def test_random_systems_and_families_match_reference(rng):
    system = gen.random_system(rng, max_pairs=7)
    family = gen.random_family(
        rng, system, max_stars=6, standard=rng.random() < 0.5, allow_empty_star=True
    )
    assert_matches_reference(system, family)


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_consistent_table_matches_the_clash_loop_up_to_16_pairs(rng):
    """Subsystems of cover3 and cover4 as the benchmark's census draws
    them: up to 16 pairs, each degenerate member with chance 0.3."""
    base = cover(rng.choice((3, 4)))
    reps = list(base.nondegenerate_reps)
    chosen = rng.sample(reps, rng.randint(1, min(16, len(reps))))
    chosen += [d for d in sorted(base.degenerate_ids) if rng.random() < 0.3]
    system = gen.subsystem(base, chosen)
    census = enumerate_orientations(system, StarFamily(base.universe, ()))
    assert census.consistent_codes == clash_loop_codes(system)


def test_star_outside_the_system_is_never_contained(cover3):
    system = gen.subsystem(cover3, cover3.nondegenerate_reps[:3])
    outside = next(m for m in cover3.nondegenerate_reps if m not in system)
    family = StarFamily(cover3.universe, [[outside]])
    census = assert_matches_reference(system, family)
    assert census.f_avoiding == tuple(
        orientation_picks(system, code) for code in range(census.total)
    )


class TestEdgeCases:
    def test_empty_system(self, cover2):
        system = SeparationSystem(cover2.universe, ())
        census = assert_matches_reference(system, StarFamily(cover2.universe, ()))
        assert census.total == 1
        assert census.consistent == census.f_avoiding == census.f_tangles == ((),)
        # the empty star is inside every orientation, the empty one too
        census = assert_matches_reference(system, StarFamily(cover2.universe, [()]))
        assert census.f_avoiding == census.f_tangles == ()

    def test_degenerate_only_system(self, cover2):
        (d,) = cover2.degenerate_ids
        system = SeparationSystem(cover2.universe, [d])
        census = assert_matches_reference(system, StarFamily(cover2.universe, ()))
        assert census.total == 1 and census.f_tangles == ((d,),)

    def test_degenerate_member_excludes_what_lies_above_it(self, cover2):
        # (12|12) lies below (12|∅), so picking both is inconsistent
        (d,) = cover2.degenerate_ids
        system = gen.subsystem(cover2, [0, d])
        census = assert_matches_reference(system, StarFamily(cover2.universe, ()))
        assert census.consistent == ((0, d),)

    def test_comparable_degenerate_pair_makes_everything_inconsistent(self):
        # No law-checked universe holds two comparable degenerate elements
        # (the involution reverses the order), so the table is made by hand:
        # 0 < 1 both degenerate, 2/3 an unrelated nondegenerate pair.
        leq = np.eye(4, dtype=bool)
        leq[0, 1] = True
        u = object.__new__(Universe)
        u._store(leq, np.array([0, 1, 3, 2]))
        system = SeparationSystem(u, range(4))
        census = assert_matches_reference(system, StarFamily(u, (), validate=False))
        assert census.total == 2
        assert census.consistent == census.f_tangles == ()
        assert len(census.f_avoiding) == 2

    def test_n_equal_to_a_small_cap(self):
        # 2**13 avoiding codes: the listing spans two numpy chunks
        base = cover(4)
        system = gen.subsystem(base, base.nondegenerate_reps[:13])
        family = StarFamily(base.universe, ())
        census = enumerate_orientations(system, family)
        assert_same_census(census, reference_census(system, family))

    def test_n_equal_to_the_default_cap(self):
        base = cover(4)
        n = _CENSUS_CAP
        system = gen.subsystem(base, base.nondegenerate_reps[-n:])
        r = system.nondegenerate_reps[0]
        # {r} and {r*} leave no orientation avoiding the family
        family = StarFamily(base.universe, [[r], [base.universe.inv_id(r)]])
        census = enumerate_orientations(system, family)
        assert census.total == 1 << n
        assert census.f_avoiding == census.f_tangles == ()
        assert census.consistent == consistent_by_extension(system)
        bigger = gen.subsystem(base, base.nondegenerate_reps[-n - 1 :])
        with pytest.raises(TooLarge):
            enumerate_orientations(bigger, family)


def consistent_by_extension(system) -> tuple[tuple[int, ...], ...]:
    """Every consistent orientation in code order, grown one separation at
    a time: consistency is pairwise, so an inconsistent partial orientation
    has no consistent extension."""
    u = system.universe
    partial = [(0, tuple(sorted(system.degenerate_ids)))]
    for i, r in enumerate(system.nondegenerate_reps):
        grown = []
        for code, picks in partial:
            for bit, pick in ((0, r), (1, u.inv_id(r))):
                extended = tuple(sorted(picks + (pick,)))
                if is_consistent(extended, system):
                    grown.append((code | bit << i, extended))
        partial = grown
    return tuple(picks for _, picks in sorted(partial))
