"""The engine views of a star family, built in Python or in one numpy pass.

A family of at most ``stree._SMALL_FAMILY`` stars builds ``sorted_stars``
and ``star_masks`` with a Python sort key per star, each view on first use,
and ``star_rows`` with numpy (``StarFamily._index``), keeping the views
already read; a larger one builds all three at once with numpy.  Both builds
must give the views of the reference below, the plain Python build, on
hypothesis-drawn families on both sides of the size rule and on every T_k
family of the benchmark ladder.
"""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import FNotStars, GraphInput, StarFamily, star_sort_key
from tangleduct import stree
from tangleduct.core import _id_row

VIEWS = ("sorted_stars", "star_masks", "star_rows")
LADDER = sorted(gen.bench_tk().EXPECTED_KIND)
# both builds, then whichever the size rule picks
RULES = (0, 10**9, stree._SMALL_FAMILY)


def reference_views(stars):
    """The three views by the plain Python build."""
    ordered = tuple(sorted(stars, key=star_sort_key))
    rows = [sorted(sigma) for sigma in ordered if sigma]
    width = max(map(len, rows), default=0)
    matrix = np.array([s + s[:1] * (width - len(s)) for s in rows], dtype=np.int32)
    return ordered, tuple(map(_id_row, ordered)), matrix.reshape(len(rows), width)


def assert_views(make, stars):
    """``make()`` builds a family of ``stars``; under each size rule its
    views, read in a random order, equal the reference and stay in the
    instance dict once read."""
    want_order, want_masks, want_rows = reference_views(stars)
    rng = random.Random(len(stars))
    for rule in RULES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stree, "_SMALL_FAMILY", rule)
            fam = make()
            for view in rng.sample(VIEWS, len(VIEWS)):
                got = getattr(fam, view)
                assert vars(fam)[view] is got is getattr(fam, view)
        assert fam.sorted_stars == want_order
        assert fam.star_masks == want_masks
        rows = fam.star_rows
        assert rows.dtype == np.int32 and rows.shape == want_rows.shape
        assert np.array_equal(rows, want_rows) and not rows.flags.writeable


def near(n):
    """Ids of a universe of ``n``, often among its last three."""
    return st.one_of(st.integers(0, n - 1), st.integers(max(0, n - 3), n - 1))


@st.composite
def families(draw):
    """A ladder universe and a set of id sets of it, some empty, singleton or
    long, of a size up to twice the size rule's bound."""
    system = gen.ladder_system(*draw(st.sampled_from(LADDER)))
    n = len(system.universe)
    size = draw(st.integers(0, 2 * stree._SMALL_FAMILY + 8))
    star = st.frozensets(near(n), max_size=draw(st.integers(0, 5)))
    return system.universe, draw(st.lists(star, min_size=size, max_size=size))


@given(families())
def test_both_builds_match_the_reference_on_drawn_families(drawn):
    universe, stars = drawn
    assert_views(lambda: StarFamily(universe, stars, validate=False), set(stars))


@pytest.mark.parametrize("name,k", LADDER)
def test_both_builds_match_the_reference_on_tk_families(name, k):
    tk = gen.bench_tk()
    system = gen.ladder_system(name, k)
    family = tk.tk_family(system, GraphInput.parse(tk.GRAPHS[name]))
    assert_views(lambda: StarFamily(system.universe, family.stars), family.stars)
    # a child adds a singleton that its root lacks
    u = system.universe
    i = next((m for m in system.members
              if not u.is_degenerate_id(m) and not family.singles >> m & 1), None)
    if i is not None:
        assert_views(lambda: family._child(i), family.stars | {frozenset((i,))})


def test_large_families_name_the_same_least_non_star():
    """A family above the size rule's bound is checked before any view is
    built: the least non-star, or an id outside the universe, is named as
    for a small family."""
    tk = gen.bench_tk()
    system = gen.ladder_system("grid2x4", 3)
    u = system.universe
    stars = sorted(tk.tk_family(system, GraphInput.parse(tk.GRAPHS["grid2x4"])).stars, key=sorted)
    assert len(stars) > stree._SMALL_FAMILY
    # a pair that is not a star, listed after a larger non-star holding it
    a, b = next((a, b) for a in system.members for b in system.members
                if a < b and not u.is_degenerate_id(a) and not u.is_degenerate_id(b)
                and not u.leq_ids(a, u.inv_id(b)))
    c = next(m for m in system.members if m not in (a, b) and not u.is_degenerate_id(m))
    for pair in ([a, b], [b, a, a]):
        with pytest.raises(FNotStars) as exc:
            StarFamily(u, stars + [[a, b, c], pair])
        assert exc.value.witness == frozenset({a, b})
    for bad in (-1, len(u)):
        with pytest.raises(IndexError, match=f"element id {bad} outside"):
            StarFamily(u, [[bad]] + stars)
