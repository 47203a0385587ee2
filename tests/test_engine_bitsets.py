"""The strong engine's bit-row paths against dense set-based references.

``emulates_for_family``, ``find_inconsistency``, ``is_order_respecting``,
the strong engine's ``_least_minimal_below`` and the
``SeparationSystem`` rows (``trivial_ids``, ``triviality_witness`` and
``domain_mask``) answer set questions with Python-int bit rows, kept per
universe, system and family;
``StarFamily.with_star`` makes a child that is its root family plus extra
singleton stars, and emulation checks scan only the root's stars, once per
pair.  The reference versions below are the plain loops over ids, stars
and edge pairs they replace, run from scratch on the dense star set of
every family.
Each comparison runs on the T_k systems of three small graphs (the family
the benchmark uses, from ``bench/tk.py``), on hypothesis-drawn random
systems and families, and on the trees the acceptance corpus produces.  A
golden digest pins the certificates of the benchmark's graph ladder.
"""

import gc
import hashlib
import json
import random
import re
import weakref
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import (
    FNotStars,
    GraphInput,
    InternalInvariant,
    MalformedInput,
    NotFSeparable,
    STree,
    StarFamily,
    TargetNotAboveR,
    emulates_for_family,
    find_inconsistency,
    graph_separations,
    is_order_respecting,
    is_over,
    prune_to_irredundant,
    standardize,
    star_sort_key,
    strong_duality,
    tighten_rooted,
    validate_stree,
    verify_certificate,
    weak_duality,
)
from tangleduct import duality, stree
from tangleduct.stree import _bit_ids, _inverse_pair_triple, _lacked_stars, _redundant_triple
from tangleduct.core import _id_row
from tangleduct.duality import (
    _emulating_column,
    _forced_row,
    _least_minimal_below,
    _root_memo,
    _shift_all,
    _shift_id,
    _shift_map,
    _violating_star,
)


tk = gen.bench_tk()


# --- dense references ------------------------------------------------------------


def ref_shift_target_id(system, r, s0, target):
    u = system.universe
    if target == r:
        return s0
    if target == u.inv_id(r):
        return u.inv_id(s0)
    t_inv = u.inv_id(target)
    above = u.leq_ids(r, target)
    above_inv = u.leq_ids(r, t_inv)
    if above and above_inv:
        raise InternalInvariant("both orientations of a shift target lie above the base")
    if above:
        return u.join_id(target, s0)
    if above_inv:
        return u.inv_id(u.join_id(t_inv, s0))
    raise TargetNotAboveR(target, r)


def ref_emulates(s0, r, system):
    u = system.universe
    if s0 not in system.member_ids:
        raise MalformedInput("s0 is not a member of the system")
    if u.is_degenerate_id(r):
        raise MalformedInput("emulation base is degenerate")
    if not u.leq_ids(r, s0):
        return False
    inv_r = u.inv_id(r)
    for m in system.members:
        if m == inv_r or not u.leq_ids(r, m):
            continue
        # -1, a join outside the universe, is not a member either
        if int(u.join_column(s0)[m]) not in system.member_ids:
            return False
    return True


def ref_qualifying(r, system, family):
    """The family stars, in canonical order, that qualify for base ``r``."""
    u = system.universe
    inv_r = u.inv_id(r)
    domain = frozenset(
        m for m in system.members if u.leq_ids(r, m) or u.leq_ids(r, u.inv_id(m))
    )
    return [
        sigma
        for sigma in sorted(family.stars, key=lambda s: (len(s), sorted(s)))
        if inv_r not in sigma
        and sigma <= domain
        and any(u.leq_ids(r, t) for t in sigma)
    ]


def ref_emulates_for_family(s0, r, system, family):
    u = system.universe
    if u.is_degenerate_id(r):
        raise MalformedInput("emulation base is degenerate")
    if r in system.trivial_ids:
        raise MalformedInput("emulation base is trivial in the system")
    if not ref_emulates(s0, r, system):
        return False
    for sigma in ref_qualifying(r, system, family):
        image = frozenset(ref_shift_target_id(system, r, s0, t) for t in sigma)
        if image not in family.stars:
            return False
    return True


def ref_root_entry(s0, r, system, family, qualifying):
    """The root memo's entry for ``(s0, r)``: ``None`` when ``s0`` does not
    emulate ``r``, else the bit row of the singleton images of the
    ``qualifying`` stars (:func:`ref_qualifying`) that the family lacks,
    or -1 when it lacks a larger image."""
    if not ref_emulates(s0, r, system):
        return None
    shift = {t: ref_shift_target_id(system, r, s0, t) for t in set().union(*qualifying)}
    missing = {frozenset(map(shift.get, sigma)) for sigma in qualifying} - family.stars
    if any(len(image) > 1 for image in missing):
        return -1
    return sum(1 << y for (y,) in missing)


def ref_stars_inside(family, allowed, touching):
    return tuple(
        sigma
        for sigma in sorted(family.stars, key=star_sort_key)
        if all(allowed >> t & 1 for t in sigma) and any(touching >> t & 1 for t in sigma)
    )


def ref_forced_ids(system, stars):
    u = system.universe
    return frozenset(
        m for m in system.members if frozenset((u.inv_id(m),)) in stars
    )


def ref_violating_star(picks, stars):
    ids = frozenset(picks)
    for sigma in sorted(stars, key=star_sort_key):
        if sigma <= ids:
            return sigma
    return None


def ref_least_minimal_below(system, pool, bound):
    u = system.universe
    below = [m for m in pool if u.leq_ids(m, bound)]
    for m in below:
        if not any(m2 != m and u.lt_ids(m2, m) for m2 in below):
            return m
    return None


def ref_trivial_ids(system):
    u = system.universe
    out = set()
    for r in system.members:
        for i in system.underlying_reps:
            j = u.inv_id(i)
            if u.lt_ids(r, i) and u.lt_ids(r, j):
                out.add(r)
                break
    return frozenset(out)


def ref_find_inconsistency(picks, system):
    u = system.universe
    ids = sorted(picks)
    for a in ids:
        ra = u.inv_id(a)
        for b in ids:
            if {b, u.inv_id(b)} == {a, ra}:
                continue
            if u.lt_ids(ra, b):
                return a, b
    return None


def ref_is_order_respecting(tree):
    u = tree.system.universe
    oriented = tree.oriented_edges()
    for e in oriented:
        for f in oriented:
            if e != f and tree.edge_leq(e, f):
                if not u.leq_ids(tree.alpha[e], tree.alpha[f]):
                    return False
    return True


# --- comparison helpers ------------------------------------------------------------


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (MalformedInput, InternalInvariant, TargetNotAboveR) as exc:
        return type(exc), str(exc)


def inconsistency_ids(picks, system):
    hit = find_inconsistency(picks, system)
    return None if hit is None else (hit[0].id, hit[1].id)


def assert_emulation_agrees(system, family, bases=None):
    """Every candidate against every member base (all of them by default)."""
    checked = 0
    for r in system.members if bases is None else bases:
        for cand in system.members:
            want = outcome(ref_emulates_for_family, cand, r, system, family)
            got = outcome(emulates_for_family, cand, r, system, family)
            assert got == want, (cand, r)
            checked += want == ("value", True)
    return checked


def random_labelled_tree(rng, system, n_nodes):
    """A random tree shape with random member labels: rarely order-respecting."""
    u = system.universe
    edges = gen.random_tree_shape(rng, n_nodes)
    alpha = {}
    for a, b in edges:
        label = rng.choice(system.members)
        alpha[(a, b)] = label
        alpha[(b, a)] = u.inv_id(label)
    return STree(system, edges, alpha, nodes=range(n_nodes))


# --- T_k systems ---------------------------------------------------------------------


@pytest.fixture(scope="module", params=["C6", "P5", "grid2x3"])
def tk_instance(request):
    graph = GraphInput.parse(tk.GRAPHS[request.param])
    system = graph_separations(graph, 3)
    return system, tk.tk_family(system, graph)


def test_emulation_on_tk_systems(tk_instance):
    system, family = tk_instance
    u = system.universe
    usable = [
        r for r in system.members
        if not u.is_degenerate_id(r) and r not in system.trivial_ids
    ]
    assert assert_emulation_agrees(system, family, usable) > 0
    # the engine also queries grown families; one extra forcing star each way
    r = usable[0]
    grown = family.with_star([u.inv_id(r)])
    assert_emulation_agrees(system, grown, usable[:8])


def test_unusable_bases_raise_the_same_errors(tk_instance):
    system, family = tk_instance
    u = system.universe
    unusable = [
        r for r in system.members
        if u.is_degenerate_id(r) or r in system.trivial_ids
    ]
    assert unusable
    assert_emulation_agrees(system, family, unusable)


def test_tk_certificate_trees_respect_the_order(tk_instance):
    system, family = tk_instance
    tree = strong_duality(system, family).tree
    assert tree is not None
    assert is_order_respecting(tree) == ref_is_order_respecting(tree) is True
    rng = random.Random(len(system))
    for _ in range(30):
        t = random_labelled_tree(rng, system, rng.randint(2, 7))
        assert is_order_respecting(t) == ref_is_order_respecting(t)


def test_inconsistency_on_tk_systems(tk_instance):
    system, _ = tk_instance
    rng = random.Random(len(system))
    members = list(system.members)
    for _ in range(300):
        picks = rng.sample(members, rng.randint(0, 8))
        assert inconsistency_ids(picks, system) == ref_find_inconsistency(picks, system)


# --- random systems and families -------------------------------------------------------


@given(st.integers(0, 2 ** 32 - 1))
def test_emulation_on_random_systems(seed):
    rng = random.Random(seed)
    system = gen.random_system(rng, max_pairs=5)
    family = gen.random_family(rng, system, max_stars=6, standard=rng.random() < 0.5)
    assert_emulation_agrees(system, family)


@given(st.integers(0, 2 ** 32 - 1))
def test_inconsistency_on_random_picks(seed):
    rng = random.Random(seed)
    system = gen.random_system(rng, max_pairs=5)
    members = list(system.members)
    for _ in range(20):
        picks = [rng.choice(members) for _ in range(rng.randint(0, 2 * len(members)))]
        assert inconsistency_ids(picks, system) == ref_find_inconsistency(picks, system)


@given(st.integers(0, 2 ** 32 - 1))
def test_order_check_on_random_trees(seed):
    rng = random.Random(seed)
    tree = gen.random_partition_stree(rng, rng.choice((2, 3)), max_nodes=8,
                                      redundant=rng.random() < 0.3)
    assert is_order_respecting(tree) == ref_is_order_respecting(tree) is True
    system = gen.random_system(rng, max_pairs=5)
    tree = random_labelled_tree(rng, system, rng.randint(1, 8))
    assert is_order_respecting(tree) == ref_is_order_respecting(tree)


def test_out_of_range_picks_raise():
    system = gen.full_cover_system(2)
    for bad in ([-1], [0, len(system.universe)]):
        with pytest.raises(IndexError):
            find_inconsistency(bad, system)


# --- the family index -------------------------------------------------------------------


@given(st.integers(0, 2 ** 32 - 1))
def test_with_star_chain_matches_a_rebuilt_family(seed):
    rng = random.Random(seed)
    system = gen.random_system(rng, max_pairs=5)
    fam = gen.random_family(rng, system, max_stars=4, standard=rng.random() < 0.5)
    for _ in range(rng.randint(1, 8)):
        if fam.stars and rng.random() < 0.2:
            sigma = rng.choice(sorted(fam.stars, key=sorted))  # a repeat
        else:
            sigma = gen.random_star_ids(rng, system)
            if sigma is None:
                continue
        fam = fam.with_star(sigma)
        fresh = StarFamily(system.universe, fam.stars)
        assert fam.sorted_stars == fresh.sorted_stars
        assert fam.star_masks == fresh.star_masks
        assert fam.singles == fresh.singles
        assert _forced_row(system, fam) == _forced_row(system, fresh)


def assert_same_index(fam, copy, system):
    assert fam.stars == copy.stars
    assert fam.sorted_stars == copy.sorted_stars
    assert fam.singles == copy.singles
    assert _forced_row(system, fam) == _forced_row(system, copy)


@given(st.integers(0, 2 ** 32 - 1))
def test_singleton_children_match_a_copy_built_root(seed):
    """``_child(i)`` and ``with_star([i])`` along a chain of singletons,
    some already held, against a root built by copy from the dense star
    set; a child's singleton row is read before and after its other
    parts."""
    rng = random.Random(seed)
    system = gen.random_system(rng, max_pairs=5)
    fam = gen.random_family(rng, system, max_stars=4, standard=rng.random() < 0.5)
    u = system.universe
    pool = [m for m in system.members if not u.is_degenerate_id(m)]
    for _ in range(rng.randint(1, 8) if pool else 0):
        i = rng.choice(pool)
        held = frozenset((i,)) in fam.stars
        copy = StarFamily(u, fam.stars | {frozenset((i,))})
        children = [fam._child(i), fam.with_star([i])]
        if held:
            assert children == [fam, fam] and all(c is fam for c in children)
        for child in rng.sample(children, 2):
            if rng.random() < 0.5:
                assert child.singles == copy.singles
            assert_same_index(child, copy, system)
        fam = children[0]
    assert fam.root is None or fam.root.root is None


def test_singleton_child_errors():
    system = gen.full_cover_system(2)
    u = system.universe
    fam = StarFamily(u, [[1]])._child(3)
    (degenerate, *_) = sorted(system.degenerate_ids)
    for grow in (fam._child, lambda i: fam.with_star([i])):
        with pytest.raises(FNotStars):
            grow(degenerate)
        for bad in (-1, len(u)):
            with pytest.raises(IndexError, match=f"element id {bad} outside"):
                grow(bad)
        assert grow(1) is fam and grow(3) is fam


@given(st.integers(0, 2 ** 32 - 1))
def test_children_build_their_sets_from_their_root(seed):
    """Roots and children of a chain that mixes singleton and two-member
    stars answer like their dense star sets, with the families and their
    attributes visited in random order."""
    rng = random.Random(seed)
    system = gen.random_system(rng, max_pairs=5)
    family = gen.random_family(rng, system, max_stars=4, standard=rng.random() < 0.5)
    chain = random_chain(rng, system, family, rng.randint(1, 6))
    probes = {gen.random_star_ids(rng, system) for _ in range(12)} - {None}
    for fam, want in rng.sample(chain, len(chain)):
        for sigma in sorted(want | probes, key=star_sort_key):
            assert (sigma in fam) == (sigma in want)
            if len(sigma) == 1:
                assert fam.singles >> min(sigma) & 1 == (sigma in want)
        attrs = ["sorted_stars", "singles", "stars", "forced"]
        rng.shuffle(attrs)
        for attr in attrs:
            if attr == "sorted_stars":
                assert fam.sorted_stars == tuple(sorted(want, key=star_sort_key))
            elif attr == "singles":
                assert fam.singles == sum(1 << min(sigma) for sigma in want if len(sigma) == 1)
            elif attr == "forced":
                forced = ref_forced_ids(system, want)
                assert _forced_row(system, fam) == _id_row(forced)
                inverses = _id_row(map(system.universe.inv_id, forced))
                assert fam.singles & system.member_mask == inverses
            else:
                assert fam.stars == want
        assert len(fam) == len(want)


def test_tk_family_grown_by_with_star(tk_instance):
    system, family = tk_instance
    u = system.universe
    fam = family
    for m in system.nondegenerate_reps[:6]:
        fam = fam.with_star([u.inv_id(m)])
    fresh = StarFamily(u, fam.stars)
    assert fam.sorted_stars == fresh.sorted_stars
    assert _forced_row(system, fam) == _forced_row(system, fresh)


def random_picks(rng, system, stars):
    """Random id sets: plain samples of the universe, and unions of a few
    stars plus samples, so that some hold a star and some do not."""
    ids = list(range(len(system.universe)))
    stars = sorted(stars, key=star_sort_key)
    for _ in range(8):
        picks = set(rng.sample(ids, rng.randint(0, len(ids))))
        if stars and rng.random() < 0.6:
            for sigma in rng.sample(stars, rng.randint(1, min(3, len(stars)))):
                picks |= sigma
        yield picks


def assert_violating_star_agrees(rng, system, family, want):
    for picks in random_picks(rng, system, want):
        expect = ref_violating_star(picks, want)
        assert _violating_star(picks, family) == expect
        seps = [system.universe.sep(i) for i in picks]
        assert _violating_star(seps, family) == expect
        # ids outside the universe lie in no star
        outside = picks | {-1, len(system.universe), 10**9}
        assert _violating_star(outside, family) == expect


@given(st.integers(0, 2 ** 32 - 1))
def test_violating_star_on_roots_and_children(seed):
    """The bit-row scan names the same canonically least star as a subset
    test per star, on roots (with the empty star at times), on children
    with several extra singletons, and on new roots made by copy."""
    rng = random.Random(seed)
    system = gen.random_system(rng, max_pairs=5)
    family = gen.random_family(
        rng, system, max_stars=6, standard=rng.random() < 0.5, allow_empty_star=True
    )
    chain = random_chain(rng, system, family, rng.randint(1, 4))
    fam, want = chain[-1]
    u = system.universe
    for m in rng.sample(system.members, min(4, len(system.members))):
        if not u.is_degenerate_id(m):
            fam = fam.with_star([u.inv_id(m)])
            want = want | {frozenset((u.inv_id(m),))}
            chain.append((fam, want))
    assert len(fam.stars) == len(want)
    for fam, want in chain:
        assert_violating_star_agrees(rng, system, fam, want)


def test_violating_star_on_tk_children(tk_instance):
    system, family = tk_instance
    u = system.universe
    rng = random.Random(len(system))
    fam, want = family, set(family.stars)
    assert_violating_star_agrees(rng, system, fam, want)
    unforced = [m for m in system.nondegenerate_reps if not family.singles >> u.inv_id(m) & 1]
    for m in unforced[:6]:
        fam = fam.with_star([u.inv_id(m)])
        want = want | {frozenset((u.inv_id(m),))}
        assert_violating_star_agrees(rng, system, fam, want)
    assert fam.root is family and bin(fam.extra).count("1") > 1


# --- the acceptance corpus ---------------------------------------------------------------


def test_acceptance_corpus_trees():
    """Certificate and shift trees of the acceptance corpus (same seed and filter)."""
    rng = random.Random(0xACCE97)
    trees = 0
    instances = 0
    while instances < 500:
        system = gen.random_system(rng, max_pairs=5)
        if len(system.nondegenerate_reps) > 5:
            continue
        family = gen.random_family(rng, system, standard=True)
        try:
            with gen.recorded_shifts() as records:
                cert = strong_duality(system, family)
        except NotFSeparable:
            continue
        instances += 1
        found = [cert.tree] if cert.tree is not None else []
        for rec in records:
            found += [rec.before, rec.after]
        for tree in found:
            assert is_order_respecting(tree) == ref_is_order_respecting(tree)
            trees += 1
        if cert.picks is not None:
            want = ref_find_inconsistency(cert.picks, system)
            assert inconsistency_ids(cert.picks, system) == want is None
    assert trees > 100


# --- the with_star chain -------------------------------------------------------------


def usable_bases(system):
    u = system.universe
    return [
        r for r in system.members
        if not u.is_degenerate_id(r) and r not in system.trivial_ids
    ]


def assert_chain_agrees(system, chain, bases):
    """Every (candidate, usable base) pair on every family of a
    ``with_star`` chain, against the references run on its dense star set.

    The last family goes first, so its queries fill its root's memo before
    the root itself is asked.
    """
    u = system.universe
    # the family-independent parts of the reference, computed once
    emulating = {
        (cand, r) for r in bases for cand in system.members if ref_emulates(cand, r, system)
    }
    images = {}
    for fam, want_stars in [chain[-1], *chain]:
        dense = StarFamily(u, want_stars, validate=False)
        qualifying = {}
        for r in bases:
            allowed = system.domain_mask(r) & ~(1 << u.inv_id(r))
            touching = system.members_above(r)
            qualifying[r] = ref_qualifying(r, system, dense)
            assert ref_stars_inside(dense, allowed, touching) == tuple(qualifying[r])
        want = dict.fromkeys(((c, r) for r in bases for c in system.members), False)
        for cand, r in emulating:
            want[cand, r] = True
            for sigma in qualifying[r]:
                key = (cand, r, sigma)
                if key not in images:
                    images[key] = frozenset(
                        ref_shift_target_id(system, r, cand, t) for t in sigma
                    )
                if images[key] not in want_stars:
                    want[cand, r] = False
                    break
        for (cand, r), ok in want.items():
            assert emulates_for_family(cand, r, system, fam) == ok, (cand, r)
        # the root's memo: one entry per pair, None iff s0 does not emulate
        # r, and the qualifying stars of the root as indices into its
        # canonical order
        root = fam._root_family
        root_dense = StarFamily(u, root.stars, validate=False)
        memo = _root_memo(fam, system)
        for r in bases:
            for cand in system.members:
                assert (memo[cand, r] is None) == ((cand, r) not in emulating)
            picked = memo.get(("stars", r))
            if picked is not None:
                shown = [root.sorted_stars[i] for i in picked]
                assert shown == ref_qualifying(r, system, root_dense)


def random_chain(rng, system, family, steps):
    """``family`` grown by ``steps`` stars, alternately a forcing singleton
    ``{inv(r)}`` as the strong engine adds them and a random two-member star,
    as ``(family, dense star set)`` pairs."""
    u = system.universe
    pool = [m for m in system.members if not u.is_degenerate_id(m)]
    chain = [(family, set(family.stars))]
    for _ in range(20 * steps if pool else 0):
        if len(chain) > steps:
            break
        a = rng.choice(pool)
        if len(chain) % 2:
            sigma = frozenset((u.inv_id(a),))
        else:
            partners = [b for b in pool if b != a and u.leq_ids(a, u.inv_id(b))]
            sigma = frozenset((a, rng.choice(partners))) if partners else None
        fam, want = chain[-1]
        if sigma is not None and sigma not in want:
            chain.append((fam.with_star(sigma), want | {sigma}))
    return chain


def test_chain_on_tk_systems(tk_instance):
    system, family = tk_instance
    rng = random.Random(len(system))
    chain = random_chain(rng, system, family, 3)
    # children of a root, and new roots made by a two-member star
    assert {fam.root is None for fam, _ in chain[1:]} == {True, False}
    assert_chain_agrees(system, chain, usable_bases(system))


@given(st.integers(0, 2 ** 32 - 1))
def test_chain_on_random_systems(seed):
    rng = random.Random(seed)
    system = gen.random_system(rng, max_pairs=5)
    family = gen.random_family(rng, system, max_stars=6, standard=rng.random() < 0.5)
    chain = random_chain(rng, system, family, rng.randint(1, 5))
    assert_chain_agrees(system, chain, usable_bases(system))


def test_child_adding_the_singleton_images_its_root_lacks(rng):
    """The root's memo holds the singleton images it lacks, or -1 when it
    lacks a larger one.  A child adding exactly those singletons passes
    iff no larger image is missing: a singleton image shifts to itself."""
    answers = []
    for _ in range(60):
        system = gen.random_system(rng, max_pairs=5)
        family = gen.random_family(rng, system, max_stars=6, standard=True)
        for r in usable_bases(system):
            for cand in system.members:
                if emulates_for_family(cand, r, system, family):
                    continue
                if not ref_emulates(cand, r, system):
                    continue
                missing = {
                    frozenset(ref_shift_target_id(system, r, cand, t) for t in sigma)
                    for sigma in ref_qualifying(r, system, family)
                } - family.stars
                singles = [y for image in missing if len(image) == 1 for y in image]
                row = sum(1 << y for y in singles)
                larger = len(singles) < len(missing)
                assert family.memo[system][cand, r] == (-1 if larger else row)
                if not singles:
                    continue
                child = family
                for y in sorted(singles):
                    child = child.with_star([y])
                assert child.root is family and child.extra == row
                dense = StarFamily(
                    system.universe, family.stars | {frozenset((y,)) for y in singles}
                )
                got = emulates_for_family(cand, r, system, child)
                assert got == ref_emulates_for_family(cand, r, system, dense) == (not larger)
                answers.append(got)
    assert True in answers and False in answers


@pytest.mark.parametrize("name, k", sorted(tk.EXPECTED_KIND))
def test_shift_map_reads_the_cached_image(name, k):
    """On every ladder system, the root memo's entry for ``(s0, r)`` is
    ``None`` iff ``s0`` does not emulate ``r``; for every emulating pair
    the engine's shift of each id in the domain of ``r``, one at a time
    from the join column (a small root's scan) and as the full-width image
    (a large root's), equals ``_shift_map``."""
    graph = GraphInput.parse(tk.GRAPHS[name])
    system = graph_separations(graph, k)
    family = tk.tk_family(system, graph)
    u = system.universe
    memo = _root_memo(family, system)
    pairs = 0
    for r in usable_bases(system):
        domain = _bit_ids(system.domain_mask(r))
        for s0 in system.members:
            emulates_for_family(s0, r, system, family)
            entry = memo[s0, r]
            assert (entry is None) == (_emulating_column(system, s0, r) is None)
            if entry is None:
                continue
            col = _emulating_column(system, s0, r)
            image = _shift_all(u, r, s0)
            for t in domain:
                want = _shift_map(r, s0, t, system).id
                assert _shift_id(u, r, s0, col, t) == image[t] == want, (s0, r, t)
            pairs += 1
    assert pairs


def scan_entries(monkeypatch, cutoff, make):
    """The root memo entries of every ``(s0, r)`` pair on each system and
    family that ``make()`` yields, fresh, with a family of more than
    ``cutoff`` stars large, so that its root scans are taken by the gather."""
    monkeypatch.setattr(stree, "_SMALL_FAMILY", cutoff)
    entries = []
    for system, family in make():
        memo = _root_memo(family, system)
        for r in usable_bases(system):
            for s0 in system.members:
                emulates_for_family(s0, r, system, family)
        entries.append({key: value for key, value in memo.items() if key[0] != "stars"})
    return entries


def assert_scan_paths_agree(monkeypatch, make, answers):
    """Both scan paths give every pair the entry of the dense references,
    and shift every id of the domain of ``r`` alike: no qualifying star
    holds ``inv(r)``, and ``r`` joins ``s0`` to ``s0``, so the entries
    alone would not show a wrong shift of either.  With ``answers``, a
    root's answer, an entry of 0, is also checked against
    ``ref_emulates_for_family``, which redoes the reference scan."""
    short = scan_entries(monkeypatch, 1 << 30, make)
    long = scan_entries(monkeypatch, 0, make)
    assert short == long
    for (system, family), got in zip(make(), short):
        u = system.universe
        for r in usable_bases(system):
            qualifying = ref_qualifying(r, system, family)
            domain = _bit_ids(system.domain_mask(r))
            for s0 in system.members:
                want = ref_root_entry(s0, r, system, family, qualifying)
                assert got[s0, r] == want, (s0, r)
                if want is not None:
                    col = _emulating_column(system, s0, r)
                    one_by_one = [_shift_id(u, r, s0, col, t) for t in domain]
                    assert one_by_one == _shift_all(u, r, s0)[domain].tolist(), (s0, r)
                if answers:
                    ok = ref_emulates_for_family(s0, r, system, family)
                    assert (want == 0) == ok, (s0, r)


def engine_shifts(monkeypatch, name, k):
    """A fresh system and T_k family of the ladder graph ``name`` at ``k``
    after a strong and a weak run, and the ``(r, s0)`` of every
    ``_shift_all`` call that the runs made."""
    calls = []

    def recorder(u, r, s0, shift_all=duality._shift_all):
        calls.append((r, s0))
        return shift_all(u, r, s0)

    monkeypatch.setattr(duality, "_shift_all", recorder)
    graph = GraphInput.parse(tk.GRAPHS[name])
    system = graph_separations(graph, k)
    family = tk.tk_family(system, graph)
    strong_duality(system, family)
    weak_duality(system, family)
    return system, family, calls


def test_a_small_root_shifts_its_stars_one_by_one(monkeypatch):
    """P3's T_k at k=3 holds 64 stars, the most a small family holds, and
    has two root scans of 25 stars: both shift star by star, so neither
    engine calls ``_shift_all`` or builds ``star_rows``."""
    system, family, calls = engine_shifts(monkeypatch, "P3", 3)
    assert len(family) == stree._SMALL_FAMILY == 64 and not family._large
    assert any(value is not None for value in family.memo[system].values())
    assert calls == []
    assert "star_rows" not in vars(family)


def test_a_large_root_shifts_once_per_emulating_entry(monkeypatch):
    """C5's T_k at k=3 holds 167 stars: each root entry of an emulating
    pair, and no other, shifts every id with one ``_shift_all`` call."""
    system, family, calls = engine_shifts(monkeypatch, "C5", 3)
    assert len(family) == 167 and family._large
    emulating = [
        (r, s0)
        for (s0, r), value in family.memo[system].items()
        if isinstance(s0, int) and value is not None
    ]
    assert emulating and sorted(calls) == sorted(emulating)


def test_scan_paths_agree_on_the_ladder(monkeypatch):
    def make():
        for name, k in sorted(tk.EXPECTED_KIND):
            graph = GraphInput.parse(tk.GRAPHS[name])
            system = gen.ladder_system(name, k)
            yield system, tk.tk_family(system, graph)

    assert_scan_paths_agree(monkeypatch, make, answers=False)


def test_scan_paths_agree_on_random_chains(monkeypatch):
    """Every family of a ``with_star`` chain that is a root (children are
    answered from their root's entries), some holding the empty star,
    which has no row of ``star_rows``."""

    def make():
        rng = random.Random(7)
        for _ in range(40):
            system = gen.random_system(rng, max_pairs=5)
            family = gen.random_family(
                rng,
                system,
                max_stars=6,
                standard=rng.random() < 0.5,
                allow_empty_star=rng.random() < 0.5,
            )
            for fam, want in random_chain(rng, system, family, rng.randint(1, 5)):
                if fam.root is None:
                    yield system, StarFamily(system.universe, want, validate=False)

    assert_scan_paths_agree(monkeypatch, make, answers=True)


# --- pool scans on bit rows ------------------------------------------------------------


def assert_least_minimal_agrees(system, rng, pools=6):
    u = system.universe
    candidates = [m for m in system.members if not u.is_degenerate_id(m)]
    for _ in range(pools):
        pool = [m for m in candidates if rng.random() < 0.7]
        mask = sum(1 << m for m in pool)
        for bound in system.members:
            want = ref_least_minimal_below(system, pool, bound)
            if want is None:
                with pytest.raises(InternalInvariant):
                    _least_minimal_below(system, mask, bound)
            else:
                assert _least_minimal_below(system, mask, bound) == want


def assert_system_rows_agree(system):
    """``triviality_witness`` on every universe id, members and others, and
    ``domain_mask`` on every member, against dense ``leq_ids`` loops."""
    u = system.universe
    for r in range(len(u)):
        want = next(
            (s for s in system.members if u.lt_ids(r, s) and u.lt_ids(r, u.inv_id(s))), None
        )
        got = system.triviality_witness(u.sep(r))
        assert (None if got is None else got.id) == want
    for r in system.members:
        domain = [s for s in system.members if u.leq_ids(r, s) or u.leq_ids(r, u.inv_id(s))]
        assert system.domain_mask(r) == sum(1 << s for s in domain)


def test_pool_scans_on_tk_systems(tk_instance):
    system, _ = tk_instance
    assert system.trivial_ids == ref_trivial_ids(system)
    assert_system_rows_agree(system)
    assert_least_minimal_agrees(system, random.Random(len(system)))


@given(st.integers(0, 2 ** 32 - 1))
def test_pool_scans_on_random_systems(seed):
    rng = random.Random(seed)
    system = gen.random_system(rng, max_pairs=6)
    assert system.trivial_ids == ref_trivial_ids(system)
    assert_system_rows_agree(system)
    assert_least_minimal_agrees(system, rng)


# --- golden certificates -----------------------------------------------------------------

# sha256 over the strong, then the weak certificate of every EXPECTED_KIND
# (graph, k) pair in sorted order, and of the 3x3 grid at k=4, the deepest
# recursion (depth 48), each as one line of compact sorted-key JSON keyed
# by labels: every element id in the picks and the tree labels replaced by
# its (A, B) side masks, the picks sorted by them, and the transcript left
# out; these survive a renumbering of the element ids
LADDER_LABEL_SHA256 = "57d2bd655c9194b34cb094df157d6d524b09f8b48c7c11e0333df60321d8be8a"
GRID_K4_LABEL_SHA256 = "52ad027bad32ef479cbf686d5b0443ee75af570e07a9e3368228c28bf4a94c0d"

# sha256 over the transcripts of the same certificates, one line per
# transcript line, with every element id the engines name replaced by its
# (A, B) side masks (:func:`labelled_transcript`); depths and counts stay
LADDER_TRANSCRIPT_LABEL_SHA256 = "fcde73b13dafa4abf5a487970f01f9552d55ca9cf961ec8646841b1122d691ee"
GRID_K4_TRANSCRIPT_LABEL_SHA256 = "ab9ec225d4e895210e69383c74a13a754c7467cd6286f8dc85f71cd34c5cb18c"


def labelled(doc, universe):
    """A certificate document with its element ids replaced by side masks."""
    labels = universe.set_labels
    out = {key: val for key, val in doc.items() if key != "transcript"}
    if "picks" in out:
        out["picks"] = sorted(labels[i] for i in out["picks"])
    if "alpha" in out:
        out["alpha"] = {key: labels[i] for key, i in out["alpha"].items()}
    return out


# the transcript lines that name element ids, with the ids as groups; a
# splice line's first number counts branch copies and is kept
_TRANSCRIPT_IDS = [
    re.compile(r"undecided (\d+): separating (\d+) from (\d+) at (\d+)$"),
    re.compile(r"splitting on undecided separation (\d+)$"),
    re.compile(r"forced picks contain star \[([\d, ]*)\]"),
    re.compile(r"spliced both branches at (\d+)$"),
    re.compile(r"splicing \d+ branch copy\(ies\) at separation (\d+)$"),
]


def labelled_transcript(lines, universe):
    """Transcript lines with every element id replaced by its side masks."""
    labels = universe.set_labels

    def name(ids: str) -> str:
        return ", ".join("({}|{})".format(*labels[int(i)]) for i in ids.split(", ") if i)

    out = []
    for line in lines:
        for pattern in _TRANSCRIPT_IDS:
            m = pattern.search(line)
            if m:
                for g in range(m.lastindex, 0, -1):
                    line = line[: m.start(g)] + name(m.group(g)) + line[m.end(g) :]
                break
        out.append(line)
    return out


def certificate_digests(pairs):
    """The label digest and the transcript label digest of ``pairs``, from
    one run of each engine per pair."""
    by_label, by_transcript = hashlib.sha256(), hashlib.sha256()
    for name, k in pairs:
        graph = GraphInput.parse(tk.GRAPHS[name])
        system = graph_separations(graph, k)
        family = tk.tk_family(system, graph)
        for engine in (strong_duality, weak_duality):
            cert = engine(system, family)
            doc = labelled(cert.to_json_dict(), system.universe)
            line = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            by_label.update(line.encode())
            for line in labelled_transcript(cert.transcript, system.universe):
                by_transcript.update((line + "\n").encode())
    return by_label.hexdigest(), by_transcript.hexdigest()


def test_ladder_certificates_are_unchanged():
    assert certificate_digests(sorted(tk.EXPECTED_KIND)) == (
        LADDER_LABEL_SHA256,
        LADDER_TRANSCRIPT_LABEL_SHA256,
    )


def test_grid_k4_certificates_are_unchanged():
    assert certificate_digests([("grid3x3", 4)]) == (
        GRID_K4_LABEL_SHA256,
        GRID_K4_TRANSCRIPT_LABEL_SHA256,
    )


# sha256 over the answers of both engines on RANDOM_ANSWER_DRAWS draws from
# random.Random(RANDOM_ANSWER_SEED), alternating a gen.random_system with a
# random_family and a gen.random_tk_system: per draw one line for the
# strong answer (its labelled certificate and transcript, or the witness
# and detail of its NotFSeparable) and one for the weak certificate
RANDOM_ANSWER_SEED = 0x5EED25
RANDOM_ANSWER_DRAWS = 160
RANDOM_ANSWER_SHA256 = "da13d5529ce65e4e9bafb1892c2048e57e843ae2084a6e220e41e751d0884fbc"


def answer_line(cert, universe) -> str:
    doc = labelled(cert.to_json_dict(), universe)
    doc["transcript"] = labelled_transcript(cert.transcript, universe)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def random_answer_digest() -> str:
    rng = random.Random(RANDOM_ANSWER_SEED)
    out = hashlib.sha256()
    for draw in range(RANDOM_ANSWER_DRAWS):
        if draw % 2:
            system, family = gen.random_tk_system(rng)
        else:
            system = gen.random_system(rng, max_pairs=5)
            family = gen.random_family(rng, system, max_stars=6)
        u = system.universe
        try:
            strong = answer_line(strong_duality(system, family), u)
        except NotFSeparable as exc:
            witness = [u.set_labels[i] for i in exc.witness]
            strong = json.dumps({"unmet": witness, "detail": exc.detail})
        weak = answer_line(weak_duality(system, family), u)
        out.update(f"{strong}\n{weak}\n".encode())
    return out.hexdigest()


def test_random_answers_are_unchanged():
    """The census regime's answers, pinned: the small random systems and
    T_k draws whose engine answers every change to the engines must keep."""
    assert random_answer_digest() == RANDOM_ANSWER_SHA256


def test_engine_runs_leave_no_reference_cycles(monkeypatch):
    """Reference counting alone frees the universe, the system and the
    family of both engine runs and of an unmet strong run: no family refers
    to itself, directly or through a child's root or a root's memo, no
    tree's verdicts hold a tree, and the levels that a raising level leaves
    on the driver's stack go with the exception."""
    graph = GraphInput.parse(tk.GRAPHS["P5"])
    gc.disable()
    try:
        system = graph_separations(graph, 3)
        family = tk.tk_family(system, graph)
        strong_duality(system, family)
        weak_duality(system, family)
        refs = [weakref.ref(x) for x in (system.universe, system, family)]
        del system, family
        assert [ref() for ref in refs] == [None, None, None]
        # cover3 with a family that has no separator at the pair (1, 11)
        system = gen.full_cover_system.__wrapped__(3)
        family = standardize(StarFamily(system.universe, [[1, 3, 9]]), system)
        try:
            strong_duality(system, family)
        except NotFSeparable:
            pass
        else:
            raise AssertionError("cover3 with the star {1, 3, 9} is not unmet")
        refs = [weakref.ref(x) for x in (system.universe, system, family)]
        del system, family
        assert [ref() for ref in refs] == [None, None, None]
        # P6 at k=3, where the kept surgery results are hit: a tighten and
        # a shift output returned more than once are kept on their inputs
        graph = GraphInput.parse(tk.GRAPHS["P6"])
        system = graph_separations(graph, 3)
        family = tk.tk_family(system, graph)
        tightened = []

        def recorder(tree, root, op=duality.tighten_rooted):
            tightened.append(op(tree, root))
            return tightened[-1]

        with monkeypatch.context() as patch:
            patch.setattr(duality, "tighten_rooted", recorder)
            with recorded_trees() as built, gen.recorded_shifts() as shifts:
                strong_duality(system, family)
        assert not [v for t in built for v in t._verdicts.values() if isinstance(v, STree)]
        seen = Counter(id(rec.after) for rec in shifts)
        kept = next(rec.after for rec in shifts if seen[id(rec.after)] > 1)
        seen = Counter(map(id, tightened))
        tight = next(t for t in tightened if seen[id(t)] > 1)
        refs = [weakref.ref(x) for x in (kept, tight, system.universe, system, family)]
        del system, family, shifts, kept, tightened, tight, built
        assert [ref() for ref in refs] == [None] * 5
    finally:
        gc.enable()


# --- trusted trees ------------------------------------------------------------------


@contextmanager
def checked_trusted_trees():
    """Yield a list that counts the trees built by ``STree._derived`` while
    the block runs, each checked equal, adjacency too, to the tree the
    public constructor builds from its parts."""
    derived = STree.__dict__["_derived"]
    built = []

    def checked(cls, *args, **kwargs):
        t = derived.__func__(cls, *args, **kwargs)
        public = STree(t.system, t.edges, t.alpha, nodes=t.nodes, root_leaf=t.root_leaf)
        assert t == public and t.adj == public.adj
        built.append(t)
        return t

    STree._derived = classmethod(checked)
    try:
        yield built
    finally:
        STree._derived = derived


def run_both_engines(system, family):
    weak_duality(system, family)
    try:
        strong_duality(system, family)
    except NotFSeparable:
        pass


@pytest.mark.parametrize("pairs", [sorted(tk.EXPECTED_KIND), [("grid3x3", 4)]])
def test_trusted_trees_equal_checked_ones_on_tk_systems(pairs):
    with checked_trusted_trees() as built:
        for name, k in pairs:
            graph = GraphInput.parse(tk.GRAPHS[name])
            system = graph_separations(graph, k)
            run_both_engines(system, tk.tk_family(system, graph))
    assert built


@given(st.integers(0, 2 ** 32 - 1))
def test_trusted_trees_equal_checked_ones_on_random_systems(seed):
    """A random system and family, then a random graph's S_k with T_k,
    which reaches splices and shifts."""
    rng = random.Random(seed)
    system = gen.random_system(rng, max_pairs=5)
    family = gen.random_family(rng, system, max_stars=6)
    with checked_trusted_trees():
        run_both_engines(system, family)
        run_both_engines(*gen.random_tk_system(rng))


# --- verdicts kept on trees -----------------------------------------------------------


@contextmanager
def recorded_trees():
    """Yield a list of the trees built by ``STree._derived`` and
    ``STree._with_root_leaf`` while the block runs."""
    derived, rooted = STree.__dict__["_derived"], STree._with_root_leaf
    built = []

    def record_derived(cls, *args, **kwargs):
        built.append(derived.__func__(cls, *args, **kwargs))
        return built[-1]

    def record_rooted(self, root):
        built.append(rooted(self, root))
        return built[-1]

    STree._derived, STree._with_root_leaf = classmethod(record_derived), record_rooted
    try:
        yield built
    finally:
        STree._derived, STree._with_root_leaf = derived, rooted


def assert_kept_verdicts_hold(system, family, rng):
    """Run both engines, then ask every tree they built, with the verdicts
    the run left on it, and a ``_with_root_leaf`` copy of it, what a fresh
    scan of its public-constructor copy answers: for the engine's family, a
    child of it with some of the singletons the tree needs, and a root
    built by copy from that child."""
    fam = family.restricted_to(system)
    with recorded_trees() as built:
        run_both_engines(system, family)
    u = system.universe
    for t in built:
        public = STree(t.system, t.edges, t.alpha, nodes=t.nodes, root_leaf=t.root_leaf)
        stars = [public.node_star(n) for n in public.nodes]
        child = fam
        for star in stars:
            if len(star) == 1 and rng.random() < 0.7:
                (x,) = star
                if not u.is_degenerate_id(x):
                    child = child._child(x)
        families = [fam, child, StarFamily(u, child.stars, validate=False)]
        copies = [t] + [t._with_root_leaf(leaf) for leaf in t.leaves()[:2]]
        for tree in rng.sample(copies, len(copies)):
            assert _redundant_triple(tree) == _redundant_triple(public)
            assert _inverse_pair_triple(tree) == _inverse_pair_triple(public)
            for f in rng.sample(families, len(families)):
                want = all(star in f.stars for star in stars)
                assert is_over(tree, f) == is_over(public, f) == want
    return len(built)


def test_kept_tree_verdicts_on_the_ladder():
    rng = random.Random(3)
    trees = 0
    for name, k in sorted(tk.EXPECTED_KIND):
        graph = GraphInput.parse(tk.GRAPHS[name])
        system = graph_separations(graph, k)
        trees += assert_kept_verdicts_hold(system, tk.tk_family(system, graph), rng)
    assert trees


@given(st.integers(0, 2 ** 32 - 1))
def test_kept_tree_verdicts_on_random_tk_systems(seed):
    rng = random.Random(seed)
    assert_kept_verdicts_hold(*gen.random_tk_system(rng), rng)


def fresh_copy(tree):
    """``tree`` rebuilt on the trusted path, with no verdicts kept."""
    return STree._derived(tree.system, dict(tree.alpha), tree.nodes, tree.root_leaf)


def test_kept_surgery_equals_fresh_surgery(monkeypatch):
    """Every prune, tighten and shift of a strong run, read from the
    results kept on its input or not, equals the same operation on a fresh
    copy of the input.  On P6 at k=3 the 307 shifts give at most 62
    distinct trees: the repeats are kept results."""
    calls = []
    for name in ("prune_to_irredundant", "tighten_rooted"):

        def recorder(tree, *args, op=getattr(duality, name)):
            out = op(tree, *args)
            calls.append((op, tree, args, out))
            return out

        monkeypatch.setattr(duality, name, recorder)
    shift = duality.shift_stree
    for name, k in sorted(tk.EXPECTED_KIND):
        graph = GraphInput.parse(tk.GRAPHS[name])
        system = graph_separations(graph, k)
        with gen.recorded_shifts() as shifts:
            strong_duality(system, tk.tk_family(system, graph))
        for rec in shifts:
            calls.append((shift, rec.before, (rec.root, rec.s0_id, rec.family), rec.after))
        if (name, k) == ("P6", 3):
            assert len(shifts) == 307
            assert len({id(rec.after) for rec in shifts}) <= 62
    assert {op for op, *_ in calls} == {prune_to_irredundant, tighten_rooted, shift}
    for op, tree, args, out in calls:
        want = op(fresh_copy(tree), *args)
        assert out._key() == want._key() and out.adj == want.adj


@pytest.mark.parametrize("name, k", [("P6", 3), ("grid3x3", 4)])
def test_one_root_leaf_copy_per_tighten_input(monkeypatch, name, k):
    """A strong call makes one ``_with_root_leaf`` copy per distinct
    ``(input tree, root)`` that ``tighten_rooted`` receives: its result is
    kept on its input, the copy of an already tight tree too.  A copy
    shares its source's verdicts and a trusted tree has its own, so the
    copies are the recorded trees that do not bring a new verdicts dict."""
    inputs = []

    def recorder(tree, root, op=duality.tighten_rooted):
        inputs.append((tree, root))
        return op(tree, root)

    monkeypatch.setattr(duality, "tighten_rooted", recorder)
    graph = GraphInput.parse(tk.GRAPHS[name])
    system = graph_separations(graph, k)
    family = tk.tk_family(system, graph)
    with recorded_trees() as built:
        strong_duality(system, family)
    copies = len(built) - len({id(t._verdicts) for t in built})
    assert copies == len({(id(tree), root) for tree, root in inputs})
    assert len(inputs) > copies


def test_wrong_kept_verdicts_do_not_pass_the_full_checks():
    """``verify_certificate`` and ``validate_stree`` scan the tree afresh:
    wrong verdicts planted on a certificate tree change what the engines'
    cached tests answer, but not what the full checks report."""
    graph = GraphInput.parse(tk.GRAPHS["P3"])
    system = graph_separations(graph, 3)
    family = tk.tk_family(system, graph)
    cert = strong_duality(system, family)
    tree = cert.tree
    assert cert.kind == "stree" and verify_certificate(cert, system, family)[0]
    star = tree.node_star(tree.nodes[0])
    smaller = StarFamily(system.universe, family.stars - {star}, validate=False)
    assert not is_over(tree, smaller)
    # a kept row claiming the smaller family's root lacks no node star
    tree._verdicts[_lacked_stars] = (weakref.ref(smaller), 0, ())
    assert is_over(tree, smaller)
    ok, problems = verify_certificate(cert, system, smaller)
    assert not ok
    assert problems == (f"star at node {tree.nodes[0]} is outside the family",)
    tree._verdicts[_redundant_triple] = tree._verdicts[_inverse_pair_triple] = (0, 0, 0)
    assert _redundant_triple(tree) == _inverse_pair_triple(tree) == (0, 0, 0)
    report = validate_stree(tree, family)
    assert report.is_irredundant and report.is_tight and report.over_family
    assert report.problems == ()


def test_a_doctored_shift_fails_the_certificate_check(monkeypatch):
    """A shift that returns its tree with one label flipped, unchecked, is
    caught by the check of the final certificate (P3 at k=3 has one shift,
    whose tree is the answer)."""
    shift = duality.shift_stree

    def flipped(tree, root, s0, family):
        out = shift(tree, root, s0, family)
        alpha = dict(out.alpha)
        a, b = out.edges[-1]
        alpha[(a, b)] = out.system.universe.inv_id(alpha[(a, b)])
        return STree._derived(out.system, alpha, out.nodes, out.root_leaf)

    monkeypatch.setattr(duality, "shift_stree", flipped)
    graph = GraphInput.parse(tk.GRAPHS["P3"])
    system = graph_separations(graph, 3)
    with pytest.raises(InternalInvariant, match="not an S-tree: edge labels do not commute"):
        strong_duality(system, tk.tk_family(system, graph))
