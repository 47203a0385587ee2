"""The strong engine's bit-row paths against dense set-based references.

``emulates_for_family``, ``find_inconsistency``, ``is_order_respecting``,
the strong engine's ``_least_minimal_below`` and
``SeparationSystem.trivial_ids`` answer set questions with Python-int bit
rows or numpy rows, cached per universe, system and family;
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
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import (
    GraphInput,
    InternalInvariant,
    MalformedInput,
    NotFSeparable,
    STree,
    StarFamily,
    TargetNotAboveR,
    avoids,
    emulates_for_family,
    find_inconsistency,
    graph_separations,
    is_order_respecting,
    star_sort_key,
    strong_duality,
    violating_star,
    weak_duality,
)
from tangleduct.duality import _least_minimal_below


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
        if u.join_id(m, s0) not in system.member_ids:
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
        assert fam.mask_set == fresh.mask_set
        assert fam.forced_ids(system) == fresh.forced_ids(system)


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
            mask = sum(1 << t for t in sigma)
            assert (sigma in fam) == (mask in fam.mask_set) == (sigma in want)
        attrs = ["sorted_stars", "mask_set", "stars", "forced_ids"]
        rng.shuffle(attrs)
        for attr in attrs:
            if attr == "sorted_stars":
                assert fam.sorted_stars == tuple(sorted(want, key=star_sort_key))
            elif attr == "mask_set":
                assert fam.mask_set == {sum(1 << t for t in sigma) for sigma in want}
            elif attr == "forced_ids":
                assert fam.forced_ids(system) == ref_forced_ids(system, want)
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
    assert fam.forced_ids(system) == fresh.forced_ids(system)


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
        assert violating_star(picks, family) == expect
        assert avoids(picks, family) == (expect is None)
        seps = [system.universe.sep(i) for i in picks]
        assert violating_star(seps, family) == expect
        # ids outside the universe lie in no star
        outside = picks | {-1, len(system.universe), 10**9}
        assert violating_star(outside, family) == expect


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
    unforced = [m for m in system.nondegenerate_reps if not family.forces(u.sep(m))]
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
    emulating = [
        (cand, r) for r in bases for cand in system.members if ref_emulates(cand, r, system)
    ]
    images = {}
    for fam, want_stars in [chain[-1], *chain]:
        dense = StarFamily(u, want_stars, validate=False)
        qualifying = {}
        for r in bases:
            allowed = system.domain_mask(r) & ~(1 << u.inv_id(r))
            touching = system.members_above(r)
            qualifying[r] = ref_qualifying(r, system, dense)
            assert ref_stars_inside(dense, allowed, touching) == tuple(qualifying[r])
            assert fam.stars_inside(allowed, touching) == tuple(qualifying[r])
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
                assert family.memo[cand, r, system] == (-1 if larger else row)
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


def test_pool_scans_on_tk_systems(tk_instance):
    system, _ = tk_instance
    assert system.trivial_ids == ref_trivial_ids(system)
    assert_least_minimal_agrees(system, random.Random(len(system)))


@given(st.integers(0, 2 ** 32 - 1))
def test_pool_scans_on_random_systems(seed):
    rng = random.Random(seed)
    system = gen.random_system(rng, max_pairs=6)
    assert system.trivial_ids == ref_trivial_ids(system)
    assert_least_minimal_agrees(system, rng)


# --- golden certificates -----------------------------------------------------------------

# sha256 over the strong, then the weak certificate of every EXPECTED_KIND
# (graph, k) pair in sorted order, each as one line of compact sorted-key
# JSON with its transcript; computed before the separator search was made
# incremental
LADDER_SHA256 = "b9ddb79ea6a367a040966e893e020be39c960fe87bb794e7dc0ffa6804f070a1"


# the same for the 3x3 grid at k=4, the deepest recursion (depth 48)
GRID_K4_SHA256 = "aba9354b775d997a2dc8a29d5e60478e0ffdbb5f66405c5701847b51f26a4996"


def certificate_digest(pairs):
    digest = hashlib.sha256()
    for name, k in pairs:
        graph = GraphInput.parse(tk.GRAPHS[name])
        system = graph_separations(graph, k)
        family = tk.tk_family(system, graph)
        for engine in (strong_duality, weak_duality):
            doc = engine(system, family).to_json_dict()
            line = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            digest.update(line.encode())
    return digest.hexdigest()


def test_ladder_certificates_are_unchanged():
    assert certificate_digest(sorted(tk.EXPECTED_KIND)) == LADDER_SHA256


def test_grid_k4_certificates_are_unchanged():
    assert certificate_digest([("grid3x3", 4)]) == GRID_K4_SHA256


def test_engine_runs_leave_no_reference_cycles():
    """Reference counting alone frees the universe, the system and the
    family of both engine runs: no family refers to itself, directly or
    through a child's root or a root's memo."""
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
    finally:
        gc.enable()
