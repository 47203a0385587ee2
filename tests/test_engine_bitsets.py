"""The strong engine's bit-row paths against dense set-based references.

``emulates_for_family``, ``find_inconsistency`` and ``is_order_respecting``
answer set questions with Python-int bit rows, cached per universe, system
and family; ``StarFamily.with_star`` extends its parent's index by one
insertion.  The reference versions below are the plain loops over ids,
stars and edge pairs they replace.  Each comparison runs on the T_k systems
of three small graphs (the family the benchmark uses, from ``bench/tk.py``),
on hypothesis-drawn random systems and families, and on the trees the
acceptance corpus produces.
"""

import importlib.util
import random
from pathlib import Path

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
    emulates_for_family,
    find_inconsistency,
    graph_separations,
    is_order_respecting,
    strong_duality,
)


def _load_tk():
    path = Path(__file__).resolve().parents[1] / "bench" / "tk.py"
    spec = importlib.util.spec_from_file_location("bench_tk", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tk = _load_tk()


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


def ref_emulates_for_family(s0, r, system, family):
    u = system.universe
    if u.is_degenerate_id(r):
        raise MalformedInput("emulation base is degenerate")
    if r in system.trivial_ids:
        raise MalformedInput("emulation base is trivial in the system")
    if not ref_emulates(s0, r, system):
        return False
    inv_r = u.inv_id(r)
    domain = frozenset(
        m for m in system.members if u.leq_ids(r, m) or u.leq_ids(r, u.inv_id(m))
    )
    for sigma in sorted(family.stars, key=lambda s: (len(s), sorted(s))):
        if inv_r in sigma or not sigma <= domain:
            continue
        if not any(u.leq_ids(r, t) for t in sigma):
            continue
        image = frozenset(ref_shift_target_id(system, r, s0, t) for t in sigma)
        if image not in family.stars:
            return False
    return True


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


def test_tk_family_grown_by_with_star(tk_instance):
    system, family = tk_instance
    u = system.universe
    fam = family
    for m in system.nondegenerate_reps[:6]:
        fam = fam.with_star([u.inv_id(m)])
    fresh = StarFamily(u, fam.stars)
    assert fam.sorted_stars == fresh.sorted_stars
    assert fam.forced_ids(system) == fresh.forced_ids(system)


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
        records = []
        try:
            cert = strong_duality(system, family, trace=records)
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
