"""The engines' forced-state rules against whole-set recomputation.

Each rule is written once and runs at every recursion level, the root
included: ``_pair_tree`` names the least forced id whose inverse is forced
too, and ``core._first_conflict`` scans the ids not yet checked for a
conflict, all forced and degenerate ids at the root and the one added id
at a child.  Both must name what a dense scan of the whole set names,
a level of either engine must never hold a Python frame while a child
level runs, and at every level the family's ``singles`` must be the row
of the forced ids' inverses, which the levels read in its place.  Also
here:
``SeparationSystem.trivial_ids`` against its per-member definition, and
the caller's family as the engines' root (``restricted_to`` returns it
unchanged, and its root-scan memo holds systems only weakly).
"""

import gc
import random
import sys
import weakref
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from tangleduct import (
    FNotStandard,
    GraphInput,
    NotFSeparable,
    StarFamily,
    duality,
    find_inconsistency,
    graph_separations,
    strong_duality,
    weak_duality,
)
from tangleduct.core import _first_conflict, _id_row
from tangleduct.duality import _forced_row, _pair_tree
from tangleduct.stree import _bit_ids


tk = gen.bench_tk()
LADDER = sorted(tk.EXPECTED_KIND)


@lru_cache(maxsize=None)
def ladder_system(name, k):
    return graph_separations(GraphInput.parse(tk.GRAPHS[name]), k)


def draw_system(rng, which):
    if which is None:
        return gen.random_system(rng, max_pairs=6)
    return ladder_system(*which)


def consistent_forced(rng, system):
    """A random forced set as the engines keep it: no pair of inverses,
    and consistent together with the degenerate members."""
    u = system.universe
    order = [m for m in system.members if not u.is_degenerate_id(m)]
    rng.shuffle(order)
    forced = set()
    for x in order:
        if rng.random() < 0.5 or u.inv_id(x) in forced:
            continue
        if find_inconsistency(forced | {x} | system.degenerate_ids, system) is None:
            forced.add(x)
    return forced


def pair_label(system, forced, singles):
    """The label of ``_pair_tree``'s 2-node tree on the rows, or None."""
    pair = _pair_tree(system, forced, singles)
    return None if pair is None else pair[1][1].alpha[(0, 1)]


def ref_least_pair(system, ids):
    """The least id of the set whose inverse is in it too."""
    return min((s for s in ids if system.universe.inv_id(s) in ids), default=None)


def ref_first_conflict(system, ids):
    """The least ``a``, then the least ``b``, of the set with ``inv(a) < b``
    and ``b`` neither ``a`` nor ``inv(a)``."""
    u = system.universe
    for a in sorted(ids):
        for b in sorted(ids):
            if b not in (a, u.inv_id(a)) and u.lt_ids(u.inv_id(a), b):
                return a, b
    return None


# --- one added id against the whole set ------------------------------------------------


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([None, *LADDER]))
def test_added_id_names_the_whole_set_witness(seed, which):
    rng = random.Random(seed)
    system = draw_system(rng, which)
    u = system.universe
    forced = consistent_forced(rng, system)
    # the family whose singletons {inv(f)} force the set
    family = StarFamily(u, [[u.inv_id(f)] for f in forced])
    row, inv_row = _forced_row(system, family), family.singles & system.member_mask
    assert (row, inv_row) == (_id_row(forced), _id_row(map(u.inv_id, forced)))
    for added in system.members:
        if u.is_degenerate_id(added) or added in forced:
            continue
        whole = frozenset(forced | {added})
        rows = row | 1 << added, inv_row | 1 << u.inv_id(added)
        assert pair_label(system, *rows) == ref_least_pair(system, whole)
        hit = find_inconsistency(whole | system.degenerate_ids, system)
        picked = rows[0] | system.degenerate_mask
        assert _first_conflict(u, picked, 1 << added) == (
            None if hit is None else (hit[0].id, hit[1].id)
        )


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([None, *LADDER]))
def test_rules_on_any_pick_set_match_dense_scans(seed, which):
    """Arbitrary pick sets, inconsistent ones, pairs of inverses and
    degenerate members included, as the root sees them."""
    rng = random.Random(seed)
    system = draw_system(rng, which)
    u = system.universe
    for _ in range(4):
        ids = frozenset(m for m in system.members if rng.random() < rng.random())
        picked = _id_row(ids)
        assert _first_conflict(u, picked, picked) == ref_first_conflict(system, ids)
        rows = picked, _id_row(map(u.inv_id, ids))
        assert pair_label(system, *rows) == ref_least_pair(system, ids)


# --- one level frame at a time ----------------------------------------------------------


@pytest.mark.parametrize("name", ["P6", "grid2x4"])
@pytest.mark.parametrize("engine", [strong_duality, weak_duality])
def test_engine_levels_hold_no_frame_below_the_running_one(engine, name, monkeypatch):
    """Every level of either engine starts with ``_pair_tree``.  There the
    frames of the engine's module on the stack are the engine call, its
    driver and the one running level, however deep that level is."""
    graph = GraphInput.parse(tk.GRAPHS[name])
    system = graph_separations(graph, 3)
    family = tk.tk_family(system, graph)
    pair_tree = duality._pair_tree
    stacks = []

    def recorder(*args):
        frame, names = sys._getframe(1), []
        while frame is not None:
            if frame.f_code.co_filename == duality.__file__:
                names.append(frame.f_code.co_name)
            frame = frame.f_back
        stacks.append(names)
        return pair_tree(*args)

    monkeypatch.setattr(duality, "_pair_tree", recorder)
    cert = engine(system, family)
    level = "_strong" if engine is strong_duality else "_weak"
    assert stacks
    assert all(names == [level, "_run", engine.__name__] for names in stacks)
    depths = [int(line[1 : line.index("]")]) for line in cert.transcript if line[0] == "["]
    assert max(depths) > 2


# --- the family as the one owner of the forced inverses ---------------------------------


def levels_read_inverse_rows(system, family, monkeypatch):
    """Run both engines, recording at each level, through ``_pair_tree``,
    which every level calls on its forced row and its family's
    ``singles``, whether ``singles`` is the row of the forced ids' inverses."""
    pair_tree, seen = duality._pair_tree, []

    def recorder(system, forced, singles):
        inverses = _id_row(map(system.universe.inv_id, _bit_ids(forced)))
        seen.append(singles == inverses)
        return pair_tree(system, forced, singles)

    monkeypatch.setattr(duality, "_pair_tree", recorder)
    weak_duality(system, family)
    try:
        strong_duality(system, family, auto_standardize=True)
    except NotFSeparable:
        pass
    return seen


@pytest.mark.parametrize("name, k", LADDER)
def test_levels_forced_inverses_are_the_family_singles(name, k, monkeypatch):
    graph = GraphInput.parse(tk.GRAPHS[name])
    system = ladder_system(name, k)
    seen = levels_read_inverse_rows(system, tk.tk_family(system, graph), monkeypatch)
    assert seen and all(seen)


@given(st.integers(0, 2 ** 32 - 1))
def test_levels_forced_inverses_are_the_family_singles_on_random_systems(seed):
    rng = random.Random(seed)
    system = gen.random_system(rng, max_pairs=5)
    family = gen.random_family(rng, system, max_stars=6, standard=rng.random() < 0.5)
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = levels_read_inverse_rows(system, family, monkeypatch)
    assert seen and all(seen)


# --- trivial ids ------------------------------------------------------------------------


def per_member_trivial_ids(system):
    """The members ``r`` with a member ``s`` such that ``r < s`` and
    ``r < inv(s)``, one member at a time."""
    u = system.universe
    return frozenset(
        r
        for r in system.members
        if any(
            u.lt_ids(r, s) and u.lt_ids(r, u.inv_id(s)) for s in system.members
        )
    )


@pytest.mark.parametrize("name, k", LADDER)
def test_trivial_ids_on_ladder_systems(name, k):
    system = ladder_system(name, k)
    assert system.trivial_ids == per_member_trivial_ids(system)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([None, *LADDER]))
def test_trivial_ids_on_random_subsystems(seed, which):
    rng = random.Random(seed)
    base = gen.full_cover_system(4) if which is None else ladder_system(*which)
    system = gen.random_subsystem(rng, base, max_pairs=8)
    assert system.trivial_ids == per_member_trivial_ids(system)


def test_trivial_ids_of_the_empty_system(cover2):
    assert gen.subsystem(cover2, []).trivial_ids == frozenset()


# --- the caller's family as the engines' root ---------------------------------------------


@given(st.integers(0, 2 ** 32 - 1))
def test_restricted_to_is_the_family_iff_no_star_is_dropped(seed):
    rng = random.Random(seed)
    system = gen.random_system(rng, max_pairs=5)
    family = gen.random_family(rng, system, max_stars=6, standard=rng.random() < 0.5)
    sub = gen.random_subsystem(rng, system, max_pairs=3)
    for fam, target in ((family, system), (family, sub)):
        kept = fam.restricted_to(target)
        inside = {sigma for sigma in fam.stars if sigma <= target.member_ids}
        assert kept.stars == inside
        assert (kept is fam) == (inside == fam.stars)


def test_family_keeps_no_system_alive():
    graph = GraphInput.parse(tk.GRAPHS["P5"])
    system = graph_separations(graph, 3)
    family = tk.tk_family(system, graph)
    strong_duality(system, family)
    weak_duality(system, family)
    assert system in family.memo  # the engines scanned this family as root
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None
    assert len(family.memo) == 0


def engine_outcomes(system, family):
    out = []
    for engine in (strong_duality, weak_duality):
        try:
            out.append(engine(system, family).to_json_dict())
        except (FNotStandard, NotFSeparable) as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


@given(st.integers(0, 2 ** 32 - 1))
def test_one_family_across_systems_answers_as_fresh_copies(seed):
    """A family whose caches carry over from system to system gives each
    system the answers a fresh copy of it gives."""
    rng = random.Random(seed)
    base = gen.full_cover_system(rng.randint(3, 4))
    core = gen.random_subsystem(rng, base, max_pairs=2, allow_degenerate=False)
    family = gen.random_family(rng, core, max_stars=6, standard=True)
    for _ in range(4):
        extra = rng.sample(base.nondegenerate_reps, rng.randint(0, 3))
        system = gen.subsystem(base, [*core.members, *extra])
        assert family.restricted_to(system) is family
        fresh = StarFamily(base.universe, family.stars)
        assert engine_outcomes(system, family) == engine_outcomes(system, fresh)
