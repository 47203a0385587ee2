"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Every test prints ``ACCEPTANCE <n> <name>: PASS/FAIL`` (with its elapsed
time where a budget applies) straight to the terminal, then asserts.
Failures accumulate into a list so a FAIL line still appears before the
assertion fires.
"""

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import gen
from tangleduct import (
    GraphInput,
    MalformedInput,
    NotFSeparable,
    STree,
    StarFamily,
    enumerate_orientations,
    essential_core,
    essentialize_stree,
    expand_to_family,
    find_guided_sink,
    graph_separations,
    is_over,
    prune_to_irredundant,
    shift_stree,
    side_masks,
    strong_duality,
    tighten_rooted,
    validate_stree,
    verify_certificate,
    weak_duality,
)
from tangleduct.duality import _shift_map

GRID_3X3 = "\n".join(
    f"{a} {b}"
    for a, b in [
        ("11", "12"), ("12", "13"), ("21", "22"), ("22", "23"),
        ("31", "32"), ("32", "33"), ("11", "21"), ("21", "31"),
        ("12", "22"), ("22", "32"), ("13", "23"), ("23", "33"),
    ]
)


def verdict(capsys, number, name, failures, elapsed=None, budget=None):
    ok = not failures and (budget is None or elapsed < budget)
    clock = "" if elapsed is None else f" ({elapsed:.1f}s)"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{clock}")
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.1f}s"


@dataclass
class Instance:
    system: object
    family: object
    census: object
    cert: object
    records: list = field(default_factory=list)


@pytest.fixture(scope="module")
def corpus():
    """500 random system/family pairs on which the separator search succeeds.

    Pairs where it fails are excluded (they satisfy neither branch of the
    exact comparison) but do not count towards the quota.
    """
    rng = random.Random(0xACCE97)
    t0 = time.monotonic()
    instances = []
    while len(instances) < 500:
        system = gen.random_system(rng, max_pairs=5)
        if len(system.nondegenerate_reps) > 5:
            continue
        family = gen.random_family(rng, system, standard=True)
        census = enumerate_orientations(system, family, "tangle")
        try:
            with gen.recorded_shifts() as records:
                cert = strong_duality(system, family)
        except NotFSeparable:
            continue
        instances.append(Instance(system, family, census, cert, records))
    return instances, time.monotonic() - t0


def test_acceptance_1_exclusivity(corpus, capsys):
    instances, build_time = corpus
    t0 = time.monotonic()
    failures = []
    kinds = {"tangle": 0, "stree": 0}
    for i, inst in enumerate(instances):
        kinds[inst.cert.kind] += 1
        has_tangle = bool(inst.census.f_tangles)
        if (inst.cert.kind == "tangle") != has_tangle:
            failures.append(
                f"[{i}] engine said {inst.cert.kind} but census found "
                f"{len(inst.census.f_tangles)} tangles"
            )
            continue
        ok, problems = verify_certificate(inst.cert, inst.system, inst.family)
        if not ok:
            failures.append(f"[{i}] certificate failed re-verification: {problems}")
        if inst.cert.kind == "tangle":
            picks = tuple(sorted(inst.cert.picks))
            if picks not in set(inst.census.f_tangles):
                failures.append(f"[{i}] tangle picks {picks} not in census")
    if min(kinds.values()) < 25:
        failures.append(f"outcome mix too lopsided to be convincing: {kinds}")
    verdict(capsys, 1, "exclusivity on 500 random instances", failures,
            build_time + time.monotonic() - t0, 60.0)


def test_acceptance_2_weak_equivalence(corpus, capsys):
    instances, _ = corpus
    t0 = time.monotonic()
    failures = []
    for i, inst in enumerate(instances):
        cert = weak_duality(inst.system, inst.family)
        has_avoiding = bool(inst.census.f_avoiding)
        if (cert.kind == "orientation") != has_avoiding:
            failures.append(
                f"[{i}] weak said {cert.kind} but census found "
                f"{len(inst.census.f_avoiding)} avoiding orientations"
            )
            continue
        ok, problems = verify_certificate(cert, inst.system, inst.family)
        if not ok:
            failures.append(f"[{i}] weak certificate rejected: {problems}")
    verdict(capsys, 2, "weak duality matches avoiding census", failures,
            time.monotonic() - t0, 30.0)


def test_acceptance_3_tree_lemmas(capsys):
    rng = random.Random(0x7EE5)
    t0 = time.monotonic()
    failures = []
    inverse_pairs = tightened = 0
    for i in range(1000):
        tree = gen.random_partition_stree(
            rng, rng.choice((2, 3, 4)), max_nodes=6, redundant=i % 5 == 0
        )
        system = tree.system
        u = system.universe
        fam = gen.node_star_family(tree)
        rep = validate_stree(tree, fam)
        if not (rep.is_stree and rep.is_order_respecting and rep.over_family):
            failures.append(f"[{i}] partition tree failed validation")
            continue
        # pruning yields an irredundant tree still over the same family,
        # and irredundant trees over stars respect the edge order
        pruned = prune_to_irredundant(tree)
        prep = validate_stree(pruned, fam)
        if not (prep.is_stree and prep.is_irredundant and prep.over_family):
            failures.append(f"[{i}] prune output broke a promise")
        if not prep.is_order_respecting:
            failures.append(f"[{i}] irredundant tree fails order-respect")
        # comparable distinct edges whose labels are inverse force triviality
        oedges = list(pruned.oriented_edges())
        for e in oedges:
            for f in oedges:
                if (e != f and pruned.edge_leq(e, f)
                        and pruned.alpha[e] == u.inv_id(pruned.alpha[f])):
                    inverse_pairs += 1
                    if pruned.alpha[e] not in system.trivial_ids:
                        failures.append(
                            f"[{i}] nontrivial label {pruned.alpha[e]} "
                            f"repeats inversely on {e} <= {f}"
                        )
        # rooted tightening leaves exactly one edge with the root label
        if len(pruned.nodes) > 1:
            for x in pruned.leaves():
                r_id = pruned.alpha[(x, pruned.adj[x][0])]
                if r_id in system.trivial_ids or u.is_degenerate_id(r_id):
                    continue
                tight = tighten_rooted(pruned, x)
                hits = [e for e in tight.oriented_edges()
                        if tight.alpha[e] == r_id]
                trep = validate_stree(tight, fam)
                if len(hits) != 1 or not (trep.is_tight and trep.is_irredundant
                                          and trep.over_family):
                    failures.append(
                        f"[{i}] tightening at {x}: label {r_id} on "
                        f"{len(hits)} edges, report {trep}"
                    )
                tightened += 1
                break
        # each consistent orientation of the labels is guided to a node
        # whose whole star it picked
        labels = sorted(set(tree.alpha.values()))
        sub = gen.subsystem(system, labels)
        census = enumerate_orientations(sub, StarFamily(u, ()), "tangle")
        for picks in census.consistent:
            sink = find_guided_sink(tree, picks)
            star = tree.node_star(sink)
            if not star <= set(picks):
                failures.append(
                    f"[{i}] guided sink {sink} has unpicked star {sorted(star)}"
                )
                break
        if len(failures) > 20:
            break
    if inverse_pairs < 20:
        failures.append(f"only {inverse_pairs} inverse-label edge pairs seen")
    if tightened < 300:
        failures.append(f"only {tightened} rooted tightenings exercised")
    verdict(capsys, 3, "tree lemmas on 1000 random trees", failures,
            time.monotonic() - t0, 30.0)


def _check_shift(before, after, root, r_id, s0_id, system, tag, failures):
    u = system.universe
    if after.node_star(root) != frozenset({u.inv_id(s0_id)}):
        failures.append(f"{tag} root star is {sorted(after.node_star(root))}, "
                        f"expected {{{u.inv_id(s0_id)}}}")
        return
    for a, b in before.oriented_edges():
        want = _shift_map(r_id, s0_id, before.alpha[(a, b)], system).id
        got = after.alpha.get((a, b))
        if got != want:
            failures.append(f"{tag} edge ({a},{b}) relabelled {got}, expected {want}")
            return
    if not validate_stree(after).is_order_respecting:
        failures.append(f"{tag} shifted tree is not order-respecting")


def test_acceptance_4_shifting(corpus, capsys):
    instances, _ = corpus
    failures = []
    traced = 0
    for i, inst in enumerate(instances):
        for j, rec in enumerate(inst.records):
            _check_shift(rec.before, rec.after, rec.root, rec.r_id, rec.s0_id,
                         inst.system, f"[trace {i}.{j}]", failures)
            # the shifted tree is over F plus the root star, which is the
            # only place the extra star is needed
            for t in rec.after.nodes:
                if t != rec.root and rec.after.node_star(t) not in rec.family.stars:
                    failures.append(
                        f"[trace {i}.{j}] node {t} star left the family"
                    )
                    break
            traced += 1
    if traced < 10:
        failures.append(f"only {traced} traced shifts; corpus too tame")

    rng = random.Random(0x5417)
    built = 0
    while built < 200 and len(failures) < 20:
        system = gen.full_cover_system(rng.choice((2, 3)))
        u = system.universe
        sigma = gen.random_star_ids(rng, system, max_size=3)
        if sigma is None or len(sigma) < 2:
            continue
        usable = [
            s for s in sigma
            if s not in system.trivial_ids
            and not u.is_degenerate_id(s)
            and u.inv_id(s) not in sigma
        ]
        if not usable:
            continue
        r = rng.choice(usable)
        ups = [
            x for x in system.members
            if u.leq_ids(r, x)
            and x not in system.trivial_ids
            and not u.is_degenerate_id(x)
        ]
        if not ups:
            continue
        s0 = rng.choice(ups)
        order = [r] + [s for s in sigma if s != r]
        tree = STree(
            system,
            [(i + 1, 0) for i in range(len(order))],
            {(i + 1, 0): s for i, s in enumerate(order)},
        )
        stars = [list(sigma)] + [[u.inv_id(s)] for s in order[1:]]
        images = [
            [_shift_map(r, s0, t, system).id for t in star] for star in stars
        ]
        fam = StarFamily(u, stars + images)
        shifted = shift_stree(tree, 1, s0, fam)
        _check_shift(tree, shifted, 1, r, s0, system,
                     f"[built {built}]", failures)
        for t in shifted.nodes:
            if t == 1:
                continue
            if shifted.node_star(t) not in fam.stars:
                failures.append(f"[built {built}] node {t} star left the family")
                break
        built += 1
    verdict(capsys, 4, f"shift lemma on {traced} traced + {built} built shifts",
            failures)


def test_acceptance_5_essential_cores(capsys):
    rng = random.Random(0xE55E)
    t0 = time.monotonic()
    failures = []
    done = round_trips = 0
    while done < 200:
        system = gen.random_system(rng, max_pairs=5)
        if len(system.nondegenerate_reps) > 5:
            continue
        family = gen.random_family(rng, system, standard=True)
        core = essential_core(family, system)
        full = enumerate_orientations(system, family, "tangle").f_tangles
        cored = enumerate_orientations(system, core, "tangle").f_tangles
        if full != cored:
            failures.append(
                f"[{done}] tangles changed under coring: {len(full)} vs {len(cored)}"
            )
        try:
            cert = strong_duality(system, family)
        except NotFSeparable:
            cert = None
        if cert is not None and cert.kind == "stree":
            slim = essentialize_stree(cert.tree)
            if not is_over(slim, core):
                failures.append(f"[{done}] essentialized tree not over the core")
            grown = expand_to_family(slim, family)
            grep = validate_stree(grown, family)
            if not (grep.is_stree and grep.over_family
                    and grep.is_order_respecting):
                failures.append(f"[{done}] expanded tree rejected: {grep}")
            round_trips += 1
        done += 1
        if len(failures) > 20:
            break
    if round_trips < 25:
        failures.append(f"only {round_trips} essentialize/expand round trips")
    verdict(capsys, 5, "essential cores on 200 instances", failures,
            time.monotonic() - t0, 30.0)


def meet_or_none(u, i: int, j: int) -> int:
    """The meet id of ``i`` and ``j``, or -1 when it lies outside ``u``."""
    try:
        return u.meet_id(i, j)
    except MalformedInput:
        return -1


def test_acceptance_6_universe_laws(cover2, cover3, p3_s2, k3_s2, capsys):
    failures = []
    for name, system in (("cover2", cover2), ("cover3", cover3),
                         ("p3_s2", p3_s2), ("k3_s2", k3_s2)):
        u = system.universe
        n = len(u)
        L = u.leq_matrix().astype(bool)
        I = np.array([u.inv_id(i) for i in range(n)])
        # the universe is the members alone: -1 where it lacks a join or meet
        J = gen.join_columns(u)
        M = np.array([[meet_or_none(u, i, j) for j in range(n)] for i in range(n)])
        if not L.diagonal().all():
            failures.append(f"{name}: order not reflexive")
        if ((L & L.T) & ~np.eye(n, dtype=bool)).any():
            failures.append(f"{name}: order not antisymmetric")
        reach = (L.astype(np.int64) @ L.astype(np.int64)) > 0
        if (reach & ~L).any():
            failures.append(f"{name}: order not transitive")
        if (I[I] != np.arange(n)).any():
            failures.append(f"{name}: involution is not an involution")
        if not np.array_equal(L, L[np.ix_(I, I)].T):
            failures.append(f"{name}: involution does not reverse the order")
        if (np.where(J < 0, -1, I[J]) != M[np.ix_(I, I)]).any():
            failures.append(f"{name}: join and meet do not interchange under *")
        for i in range(n):
            above_i, below_i = L[i], L[:, i]
            for j in range(n):
                k = J[i, j]
                uppers = above_i & L[j]
                if k >= 0 and not (uppers[k] and np.all(L[k] | ~uppers)):
                    failures.append(f"{name}: join({i},{j})={k} is not the lub")
                    break
                m = M[i, j]
                lowers = below_i & L[:, j]
                if m >= 0 and not (lowers[m] and np.all(L[:, m] | ~lowers)):
                    failures.append(f"{name}: meet({i},{j})={m} is not the glb")
                    break
            else:
                continue
            break
        # set universes: joins and meets are exactly the side-mask formulas,
        # and missing exactly where the universe lacks that pair
        masks = [side_masks(u.sep(i)) for i in range(n)]
        ids = {m: i for i, m in enumerate(masks)}
        for i in range(n):
            a1, b1 = masks[i]
            for j in range(n):
                a2, b2 = masks[j]
                if J[i, j] != ids.get((a1 | a2, b1 & b2), -1):
                    failures.append(f"{name}: join({i},{j}) mask mismatch")
                    break
                if M[i, j] != ids.get((a1 & a2, b1 | b2), -1):
                    failures.append(f"{name}: meet({i},{j}) mask mismatch")
                    break
            else:
                continue
            break
    verdict(capsys, 6, "universe laws, exhaustive on four universes", failures)


def test_acceptance_7_graph_backend(capsys):
    t0 = time.monotonic()
    failures = []
    cases = [
        ("p3", "a b\nb c\n", (1, 2, 3)),
        ("k3", "a b\nb c\na c\n", (1, 2, 3)),
        ("grid3x3", GRID_3X3, (1, 2)),
    ]
    for name, text, ks in cases:
        graph = GraphInput.parse(text)
        for k in ks:
            system = graph_separations(graph, k, max_closure=10**6)
            u = system.universe
            got = {side_masks(u.sep(m)) for m in system.member_ids}
            want = gen.brute_force_separations(graph, k)
            if got != want:
                failures.append(
                    f"{name} k={k}: {len(got)} members vs {len(want)} brute-forced"
                )
    verdict(capsys, 7, "graph separations match brute force", failures,
            time.monotonic() - t0, 10.0)


def test_acceptance_8_determinism(tmp_path, capsys):
    graph = tmp_path / "p3.txt"
    graph.write_text("a b\nb c\n")
    env = tmp_path / "env.json"
    base = [sys.executable, "-m", "tangleduct"]

    def run_cli(args, seed):
        env_vars = dict(os.environ, PYTHONHASHSEED=seed)
        return subprocess.run(base + args, capture_output=True, env=env_vars)

    failures = []
    first = run_cli(["graph-sk", str(graph), "--k", "2", "--demo-family",
                     "-o", str(env)], "1")
    if first.returncode != 0:
        failures.append(f"graph-sk failed: {first.stderr!r}")
    else:
        for args in (
            ["graph-sk", str(graph), "--k", "2", "--demo-family"],
            ["strong", str(env)],
            ["weak", str(env)],
            ["tangles", str(env)],
            ["essential-core", str(env)],
        ):
            a = run_cli(args, "1")
            b = run_cli(args, "2")
            if a.returncode != 0:
                failures.append(f"{args[0]} exited {a.returncode}: {a.stderr!r}")
            elif a.stdout != b.stdout:
                failures.append(f"{args[0]} output differs between fresh runs")
            elif not a.stdout.endswith(b"\n"):
                failures.append(f"{args[0]} output is not newline-terminated")
    verdict(capsys, 8, "byte-identical output across fresh processes", failures)
