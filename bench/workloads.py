"""The benchmark's workloads: inputs made from a seed, the pipeline each
instance runs, and the gate that checks what the pipeline produced.

Each workload has ``prepare(seed, out_dir)`` (input generation and fixture
writing, the set-up the benchmark times), ``cases`` (the instances of one
pass, in pass order), ``run(case, tr)`` (the timed pipeline, calling the
library through the ``tangleduct`` package) and ``check(case, out)`` (the
untimed gate, returning a list of problems).

The pipeline brackets each call into a layer with a span of that layer's
name; the gate never runs while spans are recorded.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import tangleduct
from tk import EXPECTED_KIND, GRAPHS, tk_family


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _edge_text(graph: str, rng: random.Random) -> str:
    """The graph's edge list with lines shuffled and ends swapped by ``rng``.

    The graph backend sorts vertices and edges, so every seed yields the
    same system: the seed changes the input text, not the work.
    """
    edges = [line.split() for line in GRAPHS[graph].splitlines() if line.strip()]
    rng.shuffle(edges)
    return "".join(
        f"{b} {a}\n" if rng.random() < 0.5 else f"{a} {b}\n" for a, b in edges
    )


def _touch_derived(system) -> None:
    """Compute the system's derived data: degenerate, trivial, representatives."""
    for attr in ("degenerate_ids", "trivial_ids", "underlying_reps", "nondegenerate_reps"):
        getattr(system, attr, None)


@dataclass
class Outcome:
    system: object = None
    family: object = None
    strong: object = None
    strong_reloaded: object = None
    weak: object = None
    weak_reloaded: object = None
    essential: object = None
    expanded: object = None
    cross: object = None
    unmet: bool = False
    exit_codes: tuple = ()


def _round_trip(cert, system, tr):
    """Serialize a certificate to JSON text and read it back."""
    with tr.span("core.to_json"):
        text = _dumps(cert.to_json_dict())
    with tr.span("core.from_json"):
        return tangleduct.Certificate.from_json_dict(system, json.loads(text))


def _check_cert(what: str, cert, reloaded, system, family) -> list[str]:
    """Independent re-verification of a certificate and of its JSON copy."""
    problems = []
    ok, why = tangleduct.verify_certificate(cert, system, family)
    if not ok:
        problems.append(f"{what}: re-verification failed: {list(why)}")
    if (reloaded.kind, reloaded.picks, reloaded.tree) != (cert.kind, cert.picks, cert.tree):
        problems.append(f"{what}: JSON round trip changed the certificate")
    ok, why = tangleduct.verify_certificate(reloaded, system, family)
    if not ok:
        problems.append(f"{what}: reloaded certificate failed verification: {list(why)}")
    return problems


def _tree_nodes(cert) -> int:
    return len(cert.tree.nodes) if cert.tree is not None else 0


# --- graph workloads -----------------------------------------------------------


@dataclass(frozen=True)
class GraphCase:
    graph: str
    k: int
    text: str

    @property
    def expected(self) -> str:
        return EXPECTED_KIND[(self.graph, self.k)]

    def __str__(self) -> str:
        return f"{self.graph} k={self.k}"


class GraphWorkload:
    """Graph instances run through the whole library pipeline with T_k.

    ``extras`` adds the weak engine and, for tree answers, the essentialize
    and expand round trip.
    """

    def __init__(self, name: str, instances: list[tuple[str, int]], extras: bool):
        self.name = name
        self.instances = instances
        self.extras = extras
        self.cases: list[GraphCase] = []

    def prepare(self, seed: int, out_dir: Path) -> None:
        rng = random.Random(seed)
        self.cases = [GraphCase(g, k, _edge_text(g, rng)) for g, k in self.instances]

    def run(self, case: GraphCase, tr) -> Outcome:
        out = Outcome()
        with tr.span("backends.parse"):
            graph = tangleduct.GraphInput.parse(case.text)
        with tr.span("backends.build"):
            system = out.system = tangleduct.graph_separations(graph, case.k)
        tr.add("backends.closure_elements", len(system.universe))
        tr.add("backends.members", len(system))
        with tr.span("core.derived"):
            _touch_derived(system)
        with tr.span("stree.family"):
            family = out.family = tk_family(system, graph)
        tr.add("stree.stars", len(family))
        with tr.span("duality.strong"):
            out.strong = tangleduct.strong_duality(system, family)
        tr.add("duality.tree_nodes", _tree_nodes(out.strong))
        out.strong_reloaded = _round_trip(out.strong, system, tr)
        if not self.extras:
            return out
        with tr.span("duality.weak"):
            out.weak = tangleduct.weak_duality(system, family)
        out.weak_reloaded = _round_trip(out.weak, system, tr)
        if out.strong.kind == "stree":
            with tr.span("essential.essentialize"):
                out.essential = tangleduct.essentialize_stree(out.strong.tree)
            with tr.span("essential.expand"):
                out.expanded = tangleduct.expand_to_family(out.essential, family)
        return out

    def check(self, case: GraphCase, out: Outcome) -> list[str]:
        system, family = out.system, out.family
        problems = []
        if out.strong.kind != case.expected:
            problems.append(f"strong: kind {out.strong.kind}, expected {case.expected}")
        problems += _check_cert("strong", out.strong, out.strong_reloaded, system, family)
        if not self.extras:
            return problems
        if out.strong.kind == "tangle" and out.weak.kind != "orientation":
            problems.append("weak: a tangle exists but no avoiding orientation was found")
        problems += _check_cert("weak", out.weak, out.weak_reloaded, system, family)
        if out.strong.kind == "stree":
            if not tangleduct.validate_stree(out.essential).is_essential:
                problems.append("essentialize: result is not essential")
            expanded = dataclasses.replace(out.strong, tree=out.expanded)
            ok, why = tangleduct.verify_certificate(expanded, system, family)
            if not ok:
                problems.append(f"expand: tree is not over the family: {list(why)}")
        return problems


# --- random census -------------------------------------------------------------


@dataclass(frozen=True)
class CensusCase:
    ground: int
    members: tuple[int, ...]
    stars: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        return f"census n={self.ground} members={list(self.members)} stars={list(self.stars)}"


def _full_cover_system(n: int):
    """Every covering pair (A, B) of an n-element ground set, all members."""
    ground = [str(i + 1) for i in range(n)]
    full = (1 << n) - 1

    def names(mask: int) -> list[str]:
        return [g for i, g in enumerate(ground) if mask >> i & 1]

    pairs = [
        (names(a), names(b))
        for a in range(full + 1)
        for b in range(full + 1)
        if a | b == full
    ]
    return tangleduct.build_set_universe(ground, pairs, max_closure=3 ** n)


def _random_star(rng: random.Random, u, pool: list[int]) -> Optional[tuple[int, ...]]:
    """Up to three pairwise compatible nondegenerate members, or None."""
    for _ in range(60):
        size = rng.randint(1, min(3, len(pool)))
        sigma = rng.sample(pool, size)
        if all(u.leq_ids(a, u.inv_id(b)) for a in sigma for b in sigma if a != b):
            return tuple(sorted(sigma))
    return None


class CensusWorkload:
    """Random subsystems of the full covering-pair universes on 3 and 4
    elements, each with a family of at most six random stars."""

    name = "random-census"
    INSTANCES = 3000
    MAX_PAIRS = 16
    MAX_STARS = 6

    def __init__(self) -> None:
        self.bases: dict[int, object] = {}
        self.cases: list[CensusCase] = []

    def prepare(self, seed: int, out_dir: Path) -> None:
        self.bases = {n: _full_cover_system(n) for n in (3, 4)}
        rng = random.Random(seed)
        cases = []
        for _ in range(self.INSTANCES):
            n = rng.choice((3, 4))
            base = self.bases[n]
            u = base.universe
            reps = list(base.nondegenerate_reps)
            chosen = rng.sample(reps, rng.randint(1, min(self.MAX_PAIRS, len(reps))))
            ids = {m for r in chosen for m in (r, u.inv_id(r))}
            ids |= {d for d in sorted(base.degenerate_ids) if rng.random() < 0.3}
            pool = sorted(m for m in ids if not u.is_degenerate_id(m))
            stars = set()
            for _ in range(rng.randint(0, self.MAX_STARS)):
                sigma = _random_star(rng, u, pool)
                if sigma is not None:
                    stars.add(sigma)
            cases.append(CensusCase(n, tuple(sorted(ids)), tuple(sorted(stars))))
        self.cases = cases

    def run(self, case: CensusCase, tr) -> Outcome:
        out = Outcome()
        u = self.bases[case.ground].universe
        with tr.span("core.derived"):
            system = out.system = tangleduct.SeparationSystem(u, case.members)
            _touch_derived(system)
        with tr.span("stree.family"):
            family = out.family = tangleduct.standardize(
                tangleduct.StarFamily(u, case.stars), system
            )
        tr.add("stree.stars", len(family))
        try:
            with tr.span("duality.strong"):
                out.strong = tangleduct.strong_duality(system, family)
        except tangleduct.NotFSeparable:
            out.unmet = True
            tr.add("duality.unmet")
        else:
            tr.add("duality.tree_nodes", _tree_nodes(out.strong))
            out.strong_reloaded = _round_trip(out.strong, system, tr)
        with tr.span("duality.weak"):
            out.weak = tangleduct.weak_duality(system, family)
        out.weak_reloaded = _round_trip(out.weak, system, tr)
        with tr.span("oracle.cross_check"):
            out.cross = tangleduct.cross_check(system, family)
        return out

    def check(self, case: CensusCase, out: Outcome) -> list[str]:
        system, family = out.system, out.family
        census = tangleduct.enumerate_orientations(system, family, "tangle")
        problems = []
        if out.unmet:
            if not out.cross.hypothesis_failed:
                problems.append("strong: unmet hypothesis, but cross_check found a separator")
        else:
            want = "tangle" if census.f_tangles else "stree"
            if out.strong.kind != want:
                problems.append(f"strong: kind {out.strong.kind}, census says {want}")
            if out.cross.kind != out.strong.kind or out.cross.agree is not True:
                problems.append("cross_check: disagrees with the strong engine")
            problems += _check_cert("strong", out.strong, out.strong_reloaded, system, family)
        want = "orientation" if census.f_avoiding else "stree"
        if out.weak.kind != want:
            problems.append(f"weak: kind {out.weak.kind}, census says {want}")
        problems += _check_cert("weak", out.weak, out.weak_reloaded, system, family)
        return problems


# --- JSON documents through the CLI ----------------------------------------------


@dataclass(frozen=True)
class JsonCase:
    graph: str
    k: int
    doc: Path
    cert: Path
    check: Path

    @property
    def expected(self) -> str:
        return EXPECTED_KIND[(self.graph, self.k)]

    def __str__(self) -> str:
        return f"{self.graph} k={self.k} via cli"


class JsonWorkload:
    """``strong`` then ``check-tree`` through ``cli.run`` on JSON documents
    (system plus T_k family) written during set-up."""

    name = "json-roundtrip"
    INSTANCES = [("grid2x4", 3), ("C7", 3)]

    def __init__(self) -> None:
        self.cases: list[JsonCase] = []

    def prepare(self, seed: int, out_dir: Path) -> None:
        rng = random.Random(seed)
        json_dir = out_dir / "json"
        json_dir.mkdir(parents=True, exist_ok=True)
        cases = []
        for g, k in self.INSTANCES:
            graph = tangleduct.GraphInput.parse(_edge_text(g, rng))
            system = tangleduct.graph_separations(graph, k)
            doc = {
                "system": tangleduct.system_to_json_dict(system),
                "family": tk_family(system, graph).to_json_dict(),
            }
            stem = json_dir / f"{g}-k{k}"
            case = JsonCase(g, k, stem.with_suffix(".json"),
                            stem.with_suffix(".cert.json"), stem.with_suffix(".check.json"))
            case.doc.write_text(_dumps(doc) + "\n", encoding="utf-8")
            cases.append(case)
        self.cases = cases

    def run(self, case: JsonCase, tr) -> Outcome:
        with tr.span("cli.strong"):
            strong = tangleduct.run(tangleduct.RunConfig(
                command="strong", input_path=str(case.doc), output_path=str(case.cert)))
        with tr.span("cli.check_tree"):
            check = tangleduct.run(tangleduct.RunConfig(
                command="check-tree", input_path=str(case.cert),
                system_path=str(case.doc), family_path=str(case.doc),
                output_path=str(case.check)))
        out = Outcome(exit_codes=(strong, check))
        tr.add("cli.output_bytes", case.cert.stat().st_size + case.check.stat().st_size)
        return out

    def check(self, case: JsonCase, out: Outcome) -> list[str]:
        if out.exit_codes != (0, 0):
            return [f"cli: exit codes (strong, check-tree) = {out.exit_codes}"]
        cert = json.loads(case.cert.read_text(encoding="utf-8"))
        verdict = json.loads(case.check.read_text(encoding="utf-8"))
        problems = []
        if cert.get("kind") != case.expected:
            problems.append(f"strong: kind {cert.get('kind')}, expected {case.expected}")
        if verdict.get("ok") is not True or verdict.get("kind") != cert.get("kind"):
            problems.append(f"check-tree: {verdict}")
        return problems


def make(name: str):
    if name == "graph-build":
        return GraphWorkload(name, [("grid3x3", 2), ("grid2x4", 3), ("C7", 3)], extras=False)
    if name == "rs-engine":
        return GraphWorkload(name, [
            ("P3", 2), ("P3", 3), ("K4", 3), ("K4", 4), ("K5", 4),
            ("C5", 3), ("C6", 3), ("grid2x3", 3), ("P5", 3), ("P6", 3),
        ], extras=True)
    if name == "random-census":
        return CensusWorkload()
    if name == "json-roundtrip":
        return JsonWorkload()
    raise ValueError(f"unknown workload {name!r}")
