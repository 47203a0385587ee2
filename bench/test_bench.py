"""Tests of the benchmark's own parts: the T_k generator and the span tracer.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import sys
import types
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tangleduct  # noqa: E402
from spans import Tracer  # noqa: E402
from tk import EXPECTED_KIND, GRAPHS, tk_star_ids  # noqa: E402


def brute_force_tk(system, graph) -> set[frozenset[int]]:
    """Every set of one to three members that is a star and whose small
    sides cover all vertices and all edges, by walking all triples."""
    u = system.universe
    index = {v: i for i, v in enumerate(graph.vertices)}
    edges = [(index[a], index[b]) for a, b in graph.edges]
    everything = set(range(len(graph.vertices)))
    seps = [m for m in system.members if not u.is_degenerate_id(m)]
    out = set()
    for size in (1, 2, 3):
        for combo in combinations(seps, size):
            if not tangleduct.is_star(u.sep(i) for i in combo):
                continue
            sides = [tangleduct.side_masks(u.sep(i))[0] for i in combo]
            vertices = {v for a in sides for v in everything if a >> v & 1}
            covered = all(any(a >> x & 1 and a >> y & 1 for a in sides) for x, y in edges)
            if vertices == everything and covered:
                out.add(frozenset(combo))
    return out


@pytest.mark.parametrize("graph,k", [("P3", 2), ("P3", 3), ("K4", 3), ("K4", 4)])
def test_tk_matches_brute_force(graph, k):
    g = tangleduct.GraphInput.parse(GRAPHS[graph])
    system = tangleduct.graph_separations(g, k)
    stars = tk_star_ids(system, g)
    assert len(stars) == len(set(stars))
    assert set(stars) == brute_force_tk(system, g)


@pytest.mark.parametrize("graph,k", [("P3", 2), ("P3", 3), ("K4", 3), ("K4", 4), ("K5", 4), ("C5", 3)])
def test_expected_kind_on_small_graphs(graph, k):
    from tk import tk_family

    g = tangleduct.GraphInput.parse(GRAPHS[graph])
    system = tangleduct.graph_separations(g, k)
    cert = tangleduct.strong_duality(system, tk_family(system, g))
    assert cert.kind == EXPECTED_KIND[(graph, k)]


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.names, tr.parents = ["outer", "inner", "inner"], [-1, 0, 0]
    tr.starts, tr.ends = [0.0, 1.0, 5.0], [10.0, 4.0, 6.0]
    summary = tr.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_recursive_span_counts_inclusive_time_once():
    tr = Tracer()
    tr.names, tr.parents, tr.starts, tr.ends = ["f", "f"], [-1, 0], [0.0, 2.0], [10.0, 5.0]
    assert tr.summary()["f"] == {"calls": 2, "total_s": 10.0, "self_s": 10.0}


def test_wrap_spans_calls_and_restores():
    module = types.SimpleNamespace(double=lambda x: 2 * x)
    original = module.double
    tr = Tracer()
    seen = []
    tr.wrap(module, "double", "m.double", seen.append)
    tr.wrap(module, "gone", "m.gone")
    assert module.double(3) == 6 and tr.names == [] and seen == []
    tr.recording = True
    with tr.span("outer"):
        assert module.double(4) == 8
    assert (tr.names, tr.parents) == (["outer", "m.double"], [-1, 0])
    assert seen == [8]
    assert tr.absent == {"m.gone"}
    tr.unwrap_all()
    assert module.double is original
