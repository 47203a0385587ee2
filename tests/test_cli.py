"""End-to-end runs of the command-line surface.

Most tests call ``run(RunConfig(...))`` in-process and read the output file;
determinism and stdin handling go through real subprocesses.
"""

import json
import random
import subprocess
import sys

import numpy as np
import pytest

import gen
from tangleduct import (
    Certificate,
    StarFamily,
    is_consistent,
    orientation_picks,
    standardize,
    system_from_json_dict,
    system_to_json_dict,
    verify_certificate,
)
from tangleduct.cli import RunConfig, _demo_family, main, parse_args, run

P3 = "a b\nb c\n"


@pytest.fixture()
def p3_setup(tmp_path):
    """Build the P3 order-<2 system plus demo family once per test."""
    graph = tmp_path / "p3.txt"
    graph.write_text(P3)
    env = tmp_path / "env.json"
    rc = run(RunConfig("graph-sk", str(graph), k=2, demo_family=True,
                       output_path=str(env)))
    assert rc == 0
    return tmp_path, env


def read_json(path):
    return json.loads(path.read_text())


class TestParseArgs:
    def test_full_flag_mapping(self):
        cfg = parse_args([
            "strong", "in.json", "--system", "s.json", "--family", "f.json",
            "-o", "out.json", "--k", "3", "--max-closure", "99",
            "--auto-standardize", "--format", "dot", "--demo-family",
        ])
        assert cfg == RunConfig(
            command="strong", input_path="in.json", system_path="s.json",
            family_path="f.json", output_path="out.json", k=3,
            max_closure=99, auto_standardize=True, fmt="dot",
            demo_family=True,
        )

    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit):
            parse_args(["solve", "in.json"])

    def test_main_exits_with_run_code(self, tmp_path):
        missing = tmp_path / "nowhere.json"
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(missing)])
        assert exc.value.code == 1


class TestGraphSk:
    def test_emits_loadable_system(self, p3_setup):
        tmp_path, env = p3_setup
        doc = read_json(env)
        system = system_from_json_dict(doc["system"])
        assert len(system.members) == 10
        assert doc["family"]["label"] == "demo"

    def test_k_is_required(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(P3)
        assert run(RunConfig("graph-sk", str(graph))) == 1

    def test_closure_cap_flag(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(P3)
        assert run(RunConfig("graph-sk", str(graph), k=2, max_closure=5)) == 1

    def test_negative_cap_is_one_error_line(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text(P3)
        assert run(parse_args(["graph-sk", str(graph), "--k", "2", "--max-closure", "-5"])) == 1
        assert capsys.readouterr().err == "error: max_closure must be non-negative\n"


class TestValidate:
    def test_summary_fields(self, p3_setup, capsys):
        _, env = p3_setup
        assert run(RunConfig("validate", str(env))) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert len(out["members"]) == 10
        assert out["trivial"] == [0, 2]
        assert out["family_standard"] is True

    def test_bad_json_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(RunConfig("validate", str(bad))) == 1
        assert capsys.readouterr().err


def _abstract_system_doc() -> dict:
    """cover2's tables as a universe without set labels, in the older format
    that lists the join and meet too."""
    from tangleduct import Universe

    u = gen.full_cover_system(2).universe
    inverse = [u.inv_id(i) for i in range(len(u))]
    return gen.add_tables(Universe(u.leq_matrix(), inverse).to_json_dict())


def _set(key, value):
    return lambda d: d.update({key: value})


def _recode(key, pred, recode):
    """Replace the first entry of ``d[key]`` matching ``pred`` by ``recode(entry)``.

    Most recodings keep the value Python's ``int`` reads, so a reader that
    coerced ids would accept the document silently.
    """

    def mutate(d):
        table = d[key]
        slots = table if isinstance(table, dict) else range(len(table))
        slot = next(i for i in slots if pred(table[i]))
        table[slot] = recode(table[slot])

    return mutate


def _swap_labels_beside_join(d):
    join = gen.join_columns(gen.full_cover_system(2).universe)
    d["join"] = [[r, s, int(v)] for (r, s), v in np.ndenumerate(join)]
    d["labels"][0], d["labels"][1] = d["labels"][1], d["labels"][0]


N2 = 9  # elements of cover2

MALFORMED = {
    "inverse null": (False, _recode("inverse", lambda v: True, lambda v: None)),
    "inverse float": (False, _recode("inverse", lambda v: True, float)),
    "inverse bool": (False, _recode("inverse", lambda v: v == 1, lambda v: True)),
    "leq string id": (False, _recode("leq", lambda e: True, lambda e: [e[0], "a"])),
    "leq string entry": (False, _recode("leq", lambda e: True, lambda e: "ab")),
    "leq float": (False, _recode("leq", lambda e: True, lambda e: [e[0], e[1] + 0.5])),
    "leq bool among ints": (
        False, _recode("leq", lambda e: e[0] == 1, lambda e: [True, e[1]])),
    "leq not a list": (False, _set("leq", 7)),
    "elements bool": (False, _recode("elements", lambda e: e == 1, lambda e: True)),
    "elements float": (False, _recode("elements", lambda e: e == 1, float)),
    "members string": (False, _set("members", [0, "a"])),
    "label unknown vertex": (
        False, _recode("labels", lambda e: True, lambda e: [["9"], e[1]])),
    "label not a pair": (False, _recode("labels", lambda e: True, lambda e: e[:1])),
    "label side null": (False, _recode("labels", lambda e: True, lambda e: [None, e[1]])),
    "ground not a list": (False, _set("ground", None)),
    "labels swapped beside a join": (False, _swap_labels_beside_join),
    "inverse off the labels": (False, _recode("inverse", lambda v: True, lambda v: 3)),
    "inverse past the end": (True, _recode("inverse", lambda v: True, lambda v: 10**20)),
    "inverse key past the end": (False, lambda d: d["inverse"].update({"15": 0})),
    "inverse key not an id": (True, lambda d: d["inverse"].update(x="junk")),
    "join negative id": (
        True, _recode("join", lambda e: True, lambda e: [e[0] - N2, e[1], e[2]])),
    "join negative value": (
        True, _recode("join", lambda e: True, lambda e: [e[0], e[1], e[2] - N2])),
    "join id past the end": (
        True, _recode("join", lambda e: True, lambda e: [e[0], N2, e[2]])),
    "meet bool": (True, _recode("meet", lambda e: e[1] == 1, lambda e: [e[0], True, e[2]])),
    "meet float": (True, _recode("meet", lambda e: True, lambda e: [e[0], e[1], e[2] + 0.5])),
    "join missing a pair": (True, lambda d: d["join"].pop()),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_system_is_one_error_line(case, tmp_path, capsys):
    abstract, mutate = MALFORMED[case]
    if abstract:
        doc = _abstract_system_doc()
    else:
        doc = system_to_json_dict(gen.full_cover_system(2))
        if case.startswith("leq"):
            gen.add_leq(doc)
    mutate(doc)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert run(RunConfig("validate", str(path))) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_wrong_join_triple_is_one_error_line(tmp_path, capsys):
    doc = _abstract_system_doc()
    r, s, v = doc["join"][1]
    doc["join"][1] = [r, s, (v + 1) % N2]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert run(RunConfig("validate", str(path))) == 1
    assert capsys.readouterr().err == "error: 'join' disagrees with the order at (0, 1)\n"


def test_labels_not_closed_under_flips_is_one_error_line(tmp_path, capsys):
    # ({x}|{x,y}) and ({x,y}|{y}), without their flips
    doc = {
        "elements": [0, 1],
        "inverse": {"0": 1, "1": 0},
        "ground": ["x", "y"],
        "labels": [[["x"], ["x", "y"]], [["x", "y"], ["y"]]],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert run(RunConfig("validate", str(path))) == 1
    err = capsys.readouterr().err
    assert err == "error: mask pool is not closed under flips\n"


def test_repeated_ground_name_is_one_error_line(tmp_path, capsys):
    # ({a}|{a,b}), ({b}|{a,b}) and their flips, over a ground naming "a" twice
    doc = {
        "elements": [0, 1, 2, 3],
        "inverse": {"0": 2, "1": 3, "2": 0, "3": 1},
        "ground": ["a", "a", "b"],
        "labels": [
            [["a"], ["a", "b"]],
            [["b"], ["a", "b"]],
            [["a", "b"], ["a"]],
            [["a", "b"], ["b"]],
        ],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert run(RunConfig("validate", str(path))) == 1
    err = capsys.readouterr().err
    assert err == "error: ground set has repeated vertex names\n"


def _tangle_envelope() -> dict:
    """cover2 with the empty standardized family and its tangle certificate."""
    from tangleduct import strong_duality

    system = gen.full_cover_system(2)
    fam = standardize(StarFamily(system.universe, ()), system)
    cert = strong_duality(system, fam)
    assert cert.kind == "tangle"
    return {
        "system": system_to_json_dict(system),
        "family": fam.to_json_dict(),
        "certificate": cert.to_json_dict(),
    }


def _one_error_line(capsys) -> None:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    """A document whose tables do not fit in memory ends in one error line,
    as numpy's allocation failure, a MemoryError, does on a large order."""

    def no_memory(n, items):
        raise MemoryError(f"Unable to allocate an order matrix of shape ({n}, {n})")

    monkeypatch.setattr("tangleduct.core._leq_from_pairs", no_memory)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(gen.add_leq(system_to_json_dict(gen.full_cover_system(2)))))
    assert run(RunConfig("validate", str(path))) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: out of memory")
    assert "Traceback" not in err


def test_deep_system_is_answered(tmp_path):
    """The engines run their levels on an explicit stack: the system of
    every bipartition of 11 points (2,048 members, over a thousand levels)
    is answered by both, at the default recursion limit."""
    system, family = gen.bipartition_system(11)
    path = tmp_path / "deep.json"
    path.write_text(
        json.dumps({"system": system_to_json_dict(system), "family": family.to_json_dict()})
    )
    for command, kind in (("weak", "orientation"), ("strong", "tangle")):
        out = tmp_path / f"{command}.json"
        assert run(RunConfig(command, str(path), output_path=str(out))) == 0
        cert = Certificate.from_json_dict(system, read_json(out))
        assert cert.kind == kind
        assert verify_certificate(cert, system, family) == (True, ())


def test_deeply_nested_json_is_one_error_line(tmp_path):
    """A document nested deeper than the JSON decoder can recurse is
    malformed input, not a traceback."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000 + "]" * 200000)
    proc = subprocess.run(
        [sys.executable, "-m", "tangleduct", "validate", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert err == [f"error: {str(path)!r} nests its JSON too deeply to decode"]


FILE_ERRORS = (
    "output is a directory",
    "output directory missing",
    "validate non-UTF-8",
    "graph-sk non-UTF-8",
)


@pytest.mark.parametrize("case", FILE_ERRORS)
def test_file_errors_are_one_error_line(case, tmp_path, capsys):
    """An output file that cannot be opened, or an input that is not UTF-8
    text, ends in one error line."""
    graph = tmp_path / "p3.txt"
    graph.write_text(P3)
    binary = tmp_path / "bad.bin"
    binary.write_bytes(b"a b\n\xff\xfe\x80\n")
    config = {
        "output is a directory": RunConfig(
            "graph-sk", str(graph), k=2, output_path=str(tmp_path)
        ),
        "output directory missing": RunConfig(
            "graph-sk", str(graph), k=2, output_path=str(tmp_path / "missing" / "x.json")
        ),
        "validate non-UTF-8": RunConfig("validate", str(binary)),
        "graph-sk non-UTF-8": RunConfig("graph-sk", str(binary), k=2),
    }[case]
    assert run(config) == 1
    _one_error_line(capsys)


MALFORMED_PICKS = {
    "past the end": [1000000000],
    "negative": [-1],
    "string": ["x"],
    "float": [1.5],
    "bool": [True],
    "not a list": 3,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PICKS))
def test_malformed_picks_are_one_error_line(case, tmp_path, capsys):
    doc = _tangle_envelope()
    doc["certificate"]["picks"] = MALFORMED_PICKS[case]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert run(RunConfig("check-tree", str(path))) == 1
    _one_error_line(capsys)


def _tree_envelope() -> dict:
    """cover2 with a standardized two-star family and its tree certificate."""
    from tangleduct import strong_duality

    system = gen.full_cover_system(2)
    fam = standardize(StarFamily(system.universe, [[0, 1], [0, 3]]), system)
    cert = strong_duality(system, fam)
    assert cert.kind == "stree"
    return {
        "system": system_to_json_dict(system),
        "family": fam.to_json_dict(),
        "certificate": cert.to_json_dict(),
    }


def _relabel(recode):
    """Recode the first alpha label; most recodings keep what ``int`` reads."""

    def mutate(cert):
        key = sorted(cert["alpha"])[0]
        cert["alpha"][key] = recode(cert["alpha"][key])

    return mutate


def _rekey(recode):
    """Recode the first alpha key's string."""

    def mutate(cert):
        key = sorted(cert["alpha"])[0]
        cert["alpha"][recode(key)] = cert["alpha"].pop(key)

    return mutate


MALFORMED_TREES = {
    "label float": _relabel(lambda v: v + 0.5),
    "label integral float": _relabel(float),
    "label string": _relabel(str),
    "label bool": _relabel(lambda v: True),
    "label null": _relabel(lambda v: None),
    "label past the end": _relabel(lambda v: N2),
    "label negative": _relabel(lambda v: -1),
    "node float": _recode("nodes", lambda n: True, lambda n: n + 0.5),
    "node bool": _recode("nodes", lambda n: n == 1, lambda n: True),
    "node string": _recode("nodes", lambda n: True, str),
    "node null": _recode("nodes", lambda n: True, lambda n: None),
    "nodes not a list": _set("nodes", 4),
    "edge float": _recode("edges", lambda e: True, lambda e: [e[0], e[1] + 0.5]),
    "edge bool": _recode("edges", lambda e: e[1] == 1, lambda e: [e[0], True]),
    "edge string": _recode("edges", lambda e: True, lambda e: [e[0], str(e[1])]),
    "edge null": _recode("edges", lambda e: True, lambda e: [None, e[1]]),
    "edge not a pair": _recode("edges", lambda e: True, lambda e: e[:1]),
    "edges not a list": _set("edges", "01"),
    "alpha key float half": _rekey(lambda k: k.replace("->", ".0->", 1)),
    # the first key is "0->1": each spelling below names the same edge
    "alpha key leading zero": _rekey(lambda k: "0" + k),
    "alpha key negative zero": _rekey(lambda k: "-" + k),
    "alpha key padded half": _rekey(lambda k: " " + k),
    "alpha key without arrow": _rekey(lambda k: k.replace("->", "-", 1)),
    "alpha not an object": _set("alpha", [[0, 1, 5]]),
    "root_leaf float": _set("root_leaf", 1.0),
    "root_leaf bool": _set("root_leaf", True),
    "root_leaf string": _set("root_leaf", "1"),
    # a node or edge named twice, or an edge ending off the listed nodes
    "node listed twice": lambda cert: cert["nodes"].append(cert["nodes"][0]),
    "edge listed twice": lambda cert: cert["edges"].append(list(cert["edges"][0])),
    "edge listed both ways": lambda cert: cert["edges"].append(cert["edges"][0][::-1]),
    "edge endpoint not a node": lambda cert: cert["nodes"].pop(),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TREES))
def test_malformed_tree_is_one_error_line(case, tmp_path, capsys):
    doc = _tree_envelope()
    MALFORMED_TREES[case](doc["certificate"])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert run(RunConfig("check-tree", str(path))) == 1
    _one_error_line(capsys)


def test_well_formed_tree_envelope_checks(tmp_path, capsys):
    # the unmutated envelope the cases above start from verifies
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_tree_envelope()))
    assert run(RunConfig("check-tree", str(path))) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_picks_outside_the_system_fail_check_tree(tmp_path, capsys):
    """A tangle of the subsystem {1, 3} of cover2 plus the universe id 7,
    which is no member: read as ids, refused as an orientation."""
    from tangleduct import strong_duality

    system = gen.subsystem(gen.full_cover_system(2), [1])
    fam = standardize(StarFamily(system.universe, ()), system)
    cert = strong_duality(system, fam).to_json_dict()
    cert["picks"].append(7)
    doc = {"system": system_to_json_dict(system), "family": fam.to_json_dict(),
           "certificate": cert}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert run(RunConfig("check-tree", str(path))) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["problems"] == ["picks are not a full orientation of the system"]


MALFORMED_ENVELOPES = {
    "certificate not an object": _set("certificate", True),
    "certificate a list of pairs": _set("certificate", [["kind", "tangle"]]),
    "family not an object": _set("family", [[0]]),
    "transcript not a list": lambda d: d["certificate"].update(transcript=None),
    "verified not a bool": lambda d: d["certificate"].update(verified="no"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ENVELOPES))
def test_malformed_envelope_is_one_error_line(case, tmp_path, capsys):
    doc = _tangle_envelope()
    MALFORMED_ENVELOPES[case](doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(RunConfig("check-tree", str(path))) == 1
    _one_error_line(capsys)


MALFORMED_STARS = {
    "string element": [["a"]],
    "float element": [[1.5]],
    "bool element": [[True]],
    "star not a list": [3],
    "element past the end": [[9]],
}


@pytest.mark.parametrize("command", ["validate", "strong"])
@pytest.mark.parametrize("case", sorted(MALFORMED_STARS))
def test_malformed_family_is_one_error_line(case, command, tmp_path, capsys):
    doc = _tangle_envelope()
    doc["family"] = {"stars": MALFORMED_STARS[case]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(RunConfig(command, str(path))) == 1
    _one_error_line(capsys)


class TestStrongAndCheckTree:
    def test_pipeline_round_trip(self, p3_setup):
        tmp_path, env = p3_setup
        cert_path = tmp_path / "cert.json"
        assert run(RunConfig("strong", str(env),
                             output_path=str(cert_path))) == 0
        cert = read_json(cert_path)
        assert cert["kind"] == "stree"
        # certificates are bare, so check-tree takes the context by flag
        assert run(RunConfig("check-tree", str(cert_path),
                             system_path=str(env),
                             family_path=str(env))) == 0

    def test_check_tree_rejects_tampering(self, p3_setup, capsys):
        tmp_path, env = p3_setup
        cert_path = tmp_path / "cert.json"
        run(RunConfig("strong", str(env), output_path=str(cert_path)))
        doc = read_json(cert_path)
        system = system_from_json_dict(read_json(env)["system"])
        # relabel one edge involutively so the tree still parses
        key = sorted(doc["alpha"])[0]
        u, v = key.split("->")
        old = doc["alpha"][key]
        new = next(m for m in system.members
                   if m not in (old, system.universe.inv_id(old)))
        doc["alpha"][key] = new
        doc["alpha"][f"{v}->{u}"] = system.universe.inv_id(new)
        cert_path.write_text(json.dumps(doc))
        assert run(RunConfig("check-tree", str(cert_path),
                             system_path=str(env),
                             family_path=str(env))) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False and out["problems"]

    def test_nonstandard_family_is_exit_2(self, p3_setup, capsys):
        tmp_path, env = p3_setup
        doc = read_json(env)
        doc["family"] = {"stars": [[1]]}
        bare = tmp_path / "nonstd.json"
        bare.write_text(json.dumps(doc))
        assert run(RunConfig("strong", str(bare))) == 2
        assert "standard" in capsys.readouterr().err

    def test_auto_standardize_rescues_it(self, p3_setup, tmp_path):
        _, env = p3_setup
        doc = read_json(env)
        doc["family"] = {"stars": [[1]]}
        bare = tmp_path / "nonstd.json"
        bare.write_text(json.dumps(doc))
        out = tmp_path / "cert.json"
        assert run(RunConfig("strong", str(bare), output_path=str(out),
                             auto_standardize=True)) == 0
        assert run(RunConfig("check-tree", str(out),
                             system_path=str(bare), family_path=str(bare),
                             auto_standardize=True)) == 0

    def test_file_named_twice_is_parsed_once(self, p3_setup, tmp_path, monkeypatch):
        from tangleduct import cli

        _, env = p3_setup
        cert = tmp_path / "cert.json"
        assert run(RunConfig("strong", str(env), output_path=str(cert))) == 0
        reads = []
        real = cli._read_json
        monkeypatch.setattr(cli, "_read_json", lambda path: reads.append(path) or real(path))
        assert run(RunConfig("check-tree", str(cert), system_path=str(env),
                             family_path=str(env), output_path=str(tmp_path / "c"))) == 0
        assert sorted(reads) == sorted([str(cert), str(env)])

    def test_separate_system_and_family_files(self, p3_setup, capsys):
        tmp_path, env = p3_setup
        doc = read_json(env)
        sys_path = tmp_path / "sys.json"
        fam_path = tmp_path / "fam.json"
        sys_path.write_text(json.dumps(doc["system"]))
        fam_path.write_text(json.dumps(doc["family"]))
        assert run(RunConfig("strong", str(sys_path),
                             family_path=str(fam_path))) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "stree"


class TestInputKindsAndDot:
    def test_strong_tree_as_dot(self, p3_setup, capsys):
        _, env = p3_setup
        assert run(RunConfig("strong", str(env), fmt="dot")) == 0
        assert capsys.readouterr().out.startswith("graph stree {")

    def test_weak_orientation_as_dot_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_tangle_envelope()))
        assert run(RunConfig("weak", str(path), fmt="dot")) == 1
        err = capsys.readouterr().err
        assert err == "error: dot output needs a tree certificate; this one is 'orientation'\n"

    def test_check_tree_without_certificate_is_exit_1(self, p3_setup, capsys):
        _, env = p3_setup
        assert run(RunConfig("check-tree", str(env))) == 1
        err = capsys.readouterr().err
        assert err == "error: no certificate given (bundle one or pass it as input)\n"

    def test_bare_stars_input_is_the_family(self, p3_setup, capsys):
        tmp_path, env = p3_setup
        doc = read_json(env)
        sys_path = tmp_path / "sys.json"
        fam_path = tmp_path / "fam.json"
        sys_path.write_text(json.dumps(doc["system"]))
        fam_path.write_text(json.dumps(doc["family"]))
        assert "stars" in doc["family"] and "elements" not in doc["family"]
        assert run(RunConfig("strong", str(env))) == 0
        want = capsys.readouterr().out
        assert run(RunConfig("strong", str(fam_path), system_path=str(sys_path))) == 0
        assert capsys.readouterr().out == want

    def test_object_of_no_known_kind_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"nodes": [0, 1]}))
        assert run(RunConfig("validate", str(path))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot tell what this JSON object is: expected a system")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_top_level_array_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2]")
        assert run(RunConfig("validate", str(path))) == 1
        assert capsys.readouterr().err == f"error: {str(path)!r} must hold a JSON object\n"


class TestWeak:
    def test_weak_on_empty_family(self, p3_setup, tmp_path, capsys):
        _, env = p3_setup
        doc = read_json(env)
        doc["family"] = {"stars": []}
        bare = tmp_path / "empty.json"
        bare.write_text(json.dumps(doc))
        assert run(RunConfig("weak", str(bare))) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] in ("orientation", "stree")


class TestTangles:
    def test_one_line_per_orientation(self, p3_setup, capsys):
        _, env = p3_setup
        assert run(RunConfig("tangles", str(env))) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 32
        rows = [json.loads(ln) for ln in lines]
        assert all(set(r) == {"picks", "consistent", "avoiding", "tangle"}
                   for r in rows)
        assert sum(r["consistent"] for r in rows) == 4
        # demo family forbids everything here: no tangles at all
        assert not any(r["tangle"] for r in rows)
        for r in rows:
            assert r["tangle"] == (r["consistent"] and r["avoiding"])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lines_match_per_code_reference(self, tmp_path, capsys, seed):
        rng = random.Random(seed)
        base = gen.full_cover_system(3)
        system = gen.random_subsystem(rng, base, max_pairs=7)
        # stars drawn on the whole of cover3 may hold elements outside S
        stars = gen.random_family(rng, base, 6, standard=False).stars
        stars |= gen.random_family(rng, system, 6).stars
        fam = StarFamily(system.universe, stars)
        doc = {"system": system_to_json_dict(system), "family": fam.to_json_dict()}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run(RunConfig("tangles", str(path))) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 ** len(system.nondegenerate_reps)
        for code, line in enumerate(lines):
            picks = orientation_picks(system, code)
            consistent = is_consistent(picks, system)
            avoiding = not any(sigma <= set(picks) for sigma in fam.stars)
            assert json.loads(line) == {
                "picks": list(picks),
                "consistent": consistent,
                "avoiding": avoiding,
                "tangle": consistent and avoiding,
            }

    def test_chunked_output_is_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        base = gen.full_cover_system(3)
        system = gen.subsystem(base, base.nondegenerate_reps[:6])
        fam = gen.random_family(random.Random(4), system, 6)
        path = tmp_path / "doc.json"
        doc = {"system": system_to_json_dict(system), "family": fam.to_json_dict()}
        path.write_text(json.dumps(doc))
        assert run(RunConfig("tangles", str(path))) == 0
        whole = capsys.readouterr().out
        assert whole.count("\n") == 64
        # a budget of one cell lists one code a chunk: 64 one-line chunks,
        # to stdout and to a file
        monkeypatch.setattr("tangleduct.core._CHUNK", 1)
        assert run(RunConfig("tangles", str(path))) == 0
        assert capsys.readouterr().out == whole
        out = tmp_path / "out.jsonl"
        assert run(RunConfig("tangles", str(path), output_path=str(out))) == 0
        assert out.read_text() == whole


class TestEssentialCommands:
    def test_essential_core_matches_library(self, p3_setup, capsys):
        _, env = p3_setup
        assert run(RunConfig("essential-core", str(env))) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stars"] == [[], [1], [4], [6], [8]]

    def test_essentialize_emits_a_tree(self, p3_setup, capsys):
        tmp_path, env = p3_setup
        cert_path = tmp_path / "cert.json"
        run(RunConfig("strong", str(env), output_path=str(cert_path)))
        assert run(RunConfig("essentialize", str(cert_path),
                             system_path=str(env))) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nodes"]

    def test_dot_format_mentions_every_node(self, p3_setup, tmp_path, capsys):
        _, env = p3_setup
        cert_path = tmp_path / "cert.json"
        run(RunConfig("strong", str(env), output_path=str(cert_path)))
        capsys.readouterr()
        assert run(RunConfig("essentialize", str(cert_path),
                             system_path=str(env), fmt="dot")) == 0
        dot = capsys.readouterr().out
        assert dot.startswith("graph stree")

    def test_tangle_certificate_cannot_be_essentialized(self, tmp_path, capsys):
        from tangleduct import strong_duality, system_to_json_dict

        system = gen.full_cover_system(2)
        fam = standardize(StarFamily(system.universe, ()), system)
        cert = strong_duality(system, fam)
        assert cert.kind == "tangle"
        doc = {
            "system": system_to_json_dict(system),
            "certificate": cert.to_json_dict(),
        }
        p = tmp_path / "tangle.json"
        p.write_text(json.dumps(doc))
        assert run(RunConfig("essentialize", str(p))) == 1
        assert "tree" in capsys.readouterr().err
        # the same envelope renders fine for strong itself
        fam_doc = fam.to_json_dict()
        doc["family"] = fam_doc
        p.write_text(json.dumps(doc))
        assert run(RunConfig("strong", str(p))) == 0
        capsys.readouterr()


class TestDemoFamily:
    def test_demo_is_standard_and_improper(self, p3_s2):
        fam = _demo_family(p3_s2)
        assert fam.is_standard_for(p3_s2)
        from tangleduct.backends import is_improper

        u = p3_s2.universe
        for star in fam.stars:
            for s in star:
                assert (is_improper(u.sep(s))
                        or u.inv_id(s) in p3_s2.trivial_ids)


class TestSubprocess:
    def test_stdin_dash_and_determinism(self, p3_setup):
        tmp_path, env = p3_setup
        data = env.read_bytes()
        cmd = [sys.executable, "-m", "tangleduct", "strong", "-"]
        first = subprocess.run(cmd, input=data, capture_output=True)
        second = subprocess.run(cmd, input=data, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout and first.stdout

    def test_closed_pipe_exits_without_traceback(self, tmp_path):
        system = gen.full_cover_system(3)
        fam = standardize(StarFamily(system.universe, ()), system)
        doc = {"system": system_to_json_dict(system), "family": fam.to_json_dict()}
        path = tmp_path / "cover3.json"
        path.write_text(json.dumps(doc))
        # 8192 lines, far more than a pipe buffer holds: the writer is
        # still writing when the reader closes its end after one line
        proc = subprocess.Popen(
            [sys.executable, "-m", "tangleduct", "tangles", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert json.loads(proc.stdout.readline())["picks"]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert b"Traceback" not in err and b"Exception" not in err

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tangleduct", "validate", "/no/such/file"],
            capture_output=True,
        )
        assert proc.returncode == 1
        assert proc.stderr
