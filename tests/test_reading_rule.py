"""The library's whole-list reading of id lists against a per-entry reader.

Every single-point mutation of a document's family stars, set labels,
``leq`` pairs, join/meet triples, picks, and tree nodes, edges and
``alpha`` (an item replaced, deleted or appended, at any depth of the
list, or a key of ``inverse`` added or of ``alpha`` renamed) is read by
the library and by :mod:`reference_reader`, which reads one entry at a
time from the documented rules.  The library must raise
the same error type, message and witness, or return an object equal to
the reference's.  The cases after that pin what the whole-list check must
not lose: document order against canonical order, ``str(v)`` labels and
repeated ids.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

import gen
import reference_reader as ref
from tangleduct import (
    Certificate,
    FNotStars,
    StarFamily,
    Universe,
    standardize,
    strong_duality,
    system_from_json_dict,
    system_to_json_dict,
    weak_duality,
)
from tangleduct.cli import RunConfig, run

COVER2 = gen.full_cover_system(2)
U = COVER2.universe
N = len(U)  # 9 ids; 8 is degenerate, and {1, 2} and {3, 5} are not stars
FAMILY = standardize(StarFamily(U, [[0, 1], [0, 3]]), COVER2)

LABELLED = system_to_json_dict(COVER2)
WITH_LEQ = gen.add_leq(copy.deepcopy(LABELLED))
BARE = Universe(U.leq_matrix(), U.inverse_table()).to_json_dict(members=range(N))
TABLED = gen.add_tables(copy.deepcopy(BARE))
FAMILY_DOC = FAMILY.to_json_dict()
TREE_DOC = strong_duality(COVER2, FAMILY).to_json_dict()
EMPTY = standardize(StarFamily(U, ()), COVER2)
TANGLE_DOC = strong_duality(COVER2, EMPTY).to_json_dict()
ORIENTATION_DOC = weak_duality(COVER2, EMPTY).to_json_dict()

# ids and non-ids: JSON booleans, floats, strings, nested lists, ids out of
# range on both sides, and valid ids, so some mutants read well
IDS = [True, False, None, 1.5, 2.0, "1", [1], {}, -1, N, N + 7, 10**20, 0, 1, 3, N - 1]
# vertex names: outside the ground, the JSON integers 1 and 2 for the
# names "1" and "2", and the names themselves
VERTICES = ["zz", "", 1, 2, 3, None, True, 1.0, ["1"], "1", "2"]
DELETE = object()


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutants(doc: dict, path: tuple, leaves: list, depth: int, step: int = 1):
    """Every copy of ``doc`` with one point changed in the list or dict at
    ``path``: an item replaced by one of ``leaves`` or deleted, a leaf
    appended, or, down to ``depth`` levels, the same inside an item.  Only
    every ``step``-th item of the outer list is visited."""
    container = _at(doc, path)
    keys = list(container) if isinstance(container, dict) else range(0, len(container), step)
    for k in keys:
        for value in [*leaves, DELETE]:
            out = copy.deepcopy(doc)
            target = _at(out, path)
            if value is DELETE:
                del target[k]
            else:
                target[k] = copy.deepcopy(value)
            yield out
        if depth > 1 and isinstance(container[k], (list, dict)):
            yield from mutants(doc, (*path, k), leaves, depth - 1)
    if isinstance(container, list):
        for value in leaves:
            out = copy.deepcopy(doc)
            _at(out, path).append(copy.deepcopy(value))
            yield out


def renamed_keys(doc: dict, path: tuple):
    """Copies of ``doc`` with one key of the dict at ``path`` renamed."""
    for key in _at(doc, path):
        for new in ("x", "0->", "->1", "1-> 2", "1->2->3", "-1->0", "07->1", "00->1", "-0->1"):
            out = copy.deepcopy(doc)
            target = _at(out, path)
            target[new] = target.pop(key)
            yield out


def added_keys(doc: dict, path: tuple, keys: tuple):
    """Copies of ``doc`` with one of ``keys`` added to the dict at ``path``."""
    for key in keys:
        out = copy.deepcopy(doc)
        _at(out, path)[key] = 0
        yield out


def _system_view(system) -> tuple:
    u = system.universe
    return (
        type(u).__name__,
        u.leq_matrix().tolist(),
        u.inverse_table().tolist(),
        u.set_labels,
        u.ground,
        system.member_ids,
    )


def outcome(read, view, *args) -> tuple:
    try:
        out = read(*args)
    except Exception as exc:  # every error is compared, whatever its type
        return ("raised", type(exc), str(exc), getattr(exc, "witness", None))
    return ("read", view(out))


def _same(x):
    return x


SYSTEM = (system_from_json_dict, ref.read_system, _system_view)
FAMILY_READ = (
    lambda d: StarFamily.from_json_dict(U, d),
    lambda d: ref.read_family(U, d),
    lambda fam: fam.stars,
)
CERT = (
    lambda d: Certificate.from_json_dict(COVER2, d),
    lambda d: ref.read_certificate(COVER2, d),
    _same,
)

PARTS = {
    "family stars": (FAMILY_READ, lambda: mutants(FAMILY_DOC, ("stars",), IDS, 2)),
    "labels": (SYSTEM, lambda: mutants(LABELLED, ("labels",), VERTICES, 3)),
    "labels with leq": (SYSTEM, lambda: mutants(WITH_LEQ, ("labels",), VERTICES, 3, step=2)),
    "ground": (SYSTEM, lambda: mutants(LABELLED, ("ground",), VERTICES, 1)),
    "leq pairs, labelled": (SYSTEM, lambda: mutants(WITH_LEQ, ("leq",), IDS, 2, step=2)),
    "leq pairs, unlabelled": (SYSTEM, lambda: mutants(BARE, ("leq",), IDS, 2, step=2)),
    "join triples": (SYSTEM, lambda: mutants(TABLED, ("join",), IDS, 2, step=7)),
    "meet triples": (SYSTEM, lambda: mutants(TABLED, ("meet",), IDS, 2, step=7)),
    "elements": (SYSTEM, lambda: mutants(BARE, ("elements",), IDS, 1)),
    "inverse": (SYSTEM, lambda: mutants(LABELLED, ("inverse",), IDS, 1)),
    "inverse keys": (
        SYSTEM, lambda: added_keys(LABELLED, ("inverse",), (str(N), "15", "-0", "00", "x"))
    ),
    "members": (SYSTEM, lambda: mutants(LABELLED, ("members",), IDS, 1)),
    "tangle picks": (CERT, lambda: mutants(TANGLE_DOC, ("picks",), IDS, 1)),
    "orientation picks": (CERT, lambda: mutants(ORIENTATION_DOC, ("picks",), IDS, 1)),
    "tree nodes": (CERT, lambda: mutants(TREE_DOC, ("nodes",), IDS, 1)),
    "tree edges": (CERT, lambda: mutants(TREE_DOC, ("edges",), IDS, 2)),
    "tree alpha": (
        CERT,
        lambda: [*mutants(TREE_DOC, ("alpha",), IDS, 1), *renamed_keys(TREE_DOC, ("alpha",))],
    ),
}


@pytest.mark.parametrize("part", PARTS)
def test_single_point_mutations_read_as_the_reference(part):
    (library, reference, view), docs = PARTS[part]
    kinds = set()
    mismatches = []
    for doc in docs():
        got = outcome(library, view, doc)
        want = outcome(reference, view, doc)
        kinds.add(want[0])
        if got != want:
            mismatches.append((got, want))
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[0]}"
    # each part has mutants that raise
    assert "raised" in kinds


def test_valid_documents_read_as_the_reference():
    library, reference, view = SYSTEM
    for doc in (LABELLED, WITH_LEQ, BARE, TABLED):
        got = outcome(library, view, doc)
        assert got[0] == "read" and got == outcome(reference, view, doc)
    family = StarFamily.from_json_dict(U, FAMILY_DOC)
    assert family == ref.read_family(U, FAMILY_DOC) == FAMILY
    for doc in (TREE_DOC, TANGLE_DOC, ORIENTATION_DOC):
        assert Certificate.from_json_dict(COVER2, doc) == ref.read_certificate(COVER2, doc)


def _run(command: str, doc: dict, tmp_path) -> tuple[int, list[str]]:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run(RunConfig(command, str(path)))
    return rc, err.getvalue().splitlines()


@pytest.mark.parametrize("command", ["strong", "validate"])
def test_canonically_least_non_star_is_named_when_it_comes_last(command, tmp_path):
    # {3, 5} fails first in document order, {1, 2} first in canonical order
    stars = [[3, 5], [0, 1], [0, 3], [2, 1]]
    doc = {"system": LABELLED, "family": {"stars": stars}}
    assert _run(command, doc, tmp_path) == (1, ["error: family member [1, 2] is not a star"])
    with pytest.raises(FNotStars) as exc:
        StarFamily.from_json_dict(U, {"stars": stars})
    assert exc.value.witness == frozenset({1, 2})


def test_label_vertex_given_as_an_integer_reads_by_its_str(tmp_path):
    names = {"1": "11", "2": "12"}
    doc = copy.deepcopy(LABELLED)
    doc["ground"] = [names[g] for g in doc["ground"]]
    doc["labels"] = [[[names[v] for v in side] for side in label] for label in doc["labels"]]
    as_int = copy.deepcopy(doc)
    as_int["labels"][1][0] = [11]  # the label ({1}|{2}), its side {1} named by 11
    assert doc["labels"][1][0] == ["11"]
    want = system_from_json_dict(doc)
    got = system_from_json_dict(as_int)
    assert _system_view(got) == _system_view(want) == _system_view(ref.read_system(as_int))
    assert got.universe.set_labels == U.set_labels
    outputs = [_run("validate", d, tmp_path) for d in (doc, as_int)]
    assert outputs[0] == outputs[1] == (0, [])


def test_star_listing_an_id_twice_reads_as_the_set():
    assert StarFamily.from_json_dict(U, {"stars": [[1, 1], [0, 3, 0]]}) == StarFamily(
        U, [[1], [0, 3]]
    )
    with pytest.raises(FNotStars, match=r"family member \[8\] is not a star") as exc:
        StarFamily.from_json_dict(U, {"stars": [[0, 1], [8, 8]]})
    assert exc.value.witness == frozenset({8})
    # the second listing of an id outside the universe is not reached
    for stars, message in (
        ([[N, N]], f"star element {N} outside the universe"),
        ([[1, True, True]], r"star \[1, True, True\] holds a non-integer element True"),
    ):
        with pytest.raises(Exception, match=message):
            StarFamily.from_json_dict(U, {"stars": stars})


def test_constructor_reads_handles_and_numpy_ids_as_ids():
    fam = StarFamily(U, [[U.sep(1), np.int64(3)], (np.int32(0),), [True]])
    assert fam == StarFamily(U, [[1, 3], [0], [1]])
    with pytest.raises(IndexError, match=f"element id {N} outside"):
        StarFamily(U, [[np.int64(N)]])
