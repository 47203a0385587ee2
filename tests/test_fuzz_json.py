"""Mutated JSON documents through ``cli.run``: never a traceback.

Valid system, family and certificate documents are mutated at random
places (a value replaced, nudged or deleted) and run through every
document-reading command in-process.  Whatever the mutation, the command
ends with exit code 0, 1 or 2; every failure is one ``error:`` or
``hypothesis unmet:`` line on stderr, except a certificate that reads well
but fails verification, which ``check-tree`` reports as ``"ok": false``.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from tangleduct import (
    StarFamily,
    Universe,
    standardize,
    strong_duality,
    system_to_json_dict,
    weak_duality,
)
from tangleduct.cli import RunConfig, run

COMMANDS = (
    "validate",
    "weak",
    "strong",
    "tangles",
    "check-tree",
    "essential-core",
    "essentialize",
)


def _envelope(system, stars, engine) -> dict:
    fam = standardize(StarFamily(system.universe, stars), system)
    return {
        "system": system_to_json_dict(system),
        "family": fam.to_json_dict(),
        "certificate": engine(system, fam).to_json_dict(),
    }


def _documents() -> list[dict]:
    cover2 = gen.full_cover_system(2)
    u = cover2.universe
    # the same order without set labels: once as the writer emits it, and
    # once in the older format whose join/meet triples the reader still checks
    bare = Universe(u.leq_matrix(), [u.inv_id(i) for i in range(len(u))]).to_json_dict()
    tabled = gen.add_tables(copy.deepcopy(bare))
    docs = [
        _envelope(cover2, (), strong_duality),  # tangle
        _envelope(cover2, [[0, 1], [0, 3]], strong_duality),  # tree
        _envelope(cover2, [[0, 1], [0, 3]], weak_duality),
    ]
    docs.append(dict(docs[1], system=tabled))
    docs.append(dict(docs[1], system=bare))
    return docs


DOCUMENTS = _documents()

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
)
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
NUDGES = (
    lambda x: x + 1 if isinstance(x, int) else x,
    lambda x: -x if isinstance(x, int) else x,
    lambda x: x + 0.5 if isinstance(x, int) else x,
    lambda x: float(x) if isinstance(x, int) else x,
    lambda x: 10**20 if isinstance(x, int) else x,
    str,
    lambda x: [x],
    lambda x: None,
    lambda x: True,
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        # walk down from the root, stopping at each level with chance 1/4
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = node[key]
        if parent is None:
            continue
        how = draw(st.integers(0, 2))
        if how == 0:
            parent[key] = draw(VALUES)
        elif how == 1:
            parent[key] = draw(st.sampled_from(NUDGES))(node)
        else:
            del parent[key]
    return doc


@settings(max_examples=200)
@given(
    mutated_documents(),
    st.sampled_from(COMMANDS),
    st.booleans(),
)
def test_mutated_documents_never_raise(tmp_path_factory, doc, command, auto_standardize):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(RunConfig(command, str(path), auto_standardize=auto_standardize))
    assert rc in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    elif lines:
        assert len(lines) == 1
        assert lines[0].startswith("error: " if rc == 1 else "hypothesis unmet: ")
    else:
        assert command == "check-tree" and rc == 1
        assert json.loads(out.getvalue())["ok"] is False
    assert "Traceback" not in err.getvalue()
