"""Command-line surface: parse inputs, run engines, emit and check certificates.

Commands
--------
validate        load and validate a system, print a summary
weak            family-avoiding orientation or tree certificate
strong          tangle or tree certificate (family must be standard)
tangles         full orientation census, one JSON object per line
check-tree      re-verify a certificate of any kind
essential-core  strip trivial orientations from a family
essentialize    trim a tree certificate down to an essential tree
graph-sk        build the order-< k separation system of a graph

Inputs are JSON documents; a document holding ``{"system": ..., "family":
..., "certificate": ...}`` bundles several at once, and ``--system`` /
``--family`` supply the missing pieces for bare inputs.  ``graph-sk`` reads
edge-list text instead (one ``u v`` edge or lone vertex per line).  All JSON
output is emitted with sorted keys and fixed separators, so identical inputs
produce byte-identical bytes.

Exit codes: 0 success, 1 malformed input or failed verification, 2 unmet
hypothesis (no separator, or a non-standard family without
``--auto-standardize``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, TextIO

from .backends import (
    DEFAULT_CLOSURE_CAP,
    GraphInput,
    graph_separations,
    is_improper,
)
from .core import SeparationSystem, system_from_json_dict, system_to_json_dict
from .duality import (
    Certificate,
    standardize,
    strong_duality,
    verify_certificate,
    weak_duality,
)
from .errors import (
    HypothesisFailure,
    InternalInvariant,
    MalformedInput,
    TangleductError,
)
from .essential import essential_core, essentialize_stree
from .oracle import _bits, _listing_chunks, enumerate_orientations
from .stree import StarFamily

@dataclass
class RunConfig:
    """One CLI invocation: a command plus its input paths and flags."""

    command: str
    input_path: str
    system_path: Optional[str] = None
    family_path: Optional[str] = None
    output_path: Optional[str] = None
    k: Optional[int] = None
    max_closure: Optional[int] = None
    auto_standardize: bool = False
    fmt: str = "json"
    demo_family: bool = False


def parse_args(argv: Optional[list[str]] = None) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="tangleduct",
        description="separation systems, tangles, and tree certificates",
    )
    parser.add_argument("command", choices=(*_COMMANDS, "graph-sk"))
    parser.add_argument("input_path", metavar="input",
                        help="input file path, or '-' for stdin")
    parser.add_argument("--system", dest="system_path", default=None,
                        help="system JSON when the input lacks one")
    parser.add_argument("--family", dest="family_path", default=None,
                        help="star family JSON when the input lacks one")
    parser.add_argument("-o", "--output", dest="output_path", default=None,
                        help="write here instead of stdout")
    parser.add_argument("--k", type=int, default=None,
                        help="order bound for graph-sk")
    parser.add_argument("--max-closure", type=int, default=None,
                        help="cap on the separations of the universe, members and their"
                             f" flips (default {DEFAULT_CLOSURE_CAP})")
    parser.add_argument("--auto-standardize", action="store_true",
                        help="add missing trivial-forcing stars for strong/check-tree")
    parser.add_argument("--format", dest="fmt", choices=("json", "dot"),
                        default="json")
    parser.add_argument("--demo-family", action="store_true",
                        help="graph-sk: bundle a demo star family with the system")
    return RunConfig(**vars(parser.parse_args(argv)))


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path!r} is not UTF-8 text: {exc}") from exc


def _read_json(path: str) -> dict:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedInput(f"{path!r} nests its JSON too deeply to decode") from exc
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path!r} must hold a JSON object")
    return doc


@dataclass
class _Documents:
    system: Optional[SeparationSystem] = None
    family_dict: Optional[dict] = None
    certificate_dict: Optional[dict] = None

    def family(self) -> Optional[StarFamily]:
        if self.family_dict is None:
            return None
        if self.system is None:
            raise MalformedInput("a family needs a system to live in")
        return StarFamily.from_json_dict(self.system.universe, self.family_dict)

    def certificate(self) -> Optional[Certificate]:
        if self.certificate_dict is None:
            return None
        if self.system is None:
            raise MalformedInput("a certificate needs a system to live in")
        if not isinstance(self.certificate_dict, dict):
            raise MalformedInput("a certificate must be a JSON object")
        d = dict(self.certificate_dict)
        if "kind" not in d:
            d["kind"] = "stree"  # bare tree JSON
        return Certificate.from_json_dict(self.system, d)


def _classify(doc: dict, docs: _Documents) -> None:
    """File one JSON object into the documents bundle by its keys."""
    if "system" in doc or "family" in doc or "certificate" in doc:
        if "system" in doc:
            docs.system = system_from_json_dict(doc["system"])
        if "family" in doc:
            docs.family_dict = doc["family"]
        if "certificate" in doc:
            docs.certificate_dict = doc["certificate"]
    elif "elements" in doc:
        docs.system = system_from_json_dict(doc)
    elif "kind" in doc or ("edges" in doc and "alpha" in doc):
        docs.certificate_dict = doc
    elif "stars" in doc:
        docs.family_dict = doc
    else:
        raise MalformedInput(
            "cannot tell what this JSON object is: expected a system "
            "('elements'), family ('stars'), certificate ('kind' or tree "
            "keys), or an envelope ('system'/'family'/'certificate')"
        )


def _load_documents(config: RunConfig) -> _Documents:
    # a file named twice (``--system x.json --family x.json``) is parsed
    # once; stdin is read afresh each time it is named
    parsed: dict[str, dict] = {}

    def read(path: str) -> dict:
        if path == "-":
            return _read_json(path)
        if path not in parsed:
            parsed[path] = _read_json(path)
        return parsed[path]

    docs = _Documents()
    _classify(read(config.input_path), docs)
    if config.system_path is not None:
        doc = read(config.system_path)
        docs.system = system_from_json_dict(doc.get("system", doc))
    if config.family_path is not None:
        doc = read(config.family_path)
        docs.family_dict = doc.get("family", doc)
    return docs


def _require_system(docs: _Documents) -> SeparationSystem:
    if docs.system is None:
        raise MalformedInput("no system given (bundle one or pass --system)")
    return docs.system


def _require_family(docs: _Documents) -> StarFamily:
    fam = docs.family()
    if fam is None:
        raise MalformedInput("no family given (bundle one or pass --family)")
    return fam


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@contextmanager
def _output(config: RunConfig) -> Iterator[TextIO]:
    """The ``-o`` file, opened for writing, or stdout (left open)."""
    if config.output_path is None or config.output_path == "-":
        yield sys.stdout
    else:
        try:
            fh = open(config.output_path, "w", encoding="utf-8")
        except OSError as exc:
            raise MalformedInput(f"cannot write {config.output_path!r}: {exc}") from exc
        with fh:
            yield fh


def _emit(config: RunConfig, text: str) -> None:
    with _output(config) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _emit_certificate(config: RunConfig, cert: Certificate) -> None:
    if config.fmt == "dot":
        if cert.tree is None:
            raise MalformedInput(
                "dot output needs a tree certificate; this one is "
                f"{cert.kind!r}"
            )
        _emit(config, cert.tree.to_dot())
    else:
        _emit(config, _dumps(cert.to_json_dict()))


def demo_family(system: SeparationSystem) -> StarFamily:
    """Bundled demo family: improper-separation singletons, standardized.

    Purely a source of end-to-end fixtures for graph systems; it makes no
    claim to match any classical family of interest.
    """
    u = system.universe
    singles = [
        [m]
        for m in system.members
        if not u.is_degenerate_id(m) and is_improper(u.sep(m))
    ]
    return standardize(StarFamily(u, singles), system)


def _cmd_validate(config: RunConfig, docs: _Documents) -> int:
    system = _require_system(docs)
    u = system.universe
    summary = {
        "ok": True,
        "elements": len(u),
        "members": list(system.members),
        "degenerate": sorted(system.degenerate_ids),
        "trivial": sorted(system.trivial_ids),
        "small": [m for m in system.members if u.sep(m).is_small],
        "nondegenerate_pairs": len(system.nondegenerate_reps),
    }
    fam = docs.family()
    if fam is not None:
        summary["family_stars"] = len(fam)
        summary["family_standard"] = fam.is_standard_for(system)
    _emit(config, _dumps(summary))
    return 0


def _cmd_weak(config: RunConfig, docs: _Documents) -> int:
    system = _require_system(docs)
    cert = weak_duality(system, _require_family(docs))
    _emit_certificate(config, cert)
    return 0


def _cmd_strong(config: RunConfig, docs: _Documents) -> int:
    system = _require_system(docs)
    cert = strong_duality(
        system, _require_family(docs), auto_standardize=config.auto_standardize
    )
    _emit_certificate(config, cert)
    return 0


def _cmd_tangles(config: RunConfig, docs: _Documents) -> int:
    system = _require_system(docs)
    family = _require_family(docs)
    census = enumerate_orientations(system, family)
    total = census.total
    c_bits = _bits(census.consistent_codes, total)
    a_bits = _bits(census.avoiding_codes, total)
    # every code once, in code order, with its two bits: one chunk of lines
    # is written at a time, so the 2**n lines are never all held at once
    at = 0
    with _output(config) as fh:
        for chunk in _listing_chunks(system, (1 << total) - 1):
            end = at + len(chunk)
            bits = zip(c_bits[at:end].tolist(), a_bits[at:end].tolist())
            fh.write("".join(
                _dumps(
                    {
                        "picks": list(picks),
                        "consistent": bool(c),
                        "avoiding": bool(a),
                        "tangle": bool(c and a),
                    }
                )
                + "\n"
                for picks, (c, a) in zip(chunk, bits)
            ))
            at = end
    return 0


def _cmd_check_tree(config: RunConfig, docs: _Documents) -> int:
    system = _require_system(docs)
    family = _require_family(docs)
    if config.auto_standardize:
        family = standardize(family.restricted_to(system), system)
    cert = docs.certificate()
    if cert is None:
        raise MalformedInput("no certificate given (bundle one or pass it as input)")
    ok, problems = verify_certificate(cert, system, family)
    _emit(config, _dumps({"ok": ok, "kind": cert.kind, "problems": list(problems)}))
    return 0 if ok else 1


def _cmd_essential_core(config: RunConfig, docs: _Documents) -> int:
    system = _require_system(docs)
    family = _require_family(docs)
    _emit(config, _dumps(essential_core(family, system).to_json_dict()))
    return 0


def _cmd_essentialize(config: RunConfig, docs: _Documents) -> int:
    system = _require_system(docs)
    cert = docs.certificate()
    if cert is None or cert.tree is None:
        raise MalformedInput("essentialize needs a tree certificate")
    trimmed = essentialize_stree(cert.tree)
    if config.fmt == "dot":
        _emit(config, trimmed.to_dot())
    else:
        _emit(config, _dumps(trimmed.to_json_dict()))
    return 0


def _cmd_graph_sk(config: RunConfig) -> int:
    if config.k is None:
        raise MalformedInput("graph-sk requires --k")
    graph = GraphInput.parse(_read_text(config.input_path))
    cap = DEFAULT_CLOSURE_CAP if config.max_closure is None else config.max_closure
    system = graph_separations(graph, config.k, max_closure=cap)
    doc = {"system": system_to_json_dict(system)}
    if config.demo_family:
        fam = demo_family(system)
        fam_dict = fam.to_json_dict()
        fam_dict["label"] = "demo"
        doc["family"] = fam_dict
    _emit(config, _dumps(doc))
    return 0


# the commands that read JSON documents; graph-sk reads edge-list text
_COMMANDS = {
    "validate": _cmd_validate,
    "weak": _cmd_weak,
    "strong": _cmd_strong,
    "tangles": _cmd_tangles,
    "check-tree": _cmd_check_tree,
    "essential-core": _cmd_essential_core,
    "essentialize": _cmd_essentialize,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        if config.command == "graph-sk":
            return _cmd_graph_sk(config)
        docs = _load_documents(config)
        if config.command not in _COMMANDS:
            raise MalformedInput(f"unknown command {config.command!r}")
        return _COMMANDS[config.command](config, docs)
    except InternalInvariant:
        raise
    except HypothesisFailure as exc:
        print(f"hypothesis unmet: {exc}", file=sys.stderr)
        return 2
    except TangleductError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a small document can ask for tables far larger than the memory
        detail = " ".join(str(exc).split())
        print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        return 1


def main(argv: Optional[list[str]] = None) -> None:
    try:
        code = run(parse_args(argv))
        # flush here, so a closed pipe raises inside this try
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``tangleduct tangles ... | head``): point
        # stdout at devnull, so the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
