"""Benchmark for tangleduct: time to a verified certificate, end to end and
per layer, on one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: graph-build, rs-engine, random-census, json-roundtrip (see
``workloads.py`` and ``README.md``).  Everything runs in this one process,
with no threads and no subprocesses; the library is imported from
``src/`` beside this directory.

A run first times its set-up ``SETUP_REPEATS`` times and takes the median:
importing the program and the workload modules afresh, then generating the
inputs and writing fixtures.  Then it runs passes over the workload's
instances until the next pass would end after ``--seconds``.  Each
instance's pipeline is timed; the gate that checks its outputs runs between
instances, off the clock.  End-to-end times are scaled to a reference speed
(``clock.py``); the report gives the raw ones too.  With ``--trace 1`` the
passes alternate untraced and traced (at least one of each), and the traced
ones record spans around every call into a layer (``spans.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).  Lines before it are a readable report.  Spans and the
self-time table go to ``.bench_out/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from clock import REF_NOMINAL_S, Clock
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "instances_per_s": "1/s",
    "instance_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("graph-build", "rs-engine", "random-census", "json-roundtrip")

# Counts that depend only on the inputs: a traced run checks that they repeat
# exactly between its traced passes and between runs at one seed.
REPEATABLE = (
    "backends.closure_elements",
    "stree.stars",
    "duality.find_separator_calls",
    "duality.emulation_checks",
    "duality.shift_calls",
    "oracle.orientations",
)

# per-layer metric -> span name; inclusive seconds per traced pass
SPAN_SECONDS = {
    "backends.parse_s": "backends.parse",
    "backends.build_s": "backends.build",
    "core.tables_s": "core.tables",
    "core.universe_init_s": "core.universe_init",
    "core.derived_s": "core.derived",
    "core.from_json_s": "core.from_json",
    "core.to_json_s": "core.to_json",
    "stree.family_s": "stree.family",
    "stree.prune_s": "stree.prune",
    "stree.tighten_s": "stree.tighten",
    "stree.validate_s": "stree.validate",
    "duality.strong_s": "duality.strong",
    "duality.weak_s": "duality.weak",
    "duality.find_separator_s": "duality.find_separator",
    "duality.emulation_s": "duality.emulation",
    "duality.shift_s": "duality.shift",
    "duality.verify_s": "duality.verify",
    "oracle.census_s": "oracle.census",
    "oracle.cross_check_s": "oracle.cross_check",
    "essential.essentialize_s": "essential.essentialize",
    "essential.expand_s": "essential.expand",
    "cli.strong_s": "cli.strong",
    "cli.check_tree_s": "cli.check_tree",
}
# per-layer metric -> span name; self seconds (minus traced children) per pass
SPAN_SELF_SECONDS = {
    "backends.closure_s": "backends.build",
    "duality.strong_self_s": "duality.strong",
    "duality.find_separator_self_s": "duality.find_separator",
    "duality.shift_self_s": "duality.shift",
    "duality.verify_self_s": "duality.verify",
    "oracle.cross_check_self_s": "oracle.cross_check",
    "cli.strong_self_s": "cli.strong",
    "cli.check_tree_self_s": "cli.check_tree",
}
# per-layer metric -> span name; calls per pass
SPAN_CALLS = {
    "stree.prune_calls": "stree.prune",
    "stree.validate_calls": "stree.validate",
    "duality.find_separator_calls": "duality.find_separator",
    "duality.emulation_checks": "duality.emulation",
    "duality.shift_calls": "duality.shift",
}
# per-layer metrics counted by the pipeline or by a wrapper, per pass
COUNTED = (
    "backends.closure_elements",
    "backends.members",
    "stree.stars",
    "duality.tree_nodes",
    "duality.unmet",
    "oracle.orientations",
    "cli.output_bytes",
)


def _units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_per_separator")):
        return "ratio"
    return "count"


# (module, attribute, span): calls the program makes through these module
# attributes are spanned in traced passes
WRAPPED = (
    ("backends", "tables_from_masks", "core.tables"),
    ("backends", "Universe", "core.universe_init"),
    ("duality", "find_separator", "duality.find_separator"),
    ("duality", "emulates_for_family", "duality.emulation"),
    ("duality", "shift_stree", "duality.shift"),
    ("duality", "prune_to_irredundant", "stree.prune"),
    ("duality", "tighten_rooted", "stree.tighten"),
    ("duality", "validate_stree", "stree.validate"),
    ("duality", "verify_certificate", "duality.verify"),
    ("cli", "system_from_json_dict", "core.from_json"),
    ("oracle", "enumerate_orientations", "oracle.census"),
    ("oracle", "strong_duality", "duality.strong"),
)
# spans the pipeline also records, so they never go absent
PIPELINE_SPANS = {"core.from_json", "duality.strong"}


def install_wrappers(tr) -> None:
    def separator_found(result) -> None:
        if result is not None:
            tr.add("duality.separators_found")

    def census_size(result) -> None:
        tr.add("oracle.orientations", result.total)

    hooks = {"duality.find_separator": separator_found, "oracle.census": census_size}
    for module, attr, span in WRAPPED:
        tr.wrap(importlib.import_module(f"tangleduct.{module}"), attr, span, hooks.get(span))


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unmet: int = 0
    tracer: object = None


def run_pass(wl, traced: bool, clock: Clock, failures: list[str]) -> Pass:
    tr = Tracer(clock.now)
    p = Pass(traced=traced, tracer=tr)
    intervals: list[tuple[float, float, bool]] = []
    if traced:
        install_wrappers(tr)
    clock.start()
    try:
        for case in wl.cases:
            tr.recording = traced
            start = clock.now()
            try:
                out = wl.run(case, tr)
                error = None
            except Exception as exc:  # every program failure is counted, not fatal
                out, error = None, exc
            end = clock.now()
            tr.recording = False
            if error is None:
                try:
                    problems = wl.check(case, out)
                except Exception as exc:
                    problems, error = [f"gate raised {type(exc).__name__}: {exc}"], exc
            else:
                problems = [f"{type(error).__name__}: {error}"]
            p.attempted += 1
            intervals.append((start, end, not problems))
            if problems:
                p.failed += 1
                if len(failures) < 5:
                    failures.append(f"{case}: {'; '.join(problems)}")
                    if error is not None:
                        traceback.print_exception(error, file=sys.stderr)
            else:
                p.unmet += bool(getattr(out, "unmet", False))
            out = None  # free this instance's data before the next one runs
    finally:
        clock.stop()
        tr.recording = False
        tr.unwrap_all()
    for start, end, ok in intervals:
        scaled = clock.scaled(start, end)
        p.raw_wall_s += end - start
        p.wall_s += scaled
        if ok:
            p.times.append(scaled)
    return p


def pass_counts(p: Pass) -> dict[str, float]:
    """Per-layer counts and seconds of one traced pass, before averaging."""
    summary = p.tracer.summary()
    row = {}
    for metric, span in SPAN_SECONDS.items():
        row[metric] = summary.get(span, {}).get("total_s", 0.0)
    for metric, span in SPAN_SELF_SECONDS.items():
        row[metric] = summary.get(span, {}).get("self_s", 0.0)
    for metric, span in SPAN_CALLS.items():
        row[metric] = summary.get(span, {}).get("calls", 0)
    for metric in COUNTED:
        row[metric] = p.tracer.counts.get(metric, 0)
    row["duality.separators_found"] = p.tracer.counts.get("duality.separators_found", 0)
    return row


def absent_metrics(absent_spans: set[str]) -> list[str]:
    names = []
    for table in (SPAN_SECONDS, SPAN_SELF_SECONDS, SPAN_CALLS):
        names += [m for m, span in table.items() if span in absent_spans]
    if "duality.emulation" in absent_spans or "duality.find_separator" in absent_spans:
        names.append("duality.emulation_checks_per_separator")
    if "oracle.census" in absent_spans:
        names.append("oracle.orientations")
    return sorted(set(names))


def per_layer_metrics(rows: list[dict], traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    n = len(rows)
    metrics = {m: sum(r[m] for r in rows) / n for m in rows[0]}
    found = metrics.pop("duality.separators_found")
    metrics["duality.emulation_checks_per_separator"] = (
        metrics["duality.emulation_checks"] / found if found else 0.0
    )
    base = statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_frac"] = statistics.median(p.wall_s for p in traced) / base - 1.0
    return metrics


def source_digest() -> str:
    """Digest of the program and benchmark sources, keying the count records."""
    h = hashlib.sha256()
    for path in sorted(list((SRC / "tangleduct").rglob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeatable(workload: str, seed: int, rows: list[dict]) -> list[str]:
    """Counts must repeat between traced passes and between runs at one seed."""
    rows = [{m: row[m] for m in REPEATABLE} for row in rows]
    problems = [
        f"counts differ between traced passes: {rows[0]} vs {row}"
        for row in rows[1:]
        if row != rows[0]
    ]
    record = OUT / "counts.json"
    try:
        seen = json.loads(record.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        seen = {}
    key = f"{workload} seed={seed} source={source_digest()}"
    if key in seen and seen[key] != rows[0]:
        problems.append(f"counts differ from an earlier run: {seen[key]} vs {rows[0]}")
    seen[key] = rows[0]
    record.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return problems


def write_trace(workload: str, seed: int, traced: list[Pass], metrics, absent) -> Path:
    summary: dict[str, dict[str, float]] = {}
    for p in traced:
        for name, row in p.tracer.summary().items():
            acc = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k] / len(traced)
    doc = {
        "workload": workload,
        "seed": seed,
        "per_pass": summary,
        "metrics": metrics,
        "absent": absent,
        "passes": [
            {"names": p.tracer.names, "parents": p.tracer.parents,
             "starts": p.tracer.starts, "ends": p.tracer.ends}
            for p in traced
        ],
    }
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def fresh_import():
    """Import the program and the benchmark's workload modules anew.

    Later set-up repetitions read the bytecode the first one cached, as a
    user's second run would.  The objects of the last import are the ones
    the timed passes use.
    """
    for name in list(sys.modules):
        if name in ("tangleduct", "workloads", "tk") or name.startswith("tangleduct."):
            del sys.modules[name]
    return importlib.import_module("workloads")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tangleduct" / "__init__.py").is_file():
        print(f"error: no tangleduct sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (the program's dependency, loaded once, untimed)

    clock = Clock()
    OUT.mkdir(exist_ok=True)
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        clock.start()
        start = clock.now()
        try:
            workloads = fresh_import()
            wl = workloads.make(args.workload)
            wl.prepare(args.seed, OUT)
        except ImportError as exc:
            print(f"error: cannot import the program: {exc}", file=sys.stderr)
            return 2
        finally:
            end = clock.now()
            clock.stop()
        raw_setups.append(end - start)
        setups.append(clock.scaled(start, end))

    passes: list[Pass] = []
    failures: list[str] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(wl, bool(args.trace) and len(passes) % 2 == 1, clock, failures))
        took = time.perf_counter() - t0
        missing = args.trace and len({p.traced for p in passes}) < 2
        if not missing and time.perf_counter() - start + took > args.seconds:
            break

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    times = [t for p in untraced for t in p.times]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "instances_per_s": len(times) / sum(p.wall_s for p in untraced),
        "instance_p50_ms": 1000 * statistics.median(times) if times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(wl.cases)} instances")
    print(f"attempted {attempted}, failed {failed} (failed_frac {failed / attempted:.4g}), "
          f"unmet hypothesis {sum(p.unmet for p in passes)}")
    for line in failures:
        print(f"FAILED {line}")
    kernel = clock.kernel_s
    print(f"reference kernel: median {1000 * statistics.median(kernel):.4f} ms over "
          f"{len(kernel)} samples (range {1000 * min(kernel):.4f}-{1000 * max(kernel):.4f} ms); "
          f"times below are scaled to {1000 * REF_NOMINAL_S:g} ms")
    print(f"raw: set-up {', '.join(f'{x:.4f}' for x in raw_setups)} s; untraced pass wall "
          f"{', '.join(f'{p.raw_wall_s:.4f}' for p in untraced)} s")
    for name, value in end_to_end.items():
        print(f"  {name:24s} {value:.6g} {E2E_UNITS[name]}")
    print(f"  instance samples         {len(times)}")
    if len(times) * 0.01 >= 10:
        print(f"  instance_p99_ms          {1000 * percentile(times, 0.99):.6g} ms "
              f"({len(times)} samples)")
    else:
        print(f"  instance_p99_ms          not reported: {len(times)} samples, "
              f"fewer than ten beyond the 99th percentile")

    correct = failed == 0 and bool(times)
    if not args.trace:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in end_to_end.items()}
    else:
        rows = [pass_counts(p) for p in traced]
        layer = per_layer_metrics(rows, traced, untraced)
        absent_spans = set().union(*(p.tracer.absent for p in traced)) - PIPELINE_SPANS
        absent = absent_metrics(absent_spans)
        for name in absent:
            print(f"  absent: {name} (its function is gone from the program)")
        repeat_problems = check_repeatable(args.workload, args.seed, rows)
        for line in repeat_problems:
            print(f"NOT REPEATABLE {line}")
        correct = correct and not repeat_problems
        path = write_trace(args.workload, args.seed, traced, layer, absent)
        print(f"per-layer metrics per traced pass, raw seconds "
              f"(spans in {path.relative_to(ROOT)}):")
        for name, value in layer.items():
            print(f"  {name:40s} {value:.6g} {_units(name)}")
        summary = json.loads(path.read_text(encoding="utf-8"))["per_pass"]
        top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:6]
        print("largest self times per traced pass: " + ", ".join(
            f"{name} {row['self_s']:.4g} s" for name, row in top))
        metrics = {k: {"value": v, "unit": _units(k)} for k, v in layer.items()}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
