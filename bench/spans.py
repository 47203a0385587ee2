"""In-memory spans for the benchmark's traced run.

Span i has ``names[i]``, ``parents[i]``, ``starts[i]`` and ``ends[i]``, kept
in four flat lists so that recording adds no containers for the garbage
collector to walk.  The parent is the span that was open when it began, so
nested calls give each span's self time (its duration minus the part its
children cover).

Spans come from two places, both in the benchmark's own files: ``span``
blocks around the pipeline's calls into each module, and ``wrap``, which
replaces a module attribute with a timing shim for the duration of a
traced pass.  Calls the program makes through that attribute (module
globals resolve at call time) are then spanned too, without editing the
program.

When ``recording`` is off, ``span`` and the shims record nothing, so the
same pipeline code serves the untraced and the traced passes.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, now=time.perf_counter) -> None:
        self.now = now
        self.recording = False
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str):
        if not self.recording:
            return None
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(self.now())
        return idx

    def end(self, idx) -> None:
        if idx is not None:
            self.ends[idx] = self.now()
            self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def add(self, name: str, n: int = 1) -> None:
        if self.recording:
            self.counts[name] += n

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Span every call through ``module.attr`` as ``name``.

        A missing attribute is recorded in ``absent`` and skipped, so the
        benchmark keeps running when the program renames or removes it.
        ``on_result`` sees each return value of a recorded call.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.add(name)
            return
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if idx is not None and on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function reached again from inside itself is not counted twice.
        """
        names, parents = self.names, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(names)
        for parent, duration in zip(parents, durations):
            if parent >= 0:
                child_time[parent] += duration
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, name in enumerate(names):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += durations[i] - child_time[i]
            p = parents[i]
            while p >= 0 and names[p] != name:
                p = parents[p]
            if p < 0:
                row["total_s"] += durations[i]
        return dict(out)
