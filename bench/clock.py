"""Wall time scaled to a fixed reference speed.

The machine the benchmark is meant for shares its cores with other work:
the same pure-Python loop can run at half speed for tens of seconds, and
back-to-back runs of one instance differ by half.  So while a timeline
runs, an interval timer interrupts the program every ``SAMPLE_EVERY_S``
seconds and times a fixed reference kernel (dict, set and frozenset work,
like the program's inner loops).  Between two samples the machine is taken
to run at the mean of their kernel times, and a stretch of program time is
scaled by ``REF_NOMINAL_S / kernel``: it becomes the time the stretch would
have taken had the kernel run in ``REF_NOMINAL_S``.  The kernel is
benchmark code, so a change to the program moves scaled and raw times
alike; only the machine's speed is divided out.

Time spent sampling is excluded: ``now`` is ``perf_counter`` minus all
sampling so far, and every interval is measured on that clock.  The timer
is a signal in the one thread of the process: no thread or process starts.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_NOMINAL_S = 0.001
SAMPLE_EVERY_S = 0.02


def _kernel() -> int:
    table = {}
    seen = set()
    for i in range(2000):
        table[i & 255] = frozenset((i, i + 1))
        seen.add(i * 7 % 1009)
    return len(table) + len(seen)


class Clock:
    def __init__(self) -> None:
        self.kernel_s: list[float] = []  # every sample taken, for the report
        self._edges: list[float] = []  # sample times on the ``now`` clock
        self._speeds: list[float] = []  # kernel time of each sample
        self._sampling = 0.0
        self._busy = False

    def now(self) -> float:
        return time.perf_counter() - self._sampling

    def _sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        _kernel()
        self._edges.append(start - self._sampling)
        self._speeds.append(time.perf_counter() - start)
        self.kernel_s.append(self._speeds[-1])
        self._sampling += time.perf_counter() - start
        self._busy = False

    def start(self) -> None:
        """Begin a timeline: sample now, then every ``SAMPLE_EVERY_S``."""
        self._edges, self._speeds = [], []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        """End the timeline with a last sample; ``scaled`` covers it all.

        Each sample is replaced by the median of itself and its neighbours,
        so that one interrupted kernel run does not skew its stretch.
        """
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        raw = self._speeds
        self._speeds = [statistics.median(raw[max(0, i - 1):i + 2]) for i in range(len(raw))]

    def scaled(self, a: float, b: float) -> float:
        """Seconds at the reference speed between ``now`` readings a <= b
        taken inside the last timeline."""
        edges, speeds = self._edges, self._speeds
        total = 0.0
        i = max(0, bisect.bisect_right(edges, a) - 1)
        while i + 1 < len(edges) and edges[i] < b:
            lo, hi = max(a, edges[i]), min(b, edges[i + 1])
            if hi > lo:
                total += (hi - lo) * REF_NOMINAL_S * 2 / (speeds[i] + speeds[i + 1])
            i += 1
        return total
