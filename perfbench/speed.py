"""Machine-speed calibration for the kernel benchmark.

The shared virtual machines this benchmark runs on change speed by up to
1.5x for stretches of seconds to minutes, whatever runs on them.  A run
therefore times a fixed, kernel-free chunk of pure-Python work (small
tuples, recursion, dict lookups, string sorting: the kind of work the
kernel does) in short bursts between ops, outside every op's span.  Each
op's latency is scaled by ``REF_CHUNK_S`` over the median chunk time in a
window around the op, so it reads as milliseconds at one fixed machine
speed.  Nothing here calls the kernel, so a change to the kernel moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# Median chunk time of the reference speed: roughly the slow state of the
# 2-vCPU Xeon virtual machine the first baseline came from.  Only a scale.
REF_CHUNK_S = 0.0005
BURST = 4         # chunks per burst between ops
EVERY_S = 0.02    # at most one burst per this much time
WINDOW_S = 0.25   # bursts this far before an op's start or after its end count
SETUP_BURST = 20  # chunks before and after a timed set-up


def _tree(n: int, i: int):
    if n == 0:
        return ("v", i & 3)
    return ("c", n, _tree(n - 1, 3 * i + 1), _tree(n - 1, 7 * i + 2))


def chunk() -> None:
    seen: dict = {}
    for i in range(10):
        t = _tree(5, i)
        seen[t] = seen.get(t, 0) + 1
        sorted(str(x) for x in t[2:])


class Speed:
    """Chunk timings of one process, in the order they were taken."""

    def __init__(self):
        chunk()  # warm the interpreter's specialisation of the chunk
        chunk()
        self.times: list = []   # perf_counter at each chunk's start
        self.chunks: list = []  # each chunk's duration
        self._last = float("-inf")

    def burst(self, n: int = BURST) -> None:
        """n timed chunks, with the cyclic collector paused: chunks then
        neither time a collection nor move when the kernel's collections
        fall, which would make op latencies depend on when bursts ran."""
        clock = time.perf_counter
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                start = clock()
                chunk()
                self.times.append(start)
                self.chunks.append(clock() - start)
        finally:
            if enabled:
                gc.enable()
        self._last = clock()

    def maybe_burst(self) -> None:
        """A burst, unless one ran in the last ``EVERY_S``."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.burst()

    def factor(self, start: float, end: float) -> float:
        """REF_CHUNK_S over the median chunk time around [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return REF_CHUNK_S / statistics.median(self.chunks[lo:hi])
