"""Host speed, measured alongside the verdicts, to normalise their times.

On a shared virtual machine the speed of the host drifts by tens of
percent between and within runs, and CPU time drifts with wall time, so
raw timings of identical code do not repeat. Two fixed kernels that do
not touch licflow are timed in short samples spread over the measured
loop: an integer loop (interpreter dispatch) and a table build and sort
(allocation, hashing). A kernel's median over a span of samples (the
whole run, or the samples around one verdict), divided by its reference
time, is its slowdown; the host factor is the geometric mean of the
two. A time divided by that factor reads in
reference-host seconds; raw times are printed next to it.

Inside the child, samples are taken from a SIGALRM handler every
`INTERVAL_S`, so they also land inside long verdicts. The handler runs
between bytecodes of the main thread and changes nothing licflow sees;
callers subtract `spent` from the times they measure. Sampling must not
run concurrently with another busy process: on a 2-vCPU KVM guest the
two vCPUs slowed each other down by a factor of two to three.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter


def _loop() -> int:
    total = 0
    for i in range(60000):
        total += i * i % 7
    return total


def _table() -> int:
    # Small tables, so that sampling adds little to the peak memory reported.
    size = 0
    for _ in range(4):
        table: dict[tuple[str, int], list[int]] = {}
        for i in range(2000):
            table.setdefault(("w%d" % (i % 251), i % 13), []).append(i)
        size += len(sorted(table, key=lambda k: (k[1], k[0])))
    return size


# Seconds per call at the reference speed: the fast phase of a 2-vCPU
# Xeon (Sapphire Rapids) KVM guest with Python 3.11.
KERNELS = ((_loop, 0.0048), (_table, 0.0077))

# One sample of both kernels takes about 12.5 ms, so sampling costs
# about 5% of the loop's time.
INTERVAL_S = 0.25


class HostSpeed:
    def __init__(self) -> None:
        self.at: list[float] = []
        self.samples: list[tuple[float, ...]] = []
        self.spent = 0.0

    def sample(self) -> None:
        # Garbage collection would make the kernels' time depend on how
        # many objects the measured program keeps alive.
        enabled = gc.isenabled()
        gc.disable()
        try:
            at = perf_counter()
            times = []
            for kernel, _ in KERNELS:
                started = perf_counter()
                kernel()
                times.append(perf_counter() - started)
            self.at.append(at)
            self.samples.append(tuple(times))
            self.spent += sum(times)
        finally:
            if enabled:
                gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextmanager
    def sampling(self):
        """Sample every `INTERVAL_S` of wall time until the block ends."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        """No samples inside the block, for work whose spans must stay clean.

        The time left to the next sample is kept, so that blocks shorter
        than `INTERVAL_S` do not starve the sampling between them.
        """
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, remaining or INTERVAL_S, INTERVAL_S)

    def factor(
        self, start: float | None = None, end: float | None = None, margin: float = 2 * INTERVAL_S
    ) -> float:
        """How many times slower than the reference the host ran.

        Over the whole run, or over the samples from `start` to `end`
        widened by `margin` on each side. A verdict's own factor
        matters for short verdicts: the median verdict counts verdicts,
        and more of them fit in the host's fast spells, while samples
        come at a fixed rate.
        """
        if not self.samples:
            self.sample()
        chosen = self.samples
        if start is not None:
            lo = bisect_left(self.at, start - margin)
            hi = bisect_right(self.at, end + margin)
            chosen = self.samples[lo:hi] or self.samples
        return math.exp(
            statistics.fmean(
                math.log(statistics.median(times) / reference)
                for times, (_, reference) in zip(zip(*chosen), KERNELS)
            )
        )
