"""Host-speed sampling, so host times from a drifting shared host compare.

On a shared host the speed at which this process runs Python changes
by up to ~1.9x, both within a second and over minutes (other tenants
on the same physical cores; CPU time tracks wall time, so it is not
scheduling).  A fixed pure-Python kernel, frozen here and independent
of the program under test, is timed from a ``SIGALRM`` handler every
:data:`INTERVAL_S` of wall time while a timed section runs.  Each
sample gives the host speed at that moment as
``REFERENCE_KERNEL_S / kernel seconds``.

A section's *reference seconds* are its host seconds minus the time
the kernel itself took, times the mean sampled speed: how long the
section would have taken at the speed where the kernel runs in
:data:`REFERENCE_KERNEL_S`.  Samples are evenly spaced in wall time,
so the mean speed weights every moment of the section equally.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
"""Wall-clock spacing of speed samples (the kernel costs ~3% of it)."""

REFERENCE_KERNEL_S = 0.0006
"""Kernel time at the reference speed: about the kernel's time on an
unloaded 2-vCPU x86-64 host running CPython 3.11."""


class _Line:
    __slots__ = ("hits",)

    def __init__(self) -> None:
        self.hits = 0

    def touch(self, k: int) -> int:
        self.hits += k
        return self.hits


class Kernel:
    """Interpreter-bound work shaped like the simulator's: a small LRU
    set-associative lookup, dict lookups, attribute updates and method
    calls on small objects, integer arithmetic.

    Its state is built once, so a sample allocates no tracked objects:
    a sample that fed the garbage collector would shift collections in
    the program under test and with them its timing and peak memory.
    """

    N_TAGS = 1024

    def __init__(self) -> None:
        self.sets: list[list[int]] = [[] for _ in range(64)]
        self.lines = {tag: _Line() for tag in range(self.N_TAGS)}

    def run(self, n: int = 1200) -> int:
        sets = self.sets
        lines = self.lines
        x = 12345
        total = 0
        for _ in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            tag = (x >> 8) & 0x3FF
            ways = sets[tag & 63]
            if tag in ways:
                ways.remove(tag)
            elif len(ways) >= 4:
                ways.pop(0)
            ways.append(tag)
            total += lines[tag].touch(1 if tag & 1 else 2)
        return total


class SpeedSampler:
    """Context manager: samples host speed during the ``with`` body."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._kernel = Kernel()
        self._kernel.run()  # first touch, so every sample runs warm state
        self._previous = None

    def _time_kernel(self) -> float:
        started = time.perf_counter()
        self._kernel.run()
        return time.perf_counter() - started

    def _sample(self, signum, frame) -> None:
        self.samples.append(self._time_kernel())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_seconds(self) -> float:
        """Host seconds the kernel itself took inside the section."""
        return sum(self.samples)

    def speed(self) -> float:
        """Mean sampled speed (1.0 = reference speed)."""
        # A section shorter than one interval has no sample: take one now.
        samples = self.samples or [self._time_kernel()]
        return statistics.fmean(REFERENCE_KERNEL_S / k for k in samples)

    def reference_seconds(self, host_seconds: float) -> float:
        """*host_seconds* of the sampled section, at reference speed."""
        return reference_seconds(host_seconds, self.kernel_seconds(), self.speed())


def reference_seconds(host_seconds: float, kernel_s: float, speed: float) -> float:
    return (host_seconds - kernel_s) * speed
