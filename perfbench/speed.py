"""Machine-speed trace, used to report times at a fixed nominal machine speed.

On a shared virtual machine the same work can take 2.5x longer from one
second to the next, in phases lasting from one to tens of seconds, because
the host runs other guests on the same cores.  CPU time follows wall time
(the guest is slowed, not descheduled), so neither tells a slower program
from a busier host, and medians over a 24 s run spread by a third.

So the benchmark times a fixed kernel every PERIOD_S seconds, from a SIGALRM
handler that runs between the program's bytecodes, and converts each
measured interval to the time it would have taken at nominal speed: the
interval, less the time spent in the handler, times the mean over the samples
inside it of (nominal kernel time / measured kernel time).  The program's
code, inputs and outputs are untouched, and raw times stay in the run
record.

The probe is kept out of the program's way as far as one process can:

- it is timed by the CPU clock of its own thread, so time it waits for a core
  that the program's other threads or worker processes hold does not count
  as a slower machine;
- it runs once untimed before the timed run, so its data are in cache
  whatever the program did to the cache since the last sample (measured:
  cold, the "large" kernel ran 11% slower when the program streamed 16 MB
  between samples than when it touched 64 elements; warm, no slower);
- a window without a sample (work inside one C call that outlasts the
  period) takes the nearest sample on either side.

What remains, and what calibration therefore cannot judge, is a change that
alters how fast a core runs for everyone on it: work on both vCPUs when
they share a physical core or a cache with the probe, memory traffic that
takes bandwidth the probe also needs, or an instruction mix that changes the
core's clock.  Measured: the "small" kernel ran 19% slower, warm or cold,
when the program streamed 16 MB between samples than when it touched 64
elements, so a change that moves much work into long vectorized passes can
read faster calibrated than raw.  selftest.py measures two-process
parallelism against raw times.

A kernel tracks the host's slowdowns only of code of its own character, so
there are two: "small", an interpreter-bound loop over 64-element arrays like
the library's solver and step loops, and "large", streaming arithmetic and a
gather over 4096 x 10 arrays like the bandit episode kernel.
"""

from __future__ import annotations

import signal
import time

import numpy as np

import proctree

PERIOD_S = 0.025

_A = np.arange(64.0)
_B = np.ones(64)
_M = np.random.default_rng(0).random((4096, 10))
_W = np.ones(10)
_IDX = np.random.default_rng(1).integers(0, 10, 4096)


def _small() -> float:
    acc = 0.0
    for _ in range(75):
        acc += float((_A * 1.0001 + _B).sum())
    return acc


def _large() -> float:
    return float((_M * 1.0001 + _W).sum(axis=1)[_IDX].sum())


# kind -> (kernel, its warm thread-CPU time, measured inside the benchmark's
# rounds in the fast phases of a 2-vCPU x86-64 VM with Python 3.11 and numpy
# 2.4); calibrated times are seconds at that speed.
KERNELS = {"small": (_small, 150e-6), "large": (_large, 210e-6)}


class SpeedTrace:
    """Samples (start, handler seconds, speed) while started; SIGALRM, main thread.

    Each sample also reads the resident memory of the process tree, so that
    `tree_rss_peak` holds the largest sum over this process and its worker
    processes (0 while it has none).
    """

    def __init__(self, kind: str = "small"):
        self.kind = kind
        self.samples: list[tuple[float, float, float]] = []
        self.tree_rss_peak = 0

    def _tick(self, signum, frame) -> None:
        kernel, nominal = KERNELS[self.kind]
        t0 = time.perf_counter()
        kernel()
        c0 = time.thread_time()
        kernel()
        dt = time.thread_time() - c0
        self.tree_rss_peak = max(self.tree_rss_peak, proctree.tree_rss_bytes())
        self.samples.append((t0, time.perf_counter() - t0, nominal / max(dt, 1e-9)))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, start: float, end: float) -> tuple[float, float]:
        """(seconds spent in the handler, mean speed) over samples inside [start, end)."""
        inside = [(dt, sp) for t, dt, sp in self.samples if start <= t < end]
        if not inside:
            before = [sp for t, _, sp in self.samples if t < start][-1:]
            after = [sp for t, _, sp in self.samples if t >= end][:1]
            near = before + after
            return 0.0, sum(near) / len(near) if near else 1.0
        return sum(dt for dt, _ in inside), sum(sp for _, sp in inside) / len(inside)

    def calibrated(self, start: float, end: float, seconds: float | None = None) -> float:
        """Seconds the work of [start, end) takes at nominal speed.

        `seconds` is the measured quantity: wall time by default, or the CPU
        time over the same interval.  The handler's own time is removed first.
        """
        spent, speed = self.window(start, end)
        measured = end - start if seconds is None else seconds
        return max(measured - spent, 0.0) * speed
