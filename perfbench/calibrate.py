"""Host-speed calibration for the end-to-end timings.

The shared host this benchmark runs on changes speed by up to 2x over
minutes, and a pass cannot average that out.  So while an untraced pass
runs, a fixed computation that uses only the standard library (``kernel``:
``Fraction`` row reduction and dict updates, the kind of work that dominates
the program's profiles) is timed every ``period`` seconds from a SIGALRM
handler, in the same thread as the requests.  run.py divides each
request's time by the mean kernel time around it and multiplies by
``REFERENCE_S``, which reports every timing at one fixed host speed: the
speed at which the kernel takes ``REFERENCE_S`` seconds.

The handler's own time is subtracted from the request it interrupted.  The
kernel touches no state of the program, so outputs are unchanged (the
self-test compares them with a pass that runs no sampler).
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

# Kernel time at the reference speed (its median on a 2-vCPU Intel Xeon
# virtual machine, Python 3.11.7).  Only a scale: it is never re-measured.
REFERENCE_S = 0.0025


def kernel() -> None:
    n = 7
    m = [[Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + 2 * j) % 5) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    d: dict = {}
    for i in range(3000):
        k = (i * 31) % 211
        d[k] = d.get(k, 0) + i


class Sampler:
    """Times ``kernel`` on demand and, once started, every ``period`` seconds."""

    def __init__(self, period: float):
        self.period = period
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self.spent = 0.0                                # time inside sample()

    def sample(self, *_signal_args) -> None:
        entered = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            self.samples.append((start, perf_counter() - start))
        finally:
            if collecting:
                gc.enable()
            self.spent += perf_counter() - entered

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
