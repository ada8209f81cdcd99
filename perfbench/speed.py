"""Machine-speed probe that scales timings to one reference speed.

The 2-core machine this benchmark was built on shares its host.  The same
code runs up to twice as slow, for stretches from seconds to minutes.
Process CPU time grows along with wall time, so a process cannot see the
slowdown by itself.  A fixed pure-Python kernel, timed in the same process
next to the measured work, slows down with it.  So each timing is
multiplied by REFERENCE_S / (kernel time).  The result is the time at the
speed where the kernel takes REFERENCE_S, close to this machine's speed
when it is undisturbed.
"""

from __future__ import annotations

import threading
from time import perf_counter

REFERENCE_S = 0.00034
PERIOD_S = 0.05


def _kernel() -> dict:
    acc: dict = {}
    for i in range(1500):
        key = (i % 13, i % 7, i % 5)
        acc[key] = (acc.get(key, 0) + i * 3) % 7
    return acc


def probe() -> tuple:
    """(fastest of three kernel runs, total time the probe took), seconds."""
    begin = perf_counter()
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best, perf_counter() - begin


class Sampler:
    """Probes at entry, at exit and every PERIOD_S in between, on a thread of
    the measuring process; the interpreter lock makes each probe run between
    slices of the measured work."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _take(self):
        best, spent = probe()
        self.samples.append(best)
        self.spent += spent

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            self._take()

    def __enter__(self):
        self._take()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._take()
