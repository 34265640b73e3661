"""Machine-speed probe, used to scale op times to a reference speed.

On a shared host the same op's wall time swings by up to 1.5x from one
second to the next (other tenants on the same cores), and the host's speed
also drifts over minutes: both swings are larger than most layer changes.
So while ops run, a background thread times a fixed pure-Python task that
uses no curlsharp code every SAMPLE_INTERVAL_S, by its own CPU time, and
each op's time is reported scaled by PROBE_REF_S / (mean probe time within
PROBE_WINDOW_S of the op): "seconds at the speed where the probe takes
PROBE_REF_S".  A change to the program moves the op time and not the
probe, so it shows in full; a slow period of the host moves both and
cancels.  The sampler takes the interpreter lock for about 3 ms in every
50, which slows every op by the same few per cent.  Raw wall times are
printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
import time
from fractions import Fraction

# About the probe's time on the reference machine (2-vCPU Intel Xeon,
# Python 3.11) under its usual load; it only sets the scale of the
# reported times.
PROBE_REF_S = 0.003
SAMPLE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 0.1


def probe() -> float:
    """CPU seconds the fixed task takes on this thread now (garbage
    collection paused, so the size of the program's heap does not count)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        acc = Fraction(0)
        table: dict = {}
        for i in range(1, 400):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + i
        return time.thread_time() - t0
    finally:
        if was_enabled:
            gc.enable()


class Sampler:
    """Runs ``probe`` on a background thread every SAMPLE_INTERVAL_S while
    the ``with`` block runs; ``speed`` reads the samples around an interval."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append((time.perf_counter(), probe()))

    def __enter__(self) -> "Sampler":
        self.samples.append((time.perf_counter(), probe()))
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, start: float, end: float) -> float:
        """Mean probe time within PROBE_WINDOW_S of [start, end] (the
        nearest sample when none falls there)."""
        samples = list(self.samples)
        times = [t for t, _ in samples]
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, end + PROBE_WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), max(1, lo)
        return statistics.fmean(p for _, p in samples[lo:hi])


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at reference speed."""
    return seconds * PROBE_REF_S / probe_s
