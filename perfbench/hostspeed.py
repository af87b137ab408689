"""Host speed: a fixed pure-Python loop timed over and over, against the
reference.

The shared 2-CPU host changes speed by up to half within seconds (other
tenants), and the loop and the pure-Python program slow down alike.  A
:class:`Sampler` thread times the loop every quarter second while the
benchmark runs; a measured interval is scaled to the reference host by
:meth:`Sampler.scale`, giving reference seconds.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Optional, Tuple

#: time of :func:`calibrate` on the reference host in a quiet moment
REF_CALIBRATION_S = 0.008
#: seconds between two calibrations
PERIOD_S = 0.25


def calibrate() -> float:
    """CPU seconds the fixed loop takes now on this thread.

    Thread CPU time, so that time spent waiting for the interpreter lock
    while the benchmark's other threads run is not counted: what slows
    on this host is the CPU itself, and thread CPU time shows that.
    """
    t0 = time.thread_time()
    x = 0
    for i in range(100_000):
        x += i * i % 7
    return time.thread_time() - t0


class Sampler:
    """Calibrates every :data:`PERIOD_S` on a thread of its own, from
    ``with`` entry to exit; the loop costs about 3% of one CPU."""

    def __init__(self) -> None:
        #: (perf_counter when the loop ended, loop CPU seconds)
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "Sampler":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _run(self) -> None:
        while True:
            seconds = calibrate()
            self.samples.append((time.perf_counter(), seconds))
            if self._stop.wait(PERIOD_S):
                return

    def own_cpu(self, start: float, end: float) -> float:
        """CPU seconds the sampler itself spent between two instants."""
        return sum(s for t, s in self.samples if start <= t <= end)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second between two
        ``perf_counter`` instants: from the calibrations inside the
        interval, or the one nearest to it when it holds none."""
        samples = list(self.samples)
        inside = [s for t, s in samples if start <= t <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(samples, key=lambda ts: abs(ts[0] - middle))[1]]
        return REF_CALIBRATION_S / statistics.fmean(inside)
