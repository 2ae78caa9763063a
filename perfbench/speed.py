"""Host-speed sampling, so that times can be reported in reference seconds.

The benchmark runs on shared virtual machines whose speed was seen to change
by up to 2x from one second to the next, on each vCPU independently.  Left
in, that swamps any change to the program.  So every child process samples
its own speed while it works: every ``INTERVAL_S`` of wall time a SIGALRM
handler times a short fixed reference loop.  The loop does the same kind of
work as sbmotives (big-integer sums over Python lists) and imports nothing
from it, so a change to the program cannot move it.  A time measured in the
child is reported as ``measured * REFERENCE_S / mean(sample)``: seconds on a
host where the loop takes ``REFERENCE_S``.  Sampling costs about 3% of the
run; that time is subtracted from every measurement that contains it.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.02
REFERENCE_S = 0.0005


def reference_loop() -> None:
    row = [1] * 200
    for _ in range(24):
        row = [a + b for a, b in zip(row, row[1:] + [0])]


def factor(samples: list[float]) -> float:
    """Multiplier from measured seconds to reference seconds."""
    return REFERENCE_S * len(samples) / sum(samples)


class SpeedSampler:
    """Times ``reference_loop`` at start, every ``INTERVAL_S``, and at stop."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.overhead_s = 0.0  # wall time spent sampling, to subtract

    def _sample(self, *_signal_args) -> None:
        begin = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
            self.overhead_s += time.perf_counter() - begin

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
