"""Host speed, sampled while the benchmark runs, to scale timings to one speed.

The benchmark runs on a few cores of a shared host.  There the same
operation's wall time drifts by 20-40% over seconds to minutes as the
neighbours' load comes and goes, which swamps any change worth measuring.
So the benchmark also times a fixed stretch of reference work (a *probe*)
over and over while it runs: every ``interval_s`` of CPU time, from a
SIGPROF handler, and between set-up repetitions.  A run's operation times
are multiplied by ``(reference_s / probe_s) ** exponent``, with ``probe_s``
the run's median probe time and ``reference_s`` the probe's median time on
the reference host (perfbench/workloads.json says how ``exponent`` was
chosen).  A scaled time reads as the time the operation would take on the
reference host at its usual speed.

The probes are the benchmark's own code and call nothing in exprcount, so
a change to the program cannot move them.  Each probe runs with the cyclic
garbage collector off, so the program's heap does not slow it down.
``clock()`` leaves out the time spent in probes, so an operation that a
probe interrupts is not charged for it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction


def interp_probe() -> None:
    """Interpreter-bound work like the symbolic core: tuple keys, dicts, Fractions."""
    table: dict = {}
    x = Fraction(1)
    for i in range(4000):
        key = (i % 97, i % 13, i)
        table[key] = table.get(key[:2], 0) + i
        x = x * Fraction(i % 7 + 1, i % 5 + 1)
        if x.denominator > 10**6:
            x = Fraction(1)


_ROWS = [3 ** (600 + 37 * i) // (i + 1) for i in range(160)]
_BINOM = [7 ** (200 + i) for i in range(160)]


def bigint_probe() -> None:
    """A big-integer convolution like the counting engine's (1,000 to 9,600 bits)."""
    total = 0
    for k in (100, 130, 159):
        for j in range(1, k):
            total += _BINOM[j] * _ROWS[j] * _ROWS[k - j]


PROBES = {"interp": interp_probe, "bigint": bigint_probe}


class Speed:
    """Probe samples of one run, and the time spent taking them."""

    def __init__(
        self, probe: str, reference_s: float, interval_s: float = 0.5, exponent: float = 1.0
    ) -> None:
        self.probe = PROBES[probe]
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.exponent = exponent
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in probes."""
        return time.perf_counter() - self.spent

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            self.probe()
            dt = time.perf_counter() - start
            # A probe cut short (by an operation's deadline) gives no sample.
            self.samples.append(dt)
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - start
        return dt

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """Sample every ``interval_s`` of CPU time until `stop`."""
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def factor(self) -> float:
        """The multiplier that brings this run's timings to the reference speed."""
        return (self.reference_s / statistics.median(self.samples)) ** self.exponent

    def deadline(self, reference_deadline_s: float) -> float:
        """A deadline set at the reference speed, stretched to the current one.

        The current speed is the median of the last three samples.
        """
        if not self.samples:
            return reference_deadline_s
        return reference_deadline_s * statistics.median(self.samples[-3:]) / self.reference_s
