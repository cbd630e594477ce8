"""Host-speed probe that scales measured times to one reference speed.

The benchmark runs on a share of a machine whose speed, for the same work,
drifts by up to about 1.7x over seconds to minutes as other tenants come and
go. The process's own CPU time drifts with it, so neither clock can tell a
slower program from a slower host. A short fixed kernel of small numpy and
Python operations (the kind of work ``augbound`` does) is timed before and
after every timed call and, from a wall-clock timer, about every
``INTERVAL_S`` inside it. A call's time, with the probes' own time taken out,
is scaled by the mean of ``NOMINAL_S / probe time`` over the probes from the
call: seconds at the host speed under which the kernel takes ``NOMINAL_S``.
Probes are evenly spaced in time, so the mean of their speeds weighs each
part of the call by its length.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The kernel's typical wall time on a shared 2-core x86-64 sandbox (one BLAS
# thread), where it ranged from 1.6 to 4 ms. Scaled times read as seconds at
# that speed.
NOMINAL_S = 0.0025
INTERVAL_S = 0.05

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((16, 2))
_W = _RNG.standard_normal((2, 8))


def _kernel() -> float:
    total = 0.0
    for _ in range(100):
        z = _X @ _W
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        total += float(np.log(np.exp(z @ z.T).sum(axis=1)).mean())
    return total


class HostSpeed:
    """Probe times and the time spent probing, for one process."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        # Reference-speed seconds per measured second, of the last scale().
        self.factor = 1.0
        self._armed = False
        self._busy = False

    def probe(self, *_signal) -> None:
        if self._busy:  # the timer fired inside a probe
            return
        self._busy = True
        try:
            start = time.perf_counter()
            _kernel()
            elapsed = time.perf_counter() - start
        finally:
            self._busy = False
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        """Probe from a wall-clock timer too, so long calls are sampled."""
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._armed = True

    def stop(self) -> None:
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._armed = False

    def timed(self, fn, *args):
        """Run ``fn(*args)``; returns (result, scaled seconds).

        Probe time is taken out before scaling. If ``fn`` raises, the
        exception carries the scaled seconds as ``bench_scaled_s``.
        """
        first = len(self.samples)
        self.probe()
        spent, start = self.spent, time.perf_counter()
        try:
            result = fn(*args)
        except BaseException as exc:
            exc.bench_scaled_s = self._close(first, spent, start)
            raise
        return result, self._close(first, spent, start)

    def _close(self, first: int, spent: float, start: float) -> float:
        elapsed = time.perf_counter() - start - (self.spent - spent)
        self.probe()
        return self.scale(elapsed, first)

    def scale(self, seconds: float, first: int) -> float:
        """``seconds`` at reference speed, by the probes from ``first`` on."""
        self.factor = statistics.fmean(NOMINAL_S / t for t in self.samples[first:])
        return seconds * self.factor
