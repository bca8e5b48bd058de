"""Machine-speed reference for the timed metrics.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent, in CPU time as much as in wall time, and different code
slows down by different amounts: a fixed 15 ms mpmath call, timed back to
back for 30 s, spread by 34% between its quartiles, with a correlation time
of about half a second.  The timed metrics therefore divide each library
step by the speed the machine had while the step ran.

The speed is sampled every INTERVAL_S of wall time by a timer signal whose
handler times a fixed reference kernel: one call of mpmath's generated
hypergeometric series summator, the loop in which mpmath's integer-order K
spends three quarters of its time, as besselk(1, 3.3) makes it at 300 bits
(the order perturbed off the integer, about 1500 working bits).
mpmath's K and I take most of every workload's time (see the traced
figures in README.md), and of the kernels tried this one tracked every
workload's steps best.  The summators are pure functions of their
arguments, so running them inside an interrupted library call touches no
state the library shares; they call no bmop code, so a change to bmop moves
the metrics in full and only the machine's drift is divided out.

A step's slowness (wall seconds per reference second) is the mean of the
last sample before it and every sample taken during it, so a long library
call is judged by the speed along its whole length.  The handler's own
time is taken out of every interval the meter's clock measures.  A
reference second is a wall second at the kernel's NOMINAL_S.
"""

from __future__ import annotations

import signal
import statistics
import time

from mpmath import mp, mpf
# bound here, before any tracer wraps the module attributes, so the
# reference kernel is never counted as library work
from mpmath import besselk as _besselk

INTERVAL_S = 0.1
# wall seconds of one kernel run at the reference speed, its median over a
# run on the host the reference figures in README.md come from; the
# handler costs about 5% of a run
NOMINAL_S = 0.0045
_SERIES = (1, 1, ("R", "R"), "R")       # mpmath's key of the 1F1 summator


def _capture_kernel():
    """The last 1F1 summator call of besselk(1, 3.3) at 300 bits, the one
    at the working precision that converged, with its arguments."""
    summators = mp.hyp_summators
    with mp.workprec(300):              # fills the summator table
        _besselk(1, mpf(3.3))
    calls = []
    originals = dict(summators)

    def recorder(key, fn):
        def record(*args, **kwargs):
            calls.append((key, fn, args, kwargs))
            return fn(*args, **kwargs)
        return record

    try:
        for key, fn in originals.items():
            summators[key] = recorder(key, fn)
        with mp.workprec(300):
            _besselk(1, mpf(3.3))
    finally:
        summators.update(originals)
    series = [(fn, args, kwargs) for key, fn, args, kwargs in calls if key == _SERIES]
    if not series:
        raise RuntimeError("speed: mpmath's 1F1 summator was not called")
    # args: coeffs, z, prec, working prec, epsshift, magnitude check
    fn, (coeffs, z, prec, wp, eps, check), kwargs = series[-1]

    def kernel() -> None:
        fn(coeffs, z, prec, wp, eps, dict(check), **kwargs)
    return kernel


class SpeedMeter:
    """Samples the machine's speed on a timer and turns wall times of
    library steps into reference seconds."""

    def __init__(self):
        self._kernel = _capture_kernel()
        for _ in range(3):
            self._kernel()
        self.samples = []           # slowness of each sample
        self.stolen = 0.0           # wall seconds spent in the handler
        self._previous = None

    # -- sampling ---------------------------------------------------------

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append((t1 - t0) / NOMINAL_S)
        self.stolen += time.perf_counter() - t0

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    # -- measuring --------------------------------------------------------

    def clock(self) -> float:
        """perf_counter() without the handler's time."""
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if stolen == self.stolen:
                return now - stolen

    def mark(self) -> tuple:
        return self.clock(), len(self.samples)

    def since(self, mark: tuple) -> tuple:
        """(wall seconds, reference seconds) of library work since mark."""
        t0, n0 = mark
        wall = self.clock() - t0
        slow = statistics.fmean(self.samples[max(n0 - 1, 0):])
        return wall, wall / slow
