"""A fixed piece of work that measures how fast the host runs right now.

The benchmark runs on shared virtual CPUs whose speed drifts with the load
of other tenants: a fixed loop runs at 1.0x to 1.6x of its best speed, the
slowdown lasting from a fraction of a second to minutes.  A job timed on
its own then mostly measures its neighbours: ten runs of the same code
spread by 15-30 % between their quartiles.

So while jobs run, ``SpeedClock`` runs this kernel every ``INTERVAL_S`` of
wall time (from a ``SIGALRM`` handler, between two bytecodes of whatever
the program is doing), and scales each stretch of program time between two
kernel runs to a host on which the kernel takes ``REFERENCE_S``::

    scaled = seconds * REFERENCE_S / kernel

with ``kernel`` the mean of the kernel runs at both ends of the stretch.
The kernel's own time is left out of the program's.  The kernel is the
benchmark's own code, so a change to the program moves the scaled time
exactly as it moves the program's time.

The kernel mixes, in about equal shares, the kinds of work the program
does: an interpreted loop, many small numpy operations, a dense LAPACK
eigensolve, number formatting (the CSV writer) and dict and str objects.
Each kind slows by a different factor under the same load; a mix of all
tracks the program's slowdown better than any one of them.  It is part of the benchmark's definition: changing it,
``REFERENCE_S`` or ``INTERVAL_S`` changes every scaled time.
"""

import contextlib
import signal
import time

import numpy as np
import scipy.linalg as la

# The kernel's time on this benchmark's reference host (a 2-vCPU x86_64
# VM, one BLAS thread) at its best speed, so that scaled seconds read close
# to the wall seconds of an unloaded host.
REFERENCE_S = 0.015
# Wall time between two kernel runs: short against the time over which the
# host's speed changes, long against the kernel (about 6 % overhead).
INTERVAL_S = 0.25

_MATRIX = np.random.default_rng(0).standard_normal((100, 100))
_MATRIX = _MATRIX + _MATRIX.T
_VALUES = np.random.default_rng(1).standard_normal(1_500)


def _python() -> int:
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return total


def _small_numpy() -> np.ndarray:
    x = np.ones(6)
    for _ in range(1_200):
        x = np.sin(x) * 0.5 + x.sum() * 1e-3
    return x


def _dense() -> None:
    for _ in range(2):
        la.eigh(_MATRIX)


def _format() -> str:
    return "\n".join(f"{x!r},{x * x:.17g}" for x in _VALUES)


def _objects() -> dict:
    counts = {}
    for i in range(18_000):
        key = i % 97
        counts[key] = counts.get(key, 0) + len(str(i))
    return counts


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _python()
    _small_numpy()
    _dense()
    _format()
    _objects()
    return time.perf_counter() - t0


def scaled(seconds: float, kernel: float) -> float:
    """``seconds`` as they would read on a host where the kernel takes
    ``REFERENCE_S``."""
    return seconds * REFERENCE_S / kernel


class SpeedClock:
    """Program time, raw and scaled, with the kernel run every ``interval``
    seconds.  Use as a context manager in the main thread; ``mark()`` runs
    the kernel now and returns the (raw, scaled) program seconds so far, so
    the difference of two marks times what ran between them."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.kernels = []
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._last = None          # (end of the last kernel run, its time)
        self._busy = False
        self._handler = None

    def __enter__(self):
        kernel_seconds()           # the first run pays lazy set-up
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        return False

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._sample()

    def _sample(self) -> None:
        self._busy = True
        try:
            start = time.perf_counter()
            kernel = kernel_seconds()
            if self._last is not None:
                since, before = self._last
                self.raw_s += start - since
                self.scaled_s += scaled(start - since, (before + kernel) / 2)
            self.kernels.append(kernel)
            self._last = (time.perf_counter(), kernel)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def paused(self):
        """No kernel runs inside; the time spent here is not counted."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()             # close the stretch before the pause
        try:
            yield
        finally:
            self._last = None
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def mark(self):
        self._sample()
        return self.raw_s, self.scaled_s
