"""The reference kernel and the sampler that measures the machine's speed with it.

On a shared machine the speed of pure-Python ``Fraction`` code drifts by
±15 % over tens of seconds.  The sampler runs a fixed kernel from a SIGALRM
handler every ``INTERVAL_S`` seconds while a pass runs, so it sees the speed
inside long ops too.  A pass's cost in kernel runs is its program time times
the mean kernel rate (runs per second) sampled during it; a slower library
raises that cost in proportion, a slower machine slows both and cancels.

Handler time is excluded from every measurement through ``Sampler.clock``,
a clock that stops while the handler runs.  The kernel is written here, not
taken from the library, so it is the same for every version of the library.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1

# exact Gauss-Jordan elimination of a fixed 9x9 rational matrix, about 3 ms
_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(9)] for i in range(9)]


def kernel() -> None:
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def kernel_rate(seconds: float) -> float:
    """Kernel runs per second, run back to back for at least ``seconds``."""
    runs = 0
    start = time.perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return runs / elapsed


class Sampler:
    """Runs ``kernel`` every ``INTERVAL_S`` seconds from a SIGALRM handler while entered."""

    def __init__(self):
        self.rates: list[float] = []  # kernel runs per second, one per sample
        self.spent = 0.0  # seconds spent in the handler so far
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.rates.append(1 / dt)
        self.spent += dt

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in the handler."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
