"""The host's speed, measured with a fixed kernel timed between operations.

The reference host is a share of a machine whose cores change speed within
seconds and from minute to minute: a fixed pure-Python loop takes anywhere
from 0.7x to 1.3x its usual time, and CPU time moves with wall time, so the
change is in the core, not in scheduling.  A run's raw median follows the
speed of the minute it ran in.

So the benchmark times `kernel` (exact rational elimination and tuple/dict
work, the same kind of interpreter work as the program, but the benchmark's
own code: no change to cascadix can touch it) between every two operations,
and scales each operation's wall time by REF_S / (mean of the kernel times
just before and just after it).  A scaled time is the operation's time on a
host that runs the kernel in REF_S seconds.  It moves one for one with the
program's own cost, while a slow or fast minute of the host cancels out.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REF_S = 0.020   # the kernel's time at the reference speed, in seconds

_N = 8
_MATRIX = tuple(tuple(Fraction((3 * i * i + 5 * j + i * j + 1) % 7 - 3, 1 + (i + 2 * j) % 3)
                      for j in range(_N)) for i in range(_N))   # nonsingular
_ROUNDS = 24


def _eliminate(rows):
    m = [list(r) for r in rows]
    value = Fraction(1)
    for c in range(_N):
        piv = next((i for i in range(c, _N) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            value = -value
        value *= m[c][c]
        for i in range(c + 1, _N):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return value


def kernel():
    """A fixed amount of work; returns a value so that none of it is skipped."""
    seen = {}
    total = Fraction(0)
    for r in range(_ROUNDS):
        total += _eliminate(_MATRIX[r:] + _MATRIX[:r])
        for i in range(400):
            key = (i % 17, (i * r) % 11, i & 3)
            seen[key] = seen.get(key, 0) + i
    return total, sum(seen.values())


def measure() -> float:
    """Seconds one `kernel` call takes now.  The collector is off during the
    call, so the program's live heap does not change the kernel's cost."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if was_on:
            gc.enable()


class Clock:
    """Times operations in reference seconds: each operation's wall time
    scaled by the kernel's time around it."""

    def __init__(self):
        self.refs = []                 # every kernel time, in seconds
        self.last = None

    def ref(self) -> float:
        self.last = measure()
        self.refs.append(self.last)
        return self.last

    def scale(self, before: float, after: float) -> float:
        return REF_S / ((before + after) / 2)

    def time(self, fn, *args):
        """Run fn(*args) between two kernel calls; (result, raw s, scaled s).
        The kernel call after one operation is the one before the next."""
        before = self.last if self.last is not None else self.ref()
        start = perf_counter()
        result = fn(*args)
        raw = perf_counter() - start
        return result, raw, raw * self.scale(before, self.ref())
