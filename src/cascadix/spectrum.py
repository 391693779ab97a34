"""Model asymptotic operators, their spectra, and Conley-Zehnder indices.

Two families of self-adjoint first-order operators on loops cover every
asymptote the engine meets:

* `VerticalC(c)`: -i d/dt - diag(c, 0) on complex-valued loops, c >= 0.
  This is the linearization transverse to an orbit circle: c = h''(rho)*rho
  at a Hamiltonian orbit level, c = 0 at a Reeb orbit.
* `ComplexLinear(rank)`: -i d/dt on loops in C^rank, the fully degenerate
  operator governing the directions tangent to the orbit family.

Spectrum of VerticalC(c): for each integer Fourier mode k the two values
( -c +- sqrt(c^2 + 16 pi^2 k^2) ) / 2.  For c > 0 every eigenvalue has
multiplicity 2 except -c and 0 (mode 0), which are simple; for c = 0 the
spectrum is 2 pi Z with every multiplicity 2.  ComplexLinear(m) has spectrum
2 pi Z with multiplicity 2m.  The winding number attached to an eigenvalue
from mode k is |k| when the eigenvalue is >= 0 and -|k| when it is <= 0
(0 always winds 0, and both conventions agree there).

Degenerate operators are used only after a symbolic perturbation by +-delta
for an infinitesimal delta > 0; `cz_perturbed` gives the Conley-Zehnder index
of that perturbation, computed from the windings adjacent to 0:

    VerticalC(c>0):  cz(+delta) = 0,   cz(-delta) = 1
    VerticalC(0):    cz(+delta) = -1,  cz(-delta) = 1
    ComplexLinear(m): cz(+delta) = -m, cz(-delta) = +m

and the crossing relation cz(-delta) - cz(+delta) = dim ker holds throughout
(kernel dimensions 1, 2, 2m respectively).

The numerical cross-check of these closed forms, a truncated Fourier
discretization, lives with the test oracles (`tests/oracles.py`).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import List, NamedTuple, Union

from .errors import CascadixError

TWO_PI = 2.0 * math.pi


class SpectrumError(CascadixError):
    pass


class _ComplexLinearFields(NamedTuple):
    rank: int


class ComplexLinear(_ComplexLinearFields):
    """-i d/dt on loops in C^rank; spectrum 2 pi Z, multiplicity 2*rank."""

    __slots__ = ()

    # `_replace` builds its copy with `_make`: check the copy too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, rank: int):
        if rank < 1:
            raise SpectrumError(f"complex rank must be >= 1, got {rank}")
        return super().__new__(cls, rank)

    @property
    def complex_rank(self) -> int:
        return self.rank

    @property
    def label(self) -> str:
        return f"ComplexLinear{{{self.rank}}}"


class _VerticalCFields(NamedTuple):
    c: float


class VerticalC(_VerticalCFields):
    """-i d/dt - diag(c, 0) on complex-valued loops, c >= 0."""

    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, c: float):
        value = float(c)
        if not math.isfinite(value) or value < 0.0:
            raise SpectrumError(f"vertical constant must be finite and >= 0, got {c}")
        return super().__new__(cls, value)

    @property
    def complex_rank(self) -> int:
        return 1

    @property
    def label(self) -> str:
        return f"VerticalC{{{self.c:g}}}"


AsymptoticOperator = Union[ComplexLinear, VerticalC]


class Side(Enum):
    """Symbolic sign of the perturbation: the operator plus or minus delta."""

    PLUS_SMALL = "+delta"
    MINUS_SMALL = "-delta"


class SpectralPoint(NamedTuple):
    eigenvalue: float
    mode: int
    multiplicity: int
    winding: int


def vertical_eigenvalue(c: float, mode: int, branch: int) -> float:
    return 0.5 * (-c + branch * math.sqrt(c * c + 16.0 * math.pi ** 2 * mode * mode))


# The most points one window may list.  10^6 points print as about 40 MB of
# table in some ten seconds; the windows an index question needs hold a few
# dozen.  The bound keeps every accepted window's cost to that, and makes a
# typo such as `0,1e15` an error instead of a listing without end.
MAX_POINTS = 10 ** 6


def spectrum_window(op: AsymptoticOperator, lo: float, hi: float) -> List[SpectralPoint]:
    """All spectral points with lo <= eigenvalue <= hi, sorted ascending.

    Both ends must be finite.  On the spectrum 2 pi Z the window is widened
    by 1e-15 at each end.  The modes of the window are found in closed form
    before any eigenvalue is evaluated (on VerticalC(c>0) each branch is
    monotone in the mode, with mode sqrt(v (v + c)) / 2 pi at eigenvalue v).
    SpectrumError if the window holds more than MAX_POINTS points, or if
    float rounding no longer tells consecutive points apart: at ends where
    the float spacing reaches 2 pi (no two eigenvalues of one branch are
    further apart), or where the computed eigenvalues repeat or stray a
    whole mode from the closed form.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SpectrumError(f"window [{lo}, {hi}] must have finite ends")
    if lo > hi:
        raise SpectrumError(f"empty window [{lo}, {hi}]")
    if math.ulp(max(abs(lo), abs(hi))) >= TWO_PI:
        raise _blurred(lo, hi)
    if isinstance(op, ComplexLinear) or op.c == 0.0:
        first = math.ceil(lo / TWO_PI - 1e-15)
        last = math.floor((hi + 1e-15) / TWO_PI) + 1   # past the window
        if last - first > MAX_POINTS:
            raise _too_many(lo, hi)
        pts = [SpectralPoint(j * TWO_PI, abs(j), 2 * op.complex_rank, j)
               for j in range(first, last + 1)
               if lo - 1e-15 <= j * TWO_PI <= hi + 1e-15]
    else:
        pts = _vertical_window(op.c, lo, hi)
    if any(a.eigenvalue == b.eigenvalue for a, b in zip(pts, pts[1:])):
        raise _blurred(lo, hi)
    return pts


def _too_many(lo, hi):
    return SpectrumError(f"window [{lo}, {hi}] holds more than {MAX_POINTS} "
                         f"eigenvalues")


def _blurred(lo, hi):
    return SpectrumError(f"window [{lo}, {hi}]: consecutive eigenvalues are "
                         f"not distinct in float there")


def _vertical_window(c, lo, hi):
    """`spectrum_window` for VerticalC(c), c > 0."""
    def mode_of(v):   # v >= 0 on the upper branch, v <= -c on the lower one
        return math.sqrt(v * (v + c)) / TWO_PI

    # (branch, mode at the near end, mode at the far end); the upper branch
    # rises with the mode from 0, the lower one falls from -c
    runs = []
    if hi >= 0.0:
        runs.append((+1, mode_of(max(lo, 0.0)), mode_of(hi)))
    if lo <= -c:
        runs.append((-1, mode_of(min(hi, -c)), mode_of(lo)))
    if not sum(far - near for _, near, far in runs) <= MAX_POINTS:
        raise _too_many(lo, hi)   # also when a mode overflows to inf

    # mode 0 gives the two simple eigenvalues -c and 0
    pts = [SpectralPoint(ev, 0, 1, 0) for ev in (-c, 0.0) if lo <= ev <= hi]
    for branch, near, far in runs:
        # one mode past each end, where the eigenvalue must fall outside
        near, far = math.floor(near) - 1, math.ceil(far) + 1
        near_end, far_end = (lo, hi) if branch > 0 else (hi, lo)
        values = {k: vertical_eigenvalue(c, k, branch)
                  for k in range(max(near, 1), far + 1)}
        if (branch * (values[far] - far_end) <= 0
                or near >= 1 and branch * (values[near] - near_end) >= 0):
            raise _blurred(lo, hi)
        pts += [SpectralPoint(ev, k, 2, branch * k)
                for k, ev in values.items() if lo <= ev <= hi]
    pts.sort()
    return pts


def kernel_dimension(op: AsymptoticOperator) -> int:
    if isinstance(op, ComplexLinear):
        return 2 * op.rank
    return 2 if op.c == 0.0 else 1


def cz_perturbed(op: AsymptoticOperator, side: Side) -> int:
    """Conley-Zehnder index of the operator perturbed by +-delta.

    Computed from the windings of the eigenvalues straddling 0 after the
    shift; tabulated in the module docstring.
    """
    plus = side is Side.PLUS_SMALL
    if isinstance(op, ComplexLinear):
        return -op.rank if plus else op.rank
    if op.c == 0.0:
        return -1 if plus else 1
    return 0 if plus else 1
