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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, List, Union

from .errors import CascadixError

TWO_PI = 2.0 * math.pi


class SpectrumError(CascadixError):
    pass


@dataclass(frozen=True)
class ComplexLinear:
    """-i d/dt on loops in C^rank; spectrum 2 pi Z, multiplicity 2*rank."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise SpectrumError(f"complex rank must be >= 1, got {self.rank}")

    @property
    def complex_rank(self) -> int:
        return self.rank

    @property
    def label(self) -> str:
        return f"ComplexLinear{{{self.rank}}}"


@dataclass(frozen=True)
class VerticalC:
    """-i d/dt - diag(c, 0) on complex-valued loops, c >= 0."""

    c: float

    def __post_init__(self):
        c = float(self.c)
        if not math.isfinite(c) or c < 0.0:
            raise SpectrumError(f"vertical constant must be finite and >= 0, got {self.c}")
        object.__setattr__(self, "c", c)

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


@dataclass(frozen=True, order=True)
class SpectralPoint:
    eigenvalue: float
    mode: int
    multiplicity: int
    winding: int


def vertical_eigenvalue(c: float, mode: int, branch: int) -> float:
    return 0.5 * (-c + branch * math.sqrt(c * c + 16.0 * math.pi ** 2 * mode * mode))


def spectrum_window(op: AsymptoticOperator, lo: float, hi: float) -> List[SpectralPoint]:
    """All spectral points with lo <= eigenvalue <= hi, sorted ascending.

    Both ends must be finite.  On the spectrum 2 pi Z the window is widened
    by 1e-15 at each end.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SpectrumError(f"window [{lo}, {hi}] must have finite ends")
    if lo > hi:
        raise SpectrumError(f"empty window [{lo}, {hi}]")
    pts: List[SpectralPoint] = []
    if isinstance(op, ComplexLinear) or op.c == 0.0:
        j = math.ceil(lo / TWO_PI - 1e-15)
        while j * TWO_PI <= hi + 1e-15:
            ev = j * TWO_PI
            if ev >= lo - 1e-15:
                pts.append(SpectralPoint(ev, abs(j), 2 * op.complex_rank, j))
            j += 1
        return pts

    c = op.c
    # c > 0: mode 0 gives the two simple eigenvalues -c and 0
    for ev in (-c, 0.0):
        if lo <= ev <= hi:
            pts.append(SpectralPoint(ev, 0, 1, 0))
    k = 1
    while True:
        lam_minus = vertical_eigenvalue(c, k, -1)
        lam_plus = vertical_eigenvalue(c, k, +1)
        emitted = False
        if lo <= lam_minus <= hi:
            pts.append(SpectralPoint(lam_minus, k, 2, -k))
            emitted = True
        if lo <= lam_plus <= hi:
            pts.append(SpectralPoint(lam_plus, k, 2, k))
            emitted = True
        if not emitted and lam_plus > hi and lam_minus < lo:
            break
        k += 1
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


def operator_catalog() -> Iterable[AsymptoticOperator]:
    """Representative operators used by exhaustive invariant checks."""
    ops: List[AsymptoticOperator] = [VerticalC(0.0)]
    ops += [VerticalC(c) for c in (0.3, float(Fraction(1, 2)), 1.0, 5.0, 100.0)]
    ops += [ComplexLinear(m) for m in range(1, 7)]
    return ops
