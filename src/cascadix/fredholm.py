"""Punctured-surface Fredholm indices with weighted or kernel-decorated ends.

All punctured domains here are spheres with punctures, so the Euler
characteristic is 2 - #punctures.  Each puncture carries a model asymptotic
operator from `spectrum` and one of two decorations:

* `Weighted(DECAY)` / `Weighted(GROWTH)`: an exponential weight at the
  puncture.  A positive weight delta > 0 always means exponential decay;
  growth is the negative weight.  In the textbook form a decay puncture
  contributes cz(+delta) at a positive end and -cz(-delta) at a negative
  end, and a growth puncture swaps the perturbation side.

* `KernelSubspace(dim_v)`: sections decay only up to a chosen dim_v
  dimensional subspace V of the operator kernel (the directions the end is
  allowed to slide in, e.g. along an orbit family).  The index is

      ind = n*chi + 2*c1 + sum_{z positive} (cz(A_z + delta) + dim V_z)
                         - sum_{z negative} (cz(A_z + delta) + codim V_z)

  with codim V = dim ker - dim V.

By the crossing relation cz(-delta) = cz(+delta) + dim ker, V = 0 gives the
decay weight and V = ker the growth weight, so both vocabularies share the
one formula above: `_dim_v_of` normalizes a weight to its kernel subspace,
`per_puncture_breakdown` is the only per-puncture sum, and
`index_morse_bott` reads it for any mix of the two decorations, weights at
every puncture included.  The perturbation-side convention lives
entirely in `_dim_v_of`; nothing else in the package chooses a side.  The
textbook cz(+-delta) form of the weighted index is kept in the test oracles
as the reference these are checked against.

`split_floer_index` adds the two triangular blocks of a split cylinder
linearization (vertical rank 1, horizontal rank n-1) and then adds 2 per
interior puncture: interior punctures are augmentation marked points whose
position on the domain is a modulus, and those two translation parameters are
part of the transverse dimension count even though they are invisible to the
fixed-domain operators.  The bare `index_morse_bott` never includes them.
"""

from __future__ import annotations

from enum import Enum
from typing import List, NamedTuple, Tuple, Union

from .errors import CascadixError
from .spectrum import (
    AsymptoticOperator,
    ComplexLinear,
    Side,
    VerticalC,
    cz_perturbed,
    kernel_dimension,
)


class PunctureMismatch(CascadixError):
    """Puncture lists are structurally incompatible with the operation."""


class Sign(Enum):
    POSITIVE = "+"
    NEGATIVE = "-"


class WeightSide(Enum):
    DECAY = "decay"
    GROWTH = "growth"


class Weighted(NamedTuple):
    side: WeightSide


class _KernelSubspaceFields(NamedTuple):
    dim_v: int


class KernelSubspace(_KernelSubspaceFields):
    __slots__ = ()

    # `_replace` builds its copy with `_make`: check the copy too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, dim_v: int):
        if dim_v < 0:
            raise PunctureMismatch(f"kernel subspace dimension {dim_v} < 0")
        return super().__new__(cls, dim_v)


Decoration = Union[Weighted, KernelSubspace]


class Puncture(NamedTuple):
    sign: Sign
    operator: AsymptoticOperator
    decoration: Decoration
    interior: bool = False


class PuncturedProblem(NamedTuple):
    """A Cauchy-Riemann type operator on a punctured sphere.

    bundle_rank is the complex rank n of the bundle, rel_c1 the first Chern
    number relative to the asymptotic trivializations.
    """

    bundle_rank: int
    rel_c1: int
    punctures: Tuple[Puncture, ...]

    @property
    def euler_characteristic(self) -> int:
        return 2 - len(self.punctures)


def _check_rank(problem: PuncturedProblem) -> None:
    for p in problem.punctures:
        if p.operator.complex_rank != problem.bundle_rank:
            raise PunctureMismatch(
                f"operator rank {p.operator.complex_rank} != bundle rank "
                f"{problem.bundle_rank}"
            )


def _dim_v_of(p: Puncture) -> int:
    """Normalize a decoration to the dimension of the kernel subspace V."""
    dk = kernel_dimension(p.operator)
    if isinstance(p.decoration, Weighted):
        return 0 if p.decoration.side is WeightSide.DECAY else dk
    if p.decoration.dim_v > dk:
        raise PunctureMismatch(
            f"kernel subspace dimension {p.decoration.dim_v} exceeds "
            f"dim ker = {dk}"
        )
    return p.decoration.dim_v


def index_morse_bott(problem: PuncturedProblem) -> int:
    """Fredholm index with kernel-subspace decorations (weights allowed too)."""
    return (problem.bundle_rank * problem.euler_characteristic
            + 2 * problem.rel_c1
            + sum(c for _, c in per_puncture_breakdown(problem)))


def per_puncture_breakdown(problem: PuncturedProblem) -> List[Tuple[Puncture, int]]:
    """Signed contribution of each puncture in the Morse-Bott formula."""
    _check_rank(problem)
    out = []
    for p in problem.punctures:
        dim_v = _dim_v_of(p)
        base = cz_perturbed(p.operator, Side.PLUS_SMALL)
        if p.sign is Sign.POSITIVE:
            out.append((p, base + dim_v))
        else:
            out.append((p, -(base + kernel_dimension(p.operator) - dim_v)))
    return out


def split_floer_index(vertical: PuncturedProblem, horizontal: PuncturedProblem) -> int:
    """Transverse dimension contribution of one split cylinder component.

    The two problems must describe the same punctured domain: same number of
    punctures, matching signs and interior flags position by position.  The
    value is the sum of the two Morse-Bott indices plus 2 for each interior
    puncture (the moving augmentation marked points).
    """
    pv, ph = vertical.punctures, horizontal.punctures
    if len(pv) != len(ph):
        raise PunctureMismatch(
            f"vertical has {len(pv)} punctures, horizontal has {len(ph)}"
        )
    for a, b in zip(pv, ph):
        if a.sign is not b.sign:
            raise PunctureMismatch("puncture signs disagree between the blocks")
        if a.interior != b.interior:
            raise PunctureMismatch("interior flags disagree between the blocks")
    moving = sum(1 for p in pv if p.interior)
    return index_morse_bott(vertical) + index_morse_bott(horizontal) + 2 * moving


def split_cylinder_problems(
    n: int,
    rel_c1_sigma: int,
    bottom: str = "ham",
    aug_count: int = 0,
    c_top: float = 1.0,
    c_bot: float = 1.0,
) -> Tuple[PuncturedProblem, PuncturedProblem]:
    """Standard vertical/horizontal problem pair for one split cylinder.

    The positive end is always a Hamiltonian orbit (vertical operator with
    c_top > 0, kernel subspace i*R).  bottom is "ham" for a Hamiltonian
    negative end or "reeb" for a Reeb negative end (fully degenerate vertical
    operator, full kernel).  aug_count interior negative punctures model
    augmentation marked points, full kernel on both blocks.  Horizontal ends
    carry the fully degenerate operator of rank n-1 with full kernels and the
    relative Chern number of the projected sphere.
    """
    if n < 2:
        raise PunctureMismatch("split cylinders need n >= 2")
    if aug_count < 0:
        raise PunctureMismatch(f"aug_count must be >= 0, got {aug_count}")
    if bottom not in ("ham", "reeb"):
        raise ValueError(f"bottom must be 'ham' or 'reeb', got {bottom!r}")

    vert_punctures = [
        Puncture(Sign.POSITIVE, VerticalC(c_top), KernelSubspace(1)),
    ]
    if bottom == "ham":
        vert_punctures.append(
            Puncture(Sign.NEGATIVE, VerticalC(c_bot), KernelSubspace(1)))
    else:
        vert_punctures.append(
            Puncture(Sign.NEGATIVE, ComplexLinear(1), KernelSubspace(2)))
    horiz_op = ComplexLinear(n - 1)
    horiz_punctures = [
        Puncture(Sign.POSITIVE, horiz_op, KernelSubspace(2 * (n - 1))),
        Puncture(Sign.NEGATIVE, horiz_op, KernelSubspace(2 * (n - 1))),
    ]
    for _ in range(aug_count):
        vert_punctures.append(
            Puncture(Sign.NEGATIVE, ComplexLinear(1), KernelSubspace(2), interior=True))
        horiz_punctures.append(
            Puncture(Sign.NEGATIVE, horiz_op, KernelSubspace(2 * (n - 1)), interior=True))

    vertical = PuncturedProblem(1, 0, tuple(vert_punctures))
    horizontal = PuncturedProblem(n - 1, rel_c1_sigma, tuple(horiz_punctures))
    return vertical, horizontal
