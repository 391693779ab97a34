"""Dimension formulas and feasibility predicates for pearl chains and cascades.

A pearl chain is a linear string of N holomorphic spheres in the base joined
by gradient segments, optionally decorated with k augmentation marked points
and optionally ending on a sphere in the filling instead of a critical point.
Everything here is arithmetic in the homology lattices; no moduli space is
ever constructed, and transversality is an assumption, not a computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import CascadixError
from .grading import Generator, InteriorGenerator, OrbitGenerator, grade
from .model import (Ambient, CriticalPoint, Functional, IntVector,
                    SetupDescriptor, class_of_area, pair)


class VariantMismatch(CascadixError):
    """Pearl data inconsistent with the requested variant."""


class NonIntegerDegreeDifference(CascadixError):
    """Cascade endpoints live in different grading cosets."""


class NonPositiveArea(CascadixError):
    """Augmentation plane class has non-positive symplectic area."""


@dataclass(frozen=True)
class InSigma:
    """Chain from critical point q up to critical point p, all in the base."""

    q: CriticalPoint
    p: CriticalPoint


@dataclass(frozen=True)
class WithSphereInX:
    """Chain whose lower end is a sphere in the filling through x, class B."""

    x: CriticalPoint
    p: CriticalPoint
    sphere_b: IntVector


@dataclass(frozen=True)
class PearlChainSpec:
    variant: Union[InSigma, WithSphereInX]
    classes_a: Tuple[IntVector, ...]
    aug_count_k: int = 0
    aug_classes: Optional[Tuple[IntVector, ...]] = None

    @property
    def n_spheres(self) -> int:
        return len(self.classes_a)


def _check_point(point: CriticalPoint, ambient: Ambient, role: str) -> None:
    if point.ambient is not ambient:
        raise VariantMismatch(f"{role} must be a {ambient.value} critical point")


def filling_class_term(setup: SetupDescriptor,
                       class_b: Sequence[int]) -> Fraction:
    """2(<c1(TX), B> - B.Sigma): the index a filling class B contributes."""
    return 2 * (pair(setup.lattice_x, class_b, Functional.C1)
                - pair(setup.lattice_x, class_b, Functional.SIGMA_INTERSECTION))


def _aug_term(setup: SetupDescriptor, spec: PearlChainSpec) -> Fraction:
    if spec.aug_count_k < 0:
        raise VariantMismatch("augmentation count must be >= 0")
    if spec.aug_classes is None:
        return Fraction(2 * spec.aug_count_k)
    if len(spec.aug_classes) != spec.aug_count_k:
        raise VariantMismatch(
            f"{len(spec.aug_classes)} augmentation classes for count "
            f"{spec.aug_count_k}"
        )
    return sum((filling_class_term(setup, b) for b in spec.aug_classes),
               Fraction(0))


def pearl_dimension(setup: SetupDescriptor, spec: PearlChainSpec) -> int:
    """Expected dimension of the space of chains with the given shape.

    Base value: M(p) + sum_i 2<c1(T Sigma), A_i> + N - 1 plus the
    augmentation term (2k when only the count is known, the per-class Chern
    excess otherwise).  The InSigma variant subtracts M(q); the sphere-in-X
    variant instead adds 2(<c1(TX), B> - B.Sigma) + M(x) - 2(n-1).
    """
    n_spheres = spec.n_spheres
    variant = spec.variant
    total = Fraction(n_spheres - 1) + _aug_term(setup, spec)
    for a in spec.classes_a:
        total += 2 * pair(setup.lattice_sigma, a, Functional.C1)

    if isinstance(variant, InSigma):
        if n_spheres < 0:
            raise VariantMismatch("sphere count must be >= 0")
        _check_point(variant.p, Ambient.SIGMA, "p")
        _check_point(variant.q, Ambient.SIGMA, "q")
        total += variant.p.morse_index - variant.q.morse_index
    elif isinstance(variant, WithSphereInX):
        if n_spheres < 1:
            raise VariantMismatch("sphere-in-X chains need at least one sphere")
        _check_point(variant.p, Ambient.SIGMA, "p")
        _check_point(variant.x, Ambient.W, "x")
        if not any(variant.sphere_b):
            raise VariantMismatch("filling sphere class must be nonzero")
        total += variant.p.morse_index \
            + filling_class_term(setup, variant.sphere_b)
        total += variant.x.morse_index - 2 * (setup.n - 1)
    else:
        raise VariantMismatch(f"unknown variant {variant!r}")

    if total.denominator != 1:
        raise VariantMismatch(f"non-integer pearl dimension {total}")
    return int(total)


@dataclass(frozen=True)
class ZeroCascades:
    """No holomorphic level at all: a fibre translation between two lifts."""

    upper: OrbitGenerator
    lower: OrbitGenerator


@dataclass(frozen=True)
class YtoY:
    """N >= 1 cascade levels between two orbit generators."""

    upper: OrbitGenerator
    lower: OrbitGenerator
    levels: int


@dataclass(frozen=True)
class WtoY:
    """N >= 1 levels from an orbit generator down to an interior point."""

    upper: OrbitGenerator
    interior: InteriorGenerator
    levels: int


CascadeShape = Union[ZeroCascades, YtoY, WtoY]


def _integer_difference(setup: SetupDescriptor, a: Generator, b: Generator) -> int:
    diff = grade(setup, a) - grade(setup, b)
    if diff.denominator != 1:
        raise NonIntegerDegreeDifference(
            f"degrees of {a.display_name} and {b.display_name} differ by {diff}"
        )
    return int(diff)


def cascade_dimension(setup: SetupDescriptor, shape: CascadeShape) -> int:
    """Expected dimension of the cascade space for the given shape.

    ZeroCascades: degree difference.  YtoY: degree difference + N - 1.
    WtoY: degree difference + N.
    """
    if isinstance(shape, ZeroCascades):
        return _integer_difference(setup, shape.upper, shape.lower)
    if isinstance(shape, YtoY):
        if shape.levels < 1:
            raise VariantMismatch("Y-to-Y cascades need at least one level")
        return _integer_difference(setup, shape.upper, shape.lower) \
            + shape.levels - 1
    if isinstance(shape, WtoY):
        if shape.levels < 1:
            raise VariantMismatch("W-to-Y cascades need at least one level")
        return _integer_difference(setup, shape.upper, shape.interior) \
            + shape.levels
    raise VariantMismatch(f"unknown cascade shape {shape!r}")


def multiplicity_balance(setup: SetupDescriptor, class_a: Sequence[int],
                         k_plus: int, k_minus: int,
                         aug_multiplicities: Sequence[int]) -> bool:
    """Winding bookkeeping across one cascade level.

    True iff k_plus - k_minus - sum(aug) equals K * omega(A) exactly, and the
    level is winding-increasing (k_plus > k_minus) whenever it is
    non-trivial (A nonzero or augmented).
    """
    omega_a = pair(setup.lattice_sigma, class_a, Functional.OMEGA)
    lhs = Fraction(k_plus - k_minus - sum(aug_multiplicities))
    if lhs != setup.k_const * omega_a:
        return False
    if (any(class_a) or len(aug_multiplicities) > 0) and not k_plus > k_minus:
        return False
    return True


def augmentation_index(setup: SetupDescriptor, class_b: Sequence[int],
                       covering_m: int = 1) -> Fraction:
    """Deformation index 2(<c1(TX), B> - B.Sigma - 1) of an augmentation plane.

    Raises NonPositiveArea unless omega(B) > 0.  On a valid monotone setup
    the value is never negative, and an m-fold covered plane has index at
    least 2(m - 1); both bounds are re-checked here and their failure means
    the input data is not what it claims to be.
    """
    if covering_m < 1:
        raise CascadixError(f"covering multiplicity must be >= 1, got {covering_m}")
    area = pair(setup.lattice_x, class_b, Functional.OMEGA)
    if area <= 0:
        raise NonPositiveArea(f"omega(B) = {area} is not positive")
    value = filling_class_term(setup, class_b) - 2
    if value < 0:
        raise CascadixError(
            f"augmentation index {value} negative on a positive-area class"
        )
    if covering_m > 1 and value < 2 * (covering_m - 1):
        raise CascadixError(
            f"index {value} below the covered-plane floor {2 * (covering_m - 1)}"
        )
    return value


def rigid_plane_classes(setup: SetupDescriptor,
                        omega_bound: Fraction) -> List[IntVector]:
    """The class of area 1/(tau - K), if it exists within omega_bound.

    Only at that area does the index 2((tau - K)*omega(B) - 1) vanish."""
    area = 1 / (setup.tau_x - setup.k_const)
    b = class_of_area(setup.lattice_x, area)
    return [b] if b is not None and area <= Fraction(omega_bound) else []


def chern_gate_applies(setup: SetupDescriptor) -> bool:
    """True when the setup promises the absence of rigid augmentation planes.

    Requires every filling sphere class to come from the divisor (declared
    flag) and the minimal divisor Chern number to be at least 2.
    """
    if not setup.x_classes_from_sigma:
        return False
    mc = setup.min_chern_sigma
    return mc is None or mc >= 2
