"""Expected dimensions of pearl chains and cascades, for `cascadix dim`.

A pearl chain is a linear string of N holomorphic spheres in the base joined
by gradient segments, optionally decorated with k augmentation marked points
and optionally ending on a sphere in the filling instead of a critical point.
A cascade runs between two generators through N holomorphic levels.  There
is one function per kind of configuration, taking its pieces as arguments.
Everything here is arithmetic in the homology lattices; no moduli space is
ever constructed, and transversality is an assumption, not a computation.
The index terms the cascade solver shares live in `grading`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import CascadixError
from .grading import (Generator, InteriorGenerator, OrbitGenerator,
                      degree_difference, filling_class_term, grade)
from .model import (Ambient, CriticalPoint, IntVector, SetupDescriptor,
                    pair)


class VariantMismatch(CascadixError):
    """Pearl data inconsistent with the requested variant."""


class NonIntegerDegreeDifference(CascadixError):
    """Cascade endpoints live in different grading cosets."""


def _check_point(point: CriticalPoint, ambient: Ambient, role: str) -> None:
    if point.ambient is not ambient:
        raise VariantMismatch(f"{role} must be a {ambient.value} critical point")


def _chain_term(setup: SetupDescriptor, classes_a: Sequence[IntVector],
                aug_count: int,
                aug_classes: Optional[Sequence[IntVector]]) -> int:
    """N - 1 + sum_i 2<c1(T Sigma), A_i> + the augmentation term.

    The augmentation term is 2k when only the count k is known, and the
    per-class Chern excess otherwise.
    """
    if aug_count < 0:
        raise VariantMismatch("augmentation count must be >= 0")
    if aug_classes is None:
        total = 2 * aug_count
    elif len(aug_classes) != aug_count:
        raise VariantMismatch(
            f"{len(aug_classes)} augmentation classes for count {aug_count}")
    else:
        total = sum(filling_class_term(setup, b) for b in aug_classes)
    total += len(classes_a) - 1
    for a in classes_a:
        total += 2 * pair(setup.lattice_sigma.c1, a)
    return total


def pearl_in_sigma_dimension(setup: SetupDescriptor, q: CriticalPoint,
                             p: CriticalPoint, classes_a: Sequence[IntVector],
                             aug_count: int = 0,
                             aug_classes: Optional[Sequence[IntVector]] = None
                             ) -> int:
    """Chains from critical point q up to critical point p, all in the base:
    the chain term plus M(p) - M(q)."""
    total = _chain_term(setup, classes_a, aug_count, aug_classes)
    _check_point(p, Ambient.SIGMA, "p")
    _check_point(q, Ambient.SIGMA, "q")
    return total + p.morse_index - q.morse_index


def pearl_with_sphere_dimension(setup: SetupDescriptor, x: CriticalPoint,
                                p: CriticalPoint, sphere_b: IntVector,
                                classes_a: Sequence[IntVector],
                                aug_count: int = 0,
                                aug_classes: Optional[Sequence[IntVector]] = None
                                ) -> int:
    """Chains whose lower end is a sphere of class B in the filling through
    x: the chain term plus M(p) + 2(<c1(TX), B> - B.Sigma) + M(x) - 2(n-1)."""
    total = _chain_term(setup, classes_a, aug_count, aug_classes)
    if not classes_a:
        raise VariantMismatch("sphere-in-X chains need at least one sphere")
    _check_point(p, Ambient.SIGMA, "p")
    _check_point(x, Ambient.W, "x")
    if not any(sphere_b):
        raise VariantMismatch("filling sphere class must be nonzero")
    total += p.morse_index + filling_class_term(setup, sphere_b)
    return total + x.morse_index - 2 * (setup.n - 1)


def _check_generator(gen: Generator, species: type, role: str) -> None:
    if not isinstance(gen, species):
        kind = "an orbit" if species is OrbitGenerator else "an interior"
        raise VariantMismatch(f"{role} must be {kind} generator")


def _integer_difference(setup: SetupDescriptor, a: Generator, b: Generator) -> int:
    diff = degree_difference(setup, a, b)
    if diff is None:
        raise NonIntegerDegreeDifference(
            f"degrees of {a.display_name} and {b.display_name} differ by "
            f"{grade(setup, a) - grade(setup, b)}"
        )
    return diff


def zero_cascade_dimension(setup: SetupDescriptor, upper: OrbitGenerator,
                           lower: OrbitGenerator) -> int:
    """No holomorphic level at all, a fibre translation between two lifts:
    the degree difference."""
    _check_generator(upper, OrbitGenerator, "upper")
    _check_generator(lower, OrbitGenerator, "lower")
    return _integer_difference(setup, upper, lower)


def y_to_y_dimension(setup: SetupDescriptor, upper: OrbitGenerator,
                     lower: OrbitGenerator, levels: int) -> int:
    """N >= 1 cascade levels between two orbit generators: the degree
    difference + N - 1."""
    _check_generator(upper, OrbitGenerator, "upper")
    _check_generator(lower, OrbitGenerator, "lower")
    if levels < 1:
        raise VariantMismatch("Y-to-Y cascades need at least one level")
    return _integer_difference(setup, upper, lower) + levels - 1


def w_to_y_dimension(setup: SetupDescriptor, upper: OrbitGenerator,
                     interior: InteriorGenerator, levels: int) -> int:
    """N >= 1 levels from an orbit generator down to an interior point: the
    degree difference + N."""
    _check_generator(upper, OrbitGenerator, "upper")
    _check_generator(interior, InteriorGenerator, "interior")
    if levels < 1:
        raise VariantMismatch("W-to-Y cascades need at least one level")
    return _integer_difference(setup, upper, interior) + levels
