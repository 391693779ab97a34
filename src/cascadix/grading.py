"""Degrees of split-homology generators.

Generators come in two species: circle-fibre orbits over critical points of
the base Morse function, lifted to a check/hat pair and wound k >= 1 times,
and interior critical points of the filling's Morse function.  Degrees are
rationals in general; two generators interact only when their degrees differ
by an integer, so the grading group splits into cosets indexed by the
fractional part.

On one setup every degree lies in (1/D)Z, with D the denominator of the
winding slope 2(tau_X - K)/K = p/D (`SetupDescriptor.degree_scale`).  So
degrees are sorted, solved and compared as the integers D*degree
(`scaled_degree`, `degree_difference`), and `grade` and `coset_label` turn
one into the printed value.  Each divides by D once and builds a
`Fraction` only when D does not divide (`exact_quotient`).  An orbit's
D*degree is affine in its winding with slope p, so the winding at which a
lift has a given degree is one division by p (`winding_at`), the one place
a winding is solved.  The same slope orders the generators without a
sort: writing a point's D*degree at winding 0 as p*q + r with 0 <= r < p,
its generator at winding k lies in block q + k, and within a block
D*degree orders as r.  So `ordered_generators` walks the blocks with the
points ordered once, and yields the generators in order one at a time.

The per-piece index terms the cascade solver adds up live here too, each an
int: the Reeb weight of a plane's orbit, as D times itself
(`scaled_reeb_weight`), the filling class term 2(<c1(TX), B> - B.Sigma)
and the deformation index of an augmentation plane; and the winding balance
across one cascade level, read through c1 (`sigma_c1_of_step`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import (Container, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .errors import CascadixError
from .model import (
    Ambient,
    CriticalPoint,
    FibreFlag,
    LiftedCriticalPoint,
    Rational,
    SetupDescriptor,
    _CHECK,
    _HAT,
    pair,
)


class UnknownCriticalPoint(CascadixError):
    """Named critical point does not exist in the setup."""


class NonPositiveArea(CascadixError):
    """Augmentation plane class has non-positive symplectic area."""


class _OrbitGeneratorFields(NamedTuple):
    point: LiftedCriticalPoint
    k: int


class OrbitGenerator(_OrbitGeneratorFields):
    """k-fold cover of the circle fibre over a base critical point."""

    __slots__ = ()

    # `_replace` builds its copy with `_make`: check the copy too
    _make = classmethod(lambda cls, fields: cls(*fields))

    # checked here, then built in C, as `LiftedCriticalPoint` is
    def __new__(cls, point: LiftedCriticalPoint, k: int):
        if k < 1:
            raise CascadixError(f"orbit winding must be >= 1, got {k}")
        return tuple.__new__(cls, (point, k))

    @property
    def display_name(self) -> str:
        return f"{self.point.display_name}_{self.k}"

    @property
    def kind(self) -> str:
        return "orbit"


class _InteriorGeneratorFields(NamedTuple):
    point: CriticalPoint


class InteriorGenerator(_InteriorGeneratorFields):
    """Critical point of the Morse function on the filling."""

    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, point: CriticalPoint):
        if point.ambient is not Ambient.W:
            raise CascadixError(
                f"interior generator needs a W critical point, got {point.name}"
            )
        return tuple.__new__(cls, (point,))

    @property
    def display_name(self) -> str:
        return self.point.name

    @property
    def kind(self) -> str:
        return "interior"


Generator = Union[OrbitGenerator, InteriorGenerator]


def orbit_generator(setup: SetupDescriptor, point_name: str, flag: FibreFlag,
                    k: int) -> OrbitGenerator:
    try:
        base = setup.sigma_point(point_name)
    except CascadixError as exc:
        raise UnknownCriticalPoint(str(exc)) from None
    return OrbitGenerator(LiftedCriticalPoint(base, flag), k)


def interior_generator(setup: SetupDescriptor, point_name: str) -> InteriorGenerator:
    try:
        p = setup.w_point(point_name)
    except CascadixError as exc:
        raise UnknownCriticalPoint(str(exc)) from None
    return InteriorGenerator(p)


def scaled_degree(setup: SetupDescriptor, gen: Generator) -> int:
    """D times the degree of a generator, where p/D = 2*(tau_X - K)/K.

    Orbit generators: D*((lifted Morse index) + 1 - n) + p*k.
    Interior generators: D*(n - (Morse index)).
    """
    d, p = setup.degree_scale
    if isinstance(gen, InteriorGenerator):
        return d * (setup.n - gen.point.morse_index)
    # the lift unpacked as its (base, flag) tuple: one property call per
    # degree less than reading `lifted_index`
    (base, flag), k = gen
    lifted = base.morse_index + 1 if flag is _HAT else base.morse_index
    return d * (lifted + 1 - setup.n) + p * k


def exact_quotient(scaled: int, d: int) -> Rational:
    """scaled/d: an int when d divides it, else a `Fraction`."""
    value, rest = divmod(scaled, d)
    return Fraction(scaled, d) if rest else value


def grade(setup: SetupDescriptor, gen: Generator) -> Rational:
    """Degree of a generator: an int when it is one, else a `Fraction`.

    Orbit generators: (lifted Morse index) + 1 - n + 2*(tau_X - K)/K * k.
    Interior generators: n - (Morse index).
    """
    return exact_quotient(scaled_degree(setup, gen), setup.degree_scale[0])


def degree_difference(setup: SetupDescriptor, a: Generator,
                      b: Generator) -> Optional[int]:
    """deg a - deg b when it is an integer, else None (the two lie in
    different cosets): the difference of the D*degrees, divided by D."""
    diff, rest = divmod(scaled_degree(setup, a) - scaled_degree(setup, b),
                        setup.degree_scale[0])
    return None if rest else diff


def scaled_reeb_weight(setup: SetupDescriptor, k: int) -> int:
    """D times the degree weight -2 + 2*(tau_X - K)/K*k of the k-fold Reeb
    fibre family itself: -2D + p*k, where p/D = 2*(tau_X - K)/K."""
    if k < 1:
        raise CascadixError(f"orbit winding must be >= 1, got {k}")
    d, p = setup.degree_scale
    return p * k - 2 * d


def filling_class_term(setup: SetupDescriptor,
                       class_b: Sequence[int]) -> int:
    """2(<c1(TX), B> - B.Sigma): the index a filling class B contributes."""
    return 2 * (pair(setup.lattice_x.c1, class_b)
                - pair(setup.lattice_x.sigma_intersection, class_b))


def sigma_c1_of_step(setup: SetupDescriptor, step: int) -> Optional[int]:
    """c1(A) of the classes A on Sigma with K*omega(A) = step, or None when
    it is not an integer: on Sigma c1 = (tau - K)*omega, so
    K*omega(A) = (2D/p)*c1(A), where p/D = 2*(tau - K)/K."""
    d, p = setup.degree_scale
    c1, rest = divmod(step * p, 2 * d)
    return None if rest else c1


def multiplicity_balance(setup: SetupDescriptor, class_a: Sequence[int],
                         k_plus: int, k_minus: int,
                         aug_multiplicities: Sequence[int]) -> bool:
    """Winding bookkeeping across one cascade level.

    True iff k_plus - k_minus - sum(aug) equals K * omega(A) exactly, read
    as c1(A) (`sigma_c1_of_step`), and the level is winding-increasing
    (k_plus > k_minus) whenever it is non-trivial (A nonzero or augmented).
    """
    step = k_plus - k_minus - sum(aug_multiplicities)
    if sigma_c1_of_step(setup, step) != pair(setup.lattice_sigma.c1, class_a):
        return False
    if (any(class_a) or len(aug_multiplicities) > 0) and not k_plus > k_minus:
        return False
    return True


def augmentation_index(setup: SetupDescriptor, class_b: Sequence[int]) -> int:
    """Deformation index 2(<c1(TX), B> - B.Sigma - 1) of an augmentation plane.

    Raises NonPositiveArea unless the filling class term, 2(tau - K)*omega(B)
    on a valid setup, is positive; being even, it then leaves the index >= 0.
    """
    term = filling_class_term(setup, class_b)
    if term <= 0:
        raise NonPositiveArea(
            f"2(<c1(TX), B> - B.Sigma) = {term} is not positive")
    return term - 2


def coset_label(setup: SetupDescriptor, gen: Generator) -> Rational:
    """Fractional part of the degree; constant on each interacting block.
    The int 0 when the degree is an integer, else a `Fraction`."""
    d = setup.degree_scale[0]
    return exact_quotient(scaled_degree(setup, gen) % d, d)


def winding_at(setup: SetupDescriptor, point: LiftedCriticalPoint,
               scaled: int) -> Optional[int]:
    """The winding k >= 1 at which the lift `point` has D*degree `scaled`,
    or None if there is none.

    D*degree is D*(lifted index + 1 - n) + p*k, with p > 0 by validation,
    so k is one division by p; it is a winding only when the division is
    exact and k >= 1.
    """
    d, p = setup.degree_scale
    k, rest = divmod(scaled - d * (point.lifted_index + 1 - setup.n), p)
    return None if rest or k < 1 else k


def _points_in_order(setup: SetupDescriptor, points: Optional[Container]
                     ) -> List[Tuple[int, Union[CriticalPoint,
                                               LiftedCriticalPoint]]]:
    """(q, point) of each filling critical point and lift (only those in
    `points`, if given), in generator order within one block.

    With p/D the winding slope, an interior point's D*degree is p*q + r and
    a lift's at winding k is p*(q + k) + r, with 0 <= r < p.  So q + k (q
    for an interior point) numbers the block of p consecutive D*degrees a
    generator lies in, and within a block D*degree orders as r.  The list
    is in (r, kind, name, flag) order, the order of the generators of one
    block.
    """
    d, p = setup.degree_scale
    keyed = []
    for x in setup.morse_w:
        if points is None or x in points:
            q, r = divmod(d * (setup.n - x.morse_index), p)
            keyed.append(((r, "interior", x.name, ""), q, x))
    for base in setup.morse_sigma:
        for flag in (_CHECK, _HAT):
            lift = LiftedCriticalPoint(base, flag)
            if points is None or lift in points:
                q, r = divmod(d * (lift.lifted_index + 1 - setup.n), p)
                keyed.append(((r, "orbit", base.name, flag._value_), q, lift))
    keyed.sort(key=lambda item: item[0])
    return [(q, point) for _, q, point in keyed]


def ordered_generators(setup: SetupDescriptor, k_max: int,
                       points: Optional[Container] = None
                       ) -> Iterator[Generator]:
    """Every generator with winding <= k_max (only those at `points`, if
    given), sorted by degree then name, one at a time.

    The order is (D*degree, kind, name, flag), taken block by block (see
    `_points_in_order`): a lift has a generator in each block from q + 1
    to q + k_max, an interior point in block q alone.  Between two blocks
    where some point starts or stops, the same points have a generator in
    every block, in the same order, so nothing is sorted per generator and
    nothing is held.  k_max < 0 is refused here, not at the first
    generator.
    """
    _refuse_negative(k_max)
    # (first block, block after the last, lift, q) or, for an interior
    # point, (q, q + 1, its generator, None)
    order = []
    for q, point in _points_in_order(setup, points):
        if isinstance(point, CriticalPoint):
            order.append((q, q + 1, InteriorGenerator(point), None))
        elif k_max:
            order.append((q + 1, q + k_max + 1, point, q))
    return _in_blocks(order)


def _refuse_negative(k_max: int) -> None:
    if k_max < 0:
        raise CascadixError(f"k_max must be >= 0, got {k_max}")


def _in_blocks(order):
    """The generators of `ordered_generators`' `order`, block by block."""
    edges = sorted({edge for lo, hi, _, _ in order for edge in (lo, hi)})
    for lo, hi in zip(edges, edges[1:]):
        here = [(point, q) for first, stop, point, q in order
                if first <= lo < stop]
        if not here:   # a stretch between far-apart points, skipped whole
            continue
        for m in range(lo, hi):
            for point, q in here:
                yield point if q is None else OrbitGenerator(point, m - q)


def enumerate_generators(setup: SetupDescriptor, k_max: int,
                         degree: Optional[Fraction] = None,
                         points: Optional[Container] = None
                         ) -> List[Generator]:
    """All generators with winding <= k_max, sorted by degree then name.

    Without a degree filter the list is `ordered_generators`, with
    |crit W| + 2 * |crit Sigma| * k_max entries.  With one, only generators
    of exactly that degree are built: none when D*degree is not an
    integer, and otherwise each lift at the one winding `winding_at` gives,
    if any, so the cost does not grow with k_max; one degree is one r, so
    `_points_in_order` is already their order.  With `points`, only the
    generators at those filling critical points and lifts are built; the
    order is that of the full list.
    """
    if degree is None:
        return list(ordered_generators(setup, k_max, points))
    _refuse_negative(k_max)
    scaled = setup.degree_scale[0] * Fraction(degree)
    if scaled.denominator != 1:
        return []
    gens: List[Generator] = []
    for _, point in _points_in_order(setup, points):
        if isinstance(point, CriticalPoint):
            gen = InteriorGenerator(point)
            if scaled_degree(setup, gen) == scaled.numerator:
                gens.append(gen)
        else:
            k = winding_at(setup, point, scaled.numerator)
            if k is not None and k <= k_max:
                gens.append(OrbitGenerator(point, k))
    return gens
