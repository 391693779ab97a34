"""Monotone-triple descriptors and exact lattice pairings.

The input to every computation is a closed monotone symplectic manifold
together with a distinguished symplectic hypersurface, auxiliary Morse data on
the hypersurface and on the complement, and an exact description of the two
relevant second-homology lattices.  This module holds the immutable setup
descriptor, the JSON loader, and the pairing of lattice classes against one
functional; past `validate_setup` the engine reads only the integer ones.

Every scalar here is an exact `fractions.Fraction` (or int); floats are
rejected at parse time so downstream index arithmetic stays exact.

Monotonicity conventions enforced at validation time, writing tau for the
ambient monotonicity constant and K for the hypersurface degree:

* tau > K > 0;
* first Chern class pairs as tau * area on the ambient lattice;
* first Chern class pairs as (tau - K) * area on the hypersurface lattice;
* intersection with the hypersurface pairs as K * area on the ambient lattice.

The JSON format is documented in docs/setup-format.md.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import mul
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

from . import errors
from .errors import CascadixError, json_int, json_name


class ParseError(CascadixError):
    """Raised when a setup file is syntactically unusable."""


class ValidationError(CascadixError):
    """Raised when a parsed setup violates a structural invariant.

    The message names the first violated invariant, e.g. "tau_X <= K".
    """


class DimensionMismatch(CascadixError):
    """Raised when a class vector does not match the lattice rank."""


# Both enums hash by identity, in C: `Enum.__hash__` hashes the member's
# name in Python, and every lookup keyed by a lift or a critical point (a
# tuple holding one of them) paid that call.  A member is a singleton and
# equal only to itself, so the identity hash agrees with equality; it
# varies from run to run, as a str hash does under PYTHONHASHSEED, and
# nothing that is printed reads it.


class Ambient(Enum):
    __hash__ = object.__hash__

    SIGMA = "Sigma"
    W = "W"


class FibreFlag(Enum):
    __hash__ = object.__hash__

    CHECK = "check"
    HAT = "hat"


# Before Python 3.12 a member read off an Enum class goes through
# `EnumType.__getattr__`, about as slow as a function call (about 100 ns a
# read on Python 3.11, against under 10 ns for a module name), and a
# member's `value` is an `enum.property` descriptor, just as slow.  The
# catalog path reads a lift's flag for every degree, name and shape check,
# so it compares flags with these names and reads a flag's string as
# `_value_`, the plain instance attribute behind `value`.
_CHECK = FibreFlag.CHECK
_HAT = FibreFlag.HAT


Rational = Union[int, Fraction]
IntVector = Tuple[int, ...]


def parse_rational(value) -> Fraction:
    """`errors.parse_rational`, refusing with a `ParseError`."""
    return errors.parse_rational(value, ParseError)


def format_rational(value: Rational) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(value))


class HomologyLattice(NamedTuple):
    """A free abelian lattice with exact functionals on it.

    omega is the symplectic area (rational per generator), c1 the first Chern
    number (integer per generator), and sigma_intersection the intersection
    number with the hypersurface (integer per generator, present only on the
    ambient lattice).
    """

    generator_names: tuple[str, ...]
    omega: tuple[Fraction, ...]
    c1: tuple[int, ...]
    sigma_intersection: Optional[tuple[int, ...]] = None

    @property
    def rank(self) -> int:
        return len(self.generator_names)


def pair(values: Sequence[Rational], cls: Sequence[int]) -> Rational:
    """Pair an integer class vector against a functional's values on the
    generators, e.g. `pair(setup.lattice_x.c1, b)`: exact, and an int
    against integer values.  The zero vector pairs to 0.  The terms are
    multiplied and summed in C (`map`, `sum`), with no Python frame per
    term."""
    if len(cls) != len(values):
        raise DimensionMismatch(f"class vector of length {len(cls)} "
                                f"against lattice of rank {len(values)}")
    return sum(map(mul, cls, values))


def area_classes(values: Sequence[Rational]
                 ) -> Callable[[Rational], Optional[IntVector]]:
    """The map v -> class of value v under one functional, its unit class
    found once.

    The values form g*Z; v goes to m times the unit class if v = m*g with
    m > 0, and to None otherwise.  The unit class of value g comes from the
    extended Euclidean algorithm over the generators in file order, passing
    over a generator whose value g so far divides.  Scaling every value by
    one positive constant leaves each quotient alone, so on c1 and the
    divisor intersection, positive multiples of the area on a valid setup,
    it is the unit class of the area.  In rank 1 it is the only class of
    its value; in rank 0, or with all values 0, none exists.
    """
    rank = len(values)
    g, unit = 0, (0,) * rank
    for i, w in enumerate(values):
        if g and w % g == 0:
            continue
        # Euclid on (value, class) pairs, each class having its pair's value
        a, b = (g, unit), (w, (0,) * i + (1,) + (0,) * (rank - i - 1))
        while b[0]:
            q = a[0] // b[0]
            a, b = b, (a[0] - q * b[0],
                       tuple([x - q * y for x, y in zip(a[1], b[1])]))
        g, unit = a if a[0] >= 0 else (-a[0], tuple([-x for x in a[1]]))

    def of_value(v: Rational) -> Optional[IntVector]:
        m, rest = divmod(v, g) if g else (0, 0)
        return None if rest or m <= 0 else tuple([m * c for c in unit])

    return of_value


class CriticalPoint(NamedTuple):
    name: str
    morse_index: int
    ambient: Ambient


class _LiftedCriticalPointFields(NamedTuple):
    base: CriticalPoint
    flag: FibreFlag


class LiftedCriticalPoint(_LiftedCriticalPointFields):
    """A critical point of the hypersurface Morse function lifted to the
    circle bundle: each base point contributes a "check" lift (same index)
    and a "hat" lift (index + 1)."""

    __slots__ = ()

    # `_replace` builds its copy with `_make`: check the copy too
    _make = classmethod(lambda cls, fields: cls(*fields))

    # checked here, then built in C: the fields' generated `__new__` would
    # be a second Python frame per lift
    def __new__(cls, base: CriticalPoint, flag: FibreFlag):
        if base.ambient is not Ambient.SIGMA:
            raise ValidationError("only hypersurface critical points lift")
        return tuple.__new__(cls, (base, flag))

    @property
    def fibre_index(self) -> int:
        return 1 if self.flag is _HAT else 0

    @property
    def lifted_index(self) -> int:
        # the flag read here, not through `fibre_index`: one property less
        return self.base.morse_index + (1 if self.flag is _HAT else 0)

    @property
    def display_name(self) -> str:
        return f"{self.base.name}_{self.flag._value_}"


class _SetupDescriptorFields(NamedTuple):
    n: int
    tau_x: Fraction
    k_const: Fraction
    t0: Fraction
    lattice_sigma: HomologyLattice
    lattice_x: HomologyLattice
    morse_sigma: tuple[CriticalPoint, ...]
    morse_w: tuple[CriticalPoint, ...]
    name: str = ""


class SetupDescriptor(_SetupDescriptorFields):
    """Validated description of a monotone triple plus Morse data.

    n is half the real dimension of the ambient manifold; the hypersurface has
    real dimension 2n - 2, so its Morse indices live in [0, 2n-2] and the
    filling's in [0, 2n].  No `__slots__`: the instance `__dict__` holds the
    cached `slope_ratio` and `degree_scale`.
    """

    @cached_property
    def slope_ratio(self) -> Fraction:
        """(tau - K) / K: the per-multiplicity degree shift is twice this.

        Computed once per setup; the cache sits in the instance `__dict__`,
        outside the fields, so equality, hashing and repr are those of the
        fields alone.
        """
        return (self.tau_x - self.k_const) / self.k_const

    @cached_property
    def degree_scale(self) -> Tuple[int, int]:
        """(D, p) with p/D = 2(tau - K)/K in lowest terms, cached like
        `slope_ratio`.

        Every degree lies in (1/D)Z, and one more winding adds p/D to an
        orbit's degree; `grading` compares degrees as the integers
        D*degree.
        """
        step = 2 * self.slope_ratio
        return step.denominator, step.numerator

    def sigma_point(self, name: str) -> CriticalPoint:
        for p in self.morse_sigma:
            if p.name == name:
                return p
        raise ValidationError(f"no hypersurface critical point named {name!r}")

    def w_point(self, name: str) -> CriticalPoint:
        for p in self.morse_w:
            if p.name == name:
                return p
        raise ValidationError(f"no filling critical point named {name!r}")


def orbit_name_parts(name: str) -> Optional[Tuple[str, FibreFlag, int]]:
    """(base point name, flag, winding) of an orbit generator's name
    `<point>_<check|hat>_<digits>`, or None for any other name."""
    parts = name.rsplit("_", 2)
    if len(parts) == 3 and parts[1] in ("check", "hat") and parts[2].isdecimal():
        return parts[0], FibreFlag(parts[1]), int(parts[2])
    return None


def _lattice_from_dict(raw: dict, where: str, want_sigma_int: bool) -> HomologyLattice:
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: lattice must be an object")
    known = {"generators", "omega", "c1", "sigma_intersection"}
    for key in raw:
        if key not in known:
            raise ParseError(f"{where}: unknown key {key!r}")
    names = raw.get("generators", [])
    if not isinstance(names, list) \
            or not all(isinstance(s, str) for s in names):
        raise ParseError(f"{where}: generators must be a list of strings")
    names = tuple(names)
    rank = len(names)

    def vec(key, expect_int):
        if key not in raw:
            if key == "sigma_intersection":
                return None
            raise ParseError(f"{where}: missing {key}")
        entries = raw[key]
        if not isinstance(entries, list) or len(entries) != rank:
            raise ValidationError(f"{key} length != rank on {where}")
        out = []
        for e in entries:
            r = parse_rational(e)
            if expect_int:
                if r.denominator != 1:
                    raise ValidationError(f"{key} not integral on {where}")
                out.append(int(r))
            else:
                out.append(r)
        return tuple(out)

    omega = vec("omega", expect_int=False)
    c1 = vec("c1", expect_int=True)
    sig = vec("sigma_intersection", expect_int=True)
    if want_sigma_int and sig is None and rank > 0:
        raise ValidationError("sigma_intersection missing on X-lattice")
    if not want_sigma_int and sig is not None:
        raise ValidationError("sigma_intersection present on Sigma-lattice")
    if rank == 0:
        # degenerate but legal: all functionals empty
        return HomologyLattice((), (), (), () if want_sigma_int else None)
    return HomologyLattice(names, omega, c1, sig)


def _crit_list(raw, ambient: Ambient, where: str) -> tuple[CriticalPoint, ...]:
    if not isinstance(raw, list):
        raise ParseError(f"{where}: must be a list")
    pts = []
    for entry in raw:
        if not isinstance(entry, dict) or set(entry) != {"name", "index"}:
            raise ParseError(f"{where}: entries need exactly 'name' and 'index'")
        name = json_name(entry["name"], f"{where} point name", ParseError)
        index = json_int(entry["index"], f"{where}: index", ParseError)
        pts.append(CriticalPoint(name, index, ambient))
    return tuple(pts)


_TOP_KEYS = {
    "n", "tau_x", "k_const", "t0",
    "lattice_sigma", "lattice_x", "morse_sigma", "morse_w",
    "min_chern_sigma", "x_classes_from_sigma", "name",
}


def parse_setup(raw: dict, default_name: str = "") -> SetupDescriptor:
    """Build and validate a descriptor from already-decoded JSON data.

    The display name is the `name` key, or `default_name` without one.
    """
    if not isinstance(raw, dict):
        raise ParseError("top level must be an object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ParseError(f"unknown key {key!r}")
    for key in ("n", "tau_x", "k_const", "t0", "lattice_sigma", "lattice_x",
                "morse_sigma", "morse_w"):
        if key not in raw:
            raise ParseError(f"missing key {key!r}")

    n = json_int(raw["n"], "n", ParseError)
    tau = parse_rational(raw["tau_x"])
    kc = parse_rational(raw["k_const"])
    t0 = parse_rational(raw["t0"])

    lat_sigma = _lattice_from_dict(raw["lattice_sigma"], "Sigma-lattice", want_sigma_int=False)
    lat_x = _lattice_from_dict(raw["lattice_x"], "X-lattice", want_sigma_int=True)
    morse_sigma = _crit_list(raw["morse_sigma"], Ambient.SIGMA, "morse_sigma")
    morse_w = _crit_list(raw["morse_w"], Ambient.W, "morse_w")

    # read by nothing: type-checked, then dropped
    if raw.get("min_chern_sigma") is not None:
        json_int(raw["min_chern_sigma"], "min_chern_sigma", ParseError)
    if not isinstance(raw.get("x_classes_from_sigma", False), bool):
        raise ParseError("x_classes_from_sigma must be a boolean")

    desc = SetupDescriptor(
        n=n, tau_x=tau, k_const=kc, t0=t0,
        lattice_sigma=lat_sigma, lattice_x=lat_x,
        morse_sigma=morse_sigma, morse_w=morse_w,
        name=(json_name(raw["name"], "setup name", ParseError)
              if "name" in raw else default_name),
    )
    validate_setup(desc)
    return desc


def validate_setup(desc: SetupDescriptor) -> None:
    """Check every structural invariant; raise ValidationError naming the
    first violated one."""
    if desc.n < 1:
        raise ValidationError("n < 1")
    if desc.tau_x <= 0:
        raise ValidationError("tau_X not positive")
    if desc.k_const <= 0:
        raise ValidationError("K not positive")
    if desc.tau_x <= desc.k_const:
        raise ValidationError("tau_X <= K")
    if desc.t0 <= 0:
        raise ValidationError("T0 not positive")

    tau, kc = desc.tau_x, desc.k_const
    for i in range(desc.lattice_x.rank):
        if Fraction(desc.lattice_x.c1[i]) != tau * desc.lattice_x.omega[i]:
            raise ValidationError("c1 != tau_X*omega on X-lattice")
    for i in range(desc.lattice_sigma.rank):
        if Fraction(desc.lattice_sigma.c1[i]) != (tau - kc) * desc.lattice_sigma.omega[i]:
            raise ValidationError("c1 != (tau_X-K)*omega on Sigma-lattice")
    sig = desc.lattice_x.sigma_intersection
    for i in range(desc.lattice_x.rank):
        if Fraction(sig[i]) != kc * desc.lattice_x.omega[i]:
            raise ValidationError("sigma_intersection != K*omega on X-lattice")

    top_sigma = 2 * desc.n - 2
    for p in desc.morse_sigma:
        if not 0 <= p.morse_index <= top_sigma:
            raise ValidationError(f"Morse index out of range on Sigma: {p.name}")
    for p in desc.morse_w:
        if not 0 <= p.morse_index <= 2 * desc.n:
            raise ValidationError(f"Morse index out of range on W: {p.name}")
        if orbit_name_parts(p.name) is not None:
            raise ValidationError(
                f"filling critical point named like an orbit generator: {p.name}")

    seen = set()
    for p in desc.morse_sigma + desc.morse_w:
        if p.name in seen:
            raise ValidationError(f"duplicate critical point name: {p.name}")
        seen.add(p.name)


def load_setup(path) -> SetupDescriptor:
    """Load, parse, and validate a setup descriptor from a JSON file,
    named by the file stem unless it has a `name` key."""
    raw = errors.read_json_object(path, "setup", ParseError)
    return parse_setup(raw, default_name=Path(path).stem)
