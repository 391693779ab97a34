"""Admissible Hamiltonian profiles and their orbit levels.

The Hamiltonian used by the split model depends only on the cylindrical
radius rho and vanishes for rho <= 2; beyond the plateau it is strictly
increasing and strictly convex with unbounded slope.  Nonconstant orbits of
multiplicity k sit at the radius where h'(rho) = k * T0, one circle of them
per k, with action rho*h'(rho) - h(rho) (minus the y-intercept of the tangent
line, hence positive) and with linearized vertical rotation speed
C = h''(rho) * rho.

This is the one module that works in floating point: orbit radii are roots of
transcendental equations.  Everything downstream consumes only the integer
multiplicity k, never these floats, so exactness elsewhere is unaffected.

Profile specifications accepted by `make_profile` (see docs/profiles.md):

* "quadratic"                    h = (rho-2)^2
* "power:<p>"                    h = (rho-2)^p, p >= 2
* "expr:<h>;<h'>;<h''>"          explicit expressions in the variable rho

Expression profiles supply their own derivatives; nothing here differentiates
symbolically.  `check_admissible` cross-validates h' against a central finite
difference of h, which catches inconsistent expression triples.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .errors import CascadixError

# points of the geometric grid `check_admissible` samples
ADMISSIBILITY_SAMPLES = 240


class NoBracket(CascadixError):
    """h' never reaches the requested slope (or starts above it)."""


class NonMonotone(CascadixError):
    """Sampled h' decreased, or a computed orbit violated positivity."""


class ProfileParseError(CascadixError):
    """Unusable profile specification string."""


class Profile(NamedTuple):
    name: str
    h: Callable[[float], float]
    h_prime: Callable[[float], float]
    h_double_prime: Callable[[float], float]


class OrbitLevel(NamedTuple):
    """One circle of nonconstant orbits: multiplicity k at radius rho = e^b."""

    k: int
    b: float
    rho: float
    action: float
    vertical_c: float
    residual: float


def power_profile(p: float) -> Profile:
    if not math.isfinite(p):   # nan < 2 is false
        raise ProfileParseError(f"power profile needs a finite p >= 2, got {p}")
    if p < 2:
        raise ProfileParseError(f"power profile needs p >= 2, got {p}")
    return Profile(
        f"power:{p:g}",
        lambda r: (r - 2.0) ** p if r > 2.0 else 0.0,
        lambda r: p * (r - 2.0) ** (p - 1) if r > 2.0 else 0.0,
        lambda r: p * (p - 1) * (r - 2.0) ** (p - 2) if r > 2.0 else 0.0,
    )


_EXPR_NAMES = {
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "pow": math.pow,
    "cosh": math.cosh, "sinh": math.sinh, "tanh": math.tanh,
    "atan": math.atan, "fabs": math.fabs, "pi": math.pi, "e": math.e,
}


def _compile_expr(src: str, label: str) -> Callable[[float], float]:
    """The expression as a function of rho.  Only the arithmetic of
    docs/profiles.md compiles: + - * / ** and unary + -, calls of the
    `_EXPR_NAMES` functions, those names and rho, and numbers, each made a
    float.  Every value is then a float, so a power such as 9**9**9
    overflows at once instead of running without bound, as an exact int or
    bool one would."""
    import ast   # here, so that a launch without an expression skips it

    binary = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
    unary = (ast.UAdd, ast.USub)

    def refuse(what):
        raise ProfileParseError(
            f"{label} expression {src!r} uses {what}, which a profile "
            f"expression may not")

    def check(node):
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, binary):
                refuse(f"the operator {type(node.op).__name__}")
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, unary):
                refuse(f"the operator {type(node.op).__name__}")
            check(node.operand)
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                refuse("a call other than f(x, ...) of a named function")
            check(node.func)
            for arg in node.args:
                check(arg)
        elif isinstance(node, ast.Name):
            if node.id not in _EXPR_NAMES and node.id != "rho":
                raise ProfileParseError(
                    f"{label} expression uses unknown name {node.id!r}")
        elif isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                refuse(f"the constant {node.value!r}")
            try:
                node.value = float(node.value)
            except OverflowError as exc:
                raise ProfileParseError(
                    f"bad {label} expression {src!r}: {exc}") from exc
        else:
            refuse(f"the construct {type(node).__name__}")

    try:
        tree = ast.parse(src, f"<profile {label}>", "eval")
        check(tree.body)
        code = compile(tree, f"<profile {label}>", "eval")
    except SyntaxError as exc:
        raise ProfileParseError(f"bad {label} expression {src!r}: {exc}") from exc
    except (RecursionError, MemoryError):
        # the parser's and this check's depth limits
        raise ProfileParseError(
            f"{label} expression nested too deeply") from None

    def call(r: float) -> float:
        if r <= 2.0:
            return 0.0
        try:
            return float(eval(code, {"__builtins__": {}},
                              {**_EXPR_NAMES, "rho": r}))
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ProfileParseError(
                f"{label} expression {src!r} fails at rho={r!r}: {exc}"
            ) from None

    return call


def make_profile(spec: str) -> Profile:
    spec = spec.strip()
    if spec == "quadratic":
        return power_profile(2)
    if spec.startswith("power:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ProfileParseError(f"bad power profile {spec!r}") from exc
        return power_profile(p)
    if spec.startswith("expr:"):
        body = spec[len("expr:"):]
        parts = body.split(";")
        if len(parts) != 3:
            raise ProfileParseError(
                "expr profile needs three ;-separated expressions: h;h';h''"
            )
        h, hp, hpp = (_compile_expr(part, lbl)
                      for part, lbl in zip(parts, ("h", "h'", "h''")))
        return Profile(f"expr:{body}", h, hp, hpp)
    raise ProfileParseError(f"unknown profile {spec!r}")


def orbit_level(profile: Profile, k: int, t0) -> OrbitLevel:
    """Locate the multiplicity-k orbit circle of an admissible profile.

    Solves h'(rho) = k*t0 by bracketed bisection until the bracket holds two
    adjacent floats, and takes the end with the smaller slope residual, so
    the residual is at rounding level.  `t0` is a number; setups hold it as
    a `Fraction`.
    Raises NoBracket if the slope never reaches k*t0 and NonMonotone if the
    sampled slope decreases while searching.
    """
    if k < 1:
        raise ValueError(f"multiplicity must be >= 1, got {k}")
    target = float(k) * float(t0)
    if target <= 0.0:
        raise ValueError("T0 must be positive")

    lo = 2.0 + 1e-13
    f_lo = profile.h_prime(lo) - target
    if f_lo > 0.0:
        raise NoBracket(f"h' already above {target:g} at the domain floor")

    # double the offset from the floor until the slope crosses the target
    off = 1.0
    prev_slope = profile.h_prime(lo)
    hi = None
    while off <= 2.0 ** 60:
        r = 2.0 + off
        slope = profile.h_prime(r)
        if slope < prev_slope - 1e-12 * max(1.0, abs(prev_slope)):
            raise NonMonotone(f"h' decreased between samples near rho={r:g}")
        prev_slope = slope
        if slope >= target:
            hi = r
            break
        off *= 2.0
    if hi is None:
        raise NoBracket(f"h' stays below {target:g} out to rho=2+2^60")

    # bisect until a and b are adjacent floats, then take the closer end
    a, b = lo, hi
    while True:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if profile.h_prime(mid) - target <= 0.0:
            a = mid
        else:
            b = mid
    rho = min((a, b), key=lambda r: abs(profile.h_prime(r) - target))

    action = rho * profile.h_prime(rho) - profile.h(rho)
    vertical_c = profile.h_double_prime(rho) * rho
    if action <= 0.0:
        raise NonMonotone(f"orbit action not positive at rho={rho:g} (profile not convex?)")
    if vertical_c <= 0.0:
        raise NonMonotone(f"h''*rho not positive at rho={rho:g}")
    residual = abs(profile.h_prime(rho) - target)
    return OrbitLevel(k=k, b=math.log(rho), rho=rho, action=action,
                      vertical_c=vertical_c, residual=residual)


class AdmissibilityReport(NamedTuple):
    ok: bool
    first_violation: Optional[str]


def check_admissible(profile: Profile) -> AdmissibilityReport:
    """Sample the profile on a geometric grid and test the admissibility
    conditions: h vanishes on the plateau, h' and h'' positive beyond it, and
    h' consistent with a central finite difference of h (relative 1e-6).

    The grid is rho = 2 + 2^e with e running uniformly over [-40, 20], which
    probes both the flat takeoff and the large-radius growth.  The finite
    difference check is restricted to rho - 2 >= 1e-4, where float
    cancellation in h(rho+d) - h(rho-d) is under control.
    """
    for r in (0.0, 1.0, 1.7, 2.0):
        if profile.h(r) != 0.0:
            return AdmissibilityReport(False, f"h not zero at rho={r:g}")

    for i in range(ADMISSIBILITY_SAMPLES):
        e = -40.0 + 60.0 * i / (ADMISSIBILITY_SAMPLES - 1)
        r = 2.0 + 2.0 ** e
        hp = profile.h_prime(r)
        if not hp > 0.0:
            return AdmissibilityReport(False, f"h' not positive at rho={r:.6g}")
        hpp = profile.h_double_prime(r)
        if not hpp > 0.0:
            return AdmissibilityReport(False, f"h'' not positive at rho={r:.6g}")
        if r - 2.0 >= 1e-4:
            d = (r - 2.0) * 1e-4
            fd = (profile.h(r + d) - profile.h(r - d)) / (2.0 * d)
            tol = 1e-6 * max(1.0, abs(hp), abs(fd))
            if abs(fd - hp) > tol:
                return AdmissibilityReport(
                    False,
                    f"h' disagrees with finite difference at rho={r:.6g} "
                    f"({hp:.6g} vs {fd:.6g})",
                )
    return AdmissibilityReport(True, None)
