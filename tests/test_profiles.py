import math
from fractions import Fraction

import pytest

import oracles
from cascadix.profiles import (
    NoBracket,
    NonMonotone,
    ProfileParseError,
    check_admissible,
    make_profile,
    orbit_level,
    power_profile,
)


def test_quadratic_frozen_levels():
    prof = make_profile("quadratic")
    for k, (rho, action, c) in oracles.QUADRATIC_T0_1.items():
        lvl = orbit_level(prof, k, 1)
        assert lvl.rho == pytest.approx(rho, abs=1e-11)
        assert lvl.action == pytest.approx(action, abs=1e-10)
        assert lvl.vertical_c == pytest.approx(c, abs=1e-10)
        assert lvl.b == pytest.approx(math.log(rho), abs=1e-11)


def test_quadratic_is_the_closed_form_bit_for_bit():
    """`quadratic` is `power:2`: x**1 == x and x**0 == 1.0, so each callable
    returns exactly the float of (rho-2)^2 and its derivatives."""
    prof = make_profile("quadratic")
    for r in (0.0, 2.0, 2.0 + 2.0 ** -40, 2.1, 2.75, 3.0, 17.3, 2.0 ** 20):
        x = r - 2.0
        want = (x ** 2, 2.0 * x, 2.0) if r > 2.0 else (0.0, 0.0, 0.0)
        assert (prof.h(r), prof.h_prime(r), prof.h_double_prime(r)) == want


@pytest.mark.parametrize("p", [2, 3, 2.5, 5])
def test_power_levels_match_closed_form(p):
    prof = power_profile(p)
    for k in (1, 2, 7, 50):
        lvl = orbit_level(prof, k, 1)
        assert lvl.rho == pytest.approx(oracles.power_orbit_root(p, k, 1.0), rel=1e-12)
        assert lvl.action == pytest.approx(oracles.power_orbit_action(p, k, 1.0), rel=1e-10)
        assert lvl.vertical_c == pytest.approx(oracles.power_orbit_vertical(p, k, 1.0), rel=1e-9)
        assert lvl.residual <= 1e-11


def test_action_strictly_increasing_in_k():
    for spec in ("quadratic", "power:3"):
        prof = make_profile(spec)
        prev_action = 0.0
        prev_rho = 2.0
        for k in range(1, 51):
            lvl = orbit_level(prof, k, 1)
            assert lvl.action > prev_action
            assert lvl.rho > prev_rho
            prev_action, prev_rho = lvl.action, lvl.rho


def test_tangent_line_identity():
    # action equals minus the y-intercept of the tangent line at rho_k
    prof = make_profile("power:3")
    lvl = orbit_level(prof, 5, Fraction(3, 2))
    intercept = prof.h(lvl.rho) - lvl.rho * prof.h_prime(lvl.rho)
    assert lvl.action == pytest.approx(-intercept, rel=1e-12)
    assert prof.h_prime(lvl.rho) == pytest.approx(5 * 1.5, abs=1e-11)


def test_rational_t0():
    prof = make_profile("quadratic")
    lvl = orbit_level(prof, 3, Fraction(1, 2))  # slope 3/2: rho = 2.75
    assert lvl.rho == pytest.approx(2.75, abs=1e-11)


def test_admissible_builtin():
    for prof in (make_profile("quadratic"), power_profile(4)):
        report = check_admissible(prof)
        assert report.ok and report.first_violation is None


def test_admissible_catches_bad_expression():
    # wrong first derivative: finite difference check must fire
    prof = make_profile("expr:(rho-2)**2;3*(rho-2);2")
    rep = check_admissible(prof)
    assert not rep.ok
    assert "finite difference" in rep.first_violation


def test_admissible_catches_concavity():
    prof = make_profile("expr:sqrt(rho-2);0.5*(rho-2)**-0.5;-0.25*(rho-2)**-1.5")
    rep = check_admissible(prof)
    assert not rep.ok
    assert "h''" in rep.first_violation


def test_no_bracket_for_bounded_slope():
    # h' tends to 1: slope 2 is never reached
    prof = make_profile("expr:rho-2-log(rho-1);1-1/(rho-1);(rho-1)**-2")
    with pytest.raises(NoBracket):
        orbit_level(prof, 2, 1)


def test_non_monotone_detected():
    # build directly: a profile whose slope dips
    from cascadix.profiles import Profile

    wavy = Profile(
        "wavy",
        lambda r: 0.0,
        lambda r: max(0.0, 3.0 - abs(r - 5.0)) if r > 2.0 else 0.0,
        lambda r: 1.0,
    )
    with pytest.raises(NonMonotone):
        orbit_level(wavy, 1000, 1)


def test_profile_parse_errors():
    with pytest.raises(ProfileParseError):
        make_profile("power:1")
    with pytest.raises(ProfileParseError):
        make_profile("expr:rho;rho")
    with pytest.raises(ProfileParseError):
        make_profile("expr:__import__('os');1;1")
    with pytest.raises(ProfileParseError):
        make_profile("nope")


@pytest.mark.parametrize("spec,message", [
    ("power:nan", "power profile needs a finite p >= 2, got nan"),
    ("power:inf", "power profile needs a finite p >= 2, got inf"),
    ("power:1e400", "power profile needs a finite p >= 2, got inf"),
    ("power:-inf", "power profile needs a finite p >= 2, got -inf"),
    ("power:1.5", "power profile needs p >= 2, got 1.5"),
], ids=["nan", "inf", "overflow", "minus-inf", "below-two"])
def test_power_exponent_refused_up_front(spec, message):
    """`nan < 2` is false, so a NaN exponent would pass a bare `p < 2`
    test and fail only at the admissibility scan; it and an infinite one
    are refused when the profile is made, naming the exponent."""
    with pytest.raises(ProfileParseError) as exc:
        make_profile(spec)
    assert str(exc.value) == message


@pytest.mark.parametrize("spec,field,bad", [
    ("expr:(rho-2)**2;2*(rho-2);2/(rho-2-rho+2)", 2, "2/(rho-2-rho+2)"),
    ("expr:rho;1;pi(1)", 2, "pi(1)"),
    ("expr:log(2-rho);2*(rho-2);2", 0, "log(2-rho)"),
    ("expr:(rho-2)**2+9**9**9*0;2*(rho-2);2", 0, "(rho-2)**2+9**9**9*0"),
], ids=["zero-division", "type", "math-domain", "integer-power-overflow"])
def test_expression_errors_become_parse_errors(spec, field, bad):
    """Arithmetic, type (calling the float `pi`) and math-domain errors
    raised while evaluating an expression come out as ProfileParseError
    naming the expression and rho.  Integer literals are floats, so
    9**9**9 overflows at once instead of being computed exactly."""
    prof = make_profile(spec)
    call = (prof.h, prof.h_prime, prof.h_double_prime)[field]
    with pytest.raises(ProfileParseError, match=r"fails at rho=3\.0") as info:
        call(3.0)
    assert repr(bad) in str(info.value)


TOWER = "((rho>1)+(rho>1))**((rho>1)+(rho>1))**((rho>1)+(rho>1))"


@pytest.mark.parametrize("expression,construct", [
    (TOWER, "the construct Compare"),
    ("(rho-2)**2*True", "the constant True"),
    ("(rho-2)**2 if rho else 1", "the construct IfExp"),
    ("(rho-2)**2 or 1", "the construct BoolOp"),
    ("[1]", "the construct List"),
    ("rho[0]", "the construct Subscript"),
    ("exp([r for r in (rho,)])", "the construct ListComp"),
    ("(rho-2)**2 % 7", "the operator Mod"),
    ("(rho-2)**2 // 1", "the operator FloorDiv"),
    ("~rho", "the operator Invert"),
    ("not rho", "the operator Not"),
    ("'rho'", "the constant 'rho'"),
    ("1j*rho", "the constant 1j"),
    ("math.pi", "the construct Attribute"),
    ("pow(rho, exp=2)", "a call other than f(x, ...) of a named function"),
], ids=["compare-tower", "bool", "ifexp", "boolop", "list", "subscript",
        "comprehension", "mod", "floordiv", "invert", "not", "string",
        "complex", "attribute", "keyword"])
def test_expression_constructs_refused_when_parsed(expression, construct):
    """Only + - * / **, unary + -, calls of the allowed functions, their
    names, rho and numbers compile, so every value is a float: a tower of
    comparisons (exact ints) or bools cannot compute an exact power
    without bound.  Anything else is refused by name when the profile is
    made, before any evaluation."""
    with pytest.raises(ProfileParseError) as exc:
        make_profile(f"expr:{expression};1;1")
    assert str(exc.value) == (f"h expression {expression!r} uses "
                              f"{construct}, which a profile expression "
                              f"may not")


@pytest.mark.parametrize("spec", [
    "expr:" + "-" * 5000 + "rho;1;1",
    "expr:" + "+".join(["rho"] * 5000) + ";1;1",
], ids=["unary", "sum"])
def test_expression_nested_too_deeply_is_a_parse_error(spec):
    with pytest.raises(ProfileParseError,
                       match="^h expression nested too deeply$"):
        make_profile(spec)


def test_documented_expressions_still_compile():
    prof = make_profile("expr:(rho-2)**2;2*(rho-2);2")
    assert (prof.h(3.0), prof.h_prime(3.0), prof.h_double_prime(3.0)) == \
        (1.0, 2.0, 2.0)
    prof = make_profile("expr:-(-exp(rho-2)+1+(rho-2));+exp(rho-2)-1;"
                        "pow(e, rho-2)*1.0e0")
    assert prof.h(2.5) == pytest.approx(math.exp(0.5) - 1.5)
    assert prof.h_double_prime(2.5) == pytest.approx(math.exp(0.5))
