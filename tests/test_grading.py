import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from cascadix.errors import CascadixError
from cascadix.grading import (
    InteriorGenerator,
    OrbitGenerator,
    NonPositiveArea,
    UnknownCriticalPoint,
    augmentation_index,
    coset_label,
    degree_difference,
    enumerate_generators,
    grade,
    interior_generator,
    orbit_generator,
    scaled_degree,
    multiplicity_balance,
    scaled_reeb_weight,
    sigma_c1_of_step,
    winding_at,
)
from cascadix.model import (Ambient, CriticalPoint, FibreFlag,
                            LiftedCriticalPoint, area_classes, pair)
from oracles import CapMismatch, cz_cap, grade_reeb
from test_cascades import monotone_setups, shipped_setup

FLAGS = {"check": FibreFlag.CHECK, "hat": FibreFlag.HAT}


def test_cp2_orbit_grades_match_oracle(cp2):
    by_index = {p.morse_index: p.name for p in cp2.morse_sigma}
    for (m_index, flag, k), expected in oracles.CP2_GRADINGS.items():
        gen = orbit_generator(cp2, by_index[m_index], FLAGS[flag], k)
        assert grade(cp2, gen) == expected


def test_cp2_interior_grade(cp2):
    gen = interior_generator(cp2, "x0")
    assert grade(cp2, gen) == oracles.CP2_INTERIOR_MIN_DEGREE


def test_reeb_weights(cp2, tau2):
    assert grade_reeb(cp2, 1) == oracles.CP2_REEB_DEGREE_K1
    assert grade_reeb(tau2, 1) == oracles.TAU2K1_REEB_DEGREE_K1
    with pytest.raises(CascadixError):
        grade_reeb(cp2, 0)


def assert_scaled_reeb_weight(setup):
    """`scaled_reeb_weight` is the int D * `grade_reeb`."""
    d = setup.degree_scale[0]
    for k in range(1, 25):
        weight = scaled_reeb_weight(setup, k)
        assert type(weight) is int
        assert weight == d * grade_reeb(setup, k)
    with pytest.raises(CascadixError):
        scaled_reeb_weight(setup, 0)


@pytest.mark.parametrize("name", ["cp2", "tau2", "rank0"])
def test_scaled_reeb_weight_shipped(name, request):
    assert_scaled_reeb_weight(request.getfixturevalue(name))


@settings(max_examples=60, deadline=None)
@given(setup=monotone_setups())
def test_scaled_reeb_weight_random(setup):
    assert_scaled_reeb_weight(setup)


def assert_integer_forms(setup, data):
    """`coset_label` is g - floor(g) of the `Fraction` degree g, negative
    degrees included, and `winding_at` is the `Fraction` winding where
    that is an integer >= 1, else None."""
    d, p = setup.degree_scale
    lifts = [LiftedCriticalPoint(q, flag) for q in setup.morse_sigma
             for flag in FibreFlag]
    windings = data.draw(st.lists(st.integers(1, 10**6), max_size=3))
    # interior indices 0..2n give every degree from n down to -n
    gens = [InteriorGenerator(CriticalPoint(f"z{i}", i, Ambient.W))
            for i in range(2 * setup.n + 1)]
    gens += [OrbitGenerator(point, k) for point in lifts
             for k in [1, 2, 3] + windings]
    for gen in gens:
        g = oracles.fraction_degree(setup, gen)
        assert coset_label(setup, gen) == g - math.floor(g), gen
    # each attained D*degree, the D*degrees one and two windings lower
    # (which reach windings 0 and -1, where there is no generator), and
    # values drawn at random
    scaled = {scaled_degree(setup, gen) - j * p for gen in gens
              for j in range(3)}
    scaled.update(data.draw(st.lists(st.integers(-10**6, 10**6),
                                     max_size=4)))
    for value in scaled:
        for point in lifts:
            assert winding_at(setup, point, value) == \
                oracles.fraction_winding_at(setup, point, Fraction(value, d)), \
                (setup.name, point, value)


@pytest.mark.parametrize("name", ["cp2", "tau2", "rank0", "rank2"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_integer_forms_shipped(name, data):
    assert_integer_forms(shipped_setup(name), data)


@settings(max_examples=60, deadline=None)
@given(setup=monotone_setups(), data=st.data())
def test_integer_forms_random(setup, data):
    assert_integer_forms(setup, data)


@settings(max_examples=60, deadline=None)
@given(setup=monotone_setups())
def test_integer_functionals_match_omega(setup):
    """The catalog reads classes through c1 on Sigma and B.Sigma on X; each
    test gives what its omega form gives: the class of each step, the unit
    class included in rank 2, the level balance and the plane's refusal."""
    sigma, x, k = setup.lattice_sigma, setup.lattice_x, setup.k_const
    sigma_class = area_classes(sigma.c1)
    x_class = area_classes(x.sigma_intersection)
    sigma_box = list(product(range(-2, 3), repeat=sigma.rank))
    x_box = list(product(range(-2, 3), repeat=x.rank))
    steps = set(range(-2, 13))
    steps |= {k * pair(sigma.omega, a) for a in sigma_box}
    steps |= {k * pair(x.omega, b) for b in x_box}
    for step in sorted(s for s in steps if s.denominator == 1):
        step = int(step)
        c1 = sigma_c1_of_step(setup, step)
        exact = (setup.tau_x - k) * step / k
        assert c1 == (exact if exact.denominator == 1 else None)
        assert (None if c1 is None else sigma_class(c1)) == \
            oracles.omega_class_of_area(sigma, step / k)
        assert x_class(step) == oracles.omega_class_of_area(x, step / k)
    for a in sigma_box:
        for k_plus, k_minus in product(range(5), repeat=2):
            for aug in ((), (1,), (2, 1)):
                assert multiplicity_balance(setup, a, k_plus, k_minus, aug) \
                    == oracles.omega_balance(setup, a, k_plus, k_minus, aug)
    for b in x_box:
        if oracles.omega_plane_positive(setup, b):
            assert augmentation_index(setup, b) >= 0
        else:
            with pytest.raises(NonPositiveArea):
                augmentation_index(setup, b)


def test_reeb_weight_vs_minimum_check_orbit_in_dim_two(cp2):
    # the k-fold fibre family over a minimum: check lift sits one above the
    # bare family weight exactly when n == 2
    for k in range(1, 8):
        gen = orbit_generator(cp2, "m", FibreFlag.CHECK, k)
        assert grade_reeb(cp2, k) == grade(cp2, gen) - 1


def test_hat_sits_one_above_check(cp2, tau2):
    for setup in (cp2, tau2):
        for name in ("m", "M"):
            for k in (1, 2, 5):
                chk = orbit_generator(setup, name, FibreFlag.CHECK, k)
                hat = orbit_generator(setup, name, FibreFlag.HAT, k)
                assert grade(setup, hat) - grade(setup, chk) == 1


def test_winding_step_is_twice_slope_ratio(cp2, tau2):
    for setup in (cp2, tau2):
        step = 2 * setup.slope_ratio
        for k in (1, 2, 3):
            a = orbit_generator(setup, "M", FibreFlag.HAT, k)
            b = orbit_generator(setup, "M", FibreFlag.HAT, k + 1)
            assert grade(setup, b) - grade(setup, a) == step


def test_capped_degree_equals_grade(cp2):
    gen = orbit_generator(cp2, "m", FibreFlag.CHECK, 1)
    assert cz_cap(cp2, gen, [1]) == oracles.CP2_CZ_CAP_MIN_K1_B1
    assert cz_cap(cp2, gen, [1]) == grade(cp2, gen)
    for k in (2, 3):
        for flag in FLAGS.values():
            g = orbit_generator(cp2, "M", flag, k)
            # line class has divisor intersection 1, so use k copies
            assert cz_cap(cp2, g, [k]) == grade(cp2, g)


def test_capped_degree_rejects_wrong_intersection(cp2):
    gen = orbit_generator(cp2, "m", FibreFlag.CHECK, 2)
    with pytest.raises(CapMismatch):
        cz_cap(cp2, gen, [1])


def test_unknown_names(cp2):
    with pytest.raises(UnknownCriticalPoint):
        orbit_generator(cp2, "nope", FibreFlag.CHECK, 1)
    with pytest.raises(UnknownCriticalPoint):
        interior_generator(cp2, "m")  # base point, not interior


def test_enumeration_count_and_order(cp2):
    for k_max in (0, 1, 3):
        gens = enumerate_generators(cp2, k_max)
        assert len(gens) == 1 + 2 * 2 * k_max
        grades = [grade(cp2, g) for g in gens]
        assert grades == sorted(grades)
    gens = enumerate_generators(cp2, 3)
    names = [g.display_name for g in gens]
    assert names[0] == "x0"
    assert "m_check_1" in names and "M_hat_3" in names
    assert len(set(names)) == len(names)


def test_enumeration_degree_filter(cp2):
    # degree 3 with k_max 2: only m_check_1
    picked = enumerate_generators(cp2, 2, degree=Fraction(3))
    assert [g.display_name for g in picked] == ["m_check_1"]
    # degree 2: the interior minimum only
    picked = enumerate_generators(cp2, 2, degree=Fraction(2))
    assert [g.display_name for g in picked] == ["x0"]
    assert enumerate_generators(cp2, 2, degree=Fraction(1, 2)) == []


def test_enumeration_deterministic(cp2):
    a = enumerate_generators(cp2, 4)
    b = enumerate_generators(cp2, 4)
    assert a == b


def test_integer_gate_and_cosets(cp2):
    gens = enumerate_generators(cp2, 2)
    # CP^2 slope ratio is an integer, so everything interacts
    for a in gens:
        for b in gens:
            assert (grade(cp2, a) - grade(cp2, b)).denominator == 1
            assert coset_label(cp2, a) == 0


def test_fractional_slope_splits_cosets():
    import json
    from pathlib import Path

    from cascadix.model import parse_setup

    raw = json.loads((Path(__file__).parent.parent / "data" / "cp2.json")
                     .read_text())
    raw["name"] = "cp2-over-K3"
    raw["k_const"] = "3"
    raw["lattice_x"]["sigma_intersection"] = ["3"]
    # tau stays 3, so slope ratio is 0: degenerate; use tau 4 instead
    raw["tau_x"] = "4"
    raw["lattice_x"]["c1"] = ["4"]
    raw["lattice_sigma"]["c1"] = ["1"]
    setup = parse_setup(raw)
    assert setup.slope_ratio == Fraction(1, 3)
    g1 = orbit_generator(setup, "m", FibreFlag.CHECK, 1)
    g2 = orbit_generator(setup, "m", FibreFlag.CHECK, 2)
    g3 = orbit_generator(setup, "m", FibreFlag.CHECK, 3)
    x = interior_generator(setup, "x0")
    assert grade(setup, g2) - grade(setup, g1) == Fraction(2, 3)
    assert (grade(setup, g3) - grade(setup, x)).denominator == 1
    assert coset_label(setup, g1) == Fraction(2, 3)
    assert coset_label(setup, g2) == Fraction(1, 3)
    assert coset_label(setup, g3) == 0
    # degrees in (1/3)Z, one winding adding 2/3
    assert setup.degree_scale == (3, 2)
    assert [scaled_degree(setup, g) for g in (g1, g2, g3, x)] == [-1, 1, 3, 6]
    assert degree_difference(setup, g2, g1) is None
    assert degree_difference(setup, x, g3) == 1
    assert degree_difference(setup, g3, x) == -1
    picked = enumerate_generators(setup, 6, degree=grade(setup, g1))
    assert g1 in picked
    assert all(grade(setup, g) == grade(setup, g1) for g in picked)


@given(k=st.integers(1, 30), delta=st.integers(1, 5))
@settings(max_examples=60)
def test_comparability_is_winding_congruence(tau2, k, delta):
    # slope ratio 1: all integer degrees
    a = orbit_generator(tau2, "m", FibreFlag.CHECK, k)
    b = orbit_generator(tau2, "M", FibreFlag.HAT, k + delta)
    assert (grade(tau2, b) - grade(tau2, a)).denominator == 1


def test_bad_windings(cp2):
    with pytest.raises(CascadixError):
        orbit_generator(cp2, "m", FibreFlag.CHECK, 0)
    with pytest.raises(CascadixError):
        enumerate_generators(cp2, -1)
