import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from drills import operator_catalog
from cascadix.spectrum import (
    MAX_POINTS,
    ComplexLinear,
    Side,
    SpectralPoint,
    SpectrumError,
    VerticalC,
    cz_perturbed,
    kernel_dimension,
    spectrum_window,
    vertical_eigenvalue,
)

TWO_PI = 2.0 * math.pi


def test_degenerate_vertical_table():
    # spectrum of -i d/dt - 0: all of 2 pi Z, multiplicity 2, winding = mode
    pts = spectrum_window(VerticalC(0.0), -7.0, 7.0)
    assert [(p.winding, p.multiplicity) for p in pts] == [(-1, 2), (0, 2), (1, 2)]
    assert [p.mode for p in pts] == [1, 0, 1]
    assert pts[0].eigenvalue == pytest.approx(-TWO_PI)
    assert pts[1].eigenvalue == 0.0
    assert pts[2].eigenvalue == pytest.approx(TWO_PI)


def test_positive_vertical_table():
    pts = spectrum_window(VerticalC(5.0), -6.0, 7.0)
    # -c and 0 are simple; the next eigenvalue up is mode 1 with winding +1
    lam1 = oracles.vertical_eigenvalue(5.0, 1, +1)
    assert [(p.multiplicity, p.winding) for p in pts] == [(1, 0), (1, 0), (2, 1)]
    assert pts[0].eigenvalue == -5.0
    assert pts[1].eigenvalue == 0.0
    assert pts[2].eigenvalue == pytest.approx(lam1)
    # the mode-1 lower eigenvalue sits below the window
    assert oracles.vertical_eigenvalue(5.0, 1, -1) < -6.0


def test_complex_linear_window():
    pts = spectrum_window(ComplexLinear(3), -0.5, 4 * TWO_PI + 0.5)
    assert [(p.winding, p.multiplicity) for p in pts] == \
        [(j, 6) for j in range(0, 5)]


def test_windings_sorted_monotone():
    for op in operator_catalog():
        pts = spectrum_window(op, -50.0, 50.0)
        evs = [p.eigenvalue for p in pts]
        assert evs == sorted(evs)
        winds = [p.winding for p in pts]
        assert winds == sorted(winds)


def test_cz_frozen_values():
    assert cz_perturbed(VerticalC(5.0), Side.PLUS_SMALL) == 0
    assert cz_perturbed(VerticalC(5.0), Side.MINUS_SMALL) == 1
    assert cz_perturbed(VerticalC(0.0), Side.PLUS_SMALL) == -1
    assert cz_perturbed(VerticalC(0.0), Side.MINUS_SMALL) == 1
    for m in range(1, 7):
        assert cz_perturbed(ComplexLinear(m), Side.PLUS_SMALL) == -m
        assert cz_perturbed(ComplexLinear(m), Side.MINUS_SMALL) == m


def test_crossing_formula_exhaustive():
    for op in operator_catalog():
        drop = cz_perturbed(op, Side.MINUS_SMALL) - cz_perturbed(op, Side.PLUS_SMALL)
        assert drop == kernel_dimension(op)


def test_kernel_dimensions():
    assert kernel_dimension(VerticalC(7.5)) == 1
    assert kernel_dimension(VerticalC(0.0)) == 2
    assert kernel_dimension(ComplexLinear(4)) == 8


def test_discretized_vertical_matches_closed_form():
    c = 5.0
    num = oracles.discretize_spectrum(VerticalC(c), fourier_cutoff=64)
    lo, hi = -20.0, 20.0
    want = []
    for p in spectrum_window(VerticalC(c), lo, hi):
        want.extend([p.eigenvalue] * p.multiplicity)
    got = [ev for ev in num if lo - 1e-6 <= ev <= hi + 1e-6]
    # window edges: keep only values that match the closed-form count
    assert len(got) == len(want)
    for g, w in zip(sorted(got), sorted(want)):
        assert abs(g - w) <= 1e-9


def test_discretized_complex_linear():
    num = oracles.discretize_spectrum(ComplexLinear(1), fourier_cutoff=8)
    want = []
    for j in range(-8, 9):
        want.extend([TWO_PI * j] * 2)
    assert len(num) == len(want)
    for g, w in zip(sorted(num), sorted(want)):
        assert abs(g - w) <= 1e-9


def test_discretized_random_c_agreement():
    rng = random.Random(20260822)
    for _ in range(10):
        c = rng.uniform(0.0, 100.0)
        num = oracles.discretize_spectrum(VerticalC(c), fourier_cutoff=48)
        lo, hi = -50.0, 50.0
        want = []
        for p in spectrum_window(VerticalC(c), lo, hi):
            want.extend([p.eigenvalue] * p.multiplicity)
        got = [ev for ev in num if ev >= lo and ev <= hi]
        assert len(got) == len(want)
        assert np.max(np.abs(np.array(sorted(got)) - np.array(sorted(want)))) <= 1e-9


def test_closed_form_eigenvalues_solve_characteristic():
    # lambda(lambda + c) = 4 pi^2 k^2 for the vertical family
    for c in (0.0, 0.3, 2.0, 41.7):
        for k in range(0, 6):
            for br in (+1, -1):
                lam = vertical_eigenvalue(c, k, br)
                assert lam * (lam + c) == pytest.approx(
                    4.0 * math.pi ** 2 * k * k, abs=1e-6)


def test_bad_inputs():
    with pytest.raises(SpectrumError):
        VerticalC(-1.0)
    with pytest.raises(SpectrumError):
        ComplexLinear(0)
    with pytest.raises(SpectrumError):
        spectrum_window(VerticalC(1.0), 3.0, -3.0)
    for lo, hi in ((math.nan, 1.0), (math.nan, math.nan), (-math.inf, 0.0),
                   (0.0, math.inf)):
        for op in (VerticalC(1.0), VerticalC(0.0), ComplexLinear(2)):
            with pytest.raises(SpectrumError, match="finite"):
                spectrum_window(op, lo, hi)
    with pytest.raises(ValueError):
        oracles.discretize_spectrum(VerticalC(1.0), fourier_cutoff=2)


# On 2 pi Z the loop widens the window by this much at each end.
LATTICE_TOL = 1e-15

operators = st.one_of(st.builds(VerticalC, st.floats(0.0, 100.0)),
                      st.just(VerticalC(0.0)),
                      st.builds(ComplexLinear, st.integers(1, 4)))
# ends within 1e-14 of a multiple of 2 pi, where rounding decides
near_lattice = st.builds(lambda j, eps: j * TWO_PI + eps,
                         st.integers(-40, 40), st.floats(-1e-14, 1e-14))
ends = st.one_of(st.floats(-200.0, 200.0), near_lattice)


@settings(max_examples=300, deadline=None)
@given(op=operators, a=ends, b=ends)
def test_window_points_lie_in_window(op, a, b):
    """Every listed point lies in the window, and its mode is |winding|."""
    lo, hi = min(a, b), max(a, b)
    lattice = isinstance(op, ComplexLinear) or op.c == 0.0
    tol = LATTICE_TOL if lattice else 0.0
    for p in spectrum_window(op, lo, hi):
        assert lo - tol <= p.eigenvalue <= hi + tol, (op, lo, hi, p)
        assert p.mode == abs(p.winding), (op, p)


@settings(max_examples=300, deadline=None)
@given(a=near_lattice, b=near_lattice)
def test_degenerate_vertical_matches_complex_linear(a, b):
    """VerticalC(0) and ComplexLinear(1) have the same spectrum 2 pi Z, so
    they list the same points, also where an end sits on a multiple of 2 pi
    up to rounding."""
    lo, hi = min(a, b), max(a, b)
    assert [(p.eigenvalue, p.winding)
            for p in spectrum_window(VerticalC(0.0), lo, hi)] == \
        [(p.eigenvalue, p.winding)
         for p in spectrum_window(ComplexLinear(1), lo, hi)]


def scan_window(op, lo, hi):
    """Reference: walk the modes up from the window's first one until every
    branch has left the window."""
    if isinstance(op, ComplexLinear) or op.c == 0.0:
        pts, j = [], math.ceil(lo / TWO_PI - LATTICE_TOL)
        while j * TWO_PI <= hi + LATTICE_TOL:
            if j * TWO_PI >= lo - LATTICE_TOL:
                pts.append(SpectralPoint(j * TWO_PI, abs(j),
                                         2 * op.complex_rank, j))
            j += 1
        return pts
    c = op.c
    pts = [SpectralPoint(ev, 0, 1, 0) for ev in (-c, 0.0) if lo <= ev <= hi]
    k = 1
    while (vertical_eigenvalue(c, k, +1) <= hi
           or vertical_eigenvalue(c, k, -1) >= lo):
        for branch in (-1, +1):
            ev = vertical_eigenvalue(c, k, branch)
            if lo <= ev <= hi:
                pts.append(SpectralPoint(ev, k, 2, branch * k))
        k += 1
    return sorted(pts)


@settings(max_examples=300, deadline=None)
@given(op=operators, a=ends, b=ends)
def test_window_matches_mode_scan(op, a, b):
    """The closed-form mode range lists exactly what the scan lists."""
    lo, hi = min(a, b), max(a, b)
    assert spectrum_window(op, lo, hi) == scan_window(op, lo, hi)


@pytest.mark.parametrize("op, lo, hi, reason", [
    (VerticalC(0.0), 0.0, (MAX_POINTS + 2) * TWO_PI, "more than"),
    (ComplexLinear(1), -1e15, 0.0, "more than"),
    (VerticalC(1.0), 0.0, 1e15, "more than"),
    (VerticalC(1e20), -7.0, 7.0, "more than"),
    (VerticalC(0.0), 1e17, 1e17, "not distinct"),
    (VerticalC(1.0), -1e300, -1e300, "not distinct"),
    (VerticalC(1e12), 0.0, 1.0, "not distinct"),
    (VerticalC(1e20), 1.0, 1.00001, "not distinct"),
    (VerticalC(1e10), 0.0, 4e-4, "not distinct"),   # low modes all read 0
])
def test_window_beyond_float_or_size_is_rejected(op, lo, hi, reason):
    """Too many points, or points float rounding merges, raise at once."""
    with pytest.raises(SpectrumError, match=reason):
        spectrum_window(op, lo, hi)
