"""Release gate: eleven numbered end-to-end checks.

Each test prints one `ACCEPTANCE n: PASS` line on success (capture is
suspended for that line, so it shows up in plain `pytest -v` output).
A failing check surfaces as an ordinary pytest failure for its number.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import drills
import oracles

from cascadix import morse, profiles, spectrum
from cascadix.cascades import Case, certify_classification
from cascadix.fredholm import (
    KernelSubspace,
    Puncture,
    PuncturedProblem,
    Sign,
    Weighted,
    WeightSide,
    index_morse_bott,
    split_cylinder_problems,
    split_floer_index,
)
from cascadix.grading import (
    InteriorGenerator,
    OrbitGenerator,
    augmentation_index,
    multiplicity_balance,
)
from cascadix.model import FibreFlag, pair
from cascadix.spectrum import ComplexLinear, Side, VerticalC

TWO_PI = 2.0 * math.pi
DECAY = Weighted(WeightSide.DECAY)


@pytest.fixture()
def announce(capsys):
    def _line(number, detail):
        with capsys.disabled():
            print(f"\nACCEPTANCE {number}: PASS - {detail}")

    return _line


def positive_area_vectors(lattice, bound):
    """All integer vectors with 0 < omega <= bound, coordinates in [-bound, bound]."""
    out = []
    for coords in itertools.product(range(-bound, bound + 1),
                                    repeat=lattice.rank):
        if not any(coords):
            continue
        area = sum(Fraction(c) * w for c, w in zip(coords, lattice.omega))
        if 0 < area <= bound:
            out.append(tuple(coords))
    return out


def test_01_spectrum_tables(announce):
    start = time.monotonic()

    # degenerate vertical operator: spectrum 2*pi*Z, every point doubled
    pts = spectrum.spectrum_window(VerticalC(0.0), -3.5 * TWO_PI, 3.5 * TWO_PI)
    assert [(p.winding, p.multiplicity) for p in pts] == \
        [(j, 2) for j in range(-3, 4)]
    for p in pts:
        branch = 1 if p.winding >= 0 else -1
        assert p.eigenvalue == oracles.vertical_eigenvalue(
            0.0, abs(p.winding), branch)

    # positive constant: -C and 0 simple, outer mode-1 pair astride them
    for c in (0.5, 5.0, 42.0):
        lam_lo = oracles.vertical_eigenvalue(c, 1, -1)
        lam_hi = oracles.vertical_eigenvalue(c, 1, 1)
        pts = spectrum.spectrum_window(VerticalC(c), lam_lo - 0.25,
                                       lam_hi + 0.25)
        assert [(p.eigenvalue, p.multiplicity, p.winding) for p in pts] == [
            (lam_lo, 2, -1), (-c, 1, 0), (0.0, 1, 0), (lam_hi, 2, 1)]

    # Fourier discretization against the closed form
    rng = random.Random(20260822)
    for _ in range(50):
        c = rng.uniform(0.0, 100.0)
        num = oracles.discretize_spectrum(VerticalC(c), fourier_cutoff=48)
        lo, hi = -50.0, 50.0
        want = []
        for p in spectrum.spectrum_window(VerticalC(c), lo, hi):
            want.extend([p.eigenvalue] * p.multiplicity)
        got = [ev for ev in num if lo <= ev <= hi]
        assert len(got) == len(want)
        for g, w in zip(sorted(got), sorted(want)):
            assert abs(g - w) <= 1e-9

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    announce(1, "spectrum tables exact, 50 random constants discretized "
                f"within 1e-9, {elapsed:.2f}s")


def test_02_perturbed_cz_values(announce):
    for c in (0.3, 1.0, 5.0, 100.0):
        assert spectrum.cz_perturbed(VerticalC(c), Side.PLUS_SMALL) == 0
        assert spectrum.cz_perturbed(VerticalC(c), Side.MINUS_SMALL) == 1
    assert spectrum.cz_perturbed(VerticalC(0.0), Side.PLUS_SMALL) == -1
    assert spectrum.cz_perturbed(VerticalC(0.0), Side.MINUS_SMALL) == 1
    for m in range(1, 7):
        assert spectrum.cz_perturbed(ComplexLinear(m), Side.PLUS_SMALL) == -m
        assert spectrum.cz_perturbed(ComplexLinear(m), Side.MINUS_SMALL) == m
    announce(2, "perturbed CZ catalog 0 / -1 / 1 / -+n for n <= 6, exact")


def test_03_vertical_index_populations(announce):
    for gammas in range(4):
        extra_decay = tuple(
            Puncture(Sign.NEGATIVE, ComplexLinear(1), DECAY, interior=True)
            for _ in range(gammas))
        ham_ham = PuncturedProblem(1, 0, (
            Puncture(Sign.POSITIVE, VerticalC(5.0), DECAY),
            Puncture(Sign.NEGATIVE, VerticalC(0.25), DECAY)) + extra_decay)
        assert index_morse_bott(ham_ham) == -1 - 2 * gammas

        reeb_top = PuncturedProblem(1, 0, (
            Puncture(Sign.POSITIVE, ComplexLinear(1), DECAY),
            Puncture(Sign.NEGATIVE, VerticalC(5.0), DECAY)) + extra_decay)
        assert index_morse_bott(reeb_top) == -2 - 2 * gammas

        extra_full = tuple(
            Puncture(Sign.NEGATIVE, ComplexLinear(1), KernelSubspace(2),
                     interior=True)
            for _ in range(gammas))
        decorated = PuncturedProblem(1, 0, (
            Puncture(Sign.POSITIVE, VerticalC(1.0), KernelSubspace(1)),
            Puncture(Sign.NEGATIVE, VerticalC(2.0), KernelSubspace(1)))
            + extra_full)
        assert index_morse_bott(decorated) == 1

        ham_reeb = PuncturedProblem(1, 0, (
            Puncture(Sign.POSITIVE, VerticalC(1.0), KernelSubspace(1)),
            Puncture(Sign.NEGATIVE, ComplexLinear(1), KernelSubspace(2)))
            + extra_full)
        assert index_morse_bott(ham_reeb) == 2

        reeb_reeb = PuncturedProblem(1, 0, (
            Puncture(Sign.POSITIVE, ComplexLinear(1), KernelSubspace(2)),
            Puncture(Sign.NEGATIVE, ComplexLinear(1), KernelSubspace(2)))
            + extra_full)
        assert index_morse_bott(reeb_reeb) == 2
    announce(3, "weighted indices -1-2G / -2-2G and decorated 1 / 2 / 2 "
                "for G in 0..3, exact")


def test_04_crossing_formula(announce):
    failures = drills.crossing_identity_failures()
    assert failures == []
    count = len(drills.operator_catalog())
    announce(4, f"CZ(-d) - CZ(+d) == dim ker on all {count} catalog operators")


def test_05_split_index_sums(announce, cp2):
    rng = random.Random(41)
    for _ in range(100):
        n_levels = rng.randint(1, 3)
        aug_total = rng.randint(0, 2)
        augs = [0] * n_levels
        for _ in range(aug_total):
            augs[rng.randrange(n_levels)] += 1
        classes = [(rng.randint(0, 3),) for _ in range(n_levels)]
        total = 0
        c1_sum = 0
        for cls, aug in zip(classes, augs):
            c1 = int(pair(cp2.lattice_sigma.c1, cls))
            c1_sum += c1
            v, h = split_cylinder_problems(
                cp2.n, c1, aug_count=aug,
                c_top=rng.uniform(0.1, 9.0), c_bot=rng.uniform(0.1, 9.0))
            total += split_floer_index(v, h)
        expected = n_levels * (2 * cp2.n - 1) + 2 * c1_sum + 2 * aug_total
        assert total == expected
    announce(5, "100 randomized multi-level split index sums equal "
                "N(2n-1) + sum 2<c1,A> + 2k, exact")


def test_06_classification_certification(announce, cp2, tau2):
    start = time.monotonic()

    report_cp2 = certify_classification(cp2, 3, 3)
    assert report_cp2.certified
    assert {t.case_label for t in report_cp2.types} == \
        {Case.CASE0, Case.CASE1, Case.CASE3}

    report_tau2 = certify_classification(tau2, 3, 3)
    assert report_tau2.certified
    case2 = [t for t in report_tau2.types if t.case_label is Case.CASE2]
    assert case2
    for t in case2:
        jump = (tau2.tau_x - tau2.k_const) * (t.k_plus - t.k_minus)
        assert jump / tau2.k_const == 1

    checked = 0
    for report in (report_cp2, report_tau2):
        for t in report.types:
            checked += 1
            if isinstance(t.target, OrbitGenerator) and \
                    isinstance(t.source, OrbitGenerator):
                assert t.aug_count <= 1
                assert t.n_nonconstant <= 1
                assert t.n_constant <= t.aug_count
            if isinstance(t.source, InteriorGenerator):
                assert t.n_nonconstant == 0
                assert t.n_constant == 1
                assert t.aug_count == 0
                assert t.target.point.flag is FibreFlag.CHECK

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce(6, f"cases {{0,1,3}} + unit-slope case 2, budget invariants on "
                f"{checked}/{checked} types, {elapsed:.2f}s")


def test_07_augmentation_bounds(announce, cp2, tau2, rank0):
    setups = (cp2, tau2, rank0)
    base_checked = 0
    cover_checked = 0
    for setup in setups:
        vectors = positive_area_vectors(setup.lattice_x, 10)
        for vec in vectors:
            value = augmentation_index(setup, vec)
            assert value >= 0
            base_checked += 1
        for m in range(2, 6):
            for vec in vectors:
                covered = tuple(m * c for c in vec)
                area = pair(setup.lattice_x.omega, covered)
                if area > 10:
                    continue
                value = augmentation_index(setup, covered)
                assert value >= 2 * (m - 1)
                cover_checked += 1

    gates = 0
    for setup in setups:
        if oracles.chern_gate_applies(setup):
            gates += 1
            assert oracles.rigid_plane_classes(setup, Fraction(10)) == []
    assert oracles.chern_gate_applies(cp2)
    announce(7, f"index >= 0 on {base_checked} classes, covered floor on "
                f"{cover_checked}, Chern gate empty on {gates} setup(s)")


def test_08_multiplicity_balance(announce, cp2, tau2, rank0):
    aug_pool = [()]
    for length in range(1, 4):
        aug_pool.extend(
            tuple(combo) for combo in
            itertools.combinations_with_replacement(range(1, 7), length))

    checked = 0
    for setup in (cp2, tau2, rank0):
        rank = setup.lattice_sigma.rank
        classes = [cls for cls in itertools.product(range(-3, 4), repeat=rank)
                   if abs(sum(Fraction(c) * w for c, w in
                              zip(cls, setup.lattice_sigma.omega))) <= 3]
        for cls in classes:
            area = sum(Fraction(c) * w
                       for c, w in zip(cls, setup.lattice_sigma.omega))
            for k_plus, k_minus, aug in itertools.product(
                    range(7), range(7), aug_pool):
                balanced = Fraction(k_plus - k_minus - sum(aug)) == \
                    setup.k_const * area
                nontrivial = any(cls) or len(aug) > 0
                expected = balanced and (not nontrivial or k_plus > k_minus)
                got = multiplicity_balance(setup, cls, k_plus, k_minus, aug)
                assert got == expected
                checked += 1
    announce(8, f"balance matches brute force on {checked} "
                "(k+, k-, aug) triples")


def test_09_orientation_properties(announce):
    assert drills.run_associativity_trials(20260822, 200) == []
    assert drills.run_basis_independence_trials(7, 200) == []
    for which in ("v1", "v2", "w"):
        assert drills.run_flip_trials(11, 200, which) == []
    announce(9, "fibre-sum associativity, basis independence, and all "
                "three sign flips on 200 instances each")


def test_10_morse_engine(announce, data_dir):
    cases = (
        ("morse_circle.json", oracles.MORSE_CIRCLE),
        ("morse_s2.json", oracles.MORSE_SPHERE),
        ("morse_hopf.json", oracles.MORSE_HOPF),
        ("morse_lens3.json", oracles.MORSE_LENS3),
    )
    for fname, expected in cases:
        data = morse.load_morse_data(data_dir / fname)
        if isinstance(data, morse.LiftedMorseData):
            data = data.lifted()
        morse.boundaries(data)  # raises unless d^2 == 0
        got = {d: (b, t) for d, b, t in morse.homology(data)}
        assert got == expected
    announce(10, "d^2 = 0 verified and betti/torsion match oracles on "
                 "circle, sphere, Hopf lift, lens data")


def test_11_action_monotonicity(announce):
    worst = 0.0
    for spec in ("quadratic", "power:3", "power:5"):
        prof = profiles.make_profile(spec)
        prev = None
        for k in range(1, 51):
            level = profiles.orbit_level(prof, k, Fraction(1))
            assert level.residual <= 1e-11
            worst = max(worst, level.residual)
            if prev is not None:
                assert level.action > prev
            prev = level.action
    announce(11, "action strictly increasing to k=50 on 3 profiles, "
                 f"worst slope residual {worst:.1e}")
