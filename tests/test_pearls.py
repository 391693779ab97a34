from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from cascadix.errors import CascadixError
from cascadix.grading import (
    NonPositiveArea,
    augmentation_index,
    grade,
    interior_generator,
    multiplicity_balance,
    orbit_generator,
)
from cascadix.model import FibreFlag
from cascadix.pearls import (
    NonIntegerDegreeDifference,
    VariantMismatch,
    pearl_in_sigma_dimension,
    pearl_with_sphere_dimension,
    w_to_y_dimension,
    y_to_y_dimension,
    zero_cascade_dimension,
)


class TestPearlDimension:
    def test_in_sigma_one_sphere(self, cp2):
        m = cp2.sigma_point("m")
        assert pearl_in_sigma_dimension(cp2, m, m, ((1,),)) == \
            oracles.PEARL_IN_SIGMA_EXAMPLE

    def test_in_sigma_augmented(self, cp2):
        m = cp2.sigma_point("m")
        assert pearl_in_sigma_dimension(cp2, m, m, ((0,),), aug_count=1,
                                        aug_classes=((1,),)) == \
            oracles.PEARL_IN_SIGMA_AUGMENTED

    def test_count_only_augmentation_term(self, cp2):
        m = cp2.sigma_point("m")
        assert pearl_in_sigma_dimension(cp2, m, m, ((0,),), aug_count=1) == 2

    def test_with_sphere_in_x(self, cp2):
        m = cp2.sigma_point("m")
        x = cp2.w_point("x0")
        assert pearl_with_sphere_dimension(cp2, x, m, (1,), ((0,),)) == \
            oracles.PEARL_WITH_SPHERE_EXAMPLE

    def test_zero_sphere_gradient_line(self, cp2):
        m, top = cp2.sigma_point("m"), cp2.sigma_point("M")
        assert pearl_in_sigma_dimension(cp2, m, top, ()) == 2 - 0 - 1

    def test_sphere_in_x_needs_sphere(self, cp2):
        m, x = cp2.sigma_point("m"), cp2.w_point("x0")
        with pytest.raises(VariantMismatch):
            pearl_with_sphere_dimension(cp2, x, m, (1,), ())
        with pytest.raises(VariantMismatch):
            pearl_with_sphere_dimension(cp2, x, m, (0,), ((0,),))

    def test_ambient_checks(self, cp2):
        m, x = cp2.sigma_point("m"), cp2.w_point("x0")
        with pytest.raises(VariantMismatch):
            pearl_in_sigma_dimension(cp2, x, m, ())
        with pytest.raises(VariantMismatch):
            pearl_with_sphere_dimension(cp2, m, m, (1,), ((0,),))

    def test_aug_length_mismatch(self, cp2):
        m = cp2.sigma_point("m")
        with pytest.raises(VariantMismatch):
            pearl_in_sigma_dimension(cp2, m, m, ((0,),), aug_count=2,
                                     aug_classes=((1,),))

    @given(n_spheres=st.integers(0, 4), k=st.integers(0, 3))
    @settings(max_examples=40)
    def test_each_sphere_adds_c1_plus_one(self, cp2, n_spheres, k):
        m = cp2.sigma_point("m")
        classes = tuple((1,) for _ in range(n_spheres))
        assert pearl_in_sigma_dimension(cp2, m, m, classes, aug_count=k) == \
            5 * n_spheres - 1 + 2 * k


class TestCascadeDimension:
    def test_zero_cascades_check_to_hat(self, cp2):
        up = orbit_generator(cp2, "m", FibreFlag.HAT, 1)
        lo = orbit_generator(cp2, "m", FibreFlag.CHECK, 1)
        assert zero_cascade_dimension(cp2, up, lo) == \
            oracles.CASCADE_N0_EXAMPLE

    def test_y_to_y_example(self, cp2):
        up = orbit_generator(cp2, "m", FibreFlag.CHECK, 2)
        lo = orbit_generator(cp2, "M", FibreFlag.HAT, 1)
        assert y_to_y_dimension(cp2, up, lo, levels=1) == \
            oracles.CASCADE_YY_EXAMPLE
        assert grade(cp2, up) - grade(cp2, lo) == 1

    def test_w_to_y_example(self, cp2):
        up = orbit_generator(cp2, "m", FibreFlag.CHECK, 1)
        x = interior_generator(cp2, "x0")
        assert w_to_y_dimension(cp2, up, x, levels=1) == \
            oracles.CASCADE_WY_EXAMPLE

    def test_level_count_shifts(self, cp2):
        up = orbit_generator(cp2, "m", FibreFlag.CHECK, 2)
        lo = orbit_generator(cp2, "M", FibreFlag.HAT, 1)
        dims = [y_to_y_dimension(cp2, up, lo, levels=nn) for nn in (1, 2, 3)]
        assert dims == [1, 2, 3]
        with pytest.raises(CascadixError):
            y_to_y_dimension(cp2, up, lo, levels=0)

    def test_non_integer_difference_refused(self):
        import json
        from pathlib import Path

        from cascadix.model import parse_setup

        raw = json.loads((Path(__file__).parent.parent / "data" / "cp2.json")
                         .read_text())
        raw["name"] = "thirds"
        raw["tau_x"] = "4"
        raw["k_const"] = "3"
        raw["lattice_x"]["c1"] = ["4"]
        raw["lattice_x"]["sigma_intersection"] = ["3"]
        raw["lattice_sigma"]["c1"] = ["1"]
        setup = parse_setup(raw)
        up = orbit_generator(setup, "m", FibreFlag.CHECK, 2)
        lo = orbit_generator(setup, "m", FibreFlag.CHECK, 1)
        with pytest.raises(NonIntegerDegreeDifference):
            zero_cascade_dimension(setup, up, lo)


class TestMultiplicityBalance:
    def test_spec_examples(self, cp2):
        assert multiplicity_balance(cp2, (1,), 3, 1, (1,))
        assert multiplicity_balance(cp2, (0,), 2, 2, ())
        assert not multiplicity_balance(cp2, (1,), 1, 1, ())

    def test_nontrivial_level_must_climb(self, cp2):
        # A = 0 with one aug puncture of multiplicity 1 and k+ = k- + 1
        assert multiplicity_balance(cp2, (0,), 3, 2, (1,))
        # same but k+ == k-: balance would need sum(aug) = 0
        assert not multiplicity_balance(cp2, (0,), 2, 2, (1,))

    @given(k_minus=st.integers(0, 6), area=st.integers(0, 4),
           augs=st.lists(st.integers(1, 3), max_size=3))
    @settings(max_examples=80)
    def test_balance_reconstructs_k_plus(self, cp2, k_minus, area, augs):
        k_plus = k_minus + area + sum(augs)
        ok = multiplicity_balance(cp2, (area,), k_plus, k_minus, augs)
        nontrivial = area != 0 or augs
        assert ok == (k_plus > k_minus if nontrivial else True)
        if area + sum(augs) > 0:
            assert not multiplicity_balance(cp2, (area,), k_plus + 1,
                                            k_minus, augs)


class TestAugmentationIndex:
    def test_cp2_line(self, cp2):
        assert augmentation_index(cp2, (1,)) == oracles.AUG_INDEX_CP2_B1

    def test_cp2_double_cover(self, cp2):
        assert augmentation_index(cp2, (2,)) == \
            oracles.AUG_INDEX_CP2_B2_COVER2
        assert oracles.AUG_INDEX_CP2_B2_COVER2 >= 2 * (2 - 1)

    def test_tau2_rigid_line(self, tau2):
        assert augmentation_index(tau2, (1,)) == oracles.AUG_INDEX_TAU2_B1
        assert oracles.AUG_INDEX_TAU2_B1 == 0

    def test_non_positive_area(self, cp2):
        with pytest.raises(NonPositiveArea):
            augmentation_index(cp2, (0,))
        with pytest.raises(NonPositiveArea):
            augmentation_index(cp2, (-1,))

    def test_value_even_and_nonnegative(self, cp2, tau2):
        for setup in (cp2, tau2):
            for b in range(1, 11):
                val = augmentation_index(setup, (b,))
                assert val >= 0
                assert val % 2 == 0

    def test_cover_floor(self, cp2):
        for m in range(2, 6):
            val = augmentation_index(cp2, (m,))
            assert val >= 2 * (m - 1)


class TestChernGate:
    def test_cp2_gate_holds(self, cp2):
        assert oracles.chern_gate_applies(cp2)
        assert oracles.rigid_plane_classes(cp2, 10) == []

    def test_tau2_gate_fails_with_witness(self, tau2):
        assert not oracles.chern_gate_applies(tau2)
        assert oracles.rigid_plane_classes(tau2, 10) == [(1,)]

    def test_gate_consistency(self, cp2, tau2, rank0):
        # whenever the gate applies, the search must come back empty
        for setup in (cp2, tau2, rank0):
            if oracles.chern_gate_applies(setup):
                assert oracles.rigid_plane_classes(setup, 8) == []
