import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from cascadix.fredholm import (
    KernelSubspace,
    Puncture,
    PuncturedProblem,
    PunctureMismatch,
    Sign,
    Weighted,
    WeightSide,
    index_morse_bott,
    per_puncture_breakdown,
    split_cylinder_problems,
    split_floer_index,
)
from cascadix.spectrum import ComplexLinear, VerticalC

DECAY = Weighted(WeightSide.DECAY)
GROWTH = Weighted(WeightSide.GROWTH)


def cylinder(op_top, dec_top, op_bot, dec_bot, rank=1, c1=0):
    return PuncturedProblem(rank, c1, (
        Puncture(Sign.POSITIVE, op_top, dec_top),
        Puncture(Sign.NEGATIVE, op_bot, dec_bot),
    ))


class TestWeighted:
    def test_ham_ham_decay(self):
        prob = cylinder(VerticalC(1.0), DECAY, VerticalC(1.0), DECAY)
        assert index_morse_bott(prob) == oracles.WEIGHTED_CYLINDER_DECAY

    def test_two_extra_interior_punctures(self):
        extra = tuple(
            Puncture(Sign.NEGATIVE, ComplexLinear(1), DECAY, interior=True)
            for _ in range(2))
        base = cylinder(VerticalC(2.0), DECAY, VerticalC(0.5), DECAY)
        prob = PuncturedProblem(1, 0, base.punctures + extra)
        assert index_morse_bott(prob) == oracles.WEIGHTED_TWO_EXTRA_PUNCTURES

    def test_reeb_top_ham_bottom_decay(self):
        prob = cylinder(ComplexLinear(1), DECAY, VerticalC(3.0), DECAY)
        assert index_morse_bott(prob) == oracles.WEIGHTED_REEB_HAM

    def test_decay_only_population_formula(self):
        # -1 - 2 * (number of interior Reeb punctures), any positive slopes
        for extra in range(4):
            punctures = [
                Puncture(Sign.POSITIVE, VerticalC(5.0), DECAY),
                Puncture(Sign.NEGATIVE, VerticalC(0.25), DECAY),
            ] + [
                Puncture(Sign.NEGATIVE, ComplexLinear(1), DECAY, interior=True)
            ] * extra
            prob = PuncturedProblem(1, 0, tuple(punctures))
            assert index_morse_bott(prob) == -1 - 2 * extra

    def test_reeb_top_decay_only_formula(self):
        for extra in range(4):
            punctures = [
                Puncture(Sign.POSITIVE, ComplexLinear(1), DECAY),
                Puncture(Sign.NEGATIVE, VerticalC(5.0), DECAY),
            ] + [
                Puncture(Sign.NEGATIVE, ComplexLinear(1), DECAY, interior=True)
            ] * extra
            prob = PuncturedProblem(1, 0, tuple(punctures))
            assert index_morse_bott(prob) == -2 - 2 * extra

    def test_rejects_rank_mismatch(self):
        prob = cylinder(ComplexLinear(2), DECAY, ComplexLinear(2), DECAY, rank=1)
        with pytest.raises(PunctureMismatch):
            index_morse_bott(prob)


class TestMorseBott:
    def test_ham_ham_decorated(self):
        prob = cylinder(VerticalC(1.0), KernelSubspace(1),
                        VerticalC(2.0), KernelSubspace(1))
        assert index_morse_bott(prob) == oracles.MB_HAM_HAM_DECORATED

    def test_ham_reeb_decorated(self):
        prob = cylinder(VerticalC(1.0), KernelSubspace(1),
                        ComplexLinear(1), KernelSubspace(2))
        assert index_morse_bott(prob) == oracles.MB_HAM_REEB_DECORATED

    def test_reeb_reeb_decorated(self):
        prob = cylinder(ComplexLinear(1), KernelSubspace(2),
                        ComplexLinear(1), KernelSubspace(2))
        assert index_morse_bott(prob) == 2

    def test_decorated_independent_of_interior_punctures(self):
        # full-kernel interior punctures cost nothing in the bare formula
        for extra in range(4):
            punctures = (
                Puncture(Sign.POSITIVE, VerticalC(1.0), KernelSubspace(1)),
                Puncture(Sign.NEGATIVE, VerticalC(1.0), KernelSubspace(1)),
            ) + tuple(
                Puncture(Sign.NEGATIVE, ComplexLinear(1), KernelSubspace(2),
                         interior=True)
                for _ in range(extra))
            prob = PuncturedProblem(1, 0, punctures)
            assert index_morse_bott(prob) == oracles.MB_HAM_HAM_DECORATED

    def test_zero_subspace_equals_decay_weight(self):
        ops = [VerticalC(0.7), VerticalC(0.0), ComplexLinear(1)]
        for op_t in ops:
            for op_b in ops:
                dec = cylinder(op_t, DECAY, op_b, DECAY)
                ker = cylinder(op_t, KernelSubspace(0), op_b, KernelSubspace(0))
                want = oracles.weighted_index(dec)
                assert index_morse_bott(ker) == want
                assert index_morse_bott(dec) == want

    def test_full_subspace_equals_growth_weight(self):
        from cascadix.spectrum import kernel_dimension
        ops = [VerticalC(0.7), VerticalC(0.0), ComplexLinear(1), ComplexLinear(3)]
        for op_t in ops:
            for op_b in ops:
                if op_t.complex_rank != op_b.complex_rank:
                    continue
                rank = op_t.complex_rank
                grow = cylinder(op_t, GROWTH, op_b, GROWTH, rank=rank)
                ker = cylinder(op_t, KernelSubspace(kernel_dimension(op_t)),
                               op_b, KernelSubspace(kernel_dimension(op_b)),
                               rank=rank)
                want = oracles.weighted_index(grow)
                assert index_morse_bott(ker) == want
                assert index_morse_bott(grow) == want

    def test_growth_flip_adds_kernel_dimension(self):
        from cascadix.spectrum import kernel_dimension
        ops = [VerticalC(0.4), VerticalC(0.0), ComplexLinear(1)]
        for op in ops:
            base = cylinder(op, DECAY, VerticalC(1.0), DECAY)
            flipped = cylinder(op, GROWTH, VerticalC(1.0), DECAY)
            assert index_morse_bott(flipped) - index_morse_bott(base) == \
                kernel_dimension(op)
            # same at the negative end
            base_n = cylinder(VerticalC(1.0), DECAY, op, DECAY)
            flip_n = cylinder(VerticalC(1.0), DECAY, op, GROWTH)
            assert index_morse_bott(flip_n) - index_morse_bott(base_n) == \
                kernel_dimension(op)

    def test_subspace_dimension_bounds(self):
        prob = cylinder(VerticalC(1.0), KernelSubspace(2), VerticalC(1.0), DECAY)
        with pytest.raises(PunctureMismatch):
            index_morse_bott(prob)
        with pytest.raises(PunctureMismatch):
            KernelSubspace(-1)

    def test_breakdown_sums_to_index(self):
        prob = PuncturedProblem(1, 3, (
            Puncture(Sign.POSITIVE, VerticalC(1.0), KernelSubspace(1)),
            Puncture(Sign.NEGATIVE, ComplexLinear(1), KernelSubspace(2)),
            Puncture(Sign.NEGATIVE, ComplexLinear(1), KernelSubspace(0),
                     interior=True),
        ))
        parts = per_puncture_breakdown(prob)
        closed = prob.bundle_rank * prob.euler_characteristic + 2 * prob.rel_c1
        assert closed + sum(c for _, c in parts) == index_morse_bott(prob)


class TestSplit:
    def test_ham_ham_no_augmentation(self):
        v, h = split_cylinder_problems(2, 2)
        assert split_floer_index(v, h) == oracles.split_total(2, 2, 0)
        assert split_floer_index(v, h) == 7

    def test_one_augmentation(self):
        for n in range(2, 6):
            v, h = split_cylinder_problems(n, 0, aug_count=1)
            assert split_floer_index(v, h) == oracles.split_total(n, 0, 1)
            assert split_floer_index(v, h) == 2 * n + 1

    def test_ham_reeb_no_augmentation(self):
        for n in range(2, 6):
            v, h = split_cylinder_problems(n, 0, bottom="reeb")
            assert split_floer_index(v, h) == 2 * n

    @given(n=st.integers(2, 8), c1a=st.integers(-4, 9), aug=st.integers(0, 5),
           bottom=st.sampled_from(["ham", "reeb"]))
    @settings(max_examples=100)
    def test_general_total(self, n, c1a, aug, bottom):
        v, h = split_cylinder_problems(n, c1a, bottom=bottom, aug_count=aug,
                                       c_top=2.5, c_bot=0.75)
        total = split_floer_index(v, h)
        expected = 2 * n - 1 + 2 * c1a + 2 * aug
        if bottom == "reeb":
            expected += 1
        assert total == expected

    def test_slope_independence(self):
        v1, h1 = split_cylinder_problems(3, 2, c_top=0.1, c_bot=9.0)
        v2, h2 = split_cylinder_problems(3, 2, c_top=7.0, c_bot=0.01)
        assert split_floer_index(v1, h1) == split_floer_index(v2, h2)

    def test_mismatched_puncture_counts(self):
        v, _ = split_cylinder_problems(2, 0, aug_count=1)
        _, h = split_cylinder_problems(2, 0)
        with pytest.raises(PunctureMismatch):
            split_floer_index(v, h)

    def test_mismatched_signs(self):
        v, h = split_cylinder_problems(2, 0)
        flipped = PuncturedProblem(h.bundle_rank, h.rel_c1, (
            Puncture(Sign.POSITIVE, h.punctures[1].operator,
                     h.punctures[1].decoration),
            h.punctures[0],
        ))
        with pytest.raises(PunctureMismatch):
            split_floer_index(v, flipped)

    def test_mismatched_interior_flags(self):
        v, h = split_cylinder_problems(2, 0, aug_count=1)
        last = h.punctures[-1]
        demoted = Puncture(last.sign, last.operator, last.decoration,
                           interior=False)
        h2 = PuncturedProblem(h.bundle_rank, h.rel_c1,
                              h.punctures[:-1] + (demoted,))
        with pytest.raises(PunctureMismatch):
            split_floer_index(v, h2)

    def test_needs_two_dimensions(self):
        with pytest.raises(PunctureMismatch):
            split_cylinder_problems(1, 0)


class TestGluing:
    def test_complementary_cylinders_add(self):
        top = cylinder(VerticalC(1.0), KernelSubspace(1),
                       VerticalC(2.0), KernelSubspace(1))
        bot = cylinder(VerticalC(2.0), KernelSubspace(0),
                       VerticalC(3.0), KernelSubspace(1))
        glued = oracles.glue(top, bot, 1, 0)
        assert index_morse_bott(glued) == \
            index_morse_bott(top) + index_morse_bott(bot)

    def test_reeb_gluing_adds(self):
        top = cylinder(VerticalC(1.0), KernelSubspace(1),
                       ComplexLinear(1), KernelSubspace(2))
        bot = cylinder(ComplexLinear(1), KernelSubspace(0),
                       VerticalC(1.0), KernelSubspace(1))
        glued = oracles.glue(top, bot, 1, 0)
        assert index_morse_bott(glued) == \
            index_morse_bott(top) + index_morse_bott(bot)
        assert glued.euler_characteristic == 0

    @given(da=st.integers(0, 2), c1a=st.integers(-3, 3), c1b=st.integers(-3, 3))
    @settings(max_examples=60)
    def test_additivity_is_exact(self, da, c1a, c1b):
        mid = ComplexLinear(1)
        top = PuncturedProblem(1, c1a, (
            Puncture(Sign.POSITIVE, VerticalC(1.0), KernelSubspace(1)),
            Puncture(Sign.NEGATIVE, mid, KernelSubspace(da)),
        ))
        bot = PuncturedProblem(1, c1b, (
            Puncture(Sign.POSITIVE, mid, KernelSubspace(2 - da)),
            Puncture(Sign.NEGATIVE, VerticalC(1.0), KernelSubspace(1)),
        ))
        glued = oracles.glue(top, bot, 1, 0)
        assert glued.rel_c1 == c1a + c1b
        assert index_morse_bott(glued) == \
            index_morse_bott(top) + index_morse_bott(bot)

    def test_rejects_noncomplementary(self):
        top = cylinder(VerticalC(1.0), KernelSubspace(1),
                       ComplexLinear(1), KernelSubspace(2))
        bot = cylinder(ComplexLinear(1), KernelSubspace(2),
                       VerticalC(1.0), KernelSubspace(1))
        with pytest.raises(PunctureMismatch):
            oracles.glue(top, bot, 1, 0)

    def test_rejects_same_sign_or_operator_mismatch(self):
        top = cylinder(VerticalC(1.0), KernelSubspace(1),
                       ComplexLinear(1), KernelSubspace(2))
        bot = cylinder(ComplexLinear(1), KernelSubspace(0),
                       VerticalC(1.0), KernelSubspace(1))
        with pytest.raises(PunctureMismatch):
            oracles.glue(top, bot, 0, 0)  # both ends positive
        other = cylinder(VerticalC(2.0), KernelSubspace(0),
                         VerticalC(1.0), KernelSubspace(1))
        with pytest.raises(PunctureMismatch):
            oracles.glue(top, other, 1, 0)
