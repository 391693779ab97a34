import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drills
import oracles

from cascadix import orientation
from cascadix.errors import CascadixError
from cascadix.orientation import (
    IncludedSubspace,
    LinearMapSpec,
    NotASubspace,
    NotSurjective,
    OrientedFrame,
    OrientedSpace,
    _cleared,
    _echelon,
    _kernel,
    det_sign,
    fibre_sum_orientation,
    quotient_orientation,
)

R1 = OrientedSpace(1)
R2 = OrientedSpace(2)
ZERO = OrientedSpace(0)
IDENT1 = LinearMapSpec(((1,),))


def axis(total_dim, index, sign=1):
    column = tuple((1,) if i == index else (0,) for i in range(total_dim))
    return IncludedSubspace(OrientedSpace(1, (), sign),
                            LinearMapSpec(column))


def test_empty_reference_basis_is_the_identity():
    assert OrientedSpace(2, (), -1) == OrientedSpace(2, ((1, 0), (0, 1)), -1)
    assert OrientedSpace(0) == OrientedSpace(0, (), 1)


# --- quotient orientation ----------------------------------------------


def test_quotient_by_first_axis():
    frame = quotient_orientation(R2, axis(2, 0))
    assert (frame.vectors, frame.sign) == oracles.QUOTIENT_BY_E1


def test_quotient_by_second_axis():
    frame = quotient_orientation(R2, axis(2, 1))
    assert (frame.vectors, frame.sign) == oracles.QUOTIENT_BY_E2


@pytest.mark.parametrize("s_total,s_sub", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_quotient_by_whole_space_multiplies_signs(s_total, s_sub):
    total = OrientedSpace(2, (), s_total)
    sub = IncludedSubspace(OrientedSpace(2, (), s_sub),
                           LinearMapSpec(((1, 0), (0, 1))))
    frame = quotient_orientation(total, sub)
    assert frame.dim == 0
    assert frame.sign == s_total * s_sub


def test_quotient_tracks_total_reference_basis():
    # total oriented by the swapped basis (e2, e1): the complement of e1
    # must be -e2 to restore that orientation, hence sign -1.
    swapped = OrientedSpace(2, ((0, 1), (1, 0)))
    frame = quotient_orientation(swapped, axis(2, 0))
    assert frame.vectors == ((0, 1),)
    assert frame.sign == -1


def test_quotient_rejects_dependent_inclusion():
    doubled = IncludedSubspace(OrientedSpace(2),
                               LinearMapSpec(((1, 1), (0, 0))))
    with pytest.raises(NotASubspace):
        quotient_orientation(R2, doubled)


def test_quotient_rejects_dependent_inclusion_under_a_swapped_basis():
    # the second inclusion column is twice the first; the subspace's basis
    # (e2, e1) is nonsingular, so its image is just as dependent
    sub = IncludedSubspace(OrientedSpace(2, ((0, 1), (1, 0))),
                           LinearMapSpec(((1, 2), (0, 0), (1, 2))))
    with pytest.raises(NotASubspace, match="^inclusion image is degenerate$"):
        quotient_orientation(OrientedSpace(3), sub)


def test_quotient_by_zero_subspace():
    # a point in a point: the bare product of the two signs
    point = IncludedSubspace(OrientedSpace(0, (), -1), LinearMapSpec(()))
    frame = quotient_orientation(OrientedSpace(0, (), -1), point)
    assert (frame.vectors, frame.sign) == ((), 1)
    # in a plane the inclusion has two empty rows, and every reference
    # column of the total space is a representative: det (e2, e1) = -1
    # twice, times the two signs
    swapped = OrientedSpace(2, ((0, 1), (1, 0)), -1)
    origin = IncludedSubspace(OrientedSpace(0, (), -1),
                              LinearMapSpec(((), ())))
    frame = quotient_orientation(swapped, origin)
    assert frame.vectors == ((0, 1), (1, 0))
    assert frame.sign == 1
    # inclusion () has no rows at all: a shape mismatch in the plane
    with pytest.raises(NotASubspace, match="^inclusion is 0x0, need 2x0$"):
        quotient_orientation(swapped, point)


def test_quotient_by_whole_space_reads_the_subspace_basis_sign():
    # det inc = -3/2 and det S_b = -1 for S_b = (e2, e1): the image basis
    # inc S_b has determinant +3/2, so (sub, nothing) carries total's
    # orientation and the sign is +1
    total = OrientedSpace(2, ((1, 1), (0, 2)))
    sub = IncludedSubspace(OrientedSpace(2, ((0, 1), (1, 0))),
                           LinearMapSpec(((1, Fraction(1, 2)), (3, 0))))
    frame = quotient_orientation(total, sub)
    assert (frame.vectors, frame.sign) == ((), 1)
    flipped = IncludedSubspace(OrientedSpace(2, ((0, 1), (-1, 0))),
                               sub.inclusion)
    assert quotient_orientation(total, flipped).sign == -1


def test_quotient_rejects_shape_mismatch():
    too_tall = IncludedSubspace(OrientedSpace(1),
                                LinearMapSpec(((1,), (0,), (0,))))
    with pytest.raises(NotASubspace):
        quotient_orientation(R2, too_tall)


# --- fibre sum ---------------------------------------------------------


def test_fibre_sum_diagonal_oracle():
    frame = fibre_sum_orientation(R1, R1, R1, IDENT1, IDENT1)
    assert (frame.vectors, frame.sign) == oracles.FIBRE_SUM_DIAGONAL


def test_fibre_sum_projection_oracle():
    proj = LinearMapSpec(((1, 0),))
    none = LinearMapSpec(((),))
    frame = fibre_sum_orientation(R2, ZERO, R1, proj, none)
    assert (frame.vectors, frame.sign) == oracles.FIBRE_SUM_PROJECTION


@pytest.mark.parametrize("s1,s2", [(1, 1), (1, -1), (-1, -1)])
def test_fibre_sum_over_point_is_product(s1, s2):
    v1 = OrientedSpace(2, (), s1)
    v2 = OrientedSpace(1, (), s2)
    empty = LinearMapSpec(())
    frame = fibre_sum_orientation(v1, v2, ZERO, empty, empty)
    assert frame.vectors == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert frame.sign == s1 * s2


def test_fibre_sum_rejects_non_surjective():
    zero_map = LinearMapSpec(((0,),))
    with pytest.raises(NotSurjective):
        fibre_sum_orientation(R1, R1, R1, zero_map, zero_map)


def test_fibre_sum_rejects_shape_mismatch():
    wide = LinearMapSpec(((1, 0),))
    with pytest.raises(CascadixError):
        fibre_sum_orientation(R1, R1, R1, wide, IDENT1)


def test_kernel_vectors_are_primitive_integers():
    # f1 doubles, f2 triples: kernel of 2x - 3y spanned by (3, 2).
    frame = fibre_sum_orientation(R1, R1, R1,
                                  LinearMapSpec(((2,),)),
                                  LinearMapSpec(((3,),)))
    assert frame.vectors == ((3, 2),)
    assert all(x.denominator == 1 for vec in frame.vectors for x in vec)


# --- invariance properties ---------------------------------------------


def test_packaged_property_runners_pass():
    assert drills.run_basis_independence_trials(5, 25) == []
    for which in ("v1", "v2", "w"):
        assert drills.run_flip_trials(6, 25, which) == []
    assert drills.crossing_identity_failures() == []


def test_drills_at_fifty_instances():
    """The crossing identity, then each drill at 50 instances: associativity
    at seed 0, basis independence at seed 1, and the v1, v2 and w flips at
    seeds 2, 3 and 4."""
    assert drills.crossing_identity_failures() == []
    assert drills.run_associativity_trials(0, 50) == []
    assert drills.run_basis_independence_trials(1, 50) == []
    for seed, which in enumerate(("v1", "v2", "w"), start=2):
        assert drills.run_flip_trials(seed, 50, which) == []


# --- frame comparison (the drills' oracle) ---------------------------


def test_frames_of_different_spans_rejected():
    a = OrientedFrame(((Fraction(1), Fraction(0)),), 1)
    b = OrientedFrame(((Fraction(0), Fraction(1)),), 1)
    with pytest.raises(CascadixError):
        oracles.reference_frame_orientations_agree(a, b)


@pytest.mark.parametrize("a,b", [
    (((1, 0),), ((1, 0, 5),)),
    (((1, 0, 5),), ((1, 0),)),
    (((1, 0), (0, 1, 0)), ((1, 0), (0, 1))),
    (((1, 0), (0, 1)), ((1, 0, 0), (0, 1))),
])
def test_frames_in_different_ambient_spaces_rejected(a, b):
    # either argument order, and a frame whose own vectors differ in length
    a = OrientedFrame(tuple(tuple(map(Fraction, v)) for v in a), 1)
    b = OrientedFrame(tuple(tuple(map(Fraction, v)) for v in b), 1)
    with pytest.raises(CascadixError, match="different ambient spaces"):
        oracles.reference_frame_orientations_agree(a, b)


def test_dependent_frame_inside_the_span_disagrees():
    a = OrientedFrame(((Fraction(1), Fraction(0), Fraction(1)),
                       (Fraction(0), Fraction(1), Fraction(1))), 1)
    # both vectors of b lie in span(a), but b spans only a line of it
    b = OrientedFrame(((Fraction(1), Fraction(1), Fraction(2)),
                       (Fraction(2), Fraction(2), Fraction(4))), 1)
    agree = oracles.reference_frame_orientations_agree
    assert not agree(a, b)
    assert not agree(a, OrientedFrame(b.vectors, -1))


def test_dependent_reference_frame_is_rejected():
    a = OrientedFrame(((Fraction(1), Fraction(2)),
                       (Fraction(2), Fraction(4))), 1)
    b = OrientedFrame(((Fraction(1), Fraction(0)),
                       (Fraction(0), Fraction(1))), 1)
    with pytest.raises(CascadixError,
                       match="^matrix has too few independent rows$"):
        oracles.reference_frame_orientations_agree(a, b)


def test_frame_agreement_is_scale_invariant():
    a = OrientedFrame(((Fraction(1), Fraction(2)),), 1)
    b = OrientedFrame(((Fraction(2), Fraction(4)),), 1)
    c = OrientedFrame(((Fraction(-1), Fraction(-2)),), 1)
    agree = oracles.reference_frame_orientations_agree
    assert agree(a, b)
    assert not agree(a, c)
    assert agree(a, OrientedFrame(a.vectors, 1))


def test_det_sign_matches_float_determinant():
    rng = random.Random(3)
    import numpy as np
    for _ in range(60):
        n = rng.randint(1, 4)
        m = drills.random_matrix(rng, n, n)
        exact = det_sign(m)
        approx = np.linalg.det([[float(x) for x in row] for row in m])
        if abs(approx) > 1e-9:
            assert exact == (1 if approx > 0 else -1)
        else:
            assert exact == 0


# --- one elimination per question, against the multi-elimination oracle --


ENTRIES = st.sampled_from(drills.ENTRY_POOL)
NONZERO = st.sampled_from([x for x in drills.ENTRY_POOL if x])
SIGNS = st.sampled_from((1, -1))


def _draw_matrix(draw, nrows, ncols):
    return tuple(tuple(draw(ENTRIES) for _ in range(ncols))
                 for _ in range(nrows))


@st.composite
def oriented_spaces(draw, dim):
    """A drawn reference basis, or a scaled identity when that is singular."""
    basis = _draw_matrix(draw, dim, dim)
    if det_sign(basis) == 0:
        scale = draw(NONZERO)
        basis = tuple(tuple(scale if i == j else Fraction(0)
                            for j in range(dim)) for i in range(dim))
    return OrientedSpace(dim, basis, draw(SIGNS))


@st.composite
def fibre_sum_inputs(draw):
    """dim V1, V2 in 0..6 and dim W in 0..5, with rank-deficient maps and
    shape mismatches drawn on purpose."""
    d1, d2 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    dw = draw(st.integers(0, 5))
    v1, v2, w = (draw(oriented_spaces(d)) for d in (d1, d2, dw))
    f1, f2 = _draw_matrix(draw, dw, d1), _draw_matrix(draw, dw, d2)
    if dw >= 2 and draw(st.booleans()):
        # the last row of [f1 | f2] a multiple of the first: rank < dim W
        c = draw(ENTRIES)
        f1 = f1[:-1] + (tuple(c * x for x in f1[0]),)
        f2 = f2[:-1] + (tuple(c * x for x in f2[0]),)
    mismatch = draw(st.integers(0, 9))
    if mismatch == 0:
        f1 = tuple(row + (Fraction(1),) for row in f1) if dw \
            else ((Fraction(1),) * (d1 + 1),)
    elif mismatch == 1:
        f2 = f2 + _draw_matrix(draw, 1, d2)
    return v1, v2, w, LinearMapSpec(f1), LinearMapSpec(f2)


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except CascadixError as exc:
        return type(exc), str(exc)
    if isinstance(result, OrientedFrame):
        return result.vectors, result.sign
    return result


@settings(max_examples=300, deadline=None)
@given(inputs=fibre_sum_inputs())
def test_fibre_sum_matches_reference(inputs):
    assert _outcome(fibre_sum_orientation, *inputs) \
        == _outcome(oracles.reference_fibre_sum_orientation, *inputs)


@st.composite
def quotient_inputs(draw):
    """dim total in 0..6, dim sub in 0..dim total (0 included, one past it
    now and then), entries with halves and negatives, a dependent inclusion
    or a shape mismatch drawn on purpose."""
    n = draw(st.integers(0, 6))
    k = draw(st.integers(0, n + 1))
    total, sub = draw(oriented_spaces(n)), draw(oriented_spaces(k))
    inc = _draw_matrix(draw, n, k)
    kind = draw(st.integers(0, 9))
    if kind == 0 and k >= 2:
        # the last column a multiple of the first: a dependent image
        c = draw(ENTRIES)
        inc = tuple(row[:-1] + (c * row[0],) for row in inc)
    elif kind == 1:
        inc = inc + _draw_matrix(draw, 1, k)
    return total, IncludedSubspace(sub, LinearMapSpec(inc))


@settings(max_examples=300, deadline=None)
@given(inputs=quotient_inputs())
def test_quotient_matches_fraction_product_reference(inputs):
    assert _outcome(quotient_orientation, *inputs) \
        == _outcome(oracles.reference_quotient_orientation, *inputs)


def _scaled_column(m, j, c):
    return tuple(row[:j] + (c * row[j],) + row[j + 1:] for row in m)


@settings(max_examples=200, deadline=None)
@given(inputs=quotient_inputs(), data=st.data())
def test_quotient_flips_with_a_negated_subspace_basis_vector(inputs, data):
    total, sub = inputs
    k = sub.space.dim
    if k == 0:
        return
    j = data.draw(st.integers(0, k - 1))
    negated = IncludedSubspace(
        sub.space._replace(reference_basis=_scaled_column(
            sub.space.reference_basis, j, -1)),
        sub.inclusion)
    before = _outcome(quotient_orientation, total, sub)
    after = _outcome(quotient_orientation, total, negated)
    if isinstance(before[1], int):
        assert after == (before[0], -before[1])
    else:
        assert after == before


POSITIVE = st.sampled_from((Fraction(1, 3), Fraction(1, 2), Fraction(2),
                            Fraction(7, 5), Fraction(4)))


@settings(max_examples=200, deadline=None)
@given(inputs=quotient_inputs(), data=st.data())
def test_quotient_ignores_positive_column_scalings(inputs, data):
    total, sub = inputs
    before = _outcome(quotient_orientation, total, sub)
    c = data.draw(POSITIVE)
    inc = sub.inclusion.matrix
    if inc and inc[0]:
        j = data.draw(st.integers(0, len(inc[0]) - 1))
        scaled = IncludedSubspace(sub.space,
                                  LinearMapSpec(_scaled_column(inc, j, c)))
        assert _outcome(quotient_orientation, total, scaled) == before
    if sub.space.dim:
        j = data.draw(st.integers(0, sub.space.dim - 1))
        space = sub.space._replace(reference_basis=_scaled_column(
            sub.space.reference_basis, j, c))
        scaled = IncludedSubspace(space, sub.inclusion)
        assert _outcome(quotient_orientation, total, scaled) == before
    if total.dim:
        # the same representatives are chosen, the scaled one scaled
        j = data.draw(st.integers(0, total.dim - 1))
        col = tuple(row[j] for row in total.reference_basis)
        scaled = total._replace(reference_basis=_scaled_column(
            total.reference_basis, j, c))
        if isinstance(before[1], int):
            want = (tuple(tuple(c * x for x in v) if v == col else v
                          for v in before[0]), before[1])
        else:
            want = before
        assert _outcome(quotient_orientation, scaled, sub) == want


def test_one_elimination_per_orientation_question(monkeypatch):
    v1 = OrientedSpace(2, ((1, 2), (0, 1)), -1)
    v2 = OrientedSpace(1, ((3,),))
    w = OrientedSpace(1, ((-1,),))
    f1, f2 = LinearMapSpec(((1, 1),)), LinearMapSpec(((2,),))
    empty = LinearMapSpec(())
    calls = []
    echelon = orientation._echelon

    def counted(rows):
        # _echelon works in place: record the rows it was given
        calls.append([list(row) for row in rows])
        return echelon(rows)

    def all_ints(rows):
        return all(type(x) is int for row in rows for x in row)

    monkeypatch.setattr(orientation, "_echelon", counted)
    fibre_sum_orientation(v1, v2, w, f1, f2)
    assert len(calls) == 1
    assert [len(row) for row in calls[0]] == [3] and all_ints(calls[0])
    calls.clear()
    fibre_sum_orientation(v1, v2, ZERO, empty, empty)
    assert calls == []

    total = OrientedSpace(3, ((1, 0, 2), (0, Fraction(1, 2), 0), (1, 1, 1)))
    sub = IncludedSubspace(
        OrientedSpace(2, ((Fraction(1, 3), 1), (2, 0)), -1),
        LinearMapSpec(((1, 0), (Fraction(-1, 2), 1), (0, Fraction(2, 3)))))
    calls.clear()   # building the spaces checked their bases
    quotient_orientation(total, sub)
    assert len(calls) == 1
    assert [len(row) for row in calls[0]] == [5, 5, 5]
    assert all_ints(calls[0])


# --- exact linear algebra against sympy -----------------------------------


@st.composite
def rational_matrices(draw):
    """0x0 up to 12x16 over the drills' entry pool, tall and wide, with
    zero rows and columns, rows that combine earlier ones and negative
    first pivots drawn on purpose."""
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 16))
    entry = st.sampled_from(drills.ENTRY_POOL)
    m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and draw(st.booleans()):
        m[draw(st.integers(0, nrows - 1))] = [Fraction(0)] * ncols
    if ncols and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in m:
            row[j] = Fraction(0)
    if nrows >= 2:
        # later rows made combinations of earlier ones: the rank falls
        # below the row count, leaving zero rows under the forward pivots
        for i in draw(st.sets(st.integers(1, nrows - 1), max_size=nrows - 1)):
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            x, y = draw(entry), draw(entry)
            m[i] = [x * u + y * v for u, v in zip(m[a], m[b])]
    first = next((row for j in range(ncols) for row in m if row[j]), None)
    if first is not None and draw(st.booleans()):
        # the first pivot found is the first nonzero of its column: negate
        # its row so that pivot is negative
        lead = next(x for x in first if x)
        first[:] = [-x if lead > 0 else x for x in first]
    return tuple(tuple(row) for row in m), ncols


def _primitive(vector):
    """The primitive integer multiple of a rational vector, sign kept."""
    scaled = [x * lcm(*(Fraction(y).denominator for y in vector))
              for x in vector]
    g = gcd(*(int(x) for x in scaled))
    return tuple(Fraction(int(x) // g) for x in scaled)


@settings(max_examples=300, deadline=None)
@given(drawn=rational_matrices())
def test_linear_algebra_matches_sympy(drawn):
    from sympy import Matrix, Rational, sign

    m, ncols = drawn
    ref = Matrix(len(m), ncols,
                 [Rational(x.numerator, x.denominator) for r in m for x in r])
    rows, pivots, _ = _echelon([_cleared(row) for row in m])
    assert len(pivots) == ref.rank()
    want = [_primitive([Fraction(int(x.p), int(x.q)) for x in v])
            for v in ref.nullspace()]
    kernel = _kernel(rows, pivots, ncols)
    assert kernel == want
    assert all(type(x) is int for v in kernel for x in v)
    n = min(len(m), ncols)
    square = tuple(row[:n] for row in m[:n])
    assert det_sign(square) == int(sign(ref[:n, :n].det()))


@settings(max_examples=300, deadline=None)
@given(drawn=rational_matrices())
def test_kernel_matches_one_column_reference(drawn):
    m, ncols = drawn
    cleared = [_cleared(row) for row in m]
    # each row times the least positive integer that clears it, in ints
    assert cleared == [[x * lcm(*(y.denominator for y in row)) for x in row]
                       for row in m]
    assert all(type(x) is int for row in cleared for x in row)
    rows, pivots, _ = _echelon(cleared)
    assert _kernel(rows, pivots, ncols) \
        == oracles.reference_kernel(rows, pivots, ncols)
