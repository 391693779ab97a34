import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from cascadix import morse
from cascadix.cascades import Case, certify_classification
from cascadix.errors import CascadixError
from cascadix.grading import InteriorGenerator, OrbitGenerator
from cascadix.morse import (
    BoundarySquaredNonzero,
    LiftedMorseData,
    MorseData,
    MorsePoint,
    SignedFlow,
    _divisibility_chain,
    boundaries,
    homology,
    homology_from,
    lift_generators,
    load_morse_data,
)
from oracles import smith_invariant_factors


def homology_dict(data):
    return {d: (b, t) for d, b, t in homology(data)}


def dense_boundaries(data):
    """`boundaries(data)` as dense matrices: the degree-d matrix has a row
    per index-(d-1) point and a column per index-d point."""
    return {d: tuple(tuple(column.get(i, 0) for column in columns)
                     for i in range(len(data.points_of_degree(d - 1))))
            for d, columns in boundaries(data).items()}


# --- shipped examples --------------------------------------------------


def test_circle_flows_cancel(data_dir):
    data = load_morse_data(data_dir / "morse_circle.json")
    assert dense_boundaries(data) == {1: ((0,),)}
    assert homology_dict(data) == oracles.MORSE_CIRCLE


def test_sphere_no_flows(data_dir):
    data = load_morse_data(data_dir / "morse_s2.json")
    assert homology_dict(data) == oracles.MORSE_SPHERE


def test_interval_collapse():
    # a surviving minimum plus a cancelling (min, max) pair
    data = MorseData(
        (MorsePoint("a", 0), MorsePoint("b", 0), MorsePoint("C", 1)),
        (SignedFlow("C", "b", 1),))
    assert homology_dict(data) == oracles.MORSE_INTERVAL_COLLAPSE


def test_hopf_lift(data_dir):
    lifted = load_morse_data(data_dir / "morse_hopf.json")
    assert isinstance(lifted, LiftedMorseData)
    complex_ = lifted.lifted()
    assert [p.index for p in complex_.points] == [0, 1, 2, 3]
    assert homology_dict(complex_) == oracles.MORSE_HOPF


def test_lens3_torsion(data_dir):
    complex_ = load_morse_data(data_dir / "morse_lens3.json").lifted()
    assert homology_dict(complex_) == oracles.MORSE_LENS3


# --- generator lifting -------------------------------------------------


def test_lift_doubles_and_splits_indices(data_dir):
    base = load_morse_data(data_dir / "morse_s2.json")
    gens = lift_generators(base)
    assert [(g.name, g.index) for g in gens] == [
        ("m_check", 0), ("m_hat", 1), ("M_check", 2), ("M_hat", 3)]


def test_lift_of_empty_base():
    assert lift_generators(MorseData((), ())) == ()


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=5))
def test_lift_count_always_doubles(indices):
    base = MorseData(tuple(MorsePoint(f"p{i}", ix)
                           for i, ix in enumerate(indices)), ())
    assert len(lift_generators(base)) == 2 * len(base.points)


# --- validation --------------------------------------------------------


def test_flow_must_drop_index_by_one():
    pts = (MorsePoint("a", 0), MorsePoint("b", 2))
    with pytest.raises(CascadixError):
        MorseData(pts, (SignedFlow("b", "a", 1),))


def test_flow_against_unknown_point():
    with pytest.raises(CascadixError):
        MorseData((MorsePoint("a", 0),), (SignedFlow("ghost", "a", 1),))


def test_duplicate_names_rejected():
    with pytest.raises(CascadixError):
        MorseData((MorsePoint("a", 0), MorsePoint("a", 1)), ())


def test_boundary_squared_detected():
    pts = (MorsePoint("a", 0), MorsePoint("b1", 1), MorsePoint("b2", 1),
           MorsePoint("c", 2))
    flows = (SignedFlow("c", "b1", 1), SignedFlow("c", "b2", 1),
             SignedFlow("b1", "a", 1), SignedFlow("b2", "a", 1))
    data = MorseData(pts, flows)
    with pytest.raises(BoundarySquaredNonzero, match="c.*a"):
        boundaries(data)


def test_boundary_squared_cancellation_accepted():
    pts = (MorsePoint("a", 0), MorsePoint("b1", 1), MorsePoint("b2", 1),
           MorsePoint("c", 2))
    flows = (SignedFlow("c", "b1", 1), SignedFlow("c", "b2", 1),
             SignedFlow("b1", "a", 1), SignedFlow("b2", "a", -1))
    assert boundaries(MorseData(pts, flows))


# --- sparse assembly straight from the flows ---------------------------


def test_flows_cancelling_to_zero_leave_no_entry():
    data = MorseData(
        (MorsePoint("a", 0), MorsePoint("b", 1), MorsePoint("c", 1)),
        (SignedFlow("b", "a", 2), SignedFlow("c", "a", 1),
         SignedFlow("b", "a", -2), SignedFlow("c", "a", 0)))
    assert boundaries(data) == {1: [{}, {0: 1}]}
    assert dense_boundaries(data) == {1: ((0, 1),)}
    assert homology_dict(data) == {0: (0, ()), 1: (1, ())}


def test_degree_without_points_below_gives_zero_rows():
    # degree 2 has points and degree 1 none: a matrix with no rows
    data = MorseData((MorsePoint("x", 0), MorsePoint("z", 2),
                      MorsePoint("w", 2)))
    assert boundaries(data) == {2: [{}, {}]}
    assert dense_boundaries(data) == {2: ()}
    assert homology_dict(data) == {0: (1, ()), 1: (0, ()), 2: (2, ())}


@st.composite
def flow_complexes(draw):
    """Up to 4 points in each degree 0..3 and random flows between adjacent
    degrees, repeated or cancelling pairs among them, so that d^2 vanishes
    on some draws and not on others."""
    counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    names = {d: [f"p{d}_{k}" for k in range(n)] for d, n in enumerate(counts)}
    points = [MorsePoint(x, d) for d, ns in names.items() for x in ns]
    points = draw(st.permutations(points))
    flows = []
    for d in range(1, len(counts)):
        if not (names[d] and names[d - 1]):
            continue
        for _ in range(draw(st.integers(0, 8))):
            s = draw(st.sampled_from(names[d]))
            t = draw(st.sampled_from(names[d - 1]))
            c = draw(st.integers(-3, 3))
            flows.append(SignedFlow(s, t, c))
            if draw(st.booleans()):
                flows.append(SignedFlow(s, t, -c))
    return MorseData(tuple(points), tuple(draw(st.permutations(flows))))


@settings(max_examples=300, deadline=None)
@given(flow_complexes())
def test_assembly_matches_dense_assembly(data):
    """The dense form of the columns and the d^2 message are those of the
    former dense assembly, whose matrices the oracle scans in full."""
    dense = oracles.dense_differential(data)
    want = oracles.first_square_violation(data, dense)
    if want is None:
        assert dense_boundaries(data) == dense
    else:
        with pytest.raises(BoundarySquaredNonzero) as err:
            boundaries(data)
        assert str(err.value) == want


# --- the sign-flipped filling complex ----------------------------------


def test_negated_mirrors_and_reverses():
    data = MorseData(
        (MorsePoint("x", 0), MorsePoint("y", 1)),
        (SignedFlow("y", "x", 2),))
    flipped = oracles.negated(data, 4)
    assert {p.name: p.index for p in flipped.points} == {"x": 4, "y": 3}
    assert flipped.flows == (SignedFlow("x", "y", 2),)
    assert oracles.negated(flipped, 4) == data


def test_negated_needs_room():
    data = MorseData((MorsePoint("x", 3),), ())
    with pytest.raises(CascadixError):
        oracles.negated(data, 2)


# --- Smith normal form, dual route -------------------------------------


def test_invariant_factors_hand_cases():
    assert smith_invariant_factors(((2, 0), (0, 3))) == [1, 6]
    assert smith_invariant_factors(((1,),)) == [1]
    assert smith_invariant_factors(((0,),)) == []
    assert smith_invariant_factors(((4, 6), (2, 2))) == [2, 2]
    assert smith_invariant_factors(()) == []
    assert len(smith_invariant_factors(((1, 2), (2, 4)))) == 1


def _sympy_invariant_factors(m):
    """The nonzero diagonal of sympy's Smith normal form of m, made
    positive: the invariant factors by an independent route."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(Matrix([list(r) for r in m]))
    return [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]


def test_invariant_factors_match_sympy():
    rng = random.Random(20260822)
    for _ in range(80):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(nc))
                  for _ in range(nr))
        assert smith_invariant_factors(m) == _sympy_invariant_factors(m), m


@st.composite
def sparse_integer_matrices(draw):
    """0x0 to 15x15 matrices heavy in {0, +-1}, with zero rows and columns.

    The entry pool is mixed, free of units (every pivot leaves remainders
    or needs the gcd/lcm pass) or units only.
    """
    nr, nc = draw(st.integers(0, 15)), draw(st.integers(0, 15))
    entries = draw(st.sampled_from([
        st.sampled_from((0, 0, 0, 1, -1)) | st.integers(-6, 6),
        st.sampled_from((0, 0, 2, -2, 3, -4, 6)),
        st.sampled_from((0, 0, 1, -1)),
    ]))
    flat = draw(st.lists(entries, min_size=nr * nc, max_size=nr * nc))
    zero_rows = draw(st.sets(st.integers(0, 14), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, 14), max_size=3))
    return tuple(
        tuple(0 if i in zero_rows or j in zero_cols else flat[i * nc + j]
              for j in range(nc))
        for i in range(nr))


@settings(max_examples=200, deadline=None)
@given(sparse_integer_matrices())
def test_invariant_factors_match_dense_elimination(m):
    mine = smith_invariant_factors(m)
    assert mine == oracles.dense_smith_invariant_factors(m), m
    nr, nc = len(m), len(m[0]) if m else 0
    if 0 < nr <= 6 and 0 < nc <= 6:
        assert mine == _sympy_invariant_factors(m), m


def test_invariant_factors_unit_and_remainder_hand_cases():
    # units only, a unit beside a 2x2 remainder, and no unit at all
    assert smith_invariant_factors(((1, 1), (1, -1))) == [1, 2]
    assert smith_invariant_factors(
        ((1, 0, 0), (0, 2, 4), (1, 0, 6))) == [1, 2, 6]
    assert smith_invariant_factors(((2, 4), (6, 8))) == [2, 4]
    assert smith_invariant_factors(((0, 0), (0, 0))) == []
    assert smith_invariant_factors(((), ())) == []
    # diagonals that are no divisibility chain: every pair needs gcd/lcm
    assert smith_invariant_factors(((2, 0, 0), (0, 3, 0), (0, 0, 4))) \
        == [1, 2, 12]
    assert smith_invariant_factors(((6, 0, 0), (0, 10, 0), (0, 0, 15))) \
        == [1, 30, 30]
    # a remainder below the least entry forces a second pivot
    assert smith_invariant_factors(((-2, 3), (4, -5))) == [1, 2]


# --- fill-free pivots, taken before any elimination ----------------------


UNITS = st.sampled_from((1, -1))
NON_UNITS = st.sampled_from((2, -2, 3, -4, 6))


@st.composite
def fill_free_matrices(draw):
    """A small core beside every kind of line the fill-free sweep reads.

    The matrix is [[core, above], [0, chain]] with chain upper bidiagonal
    and +-1 on its diagonal: its bottom row is a unit alone in its row,
    and taking it leaves the next row alone, up the chain.  Beside it come
    isolated non-unit entries, non-unit entries alone in their column but
    added to a core row (not fill-free while that row holds another entry),
    empty rows and columns, and a shuffle of rows and columns."""
    nr, nc = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    core = [[draw(st.sampled_from((0, 0, 1, -1, 2, -3))) for _ in range(nc)]
            for _ in range(nr)]
    n = draw(st.integers(0, 5))
    chain = [[0] * n for _ in range(n)]
    for k in range(n):
        chain[k][k] = draw(UNITS)
        if k + 1 < n:
            chain[k][k + 1] = draw(st.integers(-4, 4))
    above = [[draw(st.sampled_from((0, 1, 5))) for _ in range(n)]
             for _ in range(nr)]
    rows = [c + a for c, a in zip(core, above)]
    rows += [[0] * nc + c for c in chain]
    width = nc + n
    for v in draw(st.lists(NON_UNITS, max_size=3)):      # isolated entries
        rows = [row + [0] for row in rows] + [[0] * width + [v]]
        width += 1
    if nr:                                   # alone in a column, not a row
        for v in draw(st.lists(NON_UNITS, max_size=2)):
            i = draw(st.integers(0, nr - 1))
            rows = [row + [v if k == i else 0] for k, row in enumerate(rows)]
            width += 1
    for _ in range(draw(st.integers(0, 2))):            # empty rows
        rows.append([0] * width)
    for _ in range(draw(st.integers(0, 2))):            # empty columns
        rows = [row + [0] for row in rows]
        width += 1
    rows = draw(st.permutations(rows)) if rows else []
    order = draw(st.permutations(range(width))) if width else []
    return tuple(tuple(row[j] for j in order) for row in rows)


@settings(max_examples=200, deadline=None)
@given(fill_free_matrices())
def test_fill_free_sweep_matches_dense_elimination(m):
    mine = smith_invariant_factors(m)
    assert mine == oracles.dense_smith_invariant_factors(m), m
    nr, nc = len(m), len(m[0]) if m else 0
    if 0 < nr <= 8 and 0 < nc <= 8:
        assert mine == _sympy_invariant_factors(m), m


def _lines(m):
    rows, cols = {}, {}
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, {})[i] = v
    return rows, cols


def test_fill_free_sweep_takes_chains_and_leaves_shared_non_units():
    # a unit chain: each pivot taken leaves the next row alone
    rows, cols = _lines(((1, 5, 0, 0), (0, -1, 7, 0), (0, 0, 1, 2),
                         (0, 0, 0, -1)))
    assert morse._take_fill_free(rows, cols) == [1, 1, 1, 1]
    assert rows == cols == {}
    # 2 and 3 are alone in their columns, but share their row: untouched
    rows, cols = _lines(((2, 3),))
    before = (dict(rows), dict(cols))
    assert morse._take_fill_free(rows, cols) == []
    assert (rows, cols) == before
    # a non-unit alone in row and column is taken; the -1 alone in its row
    # takes its column away, which leaves the 4 alone in both
    rows, cols = _lines(((6, 0, 0), (0, 4, 1), (0, 0, -1)))
    assert sorted(morse._take_fill_free(rows, cols)) == [1, 4, 6]
    assert rows == cols == {}


def test_fill_free_matrix_never_reaches_the_elimination(monkeypatch):
    calls = []
    reduce = morse._reduce

    def counted(lines, cross, i0, j0):
        calls.append(1)
        return reduce(lines, cross, i0, j0)

    monkeypatch.setattr(morse, "_reduce", counted)
    # unit chain, isolated non-units, an empty row and an empty column
    m = ((1, 3, 0, 0, 0, 0), (0, -1, 2, 0, 0, 0), (0, 0, 1, 0, 0, 0),
         (0, 0, 0, 4, 0, 0), (0, 0, 0, 0, 0, -6), (0, 0, 0, 0, 0, 0))
    assert smith_invariant_factors(m) == [1, 1, 1, 2, 12]
    assert calls == []
    # the counter does count: a 2x2 with no fill-free pivot needs one
    assert smith_invariant_factors(((1, 1), (1, -1))) == [1, 2]
    assert calls


# --- column elimination, Euclid inside the pivot's row and column --------


def _checked_reduce(mp):
    """Patch `_reduce` with a copy that asserts its precondition, a pivot
    of least |value| in the cross line it clears, before each call; the
    list returned collects each |pivot| in call order."""
    pivots = []
    reduce = morse._reduce

    def checked(lines, cross, i0, j0):
        v = abs(lines[i0][j0])
        assert all(abs(a) >= v for a in cross[j0].values()), (v, cross[j0])
        pivots.append(v)
        return reduce(lines, cross, i0, j0)

    mp.setattr(morse, "_reduce", checked)
    return pivots


def test_column_pivot_not_least_in_its_row(monkeypatch):
    # each matrix is taken with its transpose, so whichever column comes
    # first, one of them starts on a column (6 here) whose least entry
    # has a smaller one (3) in its row: column operations with it would
    # leave that 3 as it is, so the elimination moves to the 3's column
    # and pivots on the 2 there
    pivots = _checked_reduce(monkeypatch)
    for m in (((3, 6), (2, 0)), ((3, 2), (6, 0))):
        for a in (m, tuple(zip(*m))):
            assert smith_invariant_factors(a) == [1, 12], a
    assert 2 in pivots
    # no unit anywhere, and no fill-free pivot: every factor comes out of
    # remainders
    pivots.clear()
    assert smith_invariant_factors(((6, 10), (15, 0))) == [1, 150]
    assert 1 in pivots


def test_row_remainder_whose_column_holds_a_smaller_entry(monkeypatch):
    # column operations with the 5 leave the remainder 8 - 5 = 3 in row 0;
    # its column holds a 2, which is the next pivot, not the 3
    pivots = _checked_reduce(monkeypatch)
    for a in (((5, 8), (0, 2)), ((0, 2), (5, 8)), ((8, 5), (2, 0))):
        for b in (a, tuple(zip(*a))):
            assert smith_invariant_factors(b) == [1, 10], b
    assert 2 in pivots and 3 not in pivots


@st.composite
def coprime_matrices(draw):
    """Up to 10x10 matrices over {0, 2, 3, 5, -7}: no unit, so the fill-free
    sweep takes only isolated entries, and the entries are coprime, so
    remainders land in the pivot's row as well as in its column."""
    nr, nc = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    entries = st.sampled_from((0, 0, 2, 3, 5, -7))
    flat = draw(st.lists(entries, min_size=nr * nc, max_size=nr * nc))
    return tuple(tuple(flat[i * nc:(i + 1) * nc]) for i in range(nr))


@settings(max_examples=200, deadline=None)
@given(coprime_matrices())
def test_coprime_entries_match_dense_elimination(m):
    with pytest.MonkeyPatch.context() as mp:
        _checked_reduce(mp)
        mine = smith_invariant_factors(m)
    assert mine == oracles.dense_smith_invariant_factors(m), m
    if len(m) <= 8 and len(m[0]) <= 8:
        assert mine == _sympy_invariant_factors(m), m


# --- the d^2 check against the dense triple loop -----------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_square_check_matches_dense_oracle(data):
    """Elementary pieces under unimodular basis moves have d^2 = 0; one
    optional bumped flow count may break it.  `boundaries` must raise
    exactly the oracle's message, or nothing when the oracle finds none."""
    top = data.draw(st.integers(1, 4))
    pieces = data.draw(st.lists(
        st.tuples(st.integers(0, top), st.sampled_from((0, 1, 1, -1, 2, 3))),
        min_size=1, max_size=12))
    # a piece is a free Z in degree d (t = 0) or Z --t--> Z from d + 1 to d
    counts = [0] * (top + 2)
    for d, t in pieces:
        counts[d] += 1
        counts[d + 1] += bool(t)
    mats = {d: [[0] * counts[d] for _ in range(counts[d - 1])]
            for d in range(1, top + 2)}
    pos = [0] * (top + 2)
    for d, t in pieces:
        if t:
            mats[d + 1][pos[d]][pos[d + 1]] = t
            pos[d + 1] += 1
        pos[d] += 1
    # basis moves e_j <- e_j + c e_i keep d^2 = 0
    for d in range(top + 2):
        n = counts[d]
        if n < 2:
            continue
        for _ in range(data.draw(st.integers(0, 4))):
            i, j = data.draw(st.permutations(range(n)))[:2]
            c = data.draw(st.sampled_from((-2, -1, 1, 2)))
            if d >= 1:
                for row in mats[d]:
                    row[j] += c * row[i]
            if d + 1 in mats:
                m = mats[d + 1]
                m[i] = [a - c * b for a, b in zip(m[i], m[j])]
    # bump an entry (i, j) of some d whose change reaches d o d: column i of
    # the matrix below or row j of the matrix above is nonzero
    reach = [(d, i, j) for d in mats
             for i in range(counts[d - 1]) for j in range(counts[d])
             if (d - 1 in mats and any(r[i] for r in mats[d - 1]))
             or (d + 1 in mats and any(mats[d + 1][j]))]
    if reach and data.draw(st.booleans()):
        d, i, j = data.draw(st.sampled_from(reach))
        mats[d][i][j] += data.draw(st.sampled_from((-2, -1, 1, 2)))
    def name(d, k):
        return f"c{d}_{k}"

    # interleave the degrees: each degree keeps its own order
    points = sorted((k, d) for d in range(top + 2) for k in range(counts[d]))
    flows = [SignedFlow(name(d, j), name(d - 1, i), v)
             for d, rows in mats.items() for i, row in enumerate(rows)
             for j, v in enumerate(row) if v]
    complex_ = MorseData(tuple(MorsePoint(name(d, k), d) for k, d in points),
                         tuple(flows))
    expected = {d: tuple(map(tuple, mats[d])) for d in mats if counts[d]}
    want = oracles.first_square_violation(complex_, expected)
    if want is None:
        assert dense_boundaries(complex_) == expected
    else:
        with pytest.raises(BoundarySquaredNonzero) as err:
            boundaries(complex_)
        assert str(err.value) == want


# --- random complexes from elementary pieces ---------------------------


def _expected_torsion(coeffs):
    """Invariant factors of a direct sum of cyclic groups Z/|c|."""
    from sympy import factorint

    primary = {}
    for c in coeffs:
        for p, e in factorint(abs(c)).items():
            primary.setdefault(p, []).append(e)
    width = max((len(v) for v in primary.values()), default=0)
    factors = []
    for slot in range(width):
        value = 1
        for p, exps in primary.items():
            ordered = sorted(exps, reverse=True)
            if slot < len(ordered):
                value *= p ** ordered[slot]
        factors.append(value)
    return tuple(sorted(f for f in factors if f > 1))


PIECES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=-6, max_value=6)),
    max_size=6)


def _assembly(pieces):
    """A direct sum of pieces Z --c--> Z from degree d + 1 to d (c = 0:
    two free Z) as (points, boundary counts by (source, target), betti
    numbers by degree, torsion coefficients by degree)."""
    points, boundary = [], {}
    betti = {}
    torsion_coeffs = {}
    for i, (d, c) in enumerate(pieces):
        lo, hi = f"lo{i}", f"hi{i}"
        points += [MorsePoint(lo, d), MorsePoint(hi, d + 1)]
        if c == 0:
            betti[d] = betti.get(d, 0) + 1
            betti[d + 1] = betti.get(d + 1, 0) + 1
        else:
            boundary[hi, lo] = c
            if abs(c) > 1:
                torsion_coeffs.setdefault(d, []).append(c)
    return points, boundary, betti, torsion_coeffs


def _check_homology(data, betti, torsion_coeffs):
    result = homology(data)
    assert result == homology_from(data, boundaries(data)) \
        == oracles.dense_homology(data, oracles.dense_differential(data))
    for d, b, tors in result:
        assert b == betti.get(d, 0)
        assert tuple(sorted(tors)) == _expected_torsion(
            torsion_coeffs.get(d, []))
    assert oracles.euler_characteristic({d: b for d, b, _ in result}) \
        == oracles.chain_euler_characteristic(data)


def _complex(points, boundary):
    flows = tuple(SignedFlow(s, t, c) for (s, t), c in boundary.items() if c)
    return MorseData(tuple(points), flows)


@settings(max_examples=60, deadline=None)
@given(PIECES)
def test_elementary_assembly(pieces):
    points, boundary, betti, torsion_coeffs = _assembly(pieces)
    _check_homology(_complex(points, boundary), betti, torsion_coeffs)


@settings(max_examples=60, deadline=None)
@given(PIECES, st.data())
def test_elementary_assembly_under_basis_moves(pieces, data):
    """The pieces after up to 20 unimodular basis moves per degree: the
    boundary is no longer diagonal, the homology is unchanged."""
    points, boundary, betti, torsion_coeffs = _assembly(pieces)
    for d in range(5):
        names = [p.name for p in points if p.index == d]
        if len(names) < 2:
            continue
        for _ in range(data.draw(st.integers(0, 20))):
            # e_j <- e_j + c e_i: c times the boundary of e_i joins that of
            # e_j, and every boundary landing on e_j gives -c of it to e_i
            i, j = data.draw(st.permutations(names))[:2]
            c = data.draw(st.sampled_from((-1, 1)))
            for (s, t), a in list(boundary.items()):
                if s == i:
                    boundary[j, t] = boundary.get((j, t), 0) + c * a
                if t == j:
                    boundary[s, i] = boundary.get((s, i), 0) - c * a
    _check_homology(_complex(points, boundary), betti, torsion_coeffs)


def _moved_complex(rng, pieces, moves):
    """The direct sum of `pieces` (as `_assembly` reads them) after `moves`
    unimodular basis moves e_j <- e_j + c e_i, c = +-1, in each degree."""
    points, boundary, betti, torsion_coeffs = _assembly(pieces)
    out, into = {}, {}               # boundary by source, and by target
    for (s, t), c in boundary.items():
        out.setdefault(s, {})[t] = into.setdefault(t, {})[s] = c

    def add(s, t, c):
        total = out.setdefault(s, {}).get(t, 0) + c
        if total:
            out[s][t] = into.setdefault(t, {})[s] = total
        else:
            del out[s][t], into[t][s]

    for d in range(max(p.index for p in points) + 1):
        names = [p.name for p in points if p.index == d]
        for _ in range(moves if len(names) > 1 else 0):
            i, j = rng.sample(names, 2)
            c = rng.choice((-1, 1))
            for t, a in list(out.get(i, {}).items()):
                add(j, t, c * a)
            for s, a in list(into.get(j, {}).items()):
                add(s, i, -c * a)
    flows = tuple(SignedFlow(s, t, c)
                  for s, targets in out.items() for t, c in targets.items())
    return MorseData(tuple(points), flows), betti, torsion_coeffs


def test_elimination_work_on_a_morse_like_complex(monkeypatch):
    """A work guard needing no timer: the entry updates of one Smith form
    of a 2,000-cell complex, built like `build_complex` in perfbench's
    workloads from elementary pieces (a fifth of them free, torsion from
    1, 1, 1, 2, 3, 5) under 1,000 basis moves per degree, about 15,000
    nonzero entries in all.

    Counted as (len(cross[j0]) - 1) * len(lines[i0]) per `_reduce` call,
    the column elimination makes 37,665 updates here; the bucketed
    least-entry search it replaced made 141,418, and taking the column
    that is shortest now, pivot by pivot, makes 87,529.  The bound is
    75,000."""
    rng = random.Random(2000)
    pieces = [(d, 0) for d in (0, 1) for _ in range(100)]
    pieces += [(d, rng.choice((1, 1, 1, 2, 3, 5)))
               for d in (0, 1) for _ in range(400)]
    rng.shuffle(pieces)
    data, betti, torsion_coeffs = _moved_complex(rng, pieces, 1000)
    assert len(data.points) == 2000
    columns = boundaries(data)
    updates = []
    reduce = morse._reduce

    def counted(lines, cross, i0, j0):
        updates.append((len(cross[j0]) - 1) * len(lines[i0]))
        return reduce(lines, cross, i0, j0)

    monkeypatch.setattr(morse, "_reduce", counted)
    result = homology_from(data, columns)
    assert sum(updates) <= 75_000, sum(updates)
    for d, b, tors in result:
        assert b == betti.get(d, 0)
        assert tuple(sorted(tors)) == _expected_torsion(
            torsion_coeffs.get(d, []))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 60), max_size=12))
def test_divisibility_chain_is_the_primary_decomposition(diagonal):
    chain = _divisibility_chain(diagonal)
    assert len(chain) == len(diagonal)
    assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
    assert tuple(d for d in chain if d > 1) == _expected_torsion(diagonal)


def test_many_disjoint_lens_copies(data_dir):
    """2,000 copies of the lifted lens complex: 2,000 factors of 3 in one
    Smith form, each pivot a singleton and the chain one test per factor."""
    lens = load_morse_data(data_dir / "morse_lens3.json").lifted()
    copies = 2000
    got = homology(oracles.disjoint_copies(lens, copies))
    assert got == [(d, copies * b, t * copies)
                   for d, (b, t) in sorted(oracles.MORSE_LENS3.items())]


# --- agreement with the cascade enumerator -----------------------------


def _negated_filling_complex(setup):
    points = tuple(MorsePoint(p.name, 2 * setup.n - p.morse_index)
                   for p in setup.morse_w)
    return MorseData(points, ())


def _lifted_surface_complex(setup):
    base = MorseData(tuple(MorsePoint(p.name, p.morse_index)
                           for p in setup.morse_sigma), ())
    return MorseData(lift_generators(base), ())


@pytest.mark.parametrize("fixture", ["cp2", "tau2"])
def test_case0_pairs_are_degree_one_flows(fixture, request):
    setup = request.getfixturevalue(fixture)
    report = certify_classification(setup, k_max=2, class_bound=2)
    assert report.certified
    seen = 0
    for t in report.types:
        if t.case_label is not Case.CASE0:
            continue
        if isinstance(t.source, InteriorGenerator):
            assert isinstance(t.target, InteriorGenerator)
            flipped = _negated_filling_complex(setup)
            # the pair must be accepted as an index-drop-one flow
            MorseData(flipped.points,
                      (SignedFlow(t.target.point.name,
                                  t.source.point.name, 1),))
            seen += 1
        else:
            assert isinstance(t.source, OrbitGenerator)
            assert t.source.k == t.target.k
            lifted = _lifted_surface_complex(setup)
            MorseData(lifted.points,
                      (SignedFlow(t.target.point.display_name,
                                  t.source.point.display_name, 1),))
            seen += 1
    assert seen > 0
