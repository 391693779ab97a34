"""Fibre-sum orientations as exact determinant-sign linear algebra.

An OrientedSpace is an abstract rational vector space with a reference basis
and a sign; every orientation question below reduces to the sign of a
determinant, a rank or a kernel.  Each question reads them off one exact
elimination, `_echelon`, which takes integer rows: the question clears the
denominators of each rational input vector once, by a positive multiplier
(`_cleared`), so no span and no determinant sign is ever touched.  The
elimination is forward-only and fraction-free (Bareiss), each pivot updating
only the rows below it and the columns to its right.  Pivots and sign are
all a determinant or a basis extension reads.  A fibre sum takes
surjectivity, kernel and sign from one elimination of its difference map,
the kernel by integer back-substitution on the forward rows.  A quotient
eliminates its inclusion's own columns next to the total space's basis
columns: the subspace's basis enters only through its determinant sign.

Two conventions drive everything:

* Quotients: a complement representative C of a subspace S in a total space
  is oriented so that the combined basis (S, C) carries the total space's
  orientation.

* Fibre sums: the kernel of f1 - f2 : V1 (+) V2 -> W is oriented so that the
  induced isomorphism (V1 (+) V2)/ker -> W changes orientation by exactly
  (-1)^(dim V2 * dim W).

Dimension-zero spaces are bare signs and empty determinants count as +1, so
all formulas extend without special cases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, NamedTuple, Sequence, Tuple, Union

from .errors import CascadixError


class NotASubspace(CascadixError):
    """Claimed subspace vectors are dependent or dimensionally impossible."""


class NotSurjective(CascadixError):
    """The difference map does not reach all of W."""


Vector = Tuple[Union[int, Fraction], ...]
Matrix = Tuple[Vector, ...]  # rows


def _frac_rows(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def _columns(m: Matrix) -> List[Vector]:
    return list(zip(*m))


def _cleared(vector: Vector) -> List[int]:
    """The rational vector times the least positive integer that makes it
    integral: the same line with the same direction."""
    ratios = [x.as_integer_ratio() for x in vector]
    mult = lcm(*[d for _, d in ratios])
    if mult == 1:
        return [n for n, _ in ratios]
    return [n * (mult // d) for n, d in ratios]


def _echelon(a: List[List[int]]) -> Tuple[List[List[int]], List[int], int]:
    """Forward-only fraction-free (Bareiss) elimination of integer rows.

    Works in place on the list `a` and its rows, and returns them with the
    pivot columns and a sign.  Each pivot updates only the rows below it
    and the columns to its right, so row k (k < len(pivots)) is exact from
    its pivot column on; its entries left of that column are never read
    again.  Pivot k is the minor of the first k + 1 rows (after the swaps)
    on the first k + 1 pivot columns.  The sign is the row-swap parity
    times the sign of the last pivot; when a has full row rank it is the
    determinant sign of the square matrix of a's pivot columns (of a itself
    when a is square).
    """
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    pivots: List[int] = []
    sign, prev = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        pv, right = a[r][c], a[r][c + 1:]
        for row in a[r + 1:]:
            f = row[c]
            # every entry is a minor of the input: exact division; with
            # f = 0 the update only scales by pv / prev, a no-op when equal
            if f:
                row[c + 1:] = [(pv * x - f * y) // prev
                               for x, y in zip(row[c + 1:], right)]
            elif pv != prev:
                row[c + 1:] = [pv * x // prev for x in row[c + 1:]]
        pivots.append(c)
        prev = pv
    return a, pivots, sign if prev > 0 else -sign


def det_sign(m: Matrix) -> int:
    """Sign of the determinant of a square rational matrix: -1, 0, or +1."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise CascadixError("determinant of a non-square matrix")
    # positive row scalings keep the determinant sign
    _, pivots, sign = _echelon([_cleared(row) for row in m])
    return sign if len(pivots) == n else 0


def _kernel(rows: List[List[int]], pivots: List[int],
            ncols: int) -> List[Vector]:
    """Canonical primitive integer kernel basis from `_echelon`'s output.

    One vector per free column, positive at its free column and zero at the
    other free columns.  The free entry is set to the last pivot d, the
    minor of the pivot rows and columns, and the pivot entries follow by
    back-substitution, bottom row first, each reading only the pivot
    columns to its right and the free column.  By Cramer's rule they are d
    times a solution of that minor's system, so integers: every division
    is exact.  Each pivot entry is solved for every free column at once.
    """
    d = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    free = [c for c in range(ncols) if c not in pivots]
    solved = [None] * len(pivots)   # pivot k's entry in each kernel vector
    for k in range(len(pivots) - 1, -1, -1):
        row, p = rows[k], pivots[k]
        s = [row[f] * d if f > p else 0 for f in free]
        for j in range(k + 1, len(pivots)):
            x = row[pivots[j]]
            if x:
                s = [a + x * b for a, b in zip(s, solved[j])]
        solved[k] = [-a // row[p] for a in s]
    # column c of a vector is its entry where[c]: pivot k's solved entry,
    # or the 0 appended for the free columns, its own set to d below
    solved.append([0] * len(free))
    where = [len(pivots)] * ncols
    for k, p in enumerate(pivots):
        where[p] = k
    basis = []
    for f, entries in zip(free, zip(*solved)):
        v = list(map(entries.__getitem__, where))
        v[f] = d
        g = gcd(*v) if d > 0 else -gcd(*v)
        basis.append(tuple([x // g for x in v]))
    return basis


def _extend_to_basis(cols: List[List[int]], candidates: List[List[int]],
                     dim: int) -> Tuple[List[int], int]:
    """Extend independent integer cols by candidates to a basis of dimension
    dim.

    Greedy left-to-right choice: a candidate is taken when it is not in the
    span of cols and the candidates taken before it, which is exactly when
    its column is a pivot of [cols | candidates].  Returns the indices of
    the chosen candidates and the determinant sign of [cols | chosen], read
    off the same elimination.  Raises NotASubspace when cols are dependent.
    """
    _, pivots, sign = _echelon([list(row) for row in zip(*cols, *candidates)])
    k = len(cols)
    if pivots[:k] != list(range(k)):
        raise NotASubspace("inclusion image is degenerate")
    if len(pivots) != dim:
        raise CascadixError("could not extend to a full basis")
    return [c - k for c in pivots[k:]], sign


class _OrientedSpaceFields(NamedTuple):
    dim: int
    reference_basis: Matrix = ()
    sign: int = 1


class OrientedSpace(_OrientedSpaceFields):
    """Abstract oriented rational vector space with a reference basis.

    No `__slots__`: the instance `__dict__` holds the basis determinant
    sign, computed once when the basis is checked.
    """

    # `_replace` builds its copy with `_make`: check the copy too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, dim: int, reference_basis: Matrix = (), sign: int = 1):
        if dim < 0:
            raise CascadixError(f"dimension {dim} < 0")
        if sign not in (1, -1):
            raise CascadixError(f"sign must be +-1, got {sign}")
        basis = _frac_rows(reference_basis or _identity(dim))
        if len(basis) != dim or any(len(r) != dim for r in basis):
            raise CascadixError("reference basis must be square of size dim")
        basis_sign = det_sign(basis)
        if basis_sign == 0:
            raise CascadixError("reference basis is singular")
        self = super().__new__(cls, dim, basis, sign)
        self._basis_sign = basis_sign
        return self

    def basis_det_sign(self) -> int:
        return self._basis_sign


class _LinearMapSpecFields(NamedTuple):
    matrix: Matrix


class LinearMapSpec(_LinearMapSpecFields):
    """Rational matrix, rows = target dimension, columns = source dimension."""

    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, matrix: Matrix):
        matrix = _frac_rows(matrix)
        widths = {len(r) for r in matrix}
        if len(widths) > 1:
            raise CascadixError("ragged matrix")
        return super().__new__(cls, matrix)

    @property
    def rows(self) -> int:
        return len(self.matrix)

    def cols_or(self, default: int) -> int:
        return len(self.matrix[0]) if self.matrix else default


class IncludedSubspace(NamedTuple):
    """An oriented space together with its inclusion into a larger one."""

    space: OrientedSpace
    inclusion: LinearMapSpec


class OrientedFrame(NamedTuple):
    """Ordered vectors inside an ambient space, with an orientation sign."""

    vectors: Tuple[Vector, ...]
    sign: int

    @property
    def dim(self) -> int:
        return len(self.vectors)


def quotient_orientation(total: OrientedSpace,
                         sub: IncludedSubspace) -> OrientedFrame:
    """Oriented complement representative for total/sub.

    The representative is drawn from total's reference basis columns, and
    its sign makes (sub basis, representative) carry total's orientation.
    """
    inc = sub.inclusion
    if inc.rows != total.dim or inc.cols_or(sub.space.dim) != sub.space.dim:
        raise NotASubspace(
            f"inclusion is {inc.rows}x{inc.cols_or(sub.space.dim)}, need "
            f"{total.dim}x{sub.space.dim}"
        )
    if sub.space.dim > total.dim:
        raise NotASubspace("inclusion image is degenerate")
    # [inc S_b | C] = [inc | C] diag(S_b, I) for sub's basis S_b: the
    # inclusion's own columns give the same choice of C, and the sign
    # differs by sign det S_b
    candidates = _columns(total.reference_basis)
    chosen, combined_sign = _extend_to_basis(
        [_cleared(col) for col in _columns(inc.matrix)],
        [_cleared(col) for col in candidates], total.dim)
    reps = [candidates[c] for c in chosen]
    sign = sub.space.sign * total.sign * combined_sign \
        * total.basis_det_sign() * sub.space.basis_det_sign()
    return OrientedFrame(tuple(reps), sign)


def fibre_sum_orientation(v1: OrientedSpace, v2: OrientedSpace,
                          w: OrientedSpace, f1: LinearMapSpec,
                          f2: LinearMapSpec) -> OrientedFrame:
    """Oriented kernel of f1 - f2 inside the product of v1 and v2.

    The returned vectors are a canonical primitive integer basis; the sign
    is pinned by requiring the induced map (V1 (+) V2)/ker -> W to change
    orientation by (-1)^(dim V2 * dim W).
    """
    d1, d2, dw = v1.dim, v2.dim, w.dim
    for f, d, name in ((f1, d1, "f1"), (f2, d2, "f2")):
        if f.rows != dw or f.cols_or(d) != d:
            raise CascadixError(
                f"{name} is {f.rows}x{f.cols_or(d)}, need {dw}x{d}")
    product_sign = v1.sign * v2.sign
    if dw == 0:
        # the whole product, framed by its block-diagonal reference basis
        zero1, zero2 = (Fraction(0),) * d1, (Fraction(0),) * d2
        cols = [col + zero2 for col in _columns(v1.reference_basis)]
        cols += [zero1 + col for col in _columns(v2.reference_basis)]
        return OrientedFrame(tuple(cols), product_sign)

    # difference map on raw product coordinates; each row is cleared as one
    # vector, so its f1 and f2 parts are scaled alike
    diff = []
    for row1, row2 in zip(f1.matrix, f2.matrix):
        row = _cleared(row1 + row2)
        row[d1:] = [-x for x in row[d1:]]
        diff.append(row)
    rows, pivots, pivot_sign = _echelon(diff)
    if len(pivots) != dw:
        raise NotSurjective("difference map is not onto W")
    n = d1 + d2
    kernel = _kernel(rows, pivots, n)
    # The complement of the kernel is the standard vectors at the pivot
    # columns (docs/signs.md): d maps it by diff's pivot columns, sign
    # pivot_sign, and [kernel | complement] with its free rows put first
    # is triangular with a positive diagonal, so its sign is the parity of
    # that reordering, one swap per (pivot, later free column) pair.
    inversions = sum(n - dw - (p - j) for j, p in enumerate(pivots))
    # (-1)^(dim V2 * dim W) is the interchange twist of W
    parity = -1 if (d2 * dw + inversions) % 2 else 1
    sign = product_sign * parity * w.sign * w.basis_det_sign() \
        * pivot_sign * v1.basis_det_sign() * v2.basis_det_sign()
    return OrientedFrame(tuple(kernel), sign)
