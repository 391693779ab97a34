"""Fibre-sum orientations as exact determinant-sign linear algebra.

An OrientedSpace is an abstract rational vector space with a reference basis
and a sign; every orientation question below reduces to the sign of a
determinant, a rank or a kernel.  Each question reads them off one exact
elimination, `_echelon`: denominators are cleared row by row with positive
multipliers (so no sign is ever touched), then a forward-only fraction-free
(Bareiss) elimination runs in integers, each pivot updating only the rows
below it and the columns to its right.  Pivots and sign are all a
determinant or a basis extension reads.  A fibre sum takes surjectivity,
kernel and sign from one elimination of its difference map, the kernel by
integer back-substitution on the forward rows.  A quotient maps its
subspace's basis in integers: clearing denominators with positive column
scalings keeps both the span and every determinant sign.

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
    if not m:
        return []
    return [tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0]))]


def _from_columns(cols: Sequence[Vector]) -> Matrix:
    if not cols:
        return ()
    n = len(cols[0])
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def _echelon(m: Matrix) -> Tuple[List[List[int]], List[int], int]:
    """Forward-only fraction-free (Bareiss) elimination of a rational matrix.

    Returns the integer rows, the pivot columns and a sign.  Each pivot
    updates only the rows below it and the columns to its right, so row k
    (k < len(pivots)) is exact from its pivot column on; its entries left
    of that column are never read again.  Pivot k is the minor of the first
    k + 1 rows (after the swaps) on the first k + 1 pivot columns.  The sign
    is the row-swap parity times the sign of the last pivot; when m has
    full row rank it is the determinant sign of the square matrix of m's
    pivot columns (of m itself when m is square).
    """
    a = []
    for row in m:
        mult = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (mult // x.denominator) for x in row])
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
            # every entry is a minor of the cleared m: exact division; with
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
    _, pivots, sign = _echelon(m)
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
    is exact.
    """
    d = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    free = [c for c in range(ncols) if c not in pivots]
    steps = [(rows[k], p, pivots[k + 1:]) for k, p in enumerate(pivots)]
    steps.reverse()
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = d
        for row, p, later in steps:
            s = sum(row[j] * v[j] for j in later)
            if f > p:
                s += row[f] * d
            v[p] = -s // row[p]
        g = gcd(*v) if d > 0 else -gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def _extend_to_basis(cols: List[Vector], candidates: List[Vector],
                     dim: int) -> Tuple[List[Vector], int]:
    """Extend independent cols by candidates to a basis of dimension dim.

    Greedy left-to-right choice: a candidate is taken when it is not in the
    span of cols and the candidates taken before it, which is exactly when
    its column is a pivot of [cols | candidates].  Returns the chosen
    candidates and the determinant sign of [cols | chosen], read off the
    same elimination.  Raises NotASubspace when cols are dependent.
    """
    _, pivots, sign = _echelon(_from_columns(cols + candidates))
    k = len(cols)
    if pivots[:k] != list(range(k)):
        raise NotASubspace("inclusion image is degenerate")
    if len(pivots) != dim:
        raise CascadixError("could not extend to a full basis")
    return [candidates[c - k] for c in pivots[k:]], sign


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
    # sub's basis mapped in integers: the inclusion times the lcm of all its
    # denominators, each basis column times the lcm of its own, so each
    # image column is a positive multiple of the true one (same span, same
    # determinant signs)
    mult = lcm(*(x.denominator for row in inc.matrix for x in row))
    inc_rows = [[x.numerator * (mult // x.denominator) for x in row]
                for row in inc.matrix]
    s_cols = []
    for col in _columns(sub.space.reference_basis):
        scale = lcm(*(x.denominator for x in col))
        col = [x.numerator * (scale // x.denominator) for x in col]
        s_cols.append(tuple(sum(a * b for a, b in zip(row, col))
                            for row in inc_rows))
    reps, combined_sign = _extend_to_basis(
        s_cols, _columns(total.reference_basis), total.dim)
    sign = sub.space.sign * total.sign * combined_sign \
        * total.basis_det_sign()
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

    # difference map on raw product coordinates
    diff = tuple(
        tuple(f1.matrix[i]) + tuple(-x for x in f2.matrix[i])
        for i in range(dw))
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
