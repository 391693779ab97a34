"""Signed Morse complexes with exact integer homology.

A complex is a list of named critical points plus signed flow counts, each
flow dropping the index by exactly one.  The boundary operator is assembled
per degree, its square is verified (never assumed), and homology is read off
a hand-rolled integer Smith normal form: betti numbers from ranks, torsion
from the invariant factors bigger than one.

Morse boundaries are sparse and mostly +-1, and both exact computations work
on that.  The d^2 = 0 check multiplies per-column lists of nonzero entries,
so its cost follows the nonzeros, not the full matrix sizes.  The Smith form
is one elimination on a sparse row/column form: the pivot is an entry of
least absolute value (ties to least Markowitz cost, so +-1 entries go first,
as in Dumas-Saunders-Villard 2001), its column and row are cleared with
floor quotients, and a remainder, being smaller than the pivot, is simply
the next pivot.  The diagonal this leaves becomes the invariant factors by
gcd/lcm over pairs.  No bound on entry growth is proved, so its cost is
measured, not guaranteed.

Two derived complexes matter downstream:

* the circle-bundle lift, where every base point p contributes a pair of
  generators p_check (index M(p)) and p_hat (index M(p) + 1) and the lifted
  flow counts are user data, not derivable from the base;

* the negated filling complex (indices flipped through the ambient
  dimension, flows reversed), which is the complex whose degree-1 pairs
  mirror the flows between interior generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, lcm
from pathlib import Path
from typing import Dict, List, Tuple

from .errors import CascadixError


class BoundarySquaredNonzero(CascadixError):
    """The boundary operator fails to square to zero."""


Matrix = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class MorsePoint:
    name: str
    index: int

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise CascadixError(f"bad critical point name {self.name!r}")
        if self.index < 0:
            raise CascadixError(f"negative index on {self.name}")


@dataclass(frozen=True)
class SignedFlow:
    source: str
    target: str
    count: int

    def __post_init__(self):
        if not (isinstance(self.source, str) and isinstance(self.target, str)):
            raise CascadixError(f"bad flow ends {self.source!r} -> {self.target!r}")


@dataclass(frozen=True)
class MorseData:
    points: Tuple[MorsePoint, ...]
    flows: Tuple[SignedFlow, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "flows", tuple(self.flows))
        names = [p.name for p in self.points]
        if len(set(names)) != len(names):
            raise CascadixError("duplicate critical point names")
        by_name = {p.name: p for p in self.points}
        for f in self.flows:
            if f.source not in by_name or f.target not in by_name:
                raise CascadixError(
                    f"flow {f.source} -> {f.target} references unknown points")
            drop = by_name[f.source].index - by_name[f.target].index
            if drop != 1:
                raise CascadixError(
                    f"flow {f.source} -> {f.target} drops index by {drop}, "
                    "need exactly 1")

    def max_index(self) -> int:
        return max((p.index for p in self.points), default=-1)

    def points_of_degree(self, degree: int) -> Tuple[MorsePoint, ...]:
        return tuple(p for p in self.points if p.index == degree)


@dataclass(frozen=True)
class LiftedMorseData:
    """Base complex plus user-supplied signed counts for the lifted flows."""

    base: MorseData
    lifted_flows: Tuple[SignedFlow, ...] = ()

    def lifted(self) -> MorseData:
        return MorseData(lift_generators(self.base), tuple(self.lifted_flows))


def lift_generators(base: MorseData) -> Tuple[MorsePoint, ...]:
    """Two generators per base point: name_check at M, name_hat at M + 1."""
    out = []
    for p in base.points:
        out.append(MorsePoint(f"{p.name}_check", p.index))
        out.append(MorsePoint(f"{p.name}_hat", p.index + 1))
    return tuple(out)


def negated(data: MorseData, ambient_dim: int) -> MorseData:
    """The complex of the sign-flipped function: indices mirrored, flows
    reversed.  Transposing every boundary matrix preserves d^2 = 0."""
    top = data.max_index()
    if ambient_dim < top:
        raise CascadixError(
            f"ambient dimension {ambient_dim} below top index {top}")
    points = tuple(MorsePoint(p.name, ambient_dim - p.index)
                   for p in data.points)
    flows = tuple(SignedFlow(f.target, f.source, f.count)
                  for f in data.flows)
    return MorseData(points, flows)


def differential(data: MorseData) -> Dict[int, Matrix]:
    """Boundary matrices keyed by source degree; raises if d^2 != 0.

    The degree-d matrix has one column per index-d point and one row per
    index-(d-1) point, entries the aggregated signed flow counts.
    """
    sizes: Dict[int, int] = {}
    slot: Dict[str, Tuple[int, int]] = {}    # name -> (degree, position)
    for p in data.points:
        slot[p.name] = (p.index, sizes.get(p.index, 0))
        sizes[p.index] = slot[p.name][1] + 1
    rows = {d: [[0] * n for _ in range(sizes.get(d - 1, 0))]
            for d, n in sizes.items() if d >= 1}
    for f in data.flows:
        d, j = slot[f.source]
        rows[d][slot[f.target][1]][j] += f.count
    matrices: Dict[int, Matrix] = {
        d: tuple(map(tuple, rows[d])) for d in sorted(rows)}
    _check_square_zero(data, matrices)
    return matrices


def _nonzero_columns(matrix: Matrix, ncols: int) -> List[List[Tuple[int, int]]]:
    """Per column, its nonzero (row, value) pairs in row order."""
    cols: List[List[Tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v:
                cols[j].append((i, v))
    return cols


def _check_square_zero(data: MorseData, matrices: Dict[int, Matrix]) -> None:
    """Raise on the first (source, final) pair, sources then finals in
    order, where lower @ upper is nonzero.  The product sums over the
    nonzero entries of each column only."""
    cols = {d: _nonzero_columns(m, len(data.points_of_degree(d)))
            for d, m in matrices.items()}
    for d in sorted(matrices):
        if d - 1 not in matrices:
            continue
        upper, lower = cols[d], cols[d - 1]
        finals = data.points_of_degree(d - 2)
        for src, column in zip(data.points_of_degree(d), upper):
            totals: Dict[int, int] = {}
            for k, u in column:
                for i, w in lower[k]:
                    totals[i] = totals.get(i, 0) + w * u
            bad = min((i for i, t in totals.items() if t), default=None)
            if bad is not None:
                raise BoundarySquaredNonzero(
                    f"d^2 sends {src.name} to {finals[bad].name} "
                    f"with coefficient {totals[bad]}")


def smith_invariant_factors(matrix: Matrix) -> List[int]:
    """Positive invariant factors of an integer matrix, in divisibility order.

    One elimination on a sparse row/column form diagonalises the matrix; the
    Smith form is unique, so the gcd/lcm pass over the diagonal gives the
    invariant factors whatever the pivot order.
    """
    rows: Dict[int, Dict[int, int]] = {}
    cols: Dict[int, Dict[int, int]] = {}
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, {})[i] = v
    diagonal: List[int] = []
    while rows:
        i0, j0 = _pivot(rows, cols)
        _reduce(rows, cols, i0, j0)     # row operations clear column j0
        _reduce(cols, rows, j0, i0)     # column operations clear row i0
        # a nonzero remainder is smaller than the pivot: pick again
        if len(rows[i0]) == 1 and len(cols[j0]) == 1:
            diagonal.append(abs(rows.pop(i0)[j0]))
            del cols[j0]
    rest = sorted(d for d in diagonal if d != 1)
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            a, b = rest[i], rest[j]
            rest[i], rest[j] = gcd(a, b), lcm(a, b)
    return [1] * (len(diagonal) - len(rest)) + rest


def _pivot(rows: Dict[int, Dict[int, int]],
           cols: Dict[int, Dict[int, int]]) -> Tuple[int, int]:
    """The entry (row, column) of least |value|, ties to least Markowitz
    cost (row nonzeros - 1) * (column nonzeros - 1), first found wins."""
    best, pivot = None, None
    for i, row in rows.items():
        others = len(row) - 1
        for j, v in row.items():
            key = (abs(v), others * (len(cols[j]) - 1))
            if best is None or key < best:
                if key == (1, 0):
                    return i, j
                best, pivot = key, (i, j)
    return pivot


def _reduce(lines: Dict[int, Dict[int, int]], cross: Dict[int, Dict[int, int]],
            i0: int, j0: int) -> None:
    """line_i -= (a // v) * line_i0 for every other line i, where a is its
    entry in cross line j0 and v the pivot; each entry left in cross line
    j0 is then a remainder, smaller than |v|.  Rows as lines and columns
    as cross lines give row operations, swapped they give column ones."""
    top = lines[i0]
    v = top[j0]
    for i, a in list(cross[j0].items()):
        if i == i0:
            continue
        q = a // v
        line = lines[i]
        for j, x in top.items():
            y = line.get(j, 0) - q * x
            if y:
                line[j] = cross[j][i] = y
            else:
                del line[j], cross[j][i]
        if not line:
            del lines[i]


def homology(data: MorseData) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """Per degree: (degree, betti rank, torsion invariant factors)."""
    return homology_from(data, differential(data))


def homology_from(data: MorseData, matrices: Dict[int, Matrix]
                  ) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """`homology` from boundary matrices `differential(data)` already built."""
    # one Smith form per boundary matrix: its rank and torsion both come
    # from the invariant factors
    factors = {d: smith_invariant_factors(m) for d, m in matrices.items()}
    out = []
    for d in range(data.max_index() + 1):
        dim = len(data.points_of_degree(d))
        rank_out = len(factors.get(d, ()))
        above = factors.get(d + 1, ())
        torsion = tuple(f for f in above if f > 1)
        out.append((d, dim - rank_out - len(above), torsion))
    return out


def euler_characteristic(data: MorseData) -> int:
    return sum((-1) ** p.index for p in data.points)


def load_morse_data(path):
    """Read a complex from JSON; a "base" key marks a lifted-complex file."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise CascadixError(f"cannot read Morse data {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise CascadixError("Morse data must be a JSON object")
    if "base" in raw:
        base = _plain_from_dict(raw["base"])
        flows = _flows_from_list(raw.get("lifted_flows", []))
        return LiftedMorseData(base, flows)
    return _plain_from_dict(raw)


def _plain_from_dict(raw: dict) -> MorseData:
    try:
        points = tuple(MorsePoint(p["name"], int(p["index"]))
                       for p in raw["points"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CascadixError(f"malformed critical point list: {exc}") from None
    return MorseData(points, _flows_from_list(raw.get("flows", [])))


def _flows_from_list(raw) -> Tuple[SignedFlow, ...]:
    try:
        return tuple(SignedFlow(f["source"], f["target"], int(f["count"]))
                     for f in raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise CascadixError(f"malformed flow list: {exc}") from None
