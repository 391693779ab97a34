"""Signed Morse complexes with exact integer homology.

A complex is a list of named critical points plus signed flow counts, each
flow dropping the index by exactly one.  The boundary operator is assembled
per degree, its square is verified (never assumed), and homology is read off
a hand-rolled integer Smith normal form: betti numbers from ranks, torsion
from the invariant factors bigger than one.

Morse boundaries are sparse and mostly +-1, and both exact computations work
on that.  The d^2 = 0 check multiplies per-column lists of nonzero entries,
so its cost follows the nonzeros, not the full matrix sizes.  The Smith form
first takes unit pivots on a sparse row/column form (Markowitz order, each
one an invariant factor 1; Dumas-Saunders-Villard 2001), and only the part
with no +-1 entry left goes to the dense elimination.  That dense remainder
still lets entries grow without bound, so its cost can swing widely with
the input; a Smith form modulo a determinant would bound it.

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

    def point(self, name: str) -> MorsePoint:
        for p in self.points:
            if p.name == name:
                return p
        raise CascadixError(f"unknown critical point {name!r}")

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

    Unit pivots go first, on a sparse form: a +-1 entry of least Markowitz
    cost (row nonzeros - 1) * (column nonzeros - 1) has its column cleared
    by exact row operations, then its row and column are dropped, each one
    an invariant factor 1.  The part with no unit entry left goes to the
    dense elimination; the Smith form is unique, so the split is exact.
    """
    rows: Dict[int, Dict[int, int]] = {}
    cols: Dict[int, Dict[int, int]] = {}
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, {})[i] = v
    units = 0
    while (pivot := _unit_pivot(rows, cols)) is not None:
        i0, j0 = pivot
        top = rows.pop(i0)
        v = top.pop(j0)
        for j in top:
            del cols[j][i0]
        del cols[j0][i0]
        for i, a in cols.pop(j0).items():
            # v = +-1 is its own inverse: row_i -= a * v * row_i0
            f = a * v
            row = rows[i]
            del row[j0]
            for j, x in top.items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = cols[j][i] = y
                else:
                    del row[j], cols[j][i]
            if not row:
                del rows[i]
        for j in top:
            if not cols[j]:
                del cols[j]
        units += 1
    order = sorted(cols)
    rest = tuple(tuple(rows[i].get(j, 0) for j in order) for i in sorted(rows))
    return [1] * units + _dense_smith(rest)


def _unit_pivot(rows: Dict[int, Dict[int, int]],
                cols: Dict[int, Dict[int, int]]):
    """A +-1 entry (row, column) of least Markowitz cost, or None."""
    best, pivot = None, None
    for i, row in rows.items():
        others = len(row) - 1
        for j, v in row.items():
            if v == 1 or v == -1:
                cost = others * (len(cols[j]) - 1)
                if not cost:
                    return i, j
                if best is None or cost < best:
                    best, pivot = cost, (i, j)
    return pivot


def _dense_smith(matrix: Matrix) -> List[int]:
    """Dense elimination with smallest-entry pivots; entries may grow."""
    a = [list(row) for row in matrix]
    nr = len(a)
    nc = len(a[0]) if a else 0
    factors: List[int] = []
    t = 0
    while t < min(nr, nc):
        pivot = min(
            ((i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]),
            key=lambda ij: abs(a[ij[0]][ij[1]]), default=None)
        if pivot is None:
            break
        i0, j0 = pivot
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            restart = False
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                q, r = divmod(a[i][t], a[t][t])
                for j in range(t, nc):
                    a[i][j] -= q * a[t][j]
                if r:
                    a[t], a[i] = a[i], a[t]
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                q, r = divmod(a[t][j], a[t][t])
                for i in range(t, nr):
                    a[i][j] -= q * a[i][t]
                if r:
                    for i in range(t, nr):
                        a[i][t], a[i][j] = a[i][j], a[i][t]
                    restart = True
                    break
            if restart:
                continue
            bad = next(((i, j) for i in range(t + 1, nr)
                        for j in range(t + 1, nc)
                        if a[i][j] % a[t][t]), None)
            if bad is None:
                break
            for j in range(t, nc):
                a[t][j] += a[bad[0]][j]
        factors.append(abs(a[t][t]))
        t += 1
    return factors


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
