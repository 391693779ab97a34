"""Signed Morse complexes with exact integer homology.

A complex is a list of named critical points plus signed flow counts, each
flow dropping the index by exactly one.  The boundary operator is assembled
per degree, its square is verified (never assumed), and homology is read off
a hand-rolled integer Smith normal form: betti numbers from ranks, torsion
from the invariant factors bigger than one.

Morse boundaries are sparse and mostly +-1, and every exact computation
works on that.  `boundaries` assembles each degree once, straight from the
flows, as sparse columns of nonzero counts, and checks d^2 = 0;
`homology_from` runs the Smith form on those same columns, and no dense
matrix is ever built.  The d^2 = 0 check multiplies the columns' nonzero
entries, so its cost follows the nonzeros, not the full matrix sizes, and
the names for its error message are looked up only when it fails.  The
Smith form is one elimination on a sparse row/column form.  It first takes
every fill-free pivot in one worklist sweep: a +-1 entry alone in its row
or in its column, or any entry alone in both, whose row and column are
removed with no other entry changed; a removal that leaves another line
with one entry puts that line back on the worklist, so chains of such
pivots go in one sweep.  On what is left, the pivot is an entry of least
absolute value (ties to least Markowitz cost, so +-1 entries go first, as
in Dumas-Saunders-Villard 2001), its column is cleared with floor
quotients, then its row once the column holds no remainder, and a
remainder, being smaller than the pivot, is simply the next pivot.  Rows
and columns are bucketed by least |entry| and number of entries, so the
pivot search reads a few lines instead of the whole matrix, and only the
lines a pivot touched are re-bucketed.  The diagonal this leaves is folded
into a divisibility chain, giving the invariant factors.  No bound on entry
growth is proved, so its cost is measured, not guaranteed.

One derived complex matters downstream: the circle-bundle lift, where
every base point p contributes a pair of generators p_check (index M(p)) and
p_hat (index M(p) + 1) and the lifted flow counts are user data, not
derivable from the base.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

from .errors import (CascadixError, json_int, json_name, malformed,
                     read_json_object)


class BoundarySquaredNonzero(CascadixError):
    """The boundary operator fails to square to zero."""


# sparse columns of a boundary map: per column, its nonzero {row: entry}
Columns = List[Dict[int, int]]


class _MorsePointFields(NamedTuple):
    name: str
    index: int


class MorsePoint(_MorsePointFields):
    __slots__ = ()

    # `_replace` builds its copy with `_make`: check the copy too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, name: str, index: int):
        json_name(name, "critical point name")
        if index < 0:
            raise CascadixError(f"negative index on {name}")
        return super().__new__(cls, name, index)


class _SignedFlowFields(NamedTuple):
    source: str
    target: str
    count: int


class SignedFlow(_SignedFlowFields):
    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, source: str, target: str, count: int):
        if not (isinstance(source, str) and isinstance(target, str)):
            raise CascadixError(f"bad flow ends {source!r} -> {target!r}")
        return super().__new__(cls, source, target, count)


class _MorseDataFields(NamedTuple):
    points: Tuple[MorsePoint, ...]
    flows: Tuple[SignedFlow, ...] = ()


class MorseData(_MorseDataFields):
    """Critical points and the signed counts of the flows between them."""

    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, points: Sequence[MorsePoint],
                flows: Sequence[SignedFlow] = ()):
        points, flows = tuple(points), tuple(flows)
        index = {p.name: p.index for p in points}
        if len(index) != len(points):
            raise CascadixError("duplicate critical point names")
        for source, target, _ in flows:
            if source not in index or target not in index:
                raise CascadixError(
                    f"flow {source} -> {target} references unknown points")
            drop = index[source] - index[target]
            if drop != 1:
                raise CascadixError(
                    f"flow {source} -> {target} drops index by {drop}, "
                    "need exactly 1")
        return super().__new__(cls, points, flows)

    def max_index(self) -> int:
        return max((p.index for p in self.points), default=-1)

    def points_of_degree(self, degree: int) -> Tuple[MorsePoint, ...]:
        return tuple(p for p in self.points if p.index == degree)


class LiftedMorseData(NamedTuple):
    """Base complex plus user-supplied signed counts for the lifted flows."""

    base: MorseData
    lifted_flows: Tuple[SignedFlow, ...] = ()

    def lifted(self) -> MorseData:
        return MorseData(lift_generators(self.base), self.lifted_flows)


def lift_generators(base: MorseData) -> Tuple[MorsePoint, ...]:
    """Two generators per base point: name_check at M, name_hat at M + 1."""
    out = []
    for name, d in base.points:
        out.append(MorsePoint(f"{name}_check", d))
        out.append(MorsePoint(f"{name}_hat", d + 1))
    return tuple(out)


def boundaries(data: MorseData) -> Dict[int, Columns]:
    """Boundary maps as sparse columns keyed by source degree; raises if
    d^2 != 0.

    Degree d has one column per index-d point, in point order, holding the
    nonzero aggregated flow counts keyed by the target's position among the
    index-(d-1) points.  Counts that cancel leave no entry.
    """
    position: Dict[str, int] = {}
    index: Dict[str, int] = {}
    columns: Dict[int, Columns] = {}
    for name, d in data.points:
        degree = columns.setdefault(d, [])
        position[name] = len(degree)
        index[name] = d
        degree.append({})
    for source, target, count in data.flows:
        column = columns[index[source]][position[source]]
        i = position[target]
        total = column.get(i, 0) + count
        if total:
            column[i] = total
        else:
            column.pop(i, None)
    out = {d: columns[d] for d in sorted(columns) if d >= 1}
    _check_square_zero(data, out)
    return out


def _check_square_zero(data: MorseData, columns: Dict[int, Columns]) -> None:
    """Raise on the first (source, final) pair, sources then finals in
    order, where lower @ upper is nonzero.  The product sums over the
    nonzero entries of each column only."""
    for d in sorted(columns):
        if d - 1 not in columns:
            continue
        lower = columns[d - 1]
        for j, column in enumerate(columns[d]):
            totals: Dict[int, int] = {}
            for k, u in column.items():
                for i, w in lower[k].items():
                    totals[i] = totals.get(i, 0) + w * u
            if any(totals.values()):
                # names only for the message: looked up on failure alone
                bad = min(i for i, t in totals.items() if t)
                src = data.points_of_degree(d)[j]
                final = data.points_of_degree(d - 2)[bad]
                raise BoundarySquaredNonzero(
                    f"d^2 sends {src.name} to {final.name} "
                    f"with coefficient {totals[bad]}")


class _Lines:
    """The rows (or the columns) of a sparse matrix, each a dict of its
    nonzero entries, bucketed by (least |entry|, number of entries) so the
    pivot search reads only lines that can hold the pivot."""

    def __init__(self):
        self.lines: Dict[int, Dict[int, int]] = {}
        self.key: Dict[int, Tuple[int, int]] = {}
        self.bucket: Dict[int, Dict[int, Set[int]]] = {}

    def rekey(self, ids) -> None:
        """Re-bucket lines whose entries changed; drop the empty ones."""
        lines, keys, bucket = self.lines, self.key, self.bucket
        for i in ids:
            line = lines.get(i)
            key = (min(map(abs, line.values())), len(line)) if line else None
            old = keys.get(i)
            if key == old:
                continue
            if old is not None:
                by_count = bucket[old[0]]
                same = by_count[old[1]]
                same.discard(i)
                if not same:
                    del by_count[old[1]]
                    if not by_count:
                        del bucket[old[0]]
            if key is None:
                del keys[i]
                lines.pop(i, None)
                continue
            keys[i] = key
            bucket.setdefault(key[0], {}).setdefault(key[1], set()).add(i)


def _invariant_factors(columns: Sequence[Dict[int, int]]) -> List[int]:
    """Positive invariant factors of the integer matrix with these sparse
    columns ({row: nonzero entry}), in divisibility order.

    One elimination diagonalises the matrix; the Smith form is unique, so
    folding the diagonal into a divisibility chain gives the invariant
    factors whatever the pivot order.  `_take_fill_free` first takes every
    pivot that changes no other entry; the rest are found by `_pivot`, and
    after each of those only the lines it touched are re-bucketed.
    """
    rows, cols = _Lines(), _Lines()
    for j, column in enumerate(columns):
        if column:
            cols.lines[j] = dict(column)
            for i, v in column.items():
                rows.lines.setdefault(i, {})[j] = v
    diagonal = _take_fill_free(rows.lines, cols.lines)
    rows.rekey(list(rows.lines))
    cols.rekey(list(cols.lines))
    while rows.lines:
        i0, j0 = _pivot(rows, cols)
        # every entry the two clearings change lies in these rows and columns
        touched_rows, touched_cols = list(cols.lines[j0]), list(rows.lines[i0])
        _reduce(rows.lines, cols.lines, i0, j0)   # row operations clear column j0
        # a remainder left in column j0 is smaller than the pivot, so a new
        # pivot comes first and clearing row i0 now would be wasted
        if len(cols.lines[j0]) == 1:
            _reduce(cols.lines, rows.lines, j0, i0)   # column operations clear row i0
        # a nonzero remainder is smaller than the pivot: pick again
        if len(rows.lines[i0]) == 1 and len(cols.lines[j0]) == 1:
            diagonal.append(abs(rows.lines.pop(i0)[j0]))
            del cols.lines[j0]
        rows.rekey(touched_rows)
        cols.rekey(touched_cols)
    return _divisibility_chain(diagonal)


def _take_fill_free(rows: Dict[int, Dict[int, int]],
                    cols: Dict[int, Dict[int, int]]) -> List[int]:
    """Take every fill-free pivot; return their absolute values.

    A pivot is fill-free when it is a +-1 entry alone in its row or in its
    column, or any entry alone in both.  Clearing the rest of its column
    (or row) with it changes no other entry, so up to unimodular moves the
    matrix is the pivot beside what is left once its row and column are
    removed.  Taking a pivot alone in its row removes its column, which
    can leave other rows with one entry (they go back on the worklist, and
    empty ones are dropped) but changes no other column; so one sweep over
    the rows, then one over the columns, leaves no fill-free pivot.
    """
    diagonal = []
    for lines, cross in ((rows, cols), (cols, rows)):
        work = list(lines)
        while work:
            i = work.pop()
            line = lines.get(i)
            if line is None or len(line) != 1:
                continue
            (j, v), = line.items()
            if v != 1 and v != -1 and len(cross[j]) != 1:
                continue
            diagonal.append(abs(v))
            del lines[i]
            for k in cross.pop(j):
                if k != i:
                    other = lines[k]
                    del other[j]
                    if len(other) == 1:
                        work.append(k)
                    elif not other:
                        del lines[k]
    return diagonal


def _divisibility_chain(diagonal: List[int]) -> List[int]:
    """The invariant factors of a diagonal matrix of positive entries.

    Each entry, in increasing order, joins the end of the chain and moves
    down while its lower neighbour does not divide it, the pair becoming
    (gcd, lcm) (Z/a + Z/b = Z/gcd + Z/lcm); a diagonal that already is a
    divisibility chain costs one test per entry.
    """
    chain: List[int] = []
    for b in sorted(diagonal):
        chain.append(b)
        i = len(chain) - 1
        while i and chain[i] % chain[i - 1]:
            a, b = chain[i - 1], chain[i]
            g = gcd(a, b)
            chain[i - 1], chain[i] = g, a // g * b
            i -= 1
    return chain


def _pivot(rows: _Lines, cols: _Lines) -> Tuple[int, int]:
    """An entry (row, column) of least |value|, ties to least Markowitz cost
    (row nonzeros - 1) * (column nonzeros - 1).

    Every entry of least |value| a lies in a row and a column whose least
    |entry| is a.  Those lines are searched by increasing number of entries
    k, columns then rows; once every such line with fewer than k entries
    is read, an unread entry costs at least (k - 1)^2, so the search stops
    when it has found that cost or less.
    """
    a = min(rows.bucket)
    by_row, by_col = rows.bucket[a], cols.bucket[a]
    best = None
    for k in sorted(by_row.keys() | by_col.keys()):
        floor = (k - 1) * (k - 1)
        if best is not None and best[0] <= floor:
            break
        for j in by_col.get(k, ()):
            for i, v in cols.lines[j].items():
                if v == a or v == -a:
                    cost = (len(rows.lines[i]) - 1) * (k - 1)
                    if best is None or cost < best[0]:
                        best = cost, i, j
            if best[0] <= floor:
                return best[1], best[2]
        for i in by_row.get(k, ()):
            for j, v in rows.lines[i].items():
                if v == a or v == -a:
                    cost = (k - 1) * (len(cols.lines[j]) - 1)
                    if best is None or cost < best[0]:
                        best = cost, i, j
            if best[0] <= floor:
                return best[1], best[2]
    return best[1], best[2]


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
    return homology_from(data, boundaries(data))


def homology_from(data: MorseData, columns: Dict[int, Columns]
                  ) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """`homology` from the columns `boundaries(data)` already built.

    Betti numbers and torsion both come from the invariant factors of each
    boundary map: its rank is their number."""
    factors = {d: _invariant_factors(c) for d, c in columns.items()}
    sizes = Counter(p.index for p in data.points)
    out = []
    for d in range(data.max_index() + 1):
        rank_out = len(factors.get(d, ()))
        above = factors.get(d + 1, ())
        torsion = tuple(f for f in above if f > 1)
        out.append((d, sizes[d] - rank_out - len(above), torsion))
    return out


def load_morse_data(path):
    """Read a complex from JSON; a "base" key marks a lifted-complex file."""
    raw = read_json_object(path, "Morse data")
    if "base" in raw:
        base = _plain_from_dict(raw["base"])
        flows = _flows_from_list(raw.get("lifted_flows", []))
        return LiftedMorseData(base, flows)
    return _plain_from_dict(raw)


def _plain_from_dict(raw: dict) -> MorseData:
    with malformed("critical point list"):
        points = tuple(MorsePoint(p["name"],
                                  json_int(p["index"], "critical point index"))
                       for p in raw["points"])
    return MorseData(points, _flows_from_list(raw.get("flows", [])))


def _flows_from_list(raw) -> Tuple[SignedFlow, ...]:
    with malformed("flow list"):
        return tuple(SignedFlow(f["source"], f["target"],
                                json_int(f["count"], "flow count"))
                     for f in raw)
