"""Independent checks of the program's outputs.

Nothing here imports cascadix.  Each oracle is written from the documented
mathematics, not from the program's code or a stored copy of its output:

* catalog: a closed-form enumeration of the four cases for lattices of rank
  at most 1, from the degree formula M + fibre + 1 - n + 2(tau-K)/K k and
  the case rules in the package README;
* homology: the homology of a complex built as a direct sum of known pieces
  (see workloads.build_complex), compared as groups in invariant-factor
  form, and a small independent homology calculator for the shipped Morse
  files;
* orientation: kernel and complement checks plus the sign recomputed from
  the fibre-sum and quotient rules of docs/signs.md with this module's own
  exact determinant;
* actions: the closed form of the quadratic profile.

`self_check` runs every oracle on a hand-known case before a run uses it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import workloads

CATALOG_HEADER = [
    "target", "source", "case", "N", "N0", "N1", "aug_count",
    "k_minus", "k_plus", "multiplicities", "classes_a", "sphere_b", "aug",
    "degree_target", "degree_source",
]

# Hand-known homology of the shipped Morse files: (degree, betti, torsion).
KNOWN_MORSE = {
    "morse_circle": [(0, 1, ()), (1, 1, ())],                     # S^1
    "morse_s2": [(0, 1, ()), (1, 0, ()), (2, 1, ())],              # S^2
    "morse_hopf": [(0, 1, ()), (1, 0, ()), (2, 0, ()), (3, 1, ())],  # S^3
    "morse_lens3": [(0, 1, ()), (1, 0, (3,)), (2, 0, ()), (3, 1, ())],  # L(3,1)
}


# --- exact linear algebra --------------------------------------------------


def det(rows) -> Fraction:
    """Determinant of a square rational matrix by Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    value = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            value = -value
        value *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return value


def sign_of(x) -> int:
    return (x > 0) - (x < 0)


def columns_to_rows(cols):
    """Matrix whose columns are the given vectors."""
    return [list(r) for r in zip(*cols)] if cols else []


def matvec(m, v):
    return [sum(Fraction(a) * Fraction(b) for a, b in zip(row, v)) for row in m]


# --- setups and the catalog ------------------------------------------------


class Setup:
    """The fields of a setup file the closed forms need, as Fractions."""

    def __init__(self, raw: dict, name: str):
        self.name = name
        self.n = raw["n"]
        self.tau = Fraction(str(raw["tau_x"]))
        self.k = Fraction(str(raw["k_const"]))
        self.t0 = Fraction(str(raw["t0"]))
        self.slope = (self.tau - self.k) / self.k
        self.sigma_pts = [(p["name"], p["index"]) for p in raw["morse_sigma"]]
        self.w_pts = [(p["name"], p["index"]) for p in raw["morse_w"]]
        self.omega_sigma = [Fraction(str(x)) for x in raw["lattice_sigma"]["omega"]]
        self.omega_x = [Fraction(str(x)) for x in raw["lattice_x"]["omega"]]
        if len(self.omega_sigma) > 1 or len(self.omega_x) > 1:
            raise ValueError(f"{name}: the closed forms cover lattice rank <= 1")

    @classmethod
    def load(cls, root: Path, name: str) -> "Setup":
        return cls(json.loads((root / "data" / f"{name}.json").read_text()), name)

    def orbit_degree(self, morse_index: int, fibre: int, k: int) -> Fraction:
        return morse_index + fibre + 1 - self.n + 2 * self.slope * k

    def interior_degree(self, morse_index: int) -> Fraction:
        return Fraction(self.n - morse_index)

    def generators(self, kmax: int):
        """(name, kind, degree, coset) of every generator with winding <= kmax."""
        out = [(x, "interior", self.interior_degree(i)) for x, i in self.w_pts]
        for p, m in self.sigma_pts:
            for k in range(1, kmax + 1):
                for flag, f in (("check", 0), ("hat", 1)):
                    out.append((f"{p}_{flag}_{k}", "orbit", self.orbit_degree(m, f, k)))
        return [(name, kind, deg, deg - math.floor(deg)) for name, kind, deg in out]

    @staticmethod
    def _classes(omega, bound):
        """Integer coefficients a with area a * omega in (0, bound]."""
        if not omega:
            return []
        w = omega[0]
        top = math.floor(bound / abs(w))
        return [a for a in range(-top, top + 1) if 0 < a * w <= bound]

    def catalog(self, kmax: int, classbound: int):
        """Every degree-1 type of the four cases, as 15-column CSV rows."""
        zero = "(" + ",".join("0" for _ in self.omega_sigma) + ")"
        sigma_classes = self._classes(self.omega_sigma, classbound)
        # filling classes with an integer divisor intersection m = K * area >= 1
        x_classes = []
        for b in self._classes(self.omega_x, classbound):
            m = self.k * b * self.omega_x[0]
            if m.denominator == 1 and m >= 1:
                x_classes.append((b, int(m), b * self.omega_x[0]))
        rows = []

        def row(target, source, case, n, n0, n1, mults, classes, sphere, aug,
                deg_t, deg_s):
            rows.append((target, source, str(case), str(n), str(n0), str(n1),
                         str(len(aug)),
                         str(mults[0]) if mults else "",
                         str(mults[-1]) if mults else "",
                         ";".join(map(str, mults)), ";".join(classes),
                         sphere, ";".join(aug), str(deg_t), str(deg_s)))

        for x, ix in self.w_pts:          # Case 0 between interior points
            for y, iy in self.w_pts:
                if iy - ix == 1:
                    row(x, y, 0, 0, 0, 0, (), (), "", (),
                        self.interior_degree(ix), self.interior_degree(iy))
        for p, mp in self.sigma_pts:
            for kt in range(1, kmax + 1):
                for flag_t, ft in (("check", 0), ("hat", 1)):
                    target = f"{p}_{flag_t}_{kt}"
                    deg_t = self.orbit_degree(mp, ft, kt)
                    # Case 0: a fibrewise flow at fixed winding, fibre step 0 or -1
                    for q, mq in self.sigma_pts:
                        for flag_s, fs in (("check", 0), ("hat", 1)):
                            deg_s = self.orbit_degree(mq, fs, kt)
                            if ft - fs in (0, -1) and deg_t - deg_s == 1:
                                row(target, f"{q}_{flag_s}_{kt}", 0, 0, 0, 0,
                                    (kt,), (), "", (), deg_t, deg_s)
                    if ft != 0:
                        continue   # every level needs a check end above a hat end
                    # Case 1: one non-constant level, k_t - k_s = K * omega(A)
                    for q, mq in self.sigma_pts:
                        for a in sigma_classes:
                            step = self.k * a * self.omega_sigma[0]
                            if step.denominator != 1:
                                continue
                            k0 = kt - int(step)
                            deg_s = self.orbit_degree(mq, 1, k0)
                            if k0 >= 1 and deg_t - deg_s == 1:
                                row(target, f"{q}_hat_{k0}", 1, 1, 0, 1,
                                    (k0, kt), (f"({a})",), "", (), deg_t, deg_s)
                    # Case 2: one constant level on a rigid plane, same base point
                    for b, m, area in x_classes:
                        k0 = kt - m
                        deg_s = self.orbit_degree(mp, 1, k0)
                        if (k0 >= 1 and (self.tau - self.k) * area == 1
                                and deg_t - deg_s == 1):
                            row(target, f"{p}_hat_{k0}", 2, 1, 1, 0, (k0, kt),
                                (zero,), "", (f"1:({b})",), deg_t, deg_s)
                    # Case 3: one constant level on a filling sphere, k_t = B.Sigma
                    for x, ix in self.w_pts:
                        deg_s = self.interior_degree(ix)
                        for b, m, _ in x_classes:
                            if m == kt and deg_t - deg_s == 1:
                                row(target, x, 3, 1, 1, 0, (kt, kt), (zero,),
                                    f"({b})", (), deg_t, deg_s)
        return rows

    def catalog_complete(self, kmax: int, classbound: int) -> bool:
        """Rank <= 1 and every area K * omega <= k_t is inside the bound."""
        return self.k * classbound >= kmax

    def certified_summary(self, rows) -> str:
        cases = sorted({int(r[2]) for r in rows})
        return "certified: all feasible types in {" + ",".join(
            f"Case{c}" for c in cases) + "}"

    def quadratic_actions(self, levels: int):
        """(k, rho, action, vertical_C) for h = (rho - 2)^2: h' = 2(rho - 2)
        = k T0 gives rho = 2 + k T0 / 2, action = rho k T0 - (k T0 / 2)^2 and
        vertical C = h'' rho = 2 rho."""
        out = []
        for k in range(1, levels + 1):
            s = float(k * self.t0)
            rho = 2.0 + s / 2.0
            out.append((k, rho, rho * s - (s / 2.0) ** 2, 2.0 * rho))
        return out


def same_rows(got, want) -> bool:
    return sorted(map(tuple, got)) == sorted(map(tuple, want))


# --- homology --------------------------------------------------------------


def invariant_factors(orders) -> tuple:
    """The invariant-factor form of a finite abelian group given as a sum of
    cyclic groups: Z/3 + Z/5 -> (15,), Z/2 + Z/2 -> (2, 2)."""
    powers = {}
    for t in orders:
        t = int(t)
        if t <= 1:
            continue
        p = 2
        while t > 1:
            if p * p > t:
                p = t
            e = 0
            while t % p == 0:
                t //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(p ** e)
            p += 1
    length = max((len(v) for v in powers.values()), default=0)
    factors = []
    for i in range(length):
        f = 1
        for v in powers.values():
            v = sorted(v, reverse=True)
            if i < len(v):
                f *= v[i]
        factors.append(f)
    return tuple(sorted(factors))


def same_homology(got, want) -> bool:
    """Degree by degree: equal betti numbers, isomorphic torsion."""
    if len(got) != len(want):
        return False
    for (d1, b1, t1), (d2, b2, t2) in zip(got, want):
        if d1 != d2 or b1 != b2 or invariant_factors(t1) != invariant_factors(t2):
            return False
    return True


def _minor_gcd(m, k: int) -> int:
    g = 0
    rows, cols = len(m), len(m[0]) if m else 0
    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            g = math.gcd(g, int(det([[m[i][j] for j in ci] for i in ri])))
    return g


def small_homology(counts: dict, matrices: dict):
    """Homology of a small complex: ranks over Q, torsion from determinantal
    divisors (gcd of k x k minors).  Exponential in the matrix size; meant
    for the hand-known cases only."""
    top = max(counts)
    ranks, torsion = {}, {}
    for d in range(1, top + 1):
        m = matrices.get(d)
        if not m or not m[0]:
            ranks[d], torsion[d] = 0, ()
            continue
        r = workloads.rank(m)
        divisors = [1] + [_minor_gcd(m, k) for k in range(1, r + 1)]
        ranks[d] = r
        torsion[d] = tuple(divisors[k] // divisors[k - 1] for k in range(1, r + 1)
                           if divisors[k] // divisors[k - 1] > 1)
    return [(d, counts[d] - ranks.get(d, 0) - ranks.get(d + 1, 0),
             torsion.get(d + 1, ())) for d in range(top + 1)]


def morse_file_complex(path: Path):
    """(counts, matrices, number of points) of a shipped Morse file, read
    with this module's own parser; lifted files get check/hat points."""
    raw = json.loads(path.read_text())
    if "base" in raw:
        points = []
        for p in raw["base"]["points"]:
            points.append((f"{p['name']}_check", p["index"]))
            points.append((f"{p['name']}_hat", p["index"] + 1))
        flows = raw.get("lifted_flows", [])
    else:
        points = [(p["name"], p["index"]) for p in raw["points"]]
        flows = raw.get("flows", [])
    top = max(i for _, i in points)
    by_deg = {d: [n for n, i in points if i == d] for d in range(top + 1)}
    counts = {d: len(v) for d, v in by_deg.items()}
    total = {}
    for f in flows:
        key = (f["source"], f["target"])
        total[key] = total.get(key, 0) + f["count"]
    matrices = {d: [[total.get((s, t), 0) for s in by_deg[d]] for t in by_deg[d - 1]]
                for d in range(1, top + 1)}
    return counts, matrices, len(points)


# --- orientation -------------------------------------------------------------


def _orient(space, vectors) -> int:
    """+1 when the ordered vectors are positively oriented in the space:
    sign * det_sign(vectors) * det_sign(reference basis)."""
    d = sign_of(det(columns_to_rows(vectors))) if vectors else 1
    return space["sign"] * d * sign_of(det(space["basis"]))


def _extend(cols, dim):
    """Complement of span(cols): the standard vectors of the coordinates
    left without a pivot when cols are row-reduced from the last coordinate
    to the first."""
    reversed_cols = [list(reversed(v)) for v in cols]
    pivots = {dim - 1 - c for c in workloads.pivot_columns(reversed_cols)}
    return [[Fraction(int(j == i)) for j in range(dim)]
            for i in reversed(range(dim)) if i not in pivots]


def check_fibre_sum(inst: dict, vectors, sign: int):
    """Problems with an oriented kernel of f1 - f2 (empty list = correct)."""
    d1, d2, dw = inst["v1"]["dim"], inst["v2"]["dim"], inst["w"]["dim"]
    diff = [list(r1) + [-x for x in r2] for r1, r2 in zip(inst["f1"], inst["f2"])]
    vectors = [[Fraction(x) for x in v] for v in vectors]
    problems = []
    if len(vectors) != d1 + d2 - dw:
        return [f"kernel has {len(vectors)} vectors, want {d1 + d2 - dw}"]
    if any(len(v) != d1 + d2 for v in vectors):
        return ["kernel vector of the wrong length"]
    if any(any(matvec(diff, v)) for v in vectors):
        problems.append("kernel vector outside ker(f1 - f2)")
    if vectors and workloads.rank(vectors) != len(vectors):
        problems.append("kernel vectors dependent")
    if problems:
        return problems
    n1 = inst["v1"]["basis"]
    n2 = inst["v2"]["basis"]
    product = {"sign": inst["v1"]["sign"] * inst["v2"]["sign"],
               "basis": [list(r) + [0] * d2 for r in n1]
               + [[0] * d1 + list(r) for r in n2]}
    if dw == 0:
        want = _orient(product, vectors)
    else:
        comp = _extend(vectors, d1 + d2)
        eps = -1 if (d2 * dw) % 2 else 1
        image = [matvec(diff, c) for c in comp]
        want = _orient(product, vectors + comp) * eps * _orient(inst["w"], image)
    if sign != want:
        problems.append(f"sign {sign:+d}, the fibre-sum rule gives {want:+d}")
    return problems


def check_quotient(inst: dict, vectors, sign: int):
    """Problems with an oriented complement representative of total/sub."""
    total, sub, inc = inst["total"], inst["sub"], inst["inclusion"]
    d, ds = total["dim"], sub["dim"]
    vectors = [[Fraction(x) for x in v] for v in vectors]
    if len(vectors) != d - ds:
        return [f"{len(vectors)} representatives, want {d - ds}"]
    ref_cols = [list(c) for c in zip(*total["basis"])]
    if any(v not in ref_cols for v in vectors):
        return ["representative not drawn from the reference columns"]
    s_cols = [matvec(inc, c) for c in zip(*sub["basis"])]
    if workloads.rank(s_cols + vectors) != d:
        return ["subspace and representatives do not span"]
    want = sub["sign"] * _orient(total, s_cols + vectors)
    if sign != want:
        return [f"sign {sign:+d}, the quotient rule gives {want:+d}"]
    return []


def check_flip(first, second):
    """A flipped input must give the same vectors with the opposite sign."""
    if first["vectors"] != second["vectors"] or first["sign"] != -second["sign"]:
        return ["reversing an input orientation did not reverse the result"]
    return []


# --- parsers of the command-line output -------------------------------------


def _cells(line):
    return ["" if c == "-" else c for c in line.split(" ")]


def check_report(text: str, setup: Setup, kmax=3, classbound=3, levels=5):
    lines = text.split("\n")
    problems = []
    sections, current = {}, None
    for line in lines[1:]:
        if line.startswith("## "):
            current = line[3:]
            sections[current] = []
        elif current is not None and line:
            sections[current].append(line)
    if lines[0] != f"# report: {setup.name}":
        problems.append(f"title {lines[0]!r}")
    want_setup = (f"n={setup.n} tau_X={setup.tau} K={setup.k} "
                  f"slope={setup.slope}")
    if sections.get("setup") != [want_setup]:
        problems.append("setup section")
    gens = sections.get(f"generators (kmax={kmax})", [])
    want_gens = [(n, k, str(d), str(c)) for n, k, d, c in setup.generators(kmax)]
    got_gens = [tuple(line.split(" ")) for line in gens[1:]]
    if gens[:1] != ["name kind degree coset"] or not same_rows(got_gens, want_gens):
        problems.append("generators section")
    actions = sections.get(f"actions (quadratic, T0={setup.t0})", [])
    want_act = setup.quadratic_actions(levels)
    ok = actions[:1] == ["k rho action vertical_C"] and len(actions) == levels + 1
    if ok:
        for line, (k, rho, act, vc) in zip(actions[1:], want_act):
            f = line.split(" ")
            ok = ok and int(f[0]) == k and all(
                math.isclose(float(g), w, rel_tol=1e-9)
                for g, w in zip(f[1:], (rho, act, vc)))
    if not ok:
        problems.append("actions section")
    catalog = sections.get(f"cascade catalog (kmax={kmax}, classbound={classbound})", [])
    want_rows = setup.catalog(kmax, classbound)
    if catalog[:1] != [" ".join(CATALOG_HEADER)] or not same_rows(
            [_cells(line) for line in catalog[1:]], want_rows):
        problems.append("catalog section")
    if sections.get("certification") != [setup.certified_summary(want_rows)]:
        problems.append("certification section")
    return problems


def check_enumerate(text: str, setup: Setup, kmax=3, classbound=3):
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows or rows[0] != CATALOG_HEADER:
        return ["enumerate header"]
    if "\r\n" not in text:
        return ["enumerate output is not CRLF CSV"]
    if not same_rows(rows[1:], setup.catalog(kmax, classbound)):
        return ["enumerate rows differ from the closed-form catalog"]
    return []


def check_grade(text: str, setup: Setup, kmax=3):
    lines = [line.split() for line in text.splitlines()]
    want = [(n, k, str(d), str(c)) for n, k, d, c in setup.generators(kmax)]
    if not lines or lines[0] != ["name", "kind", "degree", "coset"]:
        return ["grade header"]
    if not same_rows(lines[1:], want):
        return ["grade rows differ from the degree formula"]
    degrees = [Fraction(r[2]) for r in lines[1:]]
    if degrees != sorted(degrees):
        return ["grade rows not sorted by degree"]
    return []


def check_morse(text: str, name: str, n_points: int):
    lines = text.splitlines()
    if f"points: {n_points}" not in lines or "d^2 = 0: verified" not in lines:
        return ["morse preamble"]
    head = next((i for i, line in enumerate(lines)
                 if line.split() == ["degree", "betti", "torsion"]), None)
    if head is None:
        return ["morse homology header"]
    got = []
    for line in lines[head + 1:]:
        d, b, t = line.split()
        got.append((int(d), int(b), () if t == "-" else tuple(map(int, t.split(";")))))
    if not same_homology(got, KNOWN_MORSE[name]):
        return [f"{name}: homology {got}"]
    return []


def parse_orient(text: str):
    vectors, sign = [], None
    for line in text.splitlines():
        if line.startswith("basis: "):
            vectors.append([Fraction(x) for x in line[8:-1].split(",") if x])
        elif line.startswith("sign: "):
            sign = int(line[6:])
    return vectors, sign


# --- self check --------------------------------------------------------------


def self_check(root: Path):
    """Run each oracle on a hand-known case; return the list of failures."""
    failures = []
    golden_path = root / "tests" / "golden" / "enumerate_cp2.csv"
    with golden_path.open(newline="") as fh:
        golden = list(csv.reader(fh))
    cp2 = Setup.load(root, "cp2")
    if golden[0] != CATALOG_HEADER or not same_rows(golden[1:], cp2.catalog(3, 3)):
        failures.append("catalog oracle disagrees with tests/golden/enumerate_cp2.csv")
    for name, want in KNOWN_MORSE.items():
        counts, mats, _ = morse_file_complex(root / "data" / f"{name}.json")
        if not same_homology(small_homology(counts, mats), want):
            failures.append(f"homology calculator wrong on data/{name}.json")
    for i in range(4):
        cx = workloads.build_complex(random.Random(f"self-check:{i}"), 2, 6, 4)
        if not same_homology(small_homology(cx["counts"], cx["matrices"]),
                             cx["homology"]):
            failures.append("construction's homology disagrees with the calculator")
    if invariant_factors((3, 5)) != (15,) or invariant_factors((2, 4, 2)) != (2, 2, 4):
        failures.append("invariant-factor normal form")
    # a fibre sum of dimension 1: V1 = V2 = W = Q, f1 = f2 = 1.  The kernel
    # is spanned by (1, 1); with complement e1, det[K|C] = -1, the image of
    # e1 in W is 1 and the interchange factor is -1, so the sign is +1.
    one = {"dim": 1, "basis": [[Fraction(1)]], "sign": 1}
    inst = {"v1": one, "v2": one, "w": one, "f1": [[1]], "f2": [[1]]}
    if (check_fibre_sum(inst, [[1, 1]], 1) or not check_fibre_sum(inst, [[1, 1]], -1)
            or not check_fibre_sum(workloads.flipped(inst, "w"), [[1, 1]], 1)
            or not check_fibre_sum(inst, [[1, 0]], 1)):
        failures.append("fibre-sum oracle wrong on the dimension-1 case")
    return failures
