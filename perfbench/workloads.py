"""Seeded inputs and operation lists of the three workloads.

Nothing here imports cascadix.  The parent process uses these descriptions
to check outputs; the worker process turns them into the program's inputs.
Every generator draws from ``random.Random`` seeded by a string built from
the run seed and the operation id, so one seed always gives the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

SETUPS = ("cp2", "tau2", "rank0")

# catalog: (setup, kmax, classbound).  tau2 at 6/6 runs twice per pass so
# that the slow class holds 40% of the samples and the tail percentile
# falls inside it; the other three ops set the median.
CATALOG_OPS = (
    ("rank0", 40, 40),
    ("tau2", 5, 5),
    ("cp2", 6, 6),
    ("tau2", 6, 6),
    ("tau2", 6, 6),
)

# Warm-up calls made once during set-up, at bounds where they are cheap.
CATALOG_WARMUP = (("cp2", 2, 2), ("tau2", 2, 2), ("rank0", 2, 2))

# algebra complexes: (top degree, cells per degree, basis moves per degree).
# "sparse" complexes are Morse-like (a few hundred cells, about one flow per
# cell); "dense" ones have fewer cells per degree but enough basis moves that
# entries grow and Smith-form elimination meets fill-in.  Both stay well
# below the sizes where Smith-form time depends wildly on the seed.
SPARSE_SHAPE = (3, 100, 30)
DENSE_SHAPE = (8, 50, 50)
TORSION_POOL = (1, 1, 1, 2, 3, 5)

# algebra orientation instances: fibre sums (dim V1, dim V2, dim W), with
# dim V2 * dim W odd for the first and even for the second so that the
# interchange factor (-1)^(dim V2 dim W) takes both values; quotients of a
# 16-dimensional space by an 8-dimensional one.
FIBRE_SUM_DIMS = ((14, 13, 5), (16, 16, 8))
ENTRY_POOL = tuple(Fraction(n) for n in (-2, -1, 0, 0, 1, 1, 2)) + (
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))


def op_rng(seed: int, op_id: str) -> random.Random:
    return random.Random(f"{seed}:{op_id}")


def pass_order(seed: int, ops: list) -> list:
    """The run's fixed order of one pass: a seeded shuffle of the op list
    (the permutation depends only on the seed and the list's length)."""
    out = list(ops)
    random.Random(f"order:{seed}").shuffle(out)
    return out


# --- catalog ---------------------------------------------------------------


def catalog_ops() -> list:
    ops = []
    seen = {}
    for setup, kmax, cb in CATALOG_OPS:
        base = f"{setup}@{kmax}/{cb}"
        seen[base] = seen.get(base, 0) + 1
        ops.append({"id": f"{base}#{seen[base]}", "kind": "certify",
                    "setup": setup, "kmax": kmax, "classbound": cb})
    return ops


# --- algebra: chain complexes with homology known by construction ---------


def build_complex(rng: random.Random, top: int, cells: int, moves: int) -> dict:
    """A direct sum of elementary pieces under unimodular basis changes.

    Pieces are a free Z in some degree, or Z --t--> Z from degree d+1 to d
    (t = 1 is contractible, t > 1 leaves Z/t in H_d).  A basis move
    e_j <- e_j + c e_i in degree d adds c times column i to column j of the
    degree-d boundary and subtracts c times row j from row i of the
    degree-(d+1) boundary, so d^2 = 0 and the homology are unchanged.

    Returns {"counts": {d: n_d}, "matrices": {d: rows}, "homology":
    [(d, betti, (t, ...))]} with matrices indexed like cascadix.morse
    (rows = degree d-1 cells, columns = degree d cells).
    """
    pieces = []
    for d in range(top + 1):
        pieces.extend(("free", d, 1) for _ in range(max(1, cells // 10)))
    for d in range(top):
        pieces.extend(("pair", d, rng.choice(TORSION_POOL))
                      for _ in range(cells * 2 // 5))
    rng.shuffle(pieces)
    counts = {d: 0 for d in range(top + 1)}
    for kind, d, _ in pieces:
        counts[d] += 1
        if kind == "pair":
            counts[d + 1] += 1
    mats = {d: [[0] * counts[d] for _ in range(counts[d - 1])]
            for d in range(1, top + 1)}
    pos = {d: 0 for d in range(top + 1)}
    betti = {d: 0 for d in range(top + 1)}
    torsion = {d: [] for d in range(top + 1)}
    for kind, d, t in pieces:
        if kind == "free":
            betti[d] += 1
            pos[d] += 1
            continue
        mats[d + 1][pos[d]][pos[d + 1]] = t
        pos[d] += 1
        pos[d + 1] += 1
        if t > 1:
            torsion[d].append(t)
    for d in range(top + 1):
        n = counts[d]
        for _ in range(moves):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            if d >= 1:
                for row in mats[d]:
                    row[j] += c * row[i]
            if d < top:
                m = mats[d + 1]
                m[i] = [a - c * b for a, b in zip(m[i], m[j])]
    homology = [(d, betti[d], tuple(sorted(torsion[d])))
                for d in range(top + 1)]
    return {"counts": counts, "matrices": mats, "homology": homology}


def random_matrix(rng: random.Random, rows: int, cols: int) -> tuple:
    return tuple(tuple(rng.choice(ENTRY_POOL) for _ in range(cols))
                 for _ in range(rows))


def pivot_columns(rows) -> list:
    """Pivot columns of the row echelon form over Q (Fraction elimination)."""
    m = [list(map(Fraction, r)) for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def rank(rows) -> int:
    return len(pivot_columns(rows))


def random_space(rng: random.Random, dim: int) -> dict:
    """{"dim", "basis" (rows, nonsingular), "sign"}."""
    sign = rng.choice((1, -1))
    while True:
        basis = random_matrix(rng, dim, dim)
        if dim == 0 or rank(basis) == dim:
            return {"dim": dim, "basis": basis, "sign": sign}


def fibre_sum_instance(rng: random.Random, d1: int, d2: int, dw: int) -> dict:
    """V1, V2 of dimensions d1, d2 over W of dimension dw, f1 - f2 onto W."""
    v1, v2, w = random_space(rng, d1), random_space(rng, d2), random_space(rng, dw)
    while True:
        f1, f2 = random_matrix(rng, dw, d1), random_matrix(rng, dw, d2)
        diff = tuple(r1 + tuple(-x for x in r2) for r1, r2 in zip(f1, f2))
        if rank(diff) == dw:
            return {"kind": "fibre_sum", "v1": v1, "v2": v2, "w": w,
                    "f1": f1, "f2": f2}


def quotient_instance(rng: random.Random, d: int) -> dict:
    """A d-dimensional total space and an injective d/2-dimensional sub."""
    ds = d // 2
    total, sub = random_space(rng, d), random_space(rng, ds)
    while True:
        inc = random_matrix(rng, d, ds)
        if rank(inc) == ds:
            return {"kind": "quotient", "total": total, "sub": sub,
                    "inclusion": inc}


def flipped(instance: dict, key: str) -> dict:
    """The same instance with the orientation sign of one space reversed."""
    out = dict(instance)
    out[key] = dict(instance[key], sign=-instance[key]["sign"])
    return out


def algebra_ops(seed: int) -> list:
    """One pass: 3 sparse and 2 dense homology calls, two fibre sums and a
    quotient, each orientation call paired with the same instance under a
    reversed sign."""
    ops = []
    for label, shape, n in (("sparse", SPARSE_SHAPE, 3), ("dense", DENSE_SHAPE, 2)):
        for i in range(n):
            op_id = f"homology-{label}-{i}"
            ops.append({"id": op_id, "kind": "homology",
                        "complex": build_complex(op_rng(seed, op_id), *shape)})
    for dims in FIBRE_SUM_DIMS:
        op_id = f"fibre_sum-d{dims[0]}"
        inst = fibre_sum_instance(op_rng(seed, op_id), *dims)
        ops.append({"id": op_id, "kind": "fibre_sum", "instance": inst})
        ops.append({"id": op_id + "-wflip", "kind": "fibre_sum",
                    "instance": flipped(inst, "w"), "flip_of": op_id})
    op_id = "quotient-d16"
    inst = quotient_instance(op_rng(seed, op_id), 16)
    ops.append({"id": op_id, "kind": "quotient", "instance": inst})
    ops.append({"id": op_id + "-tflip", "kind": "quotient",
                "instance": flipped(inst, "total"), "flip_of": op_id})
    return ops


# --- cli ----------------------------------------------------------------

MORSE_FILES = ("morse_circle", "morse_s2", "morse_hopf", "morse_lens3")
ORIENT_INSTANCE = "orient_instance.json"


def cli_ops() -> list:
    """One pass of launches, all at default bounds."""
    ops = [{"id": f"report-{s}", "argv": ["report", "--setup", f"data/{s}.json"],
            "kind": "report", "setup": s} for s in SETUPS]
    ops.append({"id": "enumerate-tau2", "kind": "enumerate", "setup": "tau2",
                "argv": ["enumerate", "--setup", "data/tau2.json",
                         "--all-targets"]})
    ops.append({"id": "grade-cp2", "kind": "grade", "setup": "cp2",
                "argv": ["grade", "--setup", "data/cp2.json"]})
    ops.extend({"id": f"morse-{m}", "kind": "morse", "data": m,
                "argv": ["morse", "--data", f"data/{m}.json"]}
               for m in MORSE_FILES)
    ops.append({"id": "orient-fibre_sum", "kind": "orient",
                "argv": ["orient", "--instance", ORIENT_INSTANCE]})
    return ops


def orient_cli_instance(seed: int) -> dict:
    """The small fibre sum given to `cascadix orient`: 4 + 3 over dim W = 1."""
    return fibre_sum_instance(op_rng(seed, "orient-cli"), 4, 3, 1)


def instance_json(inst: dict) -> dict:
    """The instance in the JSON form `cascadix orient` reads."""
    def space(s):
        return {"dim": s["dim"], "sign": s["sign"],
                "basis": [[str(x) for x in row] for row in s["basis"]]}

    def mat(m):
        return [[str(x) for x in row] for row in m]

    return {"kind": "fibre_sum", "v1": space(inst["v1"]), "v2": space(inst["v2"]),
            "w": space(inst["w"]), "f1": mat(inst["f1"]), "f2": mat(inst["f2"])}
