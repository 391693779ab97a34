"""Randomized property drills of the orientation and Conley-Zehnder
conventions.

Everything here is deterministic given the seed: instances are drawn from a
private random.Random, and each runner returns the list of failing
instances (empty = pass).  Frames are compared with the oracle
`reference_frame_orientations_agree`, and basis changes are multiplied out
with the oracle `matmul`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import matmul, reference_frame_orientations_agree

from cascadix.orientation import (
    LinearMapSpec,
    NotSurjective,
    OrientedFrame,
    OrientedSpace,
    det_sign,
    fibre_sum_orientation,
)
from cascadix.spectrum import (
    ComplexLinear,
    Side,
    VerticalC,
    cz_perturbed,
    kernel_dimension,
)

ENTRY_POOL = (
    [Fraction(n) for n in (-2, -1, 0, 0, 1, 1, 2)]
    + [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]
)


def random_matrix(rng, rows, cols):
    return tuple(tuple(rng.choice(ENTRY_POOL) for _ in range(cols))
                 for _ in range(rows))


def random_space(rng, dim):
    sign = rng.choice((1, -1))
    if dim == 0:
        return OrientedSpace(0, (), sign)
    while True:
        basis = random_matrix(rng, dim, dim)
        if det_sign(basis) != 0:
            return OrientedSpace(dim, basis, sign)


def random_positive_transform(rng, dim):
    """Random positive-determinant rational matrix."""
    if dim == 0:
        return ()
    while True:
        m = random_matrix(rng, dim, dim)
        if det_sign(m) == 1:
            return m


def random_triple(rng):
    """A composable fibre-sum triple: V1, V2, V3 over W12 and W23."""
    d1, d2, d3 = (rng.randint(0, 3) for _ in range(3))
    dw12 = rng.randint(0, min(2, d1 + d2))
    dw23 = rng.randint(0, min(2, d2 + d3))
    v1, v2, v3 = (random_space(rng, d) for d in (d1, d2, d3))
    w12, w23 = random_space(rng, dw12), random_space(rng, dw23)
    f1 = LinearMapSpec(random_matrix(rng, dw12, d1))
    f2 = LinearMapSpec(random_matrix(rng, dw12, d2))
    g2 = LinearMapSpec(random_matrix(rng, dw23, d2))
    g3 = LinearMapSpec(random_matrix(rng, dw23, d3))
    return v1, v2, v3, w12, w23, f1, f2, g2, g3


def _compose_on_block(outer, frame_vectors, width, offset):
    """Matrix of outer applied to one coordinate block of each frame vector."""
    rows = outer.rows
    cols = []
    for v in frame_vectors:
        part = v[offset:offset + width]
        cols.append(tuple(
            sum((outer.matrix[i][j] * part[j] for j in range(width)),
                Fraction(0))
            for i in range(rows)))
    return LinearMapSpec(tuple(tuple(col[i] for col in cols)
                               for i in range(rows)))


def left_association(v1, v2, v3, w12, w23, f1, f2, g2, g3):
    """((V1 x V2) x V3) as an oriented frame in V1+V2+V3 coordinates."""
    x12 = fibre_sum_orientation(v1, v2, w12, f1, f2)
    inner = OrientedSpace(x12.dim, (), x12.sign)
    g2_prime = _compose_on_block(g2, x12.vectors, v2.dim, v1.dim)
    y = fibre_sum_orientation(inner, v3, w23, g2_prime, g3)
    big = []
    for vec in y.vectors:
        top, bottom = vec[:x12.dim], vec[x12.dim:]
        embedded = tuple(
            sum((x12.vectors[j][i] * top[j] for j in range(x12.dim)),
                Fraction(0))
            for i in range(v1.dim + v2.dim))
        big.append(embedded + tuple(bottom))
    return OrientedFrame(tuple(big), y.sign)


def right_association(v1, v2, v3, w12, w23, f1, f2, g2, g3):
    """(V1 x (V2 x V3)) as an oriented frame in V1+V2+V3 coordinates."""
    x23 = fibre_sum_orientation(v2, v3, w23, g2, g3)
    inner = OrientedSpace(x23.dim, (), x23.sign)
    f2_prime = _compose_on_block(f2, x23.vectors, v2.dim, 0)
    y = fibre_sum_orientation(v1, inner, w12, f1, f2_prime)
    big = []
    for vec in y.vectors:
        top, bottom = vec[:v1.dim], vec[v1.dim:]
        embedded = tuple(
            sum((x23.vectors[j][i] * bottom[j] for j in range(x23.dim)),
                Fraction(0))
            for i in range(v2.dim + v3.dim))
        big.append(tuple(top) + embedded)
    return OrientedFrame(tuple(big), y.sign)


def associativity_verdict(instance):
    """True/False for agreement, None when a stage map is not surjective."""
    try:
        lf = left_association(*instance)
        rf = right_association(*instance)
    except NotSurjective:
        return None
    return reference_frame_orientations_agree(lf, rf)


def _trials(seed, instances, check):
    """Draw triples until `instances` of them were checked; return the failing
    ones.  check(rng, triple) returns None to skip the draw, else whether the
    property holds."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    while checked < instances:
        inst = random_triple(rng)
        verdict = check(rng, inst)
        if verdict is None:
            continue
        if not verdict:
            failures.append(inst)
        checked += 1
    return failures


def run_associativity_trials(seed, instances):
    """Check `instances` surjective triples; return the failing ones."""
    return _trials(seed, instances,
                   lambda rng, inst: associativity_verdict(inst))


def run_basis_independence_trials(seed, instances):
    """Positive-determinant basis changes must fix every output sign, and
    over a W of dimension >= 1 the kernel vectors too: they depend only on
    the maps (over a point the frame is the product reference basis, which
    does move)."""
    def check(rng, inst):
        v1, v2, v3, w12, w23, f1, f2, g2, g3 = inst
        try:
            base = fibre_sum_orientation(v1, v2, w12, f1, f2)
        except NotSurjective:
            return None
        transformed = []
        for space in (v1, v2, w12):
            p = random_positive_transform(rng, space.dim)
            new_basis = matmul(space.reference_basis, p)
            transformed.append(OrientedSpace(space.dim, new_basis, space.sign))
        again = fibre_sum_orientation(transformed[0], transformed[1],
                                      transformed[2], f1, f2)
        return again.sign == base.sign and (
            w12.dim == 0 or again.vectors == base.vectors)

    return _trials(seed, instances, check)


def run_flip_trials(seed, instances, which):
    """Flipping the sign of exactly one space must flip the output sign.

    which is "v1", "v2", or "w"; over a zero-dimensional W the W sign never
    enters (the product-orientation convention), so those draws are skipped
    for the "w" runner.
    """
    slot = {"v1": 0, "v2": 1, "w": 2}[which]

    def check(rng, inst):
        v1, v2, v3, w12, w23, f1, f2, g2, g3 = inst
        if which == "w" and w12.dim == 0:
            return None
        try:
            base = fibre_sum_orientation(v1, v2, w12, f1, f2)
        except NotSurjective:
            return None
        spaces = [v1, v2, w12]
        old = spaces[slot]
        spaces[slot] = OrientedSpace(old.dim, old.reference_basis, -old.sign)
        flipped = fibre_sum_orientation(spaces[0], spaces[1], spaces[2],
                                        f1, f2)
        return flipped.sign == -base.sign and flipped.vectors == base.vectors

    return _trials(seed, instances, check)


def operator_catalog():
    """Representative operators for the exhaustive crossing check."""
    ops = [VerticalC(0.0)]
    ops += [VerticalC(c) for c in (0.3, 0.5, 1.0, 5.0, 100.0)]
    ops += [ComplexLinear(m) for m in range(1, 7)]
    return ops


def crossing_identity_failures():
    """Operators violating CZ(-delta) - CZ(+delta) == dim ker; exhaustive."""
    out = []
    for op in operator_catalog():
        drop = cz_perturbed(op, Side.MINUS_SMALL) \
            - cz_perturbed(op, Side.PLUS_SMALL)
        if drop != kernel_dimension(op):
            out.append(op)
    return out
