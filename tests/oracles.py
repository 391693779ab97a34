"""Frozen expected values and independent oracle computations.

Everything in this file except `weighted_index`,
`brute_force_contributions`, `scan_level_shapes`, the `reference_*`
orientation functions and the helpers named at the end of this paragraph
is computed without importing the package under test
(`first_square_violation`, `dense_differential`, `dense_homology` and
`chain_euler_characteristic` read a complex only through its points, flows
and `points_of_degree`).  `weighted_index` is the textbook
cz(+-delta) form of the weighted Fredholm index, kept as the reference the
package's kernel-subspace sum is compared against; it imports only the
package's decoration and operator types and reads CZ indices from the
frozen tables below.
`brute_force_contributions` is the exhaustive generate-and-filter cascade
search, kept as the reference the case solver is compared against; it uses
the package's `classify_type` as its judge.  `reference_classify_type` is
`classify_type` as it was before it built one record per verdict, kept as
the reference the package's classification is compared against; it reads
the package's record types and the `grading` index terms.
`per_row_certify` is the case solver as it was before it went by winding
families, one classification per row through `proposals`, kept as the
reference the family solver is compared against; it uses the package's `classify_type`, `grade`, `area_classes` and
structural check.  `scan_level_shapes` is the earlier winding scan of the
case solver, kept as the reference the family solver's two-level rows are
compared against once `classify_type` has judged its shapes; it uses the
package's `grade` and `area_classes`.  `fraction_sorted_generators` is
the generator list as it was before degrees were compared as integers, each
degree a `Fraction` computed from the setup's fields, kept as the reference
the integer sort and winding solve are compared against; it builds the
package's generator types.  `list_catalog` is the catalog as it was
before it streamed, each target's rows held and sorted, kept as the
reference the streamed rows and their warnings are compared against; it
reads the package's `families` and record types.  `grade_reeb`,
`fraction_budget` and `fraction_index_identity` are the budget terms and
index identity as `Fraction`
sums from their definitions, kept as the reference the solver's
integer and D-scaled sums are compared against; they read the package's
generator and cascade records.  `omega_balance`, `omega_class_of_area`
and `omega_plane_positive` are the level balance, the class of an area
and the plane's area test read through omega, kept as the reference the
engine's c1 and divisor-intersection forms are compared against;
`omega_class_of_area` runs the package's `area_classes` on omega.
`reference_fibre_sum_orientation` is the
earlier multi-elimination fibre sum (product space, basis extension, a
`Fraction` product and determinant signs), kept as the reference the
one-elimination code is compared against;
`reference_frame_orientations_agree` is the frame comparison the
orientation drills (`drills.py`) judge associativity with.  Both take
every rank, kernel and determinant sign from `_gauss`, a plain `Fraction`
Gauss-Jordan elimination of their own, and read only the package's space,
map and frame types.
`reference_quotient_orientation` is the earlier quotient, whose subspace
image is a `Fraction` matrix product, kept as the reference the integer
image columns are compared against; `matmul` is that product, for the
references and the drills.  `negated`, `glue`, `rigid_plane_classes`,
`chern_gate_applies`, `smith_invariant_factors` and `cz_cap` (with its
`CapMismatch`) are helpers no command runs, moved here
from the package with the tests that pin them; they and `disjoint_copies`
build or read the package's own types.  `smith_invariant_factors` is the
package's sparse Smith form fed a dense matrix; `cz_cap` is the degree
through a capping class, an independent cross-check of `grade`;
`chern_gate_applies` reads two keys of the shipped setup files that the
package type-checks and then drops.
Derived values were worked out by hand (or by the closed forms below) before
the corresponding module was written, and the implementation is held to them.
Do not edit a frozen value to make a test pass; a mismatch means the
implementation is wrong or the hand computation is wrong, and either way it
has to be resolved explicitly.
"""

import json
import math
from fractions import Fraction
from itertools import product
from pathlib import Path


# ---------------------------------------------------------------------------
# Hamiltonian profile closed forms.
#
# For h(rho) = (rho - 2)^p on rho > 2 the orbit equation h'(rho) = k*T0 has
# the explicit solution rho = 2 + (k*T0/p)^(1/(p-1)), and the action of the
# resulting orbit is rho*h'(rho) - h(rho) evaluated there.  The engine finds
# the root numerically; these closed forms are the check.

def power_orbit_root(p, k, t0):
    s = (k * t0 / p) ** (1.0 / (p - 1))
    return 2.0 + s


def power_orbit_action(p, k, t0):
    s = (k * t0 / p) ** (1.0 / (p - 1))
    # rho*h' - h = (2+s)*p*s^(p-1) - s^p = 2p s^(p-1) + (p-1) s^p
    return 2 * p * s ** (p - 1) + (p - 1) * s ** p


def power_orbit_vertical(p, k, t0):
    s = (k * t0 / p) ** (1.0 / (p - 1))
    return p * (p - 1) * s ** (p - 2) * (2.0 + s)


# Quadratic profile, T0 = 1: exact rational values for small k.
QUADRATIC_T0_1 = {
    # k: (rho_k, action, vertical_C)
    1: (2.5, 2.25, 5.0),
    2: (3.0, 5.0, 6.0),
}


# ---------------------------------------------------------------------------
# Asymptotic operator spectra.

def vertical_eigenvalue(c, mode, branch):
    """Eigenvalue of the vertical asymptotic operator at Fourier mode `mode`.

    branch is +1 or -1.  The closed form is (-c + branch*sqrt(c^2 +
    16 pi^2 mode^2)) / 2.
    """
    return 0.5 * (-c + branch * math.sqrt(c * c + 16.0 * math.pi ** 2 * mode * mode))


TWO_PI = 2.0 * math.pi


def discretize_spectrum(op, fourier_cutoff=64):
    """Eigenvalues of an asymptotic operator on Fourier modes <= cutoff.

    The numerical cross-check of the closed-form spectra: the operator is
    assembled in the orthonormal real basis {1, sqrt2 cos(2 pi k t),
    sqrt2 sin(2 pi k t)} per real coordinate and diagonalized.  Because the
    symmetric part is constant in t the truncation is block-exact, so every
    eigenvalue whose mode is inside the cutoff comes out to rounding error.
    `op` is read by its attributes only: `complex_rank`, and `c` for the
    vertical family.  Returns a sorted numpy array, eigenvalues repeated per
    multiplicity.
    """
    import numpy as np

    if fourier_cutoff < 4:
        raise ValueError(f"fourier_cutoff must be >= 4, got {fourier_cutoff}")
    nreal = 2 * op.complex_rank
    c = getattr(op, "c", None)
    s_diag = [c, 0.0] if c is not None else [0.0] * nreal

    # basis labels: (kind, k) with kind "c" (cos, k >= 0) or "s" (sin, k >= 1)
    funcs = [("c", 0)] + [(kind, k) for k in range(1, fourier_cutoff + 1)
                          for kind in ("c", "s")]
    findex = {f: i for i, f in enumerate(funcs)}
    dim = nreal * len(funcs)
    mat = np.zeros((dim, dim))

    def slot(j, f):
        return j * len(funcs) + findex[f]

    for j in range(nreal):
        cpx, re_part = divmod(j, 2)
        # J e_j: real part -> imaginary, imaginary -> minus real
        jj = 2 * cpx + 1 if re_part == 0 else 2 * cpx
        jsign = 1.0 if re_part == 0 else -1.0
        for kind, k in funcs:
            col = slot(j, (kind, k))
            # -S e_j * phi
            mat[col, col] += -s_diag[j]
            if k == 0:
                continue
            w = TWO_PI * k
            if kind == "c":
                # phi' = -w * sin_k; -J e_j phi' = w * jsign * e_jj * sin_k
                mat[slot(jj, ("s", k)), col] += w * jsign
            else:
                # phi' = w * cos_k; -J e_j phi' = -w * jsign * e_jj * cos_k
                mat[slot(jj, ("c", k)), col] += -w * jsign

    assert np.allclose(mat, mat.T, atol=1e-12), "discretization not symmetric"
    return np.sort(np.linalg.eigvalsh(0.5 * (mat + mat.T)))

# Conley-Zehnder values of the perturbed operators.  Keys: (kind, side) where
# kind is ("vertical", "pos") for C > 0, ("vertical", "zero") for C = 0, and
# ("complex", m); side is "+" for the +delta perturbation, "-" for -delta.
CZ_FROZEN = {
    ("vertical_pos", "+"): 0,
    ("vertical_pos", "-"): 1,
    ("vertical_zero", "+"): -1,
    ("vertical_zero", "-"): 1,
}


def cz_complex(m, side):
    return -m if side == "+" else m


KERNEL_DIMS = {"vertical_pos": 1, "vertical_zero": 2}  # complex rank m: 2m


# ---------------------------------------------------------------------------
# Fredholm index frozen examples (hand computations).

WEIGHTED_CYLINDER_DECAY = -1          # rank 1, chi 0, Ham both ends, decay
WEIGHTED_TWO_EXTRA_PUNCTURES = -5     # same plus two negative Reeb decay punctures
WEIGHTED_REEB_HAM = -2                # positive Reeb end, negative Ham end, decay


def weighted_index(problem):
    """n*chi + 2*c1 + sum_{z positive} cz(A_z + delta_z)
    - sum_{z negative} cz(A_z - delta_z), delta_z > 0 at a decay puncture
    and < 0 at a growth one."""
    from cascadix.fredholm import Sign, WeightSide
    from cascadix.spectrum import ComplexLinear

    total = problem.bundle_rank * (2 - len(problem.punctures)) \
        + 2 * problem.rel_c1
    for p in problem.punctures:
        positive = p.sign is Sign.POSITIVE
        side = "+" if (p.decoration.side is WeightSide.DECAY) == positive \
            else "-"
        op = p.operator
        if isinstance(op, ComplexLinear):
            cz = cz_complex(op.rank, side)
        else:
            kind = "vertical_zero" if op.c == 0.0 else "vertical_pos"
            cz = CZ_FROZEN[(kind, side)]
        total += cz if positive else -cz
    return total


MB_HAM_HAM_DECORATED = 1              # kernel subspaces: i*R at both Ham ends
MB_HAM_REEB_DECORATED = 2             # i*R at Ham end, full C at Reeb end

# split totals: tuples (n, c1_sigma_of_A, punctures) -> expected
def split_total(n, c1a, punctures):
    return 2 * n - 1 + 2 * c1a + 2 * punctures


# ---------------------------------------------------------------------------
# Gradings on the projective-plane setup (n=2, tau_X=3, K=1).

CP2_GRADINGS = {
    # (morse_index, flag, k): degree;  flag "check" adds 0, "hat" adds 1
    (0, "check", 1): 3,
    (0, "hat", 1): 4,
    (2, "check", 1): 5,
    (2, "hat", 1): 6,
    (0, "check", 2): 7,
    (2, "hat", 2): 10,
    (0, "check", 3): 11,
}
CP2_INTERIOR_MIN_DEGREE = 2           # n - 0
CP2_REEB_DEGREE_K1 = 2                # -2 + 2*((3-1)/1)*1
TAU2K1_REEB_DEGREE_K1 = 0             # -2 + 2*((2-1)/1)*1
CP2_CZ_CAP_MIN_K1_B1 = 3              # 0 + 1 - 2 - 2*1 + 2*3


# ---------------------------------------------------------------------------
# Pearl and cascade dimensions (hand).

PEARL_IN_SIGMA_EXAMPLE = 4            # q=p=min on S^2 base, N=1, <c1,A>=2, k=0
PEARL_IN_SIGMA_AUGMENTED = 4          # N=1, A=0, one aug class with c1=3, B.S=1
PEARL_WITH_SPHERE_EXAMPLE = 2         # n=2, x min, p min, N=1, A=0, B=[1]

CASCADE_N0_EXAMPLE = 1                # check -> hat, same k, same point
CASCADE_YY_EXAMPLE = 1                # q-hat k=1 M=2 to p-check k=2 M=0 on CP2
CASCADE_WY_EXAMPLE = 2                # x0 (deg 2) to m-check_1 (deg 3), N=1

AUG_INDEX_CP2_B1 = 2                  # 2*(3 - 1 - 1)
AUG_INDEX_CP2_B2_COVER2 = 6           # 2*(6 - 2 - 1)
AUG_INDEX_TAU2_B1 = 0                 # 2*(2 - 1 - 1): rigid plane class


# ---------------------------------------------------------------------------
# Cascade catalogs, enumerated by hand.
#
# Catalog rows are (target, source, case, k_minus, k_plus, classes_a,
# sphere_b, aug_classes) with generator names "<point>_<check|hat>_<k>" and
# lattice vectors as tuples.  Bounds: k_max=3, class_bound=3.
#
# CP^2 setup: Sigma critical points m (index 0), M (index 2); W point x0
# (index 0).  Degrees: m_check 4k-1, m_hat 4k, M_check 4k+1, M_hat 4k+2,
# x0 = 2.  Adjacent-degree pairs give exactly:
#   Case 0 (same k, Morse flow M_check <- m_hat) for k = 1, 2, 3,
#   Case 1 (m_check_{k+1} <- M_hat_k, A=(1)) for k = 1, 2,
#   Case 3 (m_check_1 <- x0, B=(1)),
# and no Case 2 since 2*(k+ - k-) = 1 has no integer solution.

CP2_CATALOG = [
    ("M_check_1", "m_hat_1", 0, 1, 1, (), None, ()),
    ("M_check_2", "m_hat_2", 0, 2, 2, (), None, ()),
    ("M_check_3", "m_hat_3", 0, 3, 3, (), None, ()),
    ("m_check_2", "M_hat_1", 1, 1, 2, ((1,),), None, ()),
    ("m_check_3", "M_hat_2", 1, 2, 3, ((1,),), None, ()),
    ("m_check_1", "x0", 3, 1, 1, ((0,),), (1,), ()),
]
CP2_CASE_COUNTS = {0: 3, 1: 2, 2: 0, 3: 1}

# tau_X=2, K=1 setup, same Morse data.  Degrees: m_check 2k-1, m_hat 2k,
# M_check 2k+1, M_hat 2k+2, x0 = 2.  Hand enumeration gives:
TAU2_CATALOG = [
    # Case 0, k = 1..3
    ("M_check_1", "m_hat_1", 0, 1, 1, (), None, ()),
    ("M_check_2", "m_hat_2", 0, 2, 2, (), None, ()),
    ("M_check_3", "m_hat_3", 0, 3, 3, (), None, ()),
    # Case 1 with omega(A)=1 (Morse indices equal, q=p)
    ("m_check_2", "m_hat_1", 1, 1, 2, ((1,),), None, ()),
    ("m_check_3", "m_hat_2", 1, 2, 3, ((1,),), None, ()),
    ("M_check_2", "M_hat_1", 1, 1, 2, ((1,),), None, ()),
    ("M_check_3", "M_hat_2", 1, 2, 3, ((1,),), None, ()),
    # Case 1 with omega(A)=2 (M(q)=2 down to M(p)=0)
    ("m_check_3", "M_hat_1", 1, 1, 3, ((2,),), None, ()),
    # Case 2 (augmentation plane of index 0, q=p, k+ = k- + 1)
    ("m_check_2", "m_hat_1", 2, 1, 2, ((0,),), None, ((1, (1,)),)),
    ("m_check_3", "m_hat_2", 2, 2, 3, ((0,),), None, ((1, (1,)),)),
    ("M_check_2", "M_hat_1", 2, 1, 2, ((0,),), None, ((1, (1,)),)),
    ("M_check_3", "M_hat_2", 2, 2, 3, ((0,),), None, ((1, (1,)),)),
    # Case 3
    ("M_check_1", "x0", 3, 1, 1, ((0,),), (1,), ()),
    ("m_check_2", "x0", 3, 2, 2, ((0,),), (2,), ()),
]
TAU2_CASE_COUNTS = {0: 3, 1: 5, 2: 4, 3: 2}


# ---------------------------------------------------------------------------
# Brute-force cascade search.
#
# Every 1- and 2-level candidate with 0-2 augmentation planes and class
# vectors of area (0, max(class_bound, ceil(k_t/K))] in a coordinate box,
# each handed to classify_type; the feasible ones within class_bound,
# sorted, are the reference catalog of one target, and those above it give
# its class-bound warnings.  Returns (types, warnings) with the same meaning
# as the fields of the report `cascades.enumerate_contributions` returns.

BRUTE_MAX_LEVELS = 2
BRUTE_MAX_AUG = 2


def _box_classes(lattice, class_bound):
    """One nonzero class vector for each area in (0, class_bound].

    The box has side ceil(class_bound / u), u the least nonzero |omega_i|,
    so a multiple of that one generator reaches every area up to the bound
    that is a multiple of u.  Those are all the areas whenever each omega
    entry is a multiple of u, as on every lattice the tests draw.  The
    first class the box meets stands for its area: validation makes every
    functional a multiple of omega, so classify_type cannot tell classes of
    one area apart, and in rank > 1 keeping them all would multiply the
    search by the many classes of each area.
    """
    from cascadix.model import pair
    nonzero = [abs(w) for w in lattice.omega if w]
    side = math.ceil(class_bound / min(nonzero)) if nonzero else 0
    out = {}
    for v in product(range(-side, side + 1), repeat=lattice.rank):
        area = pair(lattice.omega, v)
        if any(v) and 0 < area <= class_bound:
            out.setdefault(area, v)
    return list(out.values())


def _brute_aug_assignments(setup, n_levels, x_classes):
    from cascadix.cascades import AugPuncture
    from cascadix.model import pair
    out = [()]
    singles = []
    for level in range(1, n_levels + 1):
        for b in x_classes:
            mult = int(pair(setup.lattice_x.sigma_intersection, b))
            singles.append(AugPuncture(level, b, mult))
    out.extend((s,) for s in singles)
    if BRUTE_MAX_AUG >= 2:
        for i, s1 in enumerate(singles):
            for s2 in singles[i:]:
                out.append((s1, s2))
    return out


def _brute_chain_multiplicities(setup, k0, classes, aug):
    """Windings k0 <= k1 <= ... forced by per-level balance, or None."""
    from cascadix.model import pair
    mults = [k0]
    for i, a in enumerate(classes, start=1):
        step = setup.k_const * pair(setup.lattice_sigma.omega, a)
        step += sum(p.multiplicity for p in aug if p.level == i)
        if step.denominator != 1 or step < 0:
            return None
        mults.append(mults[-1] + int(step))
    return tuple(mults)


def _row_area(setup, t):
    """The largest area of a class in a cascade type, 0 when it has none:
    the least class bound that keeps the type in the catalog."""
    from cascadix.model import pair
    areas = [pair(setup.lattice_sigma.omega, a)
             for a in t.classes_a]
    areas += [pair(setup.lattice_x.omega, p.class_b)
              for p in t.aug]
    if t.sphere_b is not None:
        areas.append(pair(setup.lattice_x.omega, t.sphere_b))
    return max(areas, default=Fraction(0))


def _wide_class_bound(setup, target, class_bound):
    """A class bound that keeps every row of the target: each class of a
    row ending at winding k_t has K * omega <= k_t."""
    return max(class_bound, math.ceil(Fraction(target.k) / setup.k_const))


def _split_at_bound(setup, target, k_max, class_bound, types):
    """The feasible types within class_bound, sorted, and the warnings for
    the target: k_max below its winding, then each area above the bound
    that some type needs, once each, increasing."""
    from cascadix.cascades import CascadeType
    kept = sorted((t for t in types if _row_area(setup, t) <= class_bound),
                  key=CascadeType.sort_key)
    warnings = []
    if target.k > k_max:
        warnings.append(f"k_max={k_max} below target winding {target.k}: "
                        "sources missed")
    needs = {_row_area(setup, t) for t in types}
    for area in sorted(a for a in needs if a > class_bound):
        warnings.append(f"class_bound={class_bound} admits areas only up "
                        f"to {class_bound}, need {area}")
    return tuple(kept), tuple(warnings)


def brute_force_contributions(setup, target, k_max, class_bound):
    from cascadix.cascades import CascadeType, classify_type
    from cascadix.grading import InteriorGenerator, OrbitGenerator, grade
    from cascadix.model import (FibreFlag, LiftedCriticalPoint,
                                pair)

    found = []
    if isinstance(target, InteriorGenerator):
        for y in setup.morse_w:
            if y.name == target.point.name:
                continue
            cand = classify_type(setup, target, InteriorGenerator(y), ())
            if cand.feasible:
                found.append(cand)
        found.sort(key=CascadeType.sort_key)
        return tuple(found), ()

    kt = target.k
    wide = _wide_class_bound(setup, target, class_bound)
    sigma_classes = [tuple([0] * setup.lattice_sigma.rank)]
    sigma_classes += _box_classes(setup.lattice_sigma, wide)
    x_classes = []
    for v in _box_classes(setup.lattice_x, wide):
        inter = pair(setup.lattice_x.sigma_intersection, v)
        if inter.denominator == 1 and inter >= 1:
            x_classes.append(v)
    one = Fraction(1)

    if kt <= k_max:
        for q in setup.morse_sigma:
            for flag in (FibreFlag.CHECK, FibreFlag.HAT):
                source = OrbitGenerator(LiftedCriticalPoint(q, flag), kt)
                if source == target:
                    continue
                if grade(setup, target) - grade(setup, source) != one:
                    continue
                cand = classify_type(setup, target, source, (kt,))
                if cand.feasible:
                    found.append(cand)

    if target.point.flag is FibreFlag.CHECK:
        for n_levels in range(1, BRUTE_MAX_LEVELS + 1):
            aug_options = _brute_aug_assignments(setup, n_levels, x_classes)
            for q in setup.morse_sigma:
                for k0 in range(1, min(k_max, kt) + 1):
                    source = OrbitGenerator(
                        LiftedCriticalPoint(q, FibreFlag.HAT), k0)
                    if grade(setup, target) - grade(setup, source) != one:
                        continue
                    for classes in product(sigma_classes, repeat=n_levels):
                        if sum(1 for a in classes if any(a)) > 1:
                            continue
                        for aug in aug_options:
                            mults = _brute_chain_multiplicities(
                                setup, k0, classes, aug)
                            if mults is None or mults[-1] != kt:
                                continue
                            cand = classify_type(setup, target, source,
                                                 mults, classes, None, aug)
                            if cand.feasible:
                                found.append(cand)

        for x in setup.morse_w:
            source = InteriorGenerator(x)
            if grade(setup, target) - grade(setup, source) != one:
                continue
            for n_levels in range(1, BRUTE_MAX_LEVELS + 1):
                zeros = (tuple([0] * setup.lattice_sigma.rank),) * n_levels
                for b in x_classes:
                    k0 = int(pair(setup.lattice_x.sigma_intersection, b))
                    mults = _brute_chain_multiplicities(setup, k0, zeros, ())
                    if mults is None or mults[-1] != kt:
                        continue
                    cand = classify_type(setup, target, source,
                                         mults, zeros, b, ())
                    if cand.feasible:
                        found.append(cand)

    return _split_at_bound(setup, target, k_max, class_bound, found)


# ---------------------------------------------------------------------------
# Reference classification.
#
# `classify_type` as it was before it built one record per verdict: a draft
# record of the normalized inputs, each verdict a `_replace` of it, and the
# level counts read through the record's `n_nonconstant` and `n_constant`.
# The package's classification is held `==` to it on every field, and to
# the type and message of each exception it raises.


def reference_classify_type(setup, target, source, multiplicities,
                            classes_a=(), sphere_b=None, aug=()):
    from cascadix.cascades import (BUDGET_CAP_W_TO_Y, BUDGET_CAP_Y_TO_Y,
                                   BudgetTerms, Case, CascadeType)
    from cascadix.errors import CascadixError
    from cascadix.grading import (InteriorGenerator, OrbitGenerator,
                                  augmentation_index, degree_difference,
                                  exact_quotient, multiplicity_balance,
                                  scaled_reeb_weight)
    from cascadix.model import pair

    draft = CascadeType(target, source, tuple(map(int, multiplicities)),
                        tuple(tuple(map(int, a)) for a in classes_a),
                        sphere_b, tuple(aug), Case.INFEASIBLE, BudgetTerms(()))
    multiplicities, classes_a, aug, n_levels = (
        draft.multiplicities, draft.classes_a, draft.aug, draft.n_levels)

    def bail(reason, budget=draft.budget):
        return draft._replace(budget=budget, infeasible_reason=reason)

    if isinstance(target, InteriorGenerator):
        if not isinstance(source, InteriorGenerator):
            raise CascadixError("interior targets pair with interior sources")
        if n_levels or sphere_b is not None or aug or multiplicities:
            raise CascadixError("interior flows carry no levels or classes")
        if target.point.name == source.point.name:
            return bail("endpoints coincide")
        if degree_difference(setup, target, source) != 1:
            return bail("degree difference != 1")
        return draft._replace(case_label=Case.CASE0)

    if not isinstance(target, OrbitGenerator):
        raise CascadixError(f"unsupported target {target!r}")

    if len(multiplicities) != n_levels + 1:
        raise CascadixError(
            f"{n_levels} levels need {n_levels + 1} multiplicities, "
            f"got {len(multiplicities)}"
        )
    for a in aug:
        if not 1 <= a.level <= max(n_levels, 1):
            raise CascadixError(f"augmentation level {a.level} out of range")
        expected = pair(setup.lattice_x.sigma_intersection, a.class_b)
        if expected != a.multiplicity:
            raise CascadixError(
                f"augmentation winding {a.multiplicity} != divisor "
                f"intersection {expected}"
            )

    diff = degree_difference(setup, target, source)
    if diff is None:
        return bail("non-integer degree difference")
    if diff != 1:
        return bail("degree difference != 1")

    w_to_y = isinstance(source, InteriorGenerator)
    if w_to_y:
        if sphere_b is None:
            raise CascadixError("orbit-to-interior cascades carry a filling sphere")
        if n_levels < 1:
            return bail("interior sources need at least one level")
        k0 = pair(setup.lattice_x.sigma_intersection, sphere_b)
        if k0 < 1:
            return bail("filling sphere divisor intersection not a winding")
        if multiplicities[0] != k0:
            return bail("bottom winding != sphere divisor intersection")
    else:
        if sphere_b is not None:
            raise CascadixError("orbit-to-orbit cascades carry no filling sphere")
        if multiplicities[0] != source.k:
            return bail("bottom winding != source winding")
    if multiplicities[-1] != target.k:
        return bail("top winding != target winding")

    for i in range(1, n_levels + 1):
        a_i = classes_a[i - 1]
        augs_here = tuple(a.multiplicity for a in aug if a.level == i)
        if any(a_i) and pair(setup.lattice_sigma.c1, a_i) <= 0:
            return bail(f"level {i} sphere has non-positive area")
        if not multiplicity_balance(setup, a_i, multiplicities[i],
                                    multiplicities[i - 1], augs_here):
            return bail(f"level {i} winding balance fails")

    for a in aug:
        try:
            augmentation_index(setup, a.class_b)
        except CascadixError as exc:
            return bail(f"augmentation rejected: {exc}")

    if w_to_y:
        first = ("fibre_index", target.point.fibre_index)
        spare, cap = 1, BUDGET_CAP_W_TO_Y
    else:
        first = ("fibre_step", target.point.fibre_index
                 - source.point.fibre_index + 1)
        spare, cap = 0, BUDGET_CAP_Y_TO_Y
    n1, k_aug = draft.n_nonconstant, draft.aug_count
    d = setup.degree_scale[0]
    budget = BudgetTerms((
        first,
        ("nonconstant_levels", n1),
        ("augmentations", k_aug),
        ("spare_stabilizers", k_aug + spare - draft.n_constant),
        ("augmentation_weights",
         exact_quotient(sum(scaled_reeb_weight(setup, a.multiplicity)
                            for a in aug), d)),
    ))
    # `BudgetTerms.first_negative` and `.total` as they were
    bad = next((name for name, v in budget.terms if v < 0), None)
    if bad is not None:
        return bail(f"budget term negative: {bad}", budget)
    total = sum(v for _, v in budget.terms)
    if total > cap:
        return bail(f"budget {total} exceeds {cap}", budget)

    if w_to_y:
        label = Case.CASE3
    elif not n_levels:
        label = Case.CASE0
    elif n1:
        label = Case.CASE1
    elif target.point.base.name != source.point.base.name:
        return bail("constant level forces equal base points", budget)
    else:
        label = Case.CASE2
    return draft._replace(case_label=label, budget=budget)


# ---------------------------------------------------------------------------
# Per-row case solver.
#
# The case solver as it was before it went by families: for each target it
# proposes the budget-allowed shapes, with each source winding solved from
# the degree equation, and classify_type judges every one.  Run at
# `_wide_class_bound`, it gives each target's rows and class-bound warnings
# without reading anything across windings, so the family solver's
# certification is held equal to `per_row_certify`.


def proposals(setup, target, k_max, class_bound):
    """(source, multiplicities, classes, sphere, aug) of every shape the
    budget allows on the target.

    Interior target: a Morse flow from every other interior point.  Orbit
    target: a bare flow at the target's winding from each lift of degree
    one less (Case 0).  Any level needs a check target.  Orbit-to-orbit:
    one level above a hat source at winding
    k_0 = k_t - (1 - (L_t - L_q)) / (2*(tau - K)/K), kept when it is an
    integer in [1, min(k_max, k_t)]; a non-constant level of class A steps
    K*omega(A) (Case 1), a constant level carrying one plane of class B
    steps B.Sigma = K*omega(B) (Case 2).  Orbit-to-interior: one constant
    level on a filling sphere with B.Sigma = k_t (Case 3).  Each class has
    area step/K, skipped above class_bound.
    """
    from cascadix.cascades import AugPuncture
    from cascadix.grading import InteriorGenerator, OrbitGenerator, grade
    from cascadix.model import FibreFlag, LiftedCriticalPoint, area_classes

    if isinstance(target, InteriorGenerator):
        for y in setup.morse_w:
            if y.name != target.point.name:
                yield InteriorGenerator(y), (), (), None, ()
        return

    kt = target.k
    deg_t = grade(setup, target)
    if kt <= k_max:
        for q in setup.morse_sigma:
            for flag in (FibreFlag.CHECK, FibreFlag.HAT):
                source = OrbitGenerator(LiftedCriticalPoint(q, flag), kt)
                if source != target and deg_t - grade(setup, source) == 1:
                    yield source, (kt,), (), None, ()
    if target.point.flag is not FibreFlag.CHECK:
        return

    top = min(k_max, kt)
    twice_slope = 2 * setup.slope_ratio
    zero = tuple([0] * setup.lattice_sigma.rank)

    def solve(lattice, step):
        area = Fraction(step) / setup.k_const
        return area_classes(lattice.omega)(area) if area <= class_bound else None

    for q in setup.morse_sigma:
        hat = LiftedCriticalPoint(q, FibreFlag.HAT)
        k0 = kt - (1 - target.point.lifted_index + hat.lifted_index) \
            / twice_slope
        if k0.denominator != 1 or not 1 <= k0 <= top:
            continue
        k0 = int(k0)
        source = OrbitGenerator(hat, k0)
        a = solve(setup.lattice_sigma, kt - k0)
        if a is not None:
            yield source, (k0, kt), (a,), None, ()
        b = solve(setup.lattice_x, kt - k0)
        if b is not None:
            yield (source, (k0, kt), (zero,), None,
                   (AugPuncture(1, b, kt - k0),))

    b = solve(setup.lattice_x, kt)
    if b is None:
        return
    for x in setup.morse_w:
        source = InteriorGenerator(x)
        if deg_t - grade(setup, source) == 1:
            yield source, (kt, kt), (zero,), b, ()


def per_row_contributions(setup, target, k_max, class_bound):
    """(types, warnings) of one target, every proposal classified."""
    from cascadix.cascades import CascadeType, classify_type
    from cascadix.grading import InteriorGenerator

    if isinstance(target, InteriorGenerator):
        found = [t for t in (classify_type(setup, target, *shape) for shape
                             in proposals(setup, target, k_max, class_bound))
                 if t.feasible]
        return tuple(sorted(found, key=CascadeType.sort_key)), ()
    wide = _wide_class_bound(setup, target, class_bound)
    found = [t for t in (classify_type(setup, target, *shape)
                         for shape in proposals(setup, target, k_max, wide))
             if t.feasible]
    return _split_at_bound(setup, target, k_max, class_bound, found)


def per_row_certify(setup, k_max, class_bound):
    """`certify_classification`, one classification and one structural
    check per row."""
    from cascadix.cascades import CertificationReport, _structural_violations
    from cascadix.grading import enumerate_generators

    types, warnings = [], []
    for target in enumerate_generators(setup, k_max):
        found, w = per_row_contributions(setup, target, k_max, class_bound)
        types.extend(found)
        warnings.extend(w)
    violations = [f"{t.target.display_name} <- {t.source.display_name}: {v}"
                  for t in types for v in _structural_violations(setup, t)]
    return CertificationReport(tuple(types), tuple(violations),
                               tuple(dict.fromkeys(warnings)))


def list_catalog(setup, k_max, class_bound, target=None):
    """`enumerate_contributions` (one target) or `certify_classification`
    (target None) as they were before the catalog streamed: every row of
    each target built from each family of its point, held and sorted by
    `CascadeType.sort_key`, and the warnings gathered target by target.
    The targets come from `fraction_sorted_generators`."""
    from cascadix.cascades import (CascadeType, CertificationReport,
                                   families)
    from cascadix.errors import CascadixError
    from cascadix.grading import OrbitGenerator

    def row(family, target):
        t = family.template
        if family.step is None:
            return t if t.target == target else None
        k0 = target.k - family.step
        if not 1 <= k0 <= k_max:
            return None
        shift = k0 - t.source.k
        return CascadeType(target, OrbitGenerator(t.source.point, k0),
                           tuple(m + shift for m in t.multiplicities), *t[3:])

    solved = families(setup)
    if target is None:
        targets = [g for g in fraction_sorted_generators(setup, k_max)
                   if g.point in solved]
    else:
        targets = [target]
    if k_max < 1 or class_bound < 1:
        raise CascadixError("enumeration bounds must be positive")
    types, violations, warnings = [], [], []
    for target in targets:
        rows, needs = [], set()
        for family in solved.get(target.point, ()):
            t = row(family, target)
            if t is None:
                continue
            if family.area <= class_bound:
                rows.append((t, family))
            else:
                needs.add(family.area)
        rows.sort(key=lambda r: r[0].sort_key())
        for t, family in rows:
            types.append(t)
            violations.extend(f"{t.target.display_name} <- "
                              f"{t.source.display_name}: {problem}"
                              for problem in family.problems)
        if isinstance(target, OrbitGenerator) and k_max < target.k:
            warnings.append(f"k_max={k_max} below target winding "
                            f"{target.k}: sources missed")
        warnings.extend(f"class_bound={class_bound} admits areas only up "
                        f"to {class_bound}, need {area}"
                        for area in sorted(needs))
    return CertificationReport(tuple(types), tuple(violations),
                               tuple(dict.fromkeys(warnings)))


# ---------------------------------------------------------------------------
# Winding scan.
#
# The case solver's level shapes with the source winding k_0 found by trying
# every k_0 in 1..min(k_max, k_t) and keeping those whose degree is one less
# than the target's, instead of solving the degree equation.  Yields the
# same (source, multiplicities, classes, sphere, aug) tuples, in the same
# order, as the two-multiplicity shapes of `proposals`.


def scan_level_shapes(setup, target, k_max, class_bound):
    from cascadix.cascades import AugPuncture
    from cascadix.grading import InteriorGenerator, OrbitGenerator, grade
    from cascadix.model import FibreFlag, LiftedCriticalPoint, area_classes

    kt = target.k
    zero = tuple([0] * setup.lattice_sigma.rank)

    def solve(lattice, step):
        area = Fraction(step) / setup.k_const
        return area_classes(lattice.omega)(area) if area <= class_bound else None

    for q in setup.morse_sigma:
        for k0 in range(1, min(k_max, kt) + 1):
            source = OrbitGenerator(LiftedCriticalPoint(q, FibreFlag.HAT), k0)
            if grade(setup, target) - grade(setup, source) != 1:
                continue
            a = solve(setup.lattice_sigma, kt - k0)
            if a is not None:
                yield source, (k0, kt), (a,), None, ()
            b = solve(setup.lattice_x, kt - k0)
            if b is not None:
                yield (source, (k0, kt), (zero,), None,
                       (AugPuncture(1, b, kt - k0),))

    b = solve(setup.lattice_x, kt)
    if b is None:
        return
    for x in setup.morse_w:
        source = InteriorGenerator(x)
        if grade(setup, target) - grade(setup, source) == 1:
            yield source, (kt, kt), (zero,), b, ()


# ---------------------------------------------------------------------------
# Generators in `Fraction` degree order.
#
# Each degree is (lifted index) + 1 - n + 2(tau - K)/K * k for an orbit and
# n - (Morse index) for an interior point, as a `Fraction`; the list is
# sorted on (degree, kind, name, flag, k), and a degree filter solves each
# lift's winding from the affine degree.


def fraction_degree(setup, gen):
    from cascadix.grading import InteriorGenerator

    if isinstance(gen, InteriorGenerator):
        return Fraction(setup.n - gen.point.morse_index)
    slope = 2 * (setup.tau_x - setup.k_const) / setup.k_const
    return Fraction(gen.point.lifted_index + 1 - setup.n) + slope * gen.k


def fraction_winding(setup, point, degree):
    """The winding at which the lift `point` has the given degree."""
    from cascadix.grading import OrbitGenerator

    slope = 2 * (setup.tau_x - setup.k_const) / setup.k_const
    return 1 + ((Fraction(degree)
                 - fraction_degree(setup, OrbitGenerator(point, 1))) / slope)


def fraction_winding_at(setup, point, degree):
    """`fraction_winding` when it is a winding, an integer >= 1; else
    None."""
    k = fraction_winding(setup, point, degree)
    return int(k) if k.denominator == 1 and k >= 1 else None


def fraction_sorted_generators(setup, k_max, degree=None):
    from cascadix.grading import InteriorGenerator, OrbitGenerator
    from cascadix.model import FibreFlag, LiftedCriticalPoint

    def key(gen):
        if isinstance(gen, OrbitGenerator):
            return (fraction_degree(setup, gen), gen.kind,
                    gen.point.base.name, gen.point.flag.value, gen.k)
        return (fraction_degree(setup, gen), gen.kind, gen.point.name, "", 0)

    gens = [InteriorGenerator(p) for p in setup.morse_w]
    lifts = [LiftedCriticalPoint(p, flag) for p in setup.morse_sigma
             for flag in (FibreFlag.CHECK, FibreFlag.HAT)]
    if degree is None:
        gens += [OrbitGenerator(point, k) for point in lifts
                 for k in range(1, k_max + 1)]
    else:
        degree = Fraction(degree)
        gens = [g for g in gens if fraction_degree(setup, g) == degree]
        for point in lifts:
            k = fraction_winding(setup, point, degree)
            if k.denominator == 1 and 1 <= k <= k_max:
                gens.append(OrbitGenerator(point, int(k)))
    return sorted(gens, key=key)


# ---------------------------------------------------------------------------
# Budgets and the index identity in `Fraction`.
#
# The case solver adds its budget terms and its index identity up as ints,
# the Reeb weights of the planes' orbits as D times themselves.  These are
# the same sums from their definitions, every term a `Fraction` built from
# the setup's fields and the type's pieces.


def grade_reeb(setup, k):
    """Degree weight of the k-fold Reeb fibre family itself:
    -2 + 2*(tau_X - K)/K*k."""
    from cascadix.errors import CascadixError

    if k < 1:
        raise CascadixError(f"orbit winding must be >= 1, got {k}")
    return Fraction(-2) + 2 * (setup.tau_x - setup.k_const) / setup.k_const * k


def _fraction_pair(values, cls):
    return sum((Fraction(v) * c for v, c in zip(values, cls)), Fraction(0))


def fraction_budget(setup, t):
    """The budget terms of an orbit-target type, by name: the fibre step
    i_fib(target) - i_fib(source) + 1 (the target's fibre index alone for
    an interior source), the non-constant levels, the planes, the spare
    stabilizers (planes, plus the filling sphere of an interior source,
    less the constant levels) and the planes' Reeb weights."""
    from cascadix.grading import InteriorGenerator

    interior = isinstance(t.source, InteriorGenerator)
    fibre = Fraction(t.target.point.fibre_index)
    first = ("fibre_index", fibre) if interior else (
        "fibre_step", fibre - t.source.point.fibre_index + 1)
    nonconstant = Fraction(sum(1 for a in t.classes_a if any(a)))
    planes = Fraction(len(t.aug))
    return (first,
            ("nonconstant_levels", nonconstant),
            ("augmentations", planes),
            ("spare_stabilizers", planes + interior
             - (len(t.classes_a) - nonconstant)),
            ("augmentation_weights",
             sum((grade_reeb(setup, a.multiplicity) for a in t.aug),
                 Fraction(0))))


def fraction_index_identity(setup, t):
    """i(target) + M(target) + 2<c1(T Sigma), sum A> + 2 (planes) + the
    planes' Reeb weights, less i(source) + M(source) for an orbit source,
    plus 1 - 2n + M(source) + 2(<c1(TX), B> - B.Sigma) for an interior
    one."""
    from cascadix.grading import InteriorGenerator

    value = Fraction(t.target.point.lifted_index + 2 * len(t.aug))
    for a in t.classes_a:
        value += 2 * _fraction_pair(setup.lattice_sigma.c1, a)
    for a in t.aug:
        value += grade_reeb(setup, a.multiplicity)
    if not isinstance(t.source, InteriorGenerator):
        return value - t.source.point.lifted_index
    x = setup.lattice_x
    return (value + 1 - 2 * setup.n + t.source.point.morse_index
            + 2 * (_fraction_pair(x.c1, t.sphere_b)
                   - _fraction_pair(x.sigma_intersection, t.sphere_b)))


# ---------------------------------------------------------------------------
# The catalog's class tests read through the area omega.
#
# The engine reads a class through c1 and the divisor intersection only,
# which validation makes positive multiples of omega.  These are the same
# tests from their definitions in omega.


def omega_balance(setup, class_a, k_plus, k_minus, aug_multiplicities):
    """The level balance k_+ - k_- - sum(aug) = K * omega(A), with
    k_+ > k_- on a level that has a class or a plane."""
    area = _fraction_pair(setup.lattice_sigma.omega, class_a)
    if k_plus - k_minus - sum(aug_multiplicities) != setup.k_const * area:
        return False
    return not (any(class_a) or aug_multiplicities) or k_plus > k_minus


def omega_class_of_area(lattice, area):
    """The class the catalog lists for an area: `area_classes` on omega."""
    from cascadix.model import area_classes
    return area_classes(lattice.omega)(area)


def omega_plane_positive(setup, class_b):
    """The area test of an augmentation plane, omega(B) > 0."""
    return _fraction_pair(setup.lattice_x.omega, class_b) > 0


# ---------------------------------------------------------------------------
# Oriented fibre sum, hand computations.
#
# Convention under test: for surjective f1 - f2 : V1 + V2 -> W the kernel is
# oriented so that the induced isomorphism (V1 + V2)/ker -> W changes
# orientation by (-1)^(dim V2 * dim W), with quotients oriented by
# "sub then complement equals total".

# V1 = V2 = W = R, f1 = f2 = id: kernel spanned by (1, 1), positively.
FIBRE_SUM_DIAGONAL = (((1, 1),), 1)

# V1 = R^2, V2 = 0, W = R, f1 = projection to first coordinate:
# kernel spanned by e2; (-1)^(0*1) = +1 forces sign -1 on basis (e2):
# ordered basis (e2, e1) of R^2 has determinant -1, and the complement e1
# maps positively to W, so the kernel orientation is the negative of e2.
FIBRE_SUM_PROJECTION = (((0, 1),), -1)

# Quotient orientation of R^2 (standard) by a coordinate axis.
QUOTIENT_BY_E1 = (((0, 1),), 1)       # rep e2, det(e1,e2)=+1
QUOTIENT_BY_E2 = (((1, 0),), -1)      # rep e1, det(e2,e1)=-1


# ---------------------------------------------------------------------------
# Multi-elimination orientation reference.
#
# The fibre sum below builds the block-diagonal product space, extends the
# kernel to a basis from the product's reference columns, maps those
# representatives into W and takes determinant signs; the frame comparison
# finds independent rows of a and compares two square minors.  Every rank,
# kernel and determinant sign here comes from `_gauss`, a plain `Fraction`
# Gauss-Jordan elimination that shares no code with the package's integer
# elimination.


def _gauss(m):
    """Reduced row echelon form of a matrix given as rows, in `Fraction`s.

    Returns the reduced rows, the pivot columns and the row-swap parity
    times the sign of the product of the pivots; for a square matrix of
    full rank that is the sign of its determinant."""
    a = [[Fraction(x) for x in row] for row in m]
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    pivots, sign = [], 1
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
        pv = a[r][c]
        if pv < 0:
            sign = -sign
        a[r] = [x / pv for x in a[r]]
        for i in range(nrows):
            f = a[i][c]
            if i != r and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots, sign


def columns_of(m):
    """The columns of a matrix given as rows."""
    return [tuple(row[j] for row in m) for j in range(len(m[0]))] if m else []


def from_columns(cols):
    """The rows of the matrix with these columns."""
    return tuple(zip(*cols)) if cols else ()


def reference_det_sign(m):
    """Sign of the determinant of a square matrix: -1, 0 or +1."""
    _, pivots, sign = _gauss(m)
    return sign if len(pivots) == len(m) else 0


def kernel_basis(m, ncols):
    """One primitive integer kernel vector per free column, positive at its
    free column and zero at the other free columns."""
    rows, pivots, _ = _gauss(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        scale = math.lcm(*(x.denominator for x in v))
        ints = [int(x * scale) for x in v]
        g = math.gcd(*ints)
        basis.append(tuple(Fraction(x // g) for x in ints))
    return basis


def matrix_rank(m):
    return len(_gauss(m)[1])


def _reference_extend_to_basis(cols, candidates, dim):
    """Extend independent cols by candidates, left to right, each taken when
    it raises the rank; returns the chosen ones and the determinant sign of
    [cols | chosen]."""
    from cascadix.errors import CascadixError
    from cascadix.orientation import NotASubspace
    if matrix_rank(cols) != len(cols):
        raise NotASubspace("inclusion image is degenerate")
    chosen = []
    for c in candidates:
        if matrix_rank(list(cols) + chosen + [c]) > len(cols) + len(chosen):
            chosen.append(c)
    if len(cols) + len(chosen) != dim:
        raise CascadixError("could not extend to a full basis")
    return chosen, reference_det_sign(from_columns(list(cols) + chosen))


def _product_space(v1, v2):
    from cascadix.orientation import OrientedSpace
    n1, n2 = v1.dim, v2.dim
    rows = []
    for i in range(n1):
        rows.append(tuple(v1.reference_basis[i]) + tuple([Fraction(0)] * n2))
    for i in range(n2):
        rows.append(tuple([Fraction(0)] * n1) + tuple(v2.reference_basis[i]))
    return OrientedSpace(n1 + n2, tuple(rows), v1.sign * v2.sign)


def matmul(a, b):
    """The `Fraction` product of two matrices given as rows."""
    if not a or not b:
        return ()
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
              for j in range(len(b[0])))
        for i in range(len(a)))


def reference_quotient_orientation(total, sub):
    """The quotient with the subspace's image taken as a `Fraction` product."""
    from cascadix.orientation import NotASubspace, OrientedFrame
    inc = sub.inclusion
    if inc.rows != total.dim or inc.cols_or(sub.space.dim) != sub.space.dim:
        raise NotASubspace(
            f"inclusion is {inc.rows}x{inc.cols_or(sub.space.dim)}, need "
            f"{total.dim}x{sub.space.dim}"
        )
    if sub.space.dim > total.dim:
        raise NotASubspace("inclusion image is degenerate")
    s_cols = columns_of(matmul(inc.matrix, sub.space.reference_basis)) \
        if sub.space.dim else []
    reps, combined_sign = _reference_extend_to_basis(
        s_cols, columns_of(total.reference_basis), total.dim)
    sign = sub.space.sign * total.sign * combined_sign \
        * reference_det_sign(total.reference_basis)
    return OrientedFrame(tuple(reps), sign)


def reference_fibre_sum_orientation(v1, v2, w, f1, f2):
    from cascadix.errors import CascadixError
    from cascadix.orientation import NotSurjective, OrientedFrame
    d1, d2, dw = v1.dim, v2.dim, w.dim
    for f, d, name in ((f1, d1, "f1"), (f2, d2, "f2")):
        if f.rows != dw or f.cols_or(d) != d:
            raise CascadixError(
                f"{name} is {f.rows}x{f.cols_or(d)}, need {dw}x{d}")

    # difference map on raw product coordinates
    diff_rows = []
    for i in range(dw):
        row1 = f1.matrix[i] if f1.matrix else ()
        row2 = f2.matrix[i] if f2.matrix else ()
        diff_rows.append(tuple(row1) + tuple(-x for x in row2))
    diff = tuple(diff_rows)

    product = _product_space(v1, v2)
    if dw == 0:
        return OrientedFrame(tuple(columns_of(product.reference_basis)),
                             product.sign)
    kernel = kernel_basis(diff, d1 + d2)
    # rank-nullity: the map is onto W iff its kernel has d1 + d2 - dw vectors
    if len(kernel) != d1 + d2 - dw:
        raise NotSurjective("difference map is not onto W")
    reps, combined_sign = _reference_extend_to_basis(
        kernel, columns_of(product.reference_basis), d1 + d2)
    epsilon = -1 if (d2 * dw) % 2 else 1
    image = matmul(diff, from_columns(reps))
    sign_q = epsilon * w.sign * reference_det_sign(image) \
        * reference_det_sign(w.reference_basis)
    sign_k = sign_q * product.sign * combined_sign \
        * reference_det_sign(product.reference_basis)
    return OrientedFrame(tuple(kernel), sign_k)


def reference_frame_orientations_agree(a, b):
    from cascadix.errors import CascadixError
    if a.dim != b.dim:
        raise CascadixError("frames have different dimensions")
    if a.dim == 0:
        return a.sign == b.sign
    if len({len(v) for v in a.vectors + b.vectors}) != 1:
        raise CascadixError("frame vectors live in different ambient spaces")
    basis = from_columns(list(a.vectors))
    rows_idx = _independent_rows(basis, a.dim)
    # b lies in the span of the independent a iff [a | b] has rank dim
    if matrix_rank(list(a.vectors + b.vectors)) != a.dim:
        raise CascadixError("frames span different subspaces")
    # b = a M; on the independent rows R, det b_R = det a_R * det M
    sq_a = tuple(basis[i] for i in rows_idx)
    sq_b = tuple(tuple(v[i] for v in b.vectors) for i in rows_idx)
    return a.sign * b.sign * reference_det_sign(sq_a) \
        * reference_det_sign(sq_b) == 1


def _independent_rows(m, want):
    """The first `want` rows of m, top to bottom, independent of those before."""
    from cascadix.errors import CascadixError
    pivots = _gauss(columns_of(m))[1]
    if len(pivots) < want:
        raise CascadixError("matrix has too few independent rows")
    return pivots[:want]


# ---------------------------------------------------------------------------
# Morse homology oracles: (betti, torsion) per degree.

MORSE_CIRCLE = {0: (1, ()), 1: (1, ())}
MORSE_SPHERE = {0: (1, ()), 1: (0, ()), 2: (1, ())}
MORSE_INTERVAL_COLLAPSE = {0: (1, ()), 1: (0, ())}
MORSE_HOPF = {0: (1, ()), 1: (0, ()), 2: (0, ()), 3: (1, ())}
MORSE_LENS3 = {0: (1, ()), 1: (0, (3,)), 2: (0, ()), 3: (1, ())}


def euler_characteristic(betti_by_degree):
    return sum((-1) ** d * b for d, b in betti_by_degree.items())


def chain_euler_characteristic(data):
    """The Euler characteristic of a Morse complex, from its points."""
    return sum((-1) ** p.index for p in data.points)


def negated(data, ambient_dim):
    """The complex of the sign-flipped function: indices mirrored, flows
    reversed.  Transposing every boundary matrix preserves d^2 = 0."""
    from cascadix.errors import CascadixError
    from cascadix.morse import MorseData, MorsePoint, SignedFlow
    top = data.max_index()
    if ambient_dim < top:
        raise CascadixError(
            f"ambient dimension {ambient_dim} below top index {top}")
    points = tuple(MorsePoint(p.name, ambient_dim - p.index)
                   for p in data.points)
    flows = tuple(SignedFlow(f.target, f.source, f.count)
                  for f in data.flows)
    return MorseData(points, flows)


def disjoint_copies(data, copies):
    """The disjoint union of `copies` renamed copies of a Morse complex."""
    from cascadix.morse import MorseData, MorsePoint, SignedFlow
    return MorseData(
        tuple(MorsePoint(f"{p.name}#{c}", p.index)
              for c in range(copies) for p in data.points),
        tuple(SignedFlow(f"{f.source}#{c}", f"{f.target}#{c}", f.count)
              for c in range(copies) for f in data.flows))


def smith_invariant_factors(matrix):
    """Positive invariant factors of a dense integer matrix, in divisibility
    order: the package's sparse `_invariant_factors` of its nonzero
    columns."""
    from cascadix.morse import _invariant_factors
    width = len(matrix[0]) if matrix else 0
    return _invariant_factors(
        [{i: row[j] for i, row in enumerate(matrix) if row[j]}
         for j in range(width)])


def dense_smith_invariant_factors(matrix):
    """Positive invariant factors of an integer matrix by dense elimination.

    Smallest-entry pivots, division with remainder along the pivot row and
    column, and a row addition whenever the pivot fails to divide the rest.
    This is the engine's former dense Smith form, kept as a reference for
    the sparse elimination; it keeps no shortcut for +-1 entries.
    """
    a = [list(row) for row in matrix]
    nr = len(a)
    nc = len(a[0]) if a else 0
    factors = []
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


def dense_differential(data):
    """Dense boundary matrices keyed by source degree, one cell per pair of
    points one degree apart, flow counts added into their cells; no d^2
    check.  This is the engine's former dense assembly."""
    sizes, slot = {}, {}
    for p in data.points:
        slot[p.name] = (p.index, sizes.get(p.index, 0))
        sizes[p.index] = slot[p.name][1] + 1
    rows = {d: [[0] * n for _ in range(sizes.get(d - 1, 0))]
            for d, n in sizes.items() if d >= 1}
    for f in data.flows:
        d, j = slot[f.source]
        rows[d][slot[f.target][1]][j] += f.count
    return {d: tuple(map(tuple, rows[d])) for d in sorted(rows)}


def dense_homology(data, matrices):
    """(degree, betti, torsion) per degree from dense boundary matrices,
    through `dense_smith_invariant_factors`."""
    factors = {d: dense_smith_invariant_factors(m) for d, m in matrices.items()}
    out = []
    for d in range(data.max_index() + 1):
        above = factors.get(d + 1, [])
        betti = (len(data.points_of_degree(d)) - len(factors.get(d, []))
                 - len(above))
        out.append((d, betti, tuple(f for f in above if f > 1)))
    return out


def first_square_violation(data, matrices):
    """The error message for the first nonzero entry of d o d, or None.

    `matrices` are dense boundary matrices keyed by source degree (rows =
    degree d-1 points, columns = degree d points, in `data.points` order).
    Sources are scanned in order, then finals in order, and every entry of
    the product is summed over all middle points.
    """
    for d in sorted(matrices):
        if d - 1 not in matrices:
            continue
        upper, lower = matrices[d], matrices[d - 1]
        sources = data.points_of_degree(d)
        finals = data.points_of_degree(d - 2)
        mids = range(len(data.points_of_degree(d - 1)))
        for j, src in enumerate(sources):
            for i, fin in enumerate(finals):
                total = sum(lower[i][k] * upper[k][j] for k in mids)
                if total:
                    return (f"d^2 sends {src.name} to {fin.name} "
                            f"with coefficient {total}")
    return None


# ---------------------------------------------------------------------------
# Exact rational helpers used by several tests.

def frac(p, q=1):
    return Fraction(p, q)


# ---------------------------------------------------------------------------
# Index helpers no command runs, kept with the tests that pin them.


def glue(problem_a, problem_b, puncture_a, puncture_b):
    """Glue puncture_a of problem_a to puncture_b of problem_b.

    The punctures must have opposite signs, equal operators, and kernel
    decorations with dim V + dim V' = dim ker.  The glued problem keeps all
    remaining punctures; its index is the sum of the two inputs, which is
    what the matching-decoration condition guarantees (checked by tests, not
    here).
    """
    from cascadix.fredholm import (PuncturedProblem, PunctureMismatch,
                                   _dim_v_of)
    from cascadix.spectrum import kernel_dimension
    a = problem_a.punctures[puncture_a]
    b = problem_b.punctures[puncture_b]
    if a.sign is b.sign:
        raise PunctureMismatch("glued punctures must have opposite signs")
    if a.operator != b.operator:
        raise PunctureMismatch("glued punctures must share the asymptotic operator")
    da, db = _dim_v_of(a), _dim_v_of(b)
    if da + db != kernel_dimension(a.operator):
        raise PunctureMismatch(
            f"decorations not complementary: {da} + {db} != "
            f"{kernel_dimension(a.operator)}"
        )
    if problem_a.bundle_rank != problem_b.bundle_rank:
        raise PunctureMismatch("bundle ranks differ")
    rest_a = tuple(p for i, p in enumerate(problem_a.punctures) if i != puncture_a)
    rest_b = tuple(p for i, p in enumerate(problem_b.punctures) if i != puncture_b)
    return PuncturedProblem(
        problem_a.bundle_rank,
        problem_a.rel_c1 + problem_b.rel_c1,
        rest_a + rest_b,
    )


def rigid_plane_classes(setup, omega_bound):
    """The class of area 1/(tau - K), if it exists within omega_bound.

    Only at that area does the index 2((tau - K)*omega(B) - 1) vanish."""
    from cascadix.model import area_classes
    area = 1 / (setup.tau_x - setup.k_const)
    b = area_classes(setup.lattice_x.omega)(area)
    return [b] if b is not None and area <= Fraction(omega_bound) else []


DATA = Path(__file__).resolve().parent.parent / "data"


def chern_gate_applies(setup):
    """True when the setup promises the absence of rigid augmentation planes.

    Requires every filling sphere class to come from the divisor (the
    `x_classes_from_sigma` flag) and the minimal divisor Chern number to be
    at least 2.  Both keys are read from the setup's shipped file,
    `data/<name>.json`.  Without `min_chern_sigma` the minimal Chern number
    is bounded below by the gcd of the Chern numbers of the divisor
    lattice's generators, since every integer combination pairs with c1 to
    a multiple of it; a gcd of 0 (all zero, or rank 0) means no spherical
    class has nonzero Chern number, and the bound is infinite.
    """
    raw = json.loads((DATA / f"{setup.name}.json").read_text())
    if not raw.get("x_classes_from_sigma", False):
        return False
    mc = raw.get("min_chern_sigma")
    if mc is None:
        mc = math.gcd(*setup.lattice_sigma.c1) or None
    return mc is None or mc >= 2


class CapMismatch(Exception):
    """Capping class intersection number disagrees with the winding."""


def cz_cap(setup, gen, class_b):
    """Degree computed through a capping class B in the filling.

    B must intersect the divisor exactly k times.  The value
    (lifted index) + 1 - n + 2(<c1(TX), B> - k) then agrees with `grade`;
    the agreement is a consequence of monotonicity, not an input.
    """
    from cascadix.errors import CascadixError
    from cascadix.grading import OrbitGenerator, filling_class_term
    from cascadix.model import pair
    if not isinstance(gen, OrbitGenerator):
        raise CascadixError("cz_cap applies to orbit generators")
    inter = pair(setup.lattice_x.sigma_intersection, class_b)
    if inter != gen.k:
        raise CapMismatch(
            f"capping class meets the divisor {inter} times, orbit winds {gen.k}"
        )
    return Fraction(gen.point.lifted_index + 1 - setup.n) \
        + filling_class_term(setup, class_b)
