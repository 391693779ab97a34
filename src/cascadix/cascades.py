"""Exhaustive catalog of cascade types between adjacent-degree generators.

A cascade type is pure combinatorics: which generators it connects, how many
holomorphic levels, the sphere class of each level's projection, which
augmentation planes hang off which level, and the orbit multiplicities in
between.  Feasibility is decided by an integer identity (the degree
difference expands into index contributions) together with a budget
inequality whose summands are individually non-negative; everything that
survives lands in exactly one of four cases:

* Case 0: no levels at all, a fibrewise Morse flow (or an interior one).
* Case 1: one level with a non-constant projected sphere, check above hat.
* Case 2: one constant level stabilized by a single rigid augmentation
  plane, both ends over the same base point.
* Case 3: one constant level resting on a sphere in the filling, check end
  above an interior critical point.

Since the budget leaves no other shapes, the catalog comes from a direct
case solver.  Degrees are affine in the winding, and in Cases 0, 1 and 2
the source-to-target step k_t - k_0 does not depend on k_t, so each shape
is a family of rows translated in the winding; a Case 3 row has its
winding fixed by its class and stands alone.  `families` solves each step
from the degree equation and each class from the level balance, and
`classify_type` confirms one representative per family, before any bound
is applied; the rows at each winding are then read off without further
checks.  `classify_type` normalizes its inputs once and builds one record
per verdict straight from them, so a family's solve makes no draft record
and no copy of one; lifts and critical points hash in C, their enums by
identity, and enum members are read through module names (see `model`).  `stream_catalog` gives the warnings first and
then the rows one at a time, each target's from its point's families,
ordered once per call; `report` and `enumerate` write each row as it
comes, and `certify_classification` and `enumerate_contributions` hold
them in one report.  Validation makes c1 and the divisor intersection positive
multiples of the area, and the balance fixes the area, so each shape takes
the one class `model.area_classes` gives for them, in any lattice rank.
The catalog is complete within user bounds (max source winding, max class
area, never a coordinate box) and names each row-bearing area the class
bound leaves out, so an empty answer with no warnings is a certificate,
not an accident.  Counts and signs of actual solutions are out of scope;
this is the catalog of candidates only.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from operator import itemgetter
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from .errors import CascadixError
from .grading import (
    Generator,
    InteriorGenerator,
    OrbitGenerator,
    augmentation_index,
    degree_difference,
    exact_quotient,
    filling_class_term,
    multiplicity_balance,
    ordered_generators,
    scaled_degree,
    scaled_reeb_weight,
    sigma_c1_of_step,
    winding_at,
)
from .model import (
    CriticalPoint,
    IntVector,
    LiftedCriticalPoint,
    Rational,
    SetupDescriptor,
    _CHECK,
    _HAT,
    area_classes,
    pair,
)

BUDGET_CAP_Y_TO_Y = 1
BUDGET_CAP_W_TO_Y = 0


class Case(Enum):
    CASE0 = 0
    CASE1 = 1
    CASE2 = 2
    CASE3 = 3
    INFEASIBLE = -1


# read as module names, not off `Case`, for the reason given at `model._HAT`
_CASE0 = Case.CASE0
_CASE1 = Case.CASE1
_CASE2 = Case.CASE2
_CASE3 = Case.CASE3
_INFEASIBLE = Case.INFEASIBLE


class AugPuncture(NamedTuple):
    """One augmentation plane: attached level, filling class, orbit winding."""

    level: int
    class_b: IntVector
    multiplicity: int


class BudgetTerms(NamedTuple):
    """The budget's named summands: each an int, except a `Fraction` for
    augmentation weights that are not an integer."""

    terms: Tuple[Tuple[str, Rational], ...]

    @property
    def total(self) -> Rational:
        return sum([v for _, v in self.terms])

    def first_negative(self) -> Optional[str]:
        for name, v in self.terms:
            if v < 0:
                return name
        return None


class CascadeType(NamedTuple):
    target: Generator
    source: Generator
    multiplicities: Tuple[int, ...]
    classes_a: Tuple[IntVector, ...]
    sphere_b: Optional[IntVector]
    aug: Tuple[AugPuncture, ...]
    case_label: Case
    budget: BudgetTerms
    infeasible_reason: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.case_label is not _INFEASIBLE

    @property
    def n_levels(self) -> int:
        return len(self.classes_a)

    @property
    def n_constant(self) -> int:
        """Levels whose projected sphere class is zero."""
        return self.n_levels - self.n_nonconstant

    @property
    def n_nonconstant(self) -> int:
        return sum(map(any, self.classes_a))

    @property
    def aug_count(self) -> int:
        return len(self.aug)

    @property
    def k_minus(self) -> Optional[int]:
        return self.multiplicities[0] if self.multiplicities else None

    @property
    def k_plus(self) -> Optional[int]:
        return self.multiplicities[-1] if self.multiplicities else None

    def sort_key(self):
        return (self.n_levels, self.multiplicities, self.classes_a,
                self.sphere_b or (), tuple((a.level, a.class_b) for a in self.aug),
                self.source.display_name)


def index_identity(setup: SetupDescriptor, t: CascadeType) -> Rational:
    """Expand the degree difference of a cascade ending on an orbit.

    i(target) + M(target) plus the level terms 2<c1(T Sigma), sum A>
    + 2 * (number of augmentations) + sum of augmentation orbit weights;
    then an orbit source subtracts i(source) + M(source), and an interior
    source adds 1 - 2n + M(source) and the filling-class term
    2(<c1(TX), B> - B.Sigma) of the sphere.  Equals 1 exactly for the
    feasible degree-1 types.  Only the orbit weights are not integers, so
    the sum is taken as D times itself.
    """
    d = setup.degree_scale[0]
    aug, source = t.aug, t.source
    weights = sum([scaled_reeb_weight(setup, a.multiplicity) for a in aug])
    value = t.target.point.lifted_index + 2 * len(aug)
    c1 = setup.lattice_sigma.c1
    for a in t.classes_a:
        value += 2 * pair(c1, a)
    if isinstance(source, InteriorGenerator):
        value += (1 - 2 * setup.n + source.point.morse_index
                  + filling_class_term(setup, t.sphere_b))
    else:
        value -= source.point.lifted_index
    return exact_quotient(d * value + weights, d)


def classify_type(setup: SetupDescriptor, target: Generator, source: Generator,
                  multiplicities: Sequence[int],
                  classes_a: Sequence[IntVector] = (),
                  sphere_b: Optional[IntVector] = None,
                  aug: Sequence[AugPuncture] = ()) -> CascadeType:
    """Decide feasibility and case of one combinatorial cascade type.

    Structural nonsense (wrong lengths, unknown shapes) raises; arithmetic
    infeasibility comes back as a labeled Infeasible type with a reason.
    The inputs are normalized once into the record's first six fields, and
    the one record of the verdict is built from them.
    """
    fields = (target, source, tuple(map(int, multiplicities)),
              tuple([tuple(map(int, a)) for a in classes_a]), sphere_b,
              tuple(aug))
    _, _, multiplicities, classes_a, _, aug = fields
    n_levels = len(classes_a)

    # interior-to-interior: a Morse flow line in the filling
    if isinstance(target, InteriorGenerator):
        if not isinstance(source, InteriorGenerator):
            raise CascadixError("interior targets pair with interior sources")
        if n_levels or sphere_b is not None or aug or multiplicities:
            raise CascadixError("interior flows carry no levels or classes")
        if target.point.name == source.point.name:
            return _refused(fields, "endpoints coincide")
        if degree_difference(setup, target, source) != 1:
            return _refused(fields, "degree difference != 1")
        return CascadeType(*fields, _CASE0, _NO_BUDGET)

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
        return _refused(fields, "non-integer degree difference")
    if diff != 1:
        return _refused(fields, "degree difference != 1")

    w_to_y = isinstance(source, InteriorGenerator)
    if w_to_y:
        if sphere_b is None:
            raise CascadixError("orbit-to-interior cascades carry a filling sphere")
        if n_levels < 1:
            return _refused(fields,
                            "interior sources need at least one level")
        # B.Sigma = K*omega(B): a winding exactly when the area is positive
        k0 = pair(setup.lattice_x.sigma_intersection, sphere_b)
        if k0 < 1:
            return _refused(
                fields, "filling sphere divisor intersection not a winding")
        if multiplicities[0] != k0:
            return _refused(fields,
                            "bottom winding != sphere divisor intersection")
    else:
        if sphere_b is not None:
            raise CascadixError("orbit-to-orbit cascades carry no filling sphere")
        if multiplicities[0] != source.k:
            return _refused(fields, "bottom winding != source winding")
    if multiplicities[-1] != target.k:
        return _refused(fields, "top winding != target winding")

    # per-level winding bookkeeping; stability is the budget's spare term.
    # The non-constant levels are counted on the way.
    n1 = 0
    c1 = setup.lattice_sigma.c1
    for i in range(1, n_levels + 1):
        a_i = classes_a[i - 1]
        augs_here = [a.multiplicity for a in aug if a.level == i] if aug else ()
        if any(a_i):
            n1 += 1
            # c1 = (tau - K)*omega on Sigma: the sign of the area
            if pair(c1, a_i) <= 0:
                return _refused(fields,
                                f"level {i} sphere has non-positive area")
        if not multiplicity_balance(setup, a_i, multiplicities[i],
                                    multiplicities[i - 1], augs_here):
            return _refused(fields, f"level {i} winding balance fails")

    for a in aug:
        try:   # raises on a plane of non-positive filling class term
            augmentation_index(setup, a.class_b)
        except CascadixError as exc:
            return _refused(fields, f"augmentation rejected: {exc}")

    # budget: each term non-negative, total below the cap; an interior
    # source's filling sphere counts as one more stabilizer.  The spare
    # term is what refuses a constant level that no plane stabilizes:
    # Y -> Y it asks k_aug >= N0, so the planes sit on other levels and
    # N1 + k_aug >= 2 exceeds the cap 1; W -> Y the cap 0 leaves one
    # constant level and no plane, the bottom one the sphere stabilizes
    if w_to_y:
        first = ("fibre_index", target.point.fibre_index)
        spare, cap = 1, BUDGET_CAP_W_TO_Y
    else:
        first = ("fibre_step", target.point.fibre_index
                 - source.point.fibre_index + 1)
        spare, cap = 0, BUDGET_CAP_Y_TO_Y
    k_aug = len(aug)
    weights = exact_quotient(sum([scaled_reeb_weight(setup, a.multiplicity)
                                  for a in aug]),
                             setup.degree_scale[0]) if aug else 0
    budget = BudgetTerms((
        first,
        ("nonconstant_levels", n1),
        ("augmentations", k_aug),
        ("spare_stabilizers", k_aug + spare - (n_levels - n1)),
        ("augmentation_weights", weights),
    ))
    bad = budget.first_negative()
    if bad is not None:
        return _refused(fields, f"budget term negative: {bad}", budget)
    total = budget.total
    if total > cap:
        return _refused(fields, f"budget {total} exceeds {cap}", budget)

    # the survivors: with every term non-negative, the budget leaves only
    # the four shapes
    if w_to_y:
        label = _CASE3
    elif not n_levels:
        label = _CASE0
    elif n1:
        label = _CASE1
    elif target.point.base.name != source.point.base.name:
        # one constant level carrying one rigid augmentation plane; the
        # constant projection pins both ends to the same base point
        return _refused(fields, "constant level forces equal base points",
                        budget)
    else:
        label = _CASE2
    return CascadeType(*fields, label, budget)


_NO_BUDGET = BudgetTerms(())


def _refused(fields, reason: str, budget: BudgetTerms = _NO_BUDGET
             ) -> CascadeType:
    """The Infeasible record of `classify_type`'s normalized fields."""
    return CascadeType(*fields, _INFEASIBLE, budget, reason)


class Family(NamedTuple):
    """One catalog shape at every winding where it occurs.

    `template` is the classified row at the least target winding.  A
    family with a `step` has a row at each target winding k_t whose source
    winding k_t - step lies in [1, k_max]: Case 0 steps 0, Cases 1 and 2
    step K times the class area.  A family without one (a Case 3 row, an
    interior flow) has the template as its only row.  `area` is the area of
    the shape's class, 0 when it has none, an int when it is one;
    `problems` are the template's structural violations, its refusal if
    `classify_type` refused it, each row naming itself in front of them.
    """

    template: CascadeType
    step: Optional[int]
    area: Rational
    problems: Tuple[str, ...]

    def window(self, k_max: int) -> Tuple[int, int]:
        """The least and the greatest target winding of the family's rows
        within k_max; an interior target counts as winding 0."""
        if self.step is None:
            k = getattr(self.template.target, "k", 0)
            return k, k
        return self.step + 1, self.step + k_max

    def row(self, target: Generator) -> CascadeType:
        """The family's row ending on `target`, a generator at the family's
        target point with its winding in the family's window."""
        t = self.template
        if self.step is None:
            return t
        k0 = target.k - self.step
        shift = k0 - t.source.k
        # the fields after the multiplicities do not move.  All nine go to
        # `tuple.__new__`, in C: the template's went through `classify_type`
        # and the new source through the checked `OrbitGenerator`
        return tuple.__new__(CascadeType, (
            target, OrbitGenerator(t.source.point, k0),
            tuple([m + shift for m in t.multiplicities]), *t[3:]))

    def violations(self, row: CascadeType) -> List[str]:
        """The family's problems, one of its rows named in front of each."""
        return [f"{row.target.display_name} <- {row.source.display_name}: "
                f"{problem}" for problem in self.problems]


# The families of each target point, as `families` returns them.
Families = Dict[Union[LiftedCriticalPoint, CriticalPoint],
                Tuple[Family, ...]]


def _representatives(setup: SetupDescriptor):
    """(step, K*area, target, source, multiplicities, classes, sphere, aug)
    of one shape per family, only shapes that `classify_type` accepts.

    Interior flows: every pair of interior points one degree apart.  Case
    0: a bare flow at a common winding between two lifts whose lifted
    indices differ by 1, taken at winding 1, never a hat over a check
    (fibre step 2, over the cap 1).  Any level needs a check
    target (the budget has +1 for each non-constant level or augmentation,
    and every level carries one).  Cases 1 and 2: one level above a hat
    source at winding 1.  "Degree difference 1" fixes the target winding
    k_t for each (check, hat) pair (`grading.winding_at`), and the shape is
    kept when the step s = k_t - 1 is >= 1.  A non-constant level of class
    A steps K*omega(A) (Case 1), looked up by its c1
    (`grading.sigma_c1_of_step`); a constant level carrying one plane of
    class B steps B.Sigma = K*omega(B) (Case 2) over one base point (over
    two, degree 1 makes the plane's Reeb weight M(source) - M(target), and
    the budget or the base-point pin refuses it).  Case 3: the budget of an
    interior source must vanish outright, leaving one constant level on a
    filling sphere with B.Sigma = k_t, and the degree fixes k_t for each
    (check, interior) pair the same way.
    """
    d = setup.degree_scale[0]
    zero = tuple([0] * setup.lattice_sigma.rank)
    sigma_class = area_classes(setup.lattice_sigma.c1)
    x_class = area_classes(setup.lattice_x.sigma_intersection)
    interior = [InteriorGenerator(x) for x in setup.morse_w]
    for x in interior:
        for y in interior:
            if degree_difference(setup, x, y) == 1:
                yield None, 0, x, y, (), (), None, ()

    lifts = [LiftedCriticalPoint(q, flag) for q in setup.morse_sigma
             for flag in (_CHECK, _HAT)]
    by_index: Dict[int, List[LiftedCriticalPoint]] = {}
    for q in lifts:
        by_index.setdefault(q.lifted_index, []).append(q)
    for p in lifts:
        # at a common winding the degrees differ as the lifted indices
        for q in by_index.get(p.lifted_index - 1, ()):
            if q.fibre_index >= p.fibre_index:
                yield (0, 0, OrbitGenerator(p, 1),
                       OrbitGenerator(q, 1), (1,), (), None, ())

    # the lifts alternate check, hat
    hats = [OrbitGenerator(q, 1) for q in lifts[1::2]]
    for p in lifts[::2]:
        for source in hats:
            # the target sits one degree above the source at winding 1
            kt = winding_at(setup, p, scaled_degree(setup, source) + d)
            if kt is None or kt < 2:
                continue
            s = kt - 1
            target = OrbitGenerator(p, kt)
            c1 = sigma_c1_of_step(setup, s)
            a = None if c1 is None else sigma_class(c1)
            if a is not None:
                yield s, s, target, source, (1, kt), (a,), None, ()
            b = x_class(s) if p.base == source.point.base else None
            if b is not None:
                yield (s, s, target, source, (1, kt), (zero,), None,
                       (AugPuncture(1, b, s),))
        for source in interior:
            kt = winding_at(setup, p, scaled_degree(setup, source) + d)
            if kt is None:
                continue
            b = x_class(kt)
            if b is not None:
                yield (None, kt, OrbitGenerator(p, kt), source, (kt, kt),
                       (zero,), b, ())


def families(setup: SetupDescriptor) -> Families:
    """Every proposed catalog shape once, by target point; a shape that
    `classify_type` refuses is kept, and its refusal is its violation.

    The keys are the target's lifted point (orbit targets) or critical point
    (interior targets).  `classify_type` and `_structural_violations` run
    once per family, on its template; every other row of the family is the
    template with each winding shifted by one integer.  That is sound
    because no check either of them makes reads a winding except through
    a quantity the shift leaves alone:
    * the degree difference of the ends moves by 2*(tau - K)/K times the
      difference of the shifts, which is 0 (and so does the index
      identity, which expands it);
    * the level balance reads k_+ - k_- and the stability test k_+ > k_-;
    * the endpoint pins compare each end's winding with the shifted
      multiplicities, the Case 0 test compares the two ends' windings,
      and the Case 3 test compares two multiplicities;
    * the budget reads fibre indices, counts of levels and planes, and the
      Reeb weight of each plane, whose winding B.Sigma is the class's;
    * classes, base points and flags do not move.
    A Case 3 row is no family of rows: its winding is fixed by the class,
    and it is classified as it stands.  No class bound enters here; the
    callers split the families at the bound into rows and warnings.
    """
    by_target: Dict[Union[LiftedCriticalPoint, CriticalPoint],
                    List[Family]] = {}
    # area = K*area / K, with K = num/den read once per call
    num, den = setup.k_const.numerator, setup.k_const.denominator
    for step, k_area, target, *shape in _representatives(setup):
        t = classify_type(setup, target, *shape)
        by_target.setdefault(target.point, []).append(
            Family(t, step, exact_quotient(k_area * den, num),
                   tuple(_structural_violations(setup, t))))
    return {point: tuple(fams) for point, fams in by_target.items()}


class CertificationReport(NamedTuple):
    types: Tuple[CascadeType, ...]
    violations: Tuple[str, ...]
    warnings: Tuple[str, ...]

    @property
    def certified(self) -> bool:
        return not self.violations

    def case_counts(self) -> Dict[int, int]:
        return dict(Counter(t.case_label.value for t in self.types))

    def summary(self) -> str:
        return certification_summary(self.violations, self.case_counts())


def certification_summary(violations: Sequence[str],
                          cases: Iterable[int]) -> str:
    """The one-line verdict on a catalog with these violations, whose rows
    have these case values."""
    if violations:
        return (f"NOT certified: {len(violations)} violation(s), "
                f"first: {violations[0]}")
    present = ",".join(f"Case{c}" for c in sorted(cases))
    return f"certified: all feasible types in {{{present}}}"


def _structural_violations(setup: SetupDescriptor, t: CascadeType) -> List[str]:
    """Re-check one type: its degree, index identity and case shape, or
    only its refusal ("refused: <reason>") if `classify_type` refused it.
    The messages do not name the row; the caller puts the row in front.
    """
    label = t.case_label
    if label is _INFEASIBLE:
        return [f"refused: {t.infeasible_reason}"]
    v = []
    bad = v.append
    target, source, classes_a = t.target, t.source, t.classes_a

    if degree_difference(setup, target, source) != 1:
        bad("degree difference != 1")
    orbit_pair = isinstance(target, OrbitGenerator) and \
        isinstance(source, OrbitGenerator)
    if orbit_pair and index_identity(setup, t) != 1:
        bad("index identity != 1")
    # a single level is non-constant exactly when its class is non-zero
    one_level = len(classes_a) == 1
    if label is _CASE0:
        if classes_a or t.aug or t.sphere_b is not None:
            bad("Case 0 must be bare")
        if orbit_pair:
            if target.k != source.k:
                bad("Case 0 windings differ")
            di = target.point.fibre_index - source.point.fibre_index
            if di not in (0, -1):
                bad(f"Case 0 fibre step {di}")
    elif label is _CASE1:
        if not (orbit_pair and one_level and any(classes_a[0])
                and not t.aug and t.sphere_b is None):
            bad("Case 1 shape")
        elif not (target.point.flag is _CHECK
                  and source.point.flag is _HAT
                  and t.k_plus > t.k_minus):
            bad("Case 1 ends")
    elif label is _CASE2:
        if not (orbit_pair and one_level and not any(classes_a[0])
                and len(t.aug) == 1 and t.sphere_b is None):
            bad("Case 2 shape")
        else:
            if target.point.base.name != source.point.base.name:
                bad("Case 2 base points differ")
            if not (target.point.flag is _CHECK
                    and source.point.flag is _HAT):
                bad("Case 2 ends")
            if augmentation_index(setup, t.aug[0].class_b) != 0:
                bad("Case 2 plane not rigid")
    elif label is _CASE3:
        if not isinstance(source, InteriorGenerator):
            bad("Case 3 source not interior")
        elif not (isinstance(target, OrbitGenerator) and one_level
                  and not any(classes_a[0]) and not t.aug
                  and t.sphere_b is not None):
            bad("Case 3 shape")
        else:
            if index_identity(setup, t) != 1:
                bad("index identity != 1")
            if not (target.point.flag is _CHECK
                    and t.multiplicities[0] == t.multiplicities[1]):
                bad("Case 3 ends")
    return v


def enumerate_contributions(setup: SetupDescriptor, target: Generator,
                            k_max: int, class_bound: int
                            ) -> CertificationReport:
    """Every catalog type ending on the given target.

    Sources have degree exactly one less and winding at most k_max; classes
    have area in (0, class_bound], one class per area.  The rows are read
    off `families(setup)`.  Output is sorted by (levels, multiplicities,
    classes, sphere, augmentations, source name) and is byte-deterministic.
    Warnings name the bounds that leave rows out; no warnings means the
    list is provably complete.
    """
    return _report(*stream_catalog(setup, k_max, class_bound, target))


def certify_classification(setup: SetupDescriptor, k_max: int,
                           class_bound: int) -> CertificationReport:
    """Enumerate over every generator up to the bounds and check the shapes.

    Every type is re-checked (its degree, index identity and case shape,
    or its refusal) once per family (see `families`), and any mismatch is
    reported against each row of the family as a counterexample.  Targets
    are taken in generator order; a generator at a point that carries no
    family ends no row and names no area, so only the points that carry
    one are enumerated.
    """
    return _report(*stream_catalog(setup, k_max, class_bound))


def _report(warnings: Tuple[str, ...],
            rows: Iterator[Tuple[CascadeType, Family]]) -> CertificationReport:
    """`stream_catalog`'s warnings and rows, the rows held."""
    types: List[CascadeType] = []
    violations: List[str] = []
    for t, family in rows:
        types.append(t)
        if family.problems:
            violations.extend(family.violations(t))
    return CertificationReport(tuple(types), tuple(violations), warnings)


def stream_catalog(setup: SetupDescriptor, k_max: int, class_bound: int,
                   target: Optional[Generator] = None
                   ) -> Tuple[Tuple[str, ...],
                              Iterator[Tuple[CascadeType, Family]]]:
    """(warnings, rows) of the catalog ending on `target`, or on every
    generator up to k_max if it is None: the rows come one at a time, each
    with its family, in the order of `enumerate_contributions` target by
    target, and the warnings are known before the first row.

    A row whose class area is above class_bound is left out and named in a
    warning instead, with its area, so no warnings means nothing is left
    out.  A target's areas are listed once each, in increasing order,
    after the warning that k_max cuts off sources of a target wound beyond
    it; a warning repeated by a later target is dropped.  The bounds are
    checked here, before any row.
    """
    solved = families(setup)
    if target is None:
        def targets():
            return ordered_generators(setup, k_max, points=solved)
    else:
        def targets():
            return (target,)
    # refuses k_max < 0 before a bound below 1 is refused
    walk = targets()
    if k_max < 1 or class_bound < 1:
        raise CascadixError("enumeration bounds must be positive")
    # each family's window and its area against the bound, once per call,
    # not per row
    within: Dict[Union[LiftedCriticalPoint, CriticalPoint],
                 List[Tuple[int, int, Family]]] = {}
    beyond: Dict[LiftedCriticalPoint, List[Tuple[int, int, Rational]]] = {}
    for point, fams in solved.items():
        for f in fams:
            if f.area <= class_bound:
                within.setdefault(point, []).append((*f.window(k_max), f))
            else:
                beyond.setdefault(point, []).append((*f.window(k_max), f.area))
    # no generator of the stream is wound beyond k_max, so without an area
    # above the bound it has no warning to walk for
    warnings = (_warnings(beyond, targets(), k_max, class_bound)
                if beyond or target is not None else ())
    return warnings, _rows({point: _ties(windows)
                            for point, windows in within.items()}, walk)


def _warnings(beyond, targets: Iterator[Generator], k_max: int,
              class_bound: int) -> Tuple[str, ...]:
    """The warnings of `stream_catalog`.  `beyond` holds each target
    point's (first, last, area) of the families above the class bound,
    and is emptied as the areas are named: the targets are walked only
    until every such area is, or through a single target, which may be
    wound beyond k_max."""
    warnings = []
    for target in targets:
        orbit = isinstance(target, OrbitGenerator)
        if orbit and k_max < target.k:
            warnings.append(f"k_max={k_max} below target winding "
                            f"{target.k}: sources missed")
        if orbit and target.point in beyond:
            needs = sorted({area for first, last, area in beyond[target.point]
                            if first <= target.k <= last})
            warnings.extend(f"class_bound={class_bound} admits areas only "
                            f"up to {class_bound}, need {area}"
                            for area in needs)
            # a named area needs no second warning
            for point in list(beyond):
                beyond[point] = [w for w in beyond[point] if w[2] not in needs]
                if not beyond[point]:
                    del beyond[point]
        if not beyond:
            break
    return tuple(dict.fromkeys(warnings))


def _ties(windows: List[Tuple[int, int, Family]]
          ) -> List[List[Tuple[int, int, Family]]]:
    """One target point's families in catalog order, as runs of families
    whose rows tie on all of `CascadeType.sort_key` but the source name.

    At one target every row has the target's winding kt, so the key with
    kt taken off each multiplicity orders the rows as `sort_key` does up
    to the source name, at every kt.  A run of more than one family is
    ordered per row by source name: names such as `p_hat_k` and
    `p_hat_1_hat_k` swap places as k grows.
    """
    if len(windows) == 1:
        return [windows]

    def key(window):
        t = window[2].template
        kt = getattr(t.target, "k", 0)
        return (len(t.classes_a), tuple([m - kt for m in t.multiplicities]),
                t.classes_a, t.sphere_b or (),
                tuple([(a.level, a.class_b) for a in t.aug]))

    runs: List[List[Tuple[int, int, Family]]] = []
    last = None
    for here, window in sorted([(key(w), w) for w in windows],
                               key=itemgetter(0)):
        if runs and here == last:
            runs[-1].append(window)
        else:
            runs.append([window])
        last = here
    return runs


def _rows(runs, targets: Iterator[Generator]
          ) -> Iterator[Tuple[CascadeType, Family]]:
    """The rows ending on each target in turn, each with its family;
    `runs` holds each target point's `_ties`."""
    for target in targets:
        kt = getattr(target, "k", 0)
        for run in runs.get(target.point, ()):
            if len(run) == 1:
                (first, last, family), = run
                if first <= kt <= last:
                    yield family.row(target), family
                continue
            rows = [(family.row(target), family)
                    for first, last, family in run if first <= kt <= last]
            rows.sort(key=lambda row: row[0].source.display_name)
            yield from rows
