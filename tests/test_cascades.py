import json
import math
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles

from cascadix import cascades, grading
from cascadix.cascades import (
    AugPuncture,
    Case,
    CascadeType,
    certify_classification,
    classify_type,
    enumerate_contributions,
    index_identity,
)
from cascadix.errors import CascadixError
from cascadix.grading import (
    InteriorGenerator,
    OrbitGenerator,
    enumerate_generators,
    grade,
    interior_generator,
    orbit_generator,
    winding_at,
)
from cascadix.model import (FibreFlag, LiftedCriticalPoint,
                            area_classes, load_setup, pair, parse_setup)


def gen_by_name(setup, name):
    """'m_check_2' or 'x0' back to a Generator."""
    parts = name.rsplit("_", 2)
    if len(parts) == 3 and parts[1] in ("check", "hat"):
        flag = FibreFlag.CHECK if parts[1] == "check" else FibreFlag.HAT
        return orbit_generator(setup, parts[0], flag, int(parts[2]))
    return interior_generator(setup, name)


def row_key(t: CascadeType):
    return (t.target.display_name, t.source.display_name, t.case_label.value,
            t.k_minus, t.k_plus, t.classes_a, t.sphere_b or None,
            tuple((a.multiplicity, a.class_b) for a in t.aug))


def catalog_key(row):
    target, source, case, k_minus, k_plus, classes_a, sphere_b, aug = row
    return (target, source, case, k_minus, k_plus, tuple(classes_a),
            sphere_b, tuple(aug))


def full_catalog(setup, k_max=3, class_bound=3):
    report = certify_classification(setup, k_max, class_bound)
    return report, sorted(row_key(t) for t in report.types)


class TestIdentities:
    def test_y_to_y_spec_example(self, cp2):
        target = gen_by_name(cp2, "m_check_2")
        source = gen_by_name(cp2, "M_hat_1")
        t = classify_type(cp2, target, source, (1, 2), (((1,)),))
        assert index_identity(cp2, t) == 1
        assert t.case_label is Case.CASE1

    def test_trivial_morse_term(self, cp2):
        target = gen_by_name(cp2, "m_hat_1")
        source = gen_by_name(cp2, "m_check_1")
        t = classify_type(cp2, target, source, (1,))
        # identity reduces to the fibre-index difference
        assert index_identity(cp2, t) == 1
        # but the budget excludes it: no hat-over-check flows
        assert t.case_label is Case.INFEASIBLE
        assert "budget" in t.infeasible_reason

    def test_case2_template_needs_unit_slope(self, tau2, cp2):
        # on the slope-1 setup the rigid plane makes the identity work
        target = gen_by_name(tau2, "m_check_2")
        source = gen_by_name(tau2, "m_hat_1")
        t = classify_type(tau2, target, source, (1, 2), ((0,),),
                          aug=(AugPuncture(1, (1,), 1),))
        assert t.case_label is Case.CASE2
        assert index_identity(tau2, t) == 1
        # on CP^2 the same shape misses degree 1 entirely
        target = gen_by_name(cp2, "m_check_2")
        source = gen_by_name(cp2, "m_hat_1")
        t = classify_type(cp2, target, source, (1, 2), ((0,),),
                          aug=(AugPuncture(1, (1,), 1),))
        assert t.case_label is Case.INFEASIBLE

    def test_w_to_y_spec_example(self, cp2):
        target = gen_by_name(cp2, "m_check_1")
        source = gen_by_name(cp2, "x0")
        t = classify_type(cp2, target, source, (1, 1), ((0,),), (1,))
        assert t.case_label is Case.CASE3
        assert index_identity(cp2, t) == 1

    def test_w_to_y_wrong_sphere_infeasible(self, cp2):
        target = gen_by_name(cp2, "m_check_1")
        source = gen_by_name(cp2, "x0")
        # B=[2] forces bottom winding 2, which cannot close up at the top;
        # the unbalanced identity evaluates to 5, giving away the mismatch
        t = classify_type(cp2, target, source, (2, 2), ((0,),), (2,))
        assert t.case_label is Case.INFEASIBLE
        assert index_identity(cp2, t) == 5

    def test_w_to_y_needs_a_level(self, cp2):
        target = gen_by_name(cp2, "m_check_1")
        source = gen_by_name(cp2, "x0")
        t = classify_type(cp2, target, source, (1,), (), (1,))
        assert t.case_label is Case.INFEASIBLE
        assert "level" in t.infeasible_reason

    def test_identity_equals_degree_difference(self, cp2, tau2):
        # for balanced types, the identity is the degree difference expanded
        for setup, name_t, name_s, mults, classes, aug in [
            (cp2, "m_check_2", "M_hat_1", (1, 2), ((1,),), ()),
            (tau2, "m_check_3", "M_hat_1", (1, 3), ((2,),), ()),
            (tau2, "m_check_2", "m_hat_1", (1, 2), ((0,),),
             (AugPuncture(1, (1,), 1),)),
            # a plane whose Reeb orbit weight is 2, not 0: degree gap 3
            (cp2, "m_check_2", "m_hat_1", (1, 2), ((0,),),
             (AugPuncture(1, (1,), 1),)),
        ]:
            target, source = gen_by_name(setup, name_t), gen_by_name(setup, name_s)
            t = classify_type(setup, target, source, mults, classes, None, aug)
            assert index_identity(setup, t) == \
                grade(setup, target) - grade(setup, source)


class TestClassifyValidation:
    def test_multiplicity_length(self, cp2):
        with pytest.raises(CascadixError):
            classify_type(cp2, gen_by_name(cp2, "m_check_2"),
                          gen_by_name(cp2, "M_hat_1"), (1,), ((1,),))

    def test_endpoint_winding_pins(self, cp2):
        t = classify_type(cp2, gen_by_name(cp2, "m_check_2"),
                          gen_by_name(cp2, "M_hat_1"), (2, 2), ((1,),))
        assert t.case_label is Case.INFEASIBLE
        assert t.infeasible_reason == "bottom winding != source winding"

    def test_aug_winding_must_match_class(self, cp2):
        with pytest.raises(CascadixError):
            AugPuncture(1, (1,), 2), classify_type(
                cp2, gen_by_name(cp2, "m_check_2"),
                gen_by_name(cp2, "m_hat_1"), (1, 2), ((0,),),
                aug=(AugPuncture(1, (1,), 2),))

    def test_unbalanced_level(self, tau2):
        # degree difference is 1, but the class only accounts for one of the
        # two winding steps
        t = classify_type(tau2, gen_by_name(tau2, "m_check_3"),
                          gen_by_name(tau2, "M_hat_1"), (1, 3), ((1,),))
        assert t.case_label is Case.INFEASIBLE
        assert "balance" in t.infeasible_reason

    def test_unstabilized_constant_level(self, tau2):
        t = classify_type(tau2, gen_by_name(tau2, "m_check_2"),
                          gen_by_name(tau2, "m_hat_1"), (1, 2), ((0,),))
        assert t.case_label is Case.INFEASIBLE
        assert t.infeasible_reason == "level 1 winding balance fails"

    @pytest.mark.parametrize("target,source,mults,classes,sphere", [
        ("M_check_1", "m_hat_1", (1, 1), ((0,),), None),
        ("m_check_1", "x0", (1, 1, 1), ((0,), (0,)), (1,)),
    ], ids=["y-to-y", "w-to-y-level-2"])
    def test_balanced_unstabilized_level_fails_the_spare_term(
            self, cp2, target, source, mults, classes, sphere):
        # a constant level without a plane (the filling sphere stabilizes
        # only level 1) is refused by the budget's spare term alone
        t = classify_type(cp2, gen_by_name(cp2, target),
                          gen_by_name(cp2, source), mults, classes, sphere)
        assert t.case_label is Case.INFEASIBLE
        assert t.infeasible_reason == \
            "budget term negative: spare_stabilizers"

    def test_case2_base_point_pin(self):
        # two distinct minima: the Case 2 arithmetic passes between them,
        # but a constant level sits over a single point, so classify refuses
        import json
        from pathlib import Path

        from cascadix.model import parse_setup

        raw = json.loads((Path(__file__).parent.parent / "data" / "tau2.json")
                         .read_text())
        raw["name"] = "tau2-two-minima"
        raw["morse_sigma"].append({"name": "m2", "index": 0})
        setup = parse_setup(raw)
        t = classify_type(setup, gen_by_name(setup, "m_check_2"),
                          gen_by_name(setup, "m2_hat_1"), (1, 2), ((0,),),
                          aug=(AugPuncture(1, (1,), 1),))
        assert t.case_label is Case.INFEASIBLE
        assert "base point" in t.infeasible_reason
        # same shape over one point is the genuine Case 2
        t = classify_type(setup, gen_by_name(setup, "m_check_2"),
                          gen_by_name(setup, "m_hat_1"), (1, 2), ((0,),),
                          aug=(AugPuncture(1, (1,), 1),))
        assert t.case_label is Case.CASE2

    def test_interior_flow_needs_degree_one(self, data_dir):
        raw = json.loads((data_dir / "cp2.json").read_text())
        raw["morse_w"] += [{"name": "x2", "index": 2}, {"name": "x3", "index": 3}]
        setup = parse_setup(raw)
        x0, x2, x3 = (gen_by_name(setup, x) for x in ("x0", "x2", "x3"))
        assert classify_type(setup, x0, x2, ()).infeasible_reason == \
            "degree difference != 1"
        assert classify_type(setup, x2, x3, ()).case_label is Case.CASE0

    def test_non_integer_gate(self):
        import json
        from pathlib import Path

        from cascadix.model import parse_setup

        raw = json.loads((Path(__file__).parent.parent / "data" / "cp2.json")
                         .read_text())
        raw["name"] = "thirds"
        raw["tau_x"] = "4"
        raw["k_const"] = "3"
        raw["lattice_x"]["c1"] = ["4"]
        raw["lattice_x"]["sigma_intersection"] = ["3"]
        raw["lattice_sigma"]["c1"] = ["1"]
        setup = parse_setup(raw)
        t = classify_type(setup, gen_by_name(setup, "m_check_2"),
                          gen_by_name(setup, "m_check_1"), (1, 2), ((0,),),
                          aug=(AugPuncture(1, (1,), 3),))
        assert t.case_label is Case.INFEASIBLE
        assert t.infeasible_reason == "non-integer degree difference"

    @pytest.mark.parametrize("target,source,mults,classes,sphere,aug,reason", [
        # a zero sphere meets the divisor K*omega(B) = 0 times
        ("m_check_1", "x0", (1, 1), ((0,),), (0,), (),
         "filling sphere divisor intersection not a winding"),
        ("m_check_1", "x0", (2, 1), ((0,),), (1,), (),
         "bottom winding != sphere divisor intersection"),
        ("m_check_2", "M_hat_1", (1, 2), ((-1,),), None, (),
         "level 1 sphere has non-positive area"),
        ("m_check_2", "M_hat_1", (1, 2), ((2,),), None,
         (AugPuncture(1, (-1,), -1),),
         "augmentation rejected: 2(<c1(TX), B> - B.Sigma) = -4 is not "
         "positive"),
        ("x0", "x0", (), (), None, (), "endpoints coincide"),
        # a bare flow from a generator to itself fits the budget
        ("m_check_1", "m_check_1", (1,), (), None, (),
         "degree difference != 1"),
    ], ids=["filling-area", "bottom-winding", "level-area", "plane-area",
            "same-endpoints", "degree"])
    def test_infeasible_verdicts(self, cp2, target, source, mults, classes,
                                 sphere, aug, reason):
        t = classify_type(cp2, gen_by_name(cp2, target),
                          gen_by_name(cp2, source), mults, classes, sphere,
                          aug)
        assert t.case_label is Case.INFEASIBLE
        assert t.infeasible_reason == reason

    def test_infeasible_verdicts_of_inconsistent_data(self, cp2):
        # A validated setup never reaches these verdicts: a plane of
        # positive area has filling class term 2(tau - K) * omega(B) > 0,
        # the Reeb weight of its orbit is (tau - K) * omega(B) - 1 or more,
        # and a sphere of positive area meets the divisor K * omega(B) > 0
        # times.  A descriptor built without validation can break that,
        # and then the type is refused.
        target, source = gen_by_name(cp2, "m_check_2"), gen_by_name(cp2, "M_hat_1")
        shape = ((1, 2), ((0,),), None, (AugPuncture(1, (1,), 1),))
        # on cp2 itself the plane passes and the budget decides
        t = classify_type(cp2, target, source, *shape)
        assert t.infeasible_reason == "budget 3 exceeds 1"
        # c1(B) = B.Sigma: the plane's filling class term is 2(1 - 1) = 0
        flat = cp2._replace(lattice_x=cp2.lattice_x._replace(c1=(1,)))
        t = classify_type(flat, target, source, *shape)
        assert t.infeasible_reason == ("augmentation rejected: "
                                       "2(<c1(TX), B> - B.Sigma) = 0 is not "
                                       "positive")
        # tau = 3/2: the Reeb weight of a once-wound plane is -2 + 1 = -1
        slow = cp2._replace(tau_x=Fraction(3, 2))
        t = classify_type(slow, gen_by_name(slow, "m_check_2"),
                          gen_by_name(slow, "m_check_1"), *shape)
        assert t.infeasible_reason == "budget term negative: augmentation_weights"
        assert t.budget.first_negative() == "augmentation_weights"
        # B.Sigma = 0: the filling sphere winds no orbit
        apart = cp2._replace(lattice_x=cp2.lattice_x._replace(
            sigma_intersection=(0,)))
        t = classify_type(apart, gen_by_name(apart, "m_check_1"),
                          gen_by_name(apart, "x0"), (1, 1), ((0,),), (1,))
        assert t.infeasible_reason == ("filling sphere divisor intersection "
                                       "not a winding")


class TestEnumeration:
    def test_cp2_target_with_case0_only(self, cp2):
        res = enumerate_contributions(cp2, gen_by_name(cp2, "M_check_1"), 3, 3)
        assert [row_key(t) for t in res.types] == [
            ("M_check_1", "m_hat_1", 0, 1, 1, (), None, ())]
        assert not res.warnings

    def test_cp2_target_with_case3(self, cp2):
        res = enumerate_contributions(cp2, gen_by_name(cp2, "m_check_1"), 3, 3)
        assert [row_key(t) for t in res.types] == [
            ("m_check_1", "x0", 3, 1, 1, ((0,),), (1,), ())]

    def test_cp2_full_catalog(self, cp2):
        report, rows = full_catalog(cp2)
        assert rows == sorted(catalog_key(r) for r in oracles.CP2_CATALOG)
        counts = report.case_counts()
        assert {c: counts.get(c, 0) for c in oracles.CP2_CASE_COUNTS} == \
            oracles.CP2_CASE_COUNTS
        assert report.certified
        assert not report.warnings

    def test_tau2_full_catalog(self, tau2):
        report, rows = full_catalog(tau2)
        assert rows == sorted(catalog_key(r) for r in oracles.TAU2_CATALOG)
        assert report.case_counts() == oracles.TAU2_CASE_COUNTS
        assert report.certified

    def test_rank0_only_case0(self, rank0):
        report = certify_classification(rank0, 3, 3)
        assert report.certified
        assert set(report.case_counts()) <= {0}
        assert all(t.case_label is Case.CASE0 for t in report.types)

    def test_budget_invariants_on_output(self, cp2, tau2):
        from cascadix.grading import InteriorGenerator, OrbitGenerator
        for setup in (cp2, tau2):
            report = certify_classification(setup, 3, 3)
            for t in report.types:
                orbit_pair = isinstance(t.target, OrbitGenerator) and \
                    isinstance(t.source, OrbitGenerator)
                if orbit_pair:
                    assert t.aug_count <= 1
                    assert t.n_nonconstant <= 1
                    assert t.n_constant <= t.aug_count
                    assert t.n_levels <= 1
                if isinstance(t.source, InteriorGenerator):
                    assert t.n_nonconstant == 0
                    assert t.n_constant == 1
                    assert t.aug_count == 0
                    assert t.target.point.flag is FibreFlag.CHECK

    def test_integer_gate_soundness(self, cp2, tau2):
        for setup in (cp2, tau2):
            for t in certify_classification(setup, 2, 2).types:
                diff = grade(setup, t.target) - grade(setup, t.source)
                assert diff == 1

    def test_determinism(self, tau2):
        a = certify_classification(tau2, 3, 3)
        b = certify_classification(tau2, 3, 3)
        assert [row_key(t) for t in a.types] == [row_key(t) for t in b.types]
        assert a.summary() == b.summary()

    def test_bound_warnings(self, cp2, tau2):
        res = enumerate_contributions(cp2, gen_by_name(cp2, "m_check_3"), 2, 3)
        assert res.warnings
        assert any("k_max" in w for w in res.warnings)
        # tau2's m_check_3 <- M_hat_1 needs a class of area 2
        res = enumerate_contributions(tau2, gen_by_name(tau2, "m_check_3"), 3, 1)
        assert any("class_bound" in w for w in res.warnings)
        assert res.warnings == (
            "class_bound=1 admits areas only up to 1, need 2",)
        # every cp2 class has area 1, so bound 1 leaves nothing out
        assert certify_classification(cp2, 10, 1).warnings == ()

    def test_summary_lines(self, cp2, tau2):
        assert certify_classification(cp2, 3, 3).summary() == \
            "certified: all feasible types in {Case0,Case1,Case3}"
        assert certify_classification(tau2, 3, 3).summary() == \
            "certified: all feasible types in {Case0,Case1,Case2,Case3}"

    def test_structural_violation_reported(self, cp2, monkeypatch):
        # a solver that mislabels its Case 1 rows must not be certified
        classify = cascades.classify_type

        def mislabelled(*args, **kwargs):
            t = classify(*args, **kwargs)
            if t.case_label is Case.CASE1:
                return t._replace(case_label=Case.CASE2)
            return t

        monkeypatch.setattr(cascades, "classify_type", mislabelled)
        report = certify_classification(cp2, 3, 3)
        assert not report.certified
        assert report.summary() == ("NOT certified: 2 violation(s), "
                                    "first: m_check_2 <- M_hat_1: Case 2 shape")

    def test_bad_bounds(self, cp2):
        with pytest.raises(CascadixError):
            enumerate_contributions(cp2, gen_by_name(cp2, "m_check_1"), 0, 3)


# --- the certification re-check, one rule at a time --------------------


# (setup, template row, its case) -> (fields replaced, every message).  Each
# row breaks one rule of `_structural_violations`.  A rule is not always
# alone: moving a winding or a lift also moves the degree or the index
# identity.
BROKEN_RULES = {
    "degree difference != 1": (
        ("cp2", "m_check_2 <- M_hat_1", Case.CASE1),
        {"target": "m_check_1"}, ["degree difference != 1"]),
    "index identity != 1 (orbit source)": (
        ("cp2", "m_check_2 <- M_hat_1", Case.CASE1),
        {"classes_a": ((2,),)}, ["index identity != 1"]),
    "Case 0 must be bare": (
        ("cp2", "M_check_1 <- m_hat_1", Case.CASE0),
        {"sphere_b": (0,)}, ["Case 0 must be bare"]),
    "Case 0 windings differ": (
        ("cp2", "M_check_1 <- m_hat_1", Case.CASE0),
        {"target": "M_check_2"},
        ["degree difference != 1", "Case 0 windings differ"]),
    "Case 0 fibre step": (
        ("cp2", "M_check_1 <- m_hat_1", Case.CASE0),
        {"target": "M_hat_1", "source": "M_check_1"}, ["Case 0 fibre step 1"]),
    "Case 1 shape": (
        ("cp2", "m_check_2 <- M_hat_1", Case.CASE1),
        {"sphere_b": (0,)}, ["Case 1 shape"]),
    "Case 1 ends": (
        ("cp2", "m_check_2 <- M_hat_1", Case.CASE1),
        {"multiplicities": (2, 1)}, ["Case 1 ends"]),
    "Case 2 shape": (
        ("tau2", "M_check_2 <- M_hat_1", Case.CASE2),
        {"classes_a": ()}, ["Case 2 shape"]),
    "Case 2 base points differ": (
        ("tau2", "M_check_2 <- M_hat_1", Case.CASE2),
        {"target": "m_check_3"},
        ["index identity != 1", "Case 2 base points differ"]),
    "Case 2 ends": (
        ("tau2", "M_check_2 <- M_hat_1", Case.CASE2),
        {"target": "M_hat_1"},
        ["degree difference != 1", "index identity != 1", "Case 2 ends"]),
    "Case 2 plane not rigid": (
        ("tau2", "M_check_2 <- M_hat_1", Case.CASE2),
        {"aug": (AugPuncture(1, (2,), 2),)},
        ["index identity != 1", "Case 2 plane not rigid"]),
    "Case 3 source not interior": (
        ("cp2", "M_check_1 <- m_hat_1", Case.CASE0),
        {"case_label": Case.CASE3}, ["Case 3 source not interior"]),
    "index identity != 1 (interior source)": (
        ("cp2", "m_check_1 <- x0", Case.CASE3),
        {"sphere_b": (0,)}, ["index identity != 1"]),
    "Case 3 shape": (
        ("cp2", "m_check_1 <- x0", Case.CASE3),
        {"classes_a": ()}, ["Case 3 shape"]),
    "Case 3 shape (no sphere)": (
        ("cp2", "m_check_1 <- x0", Case.CASE3),
        {"sphere_b": None}, ["Case 3 shape"]),
    "Case 3 shape (interior target)": (
        ("cp2", "m_check_1 <- x0", Case.CASE3),
        {"target": "x0"}, ["degree difference != 1", "Case 3 shape"]),
    "Case 3 ends": (
        ("cp2", "m_check_1 <- x0", Case.CASE3),
        {"multiplicities": (1, 2)}, ["Case 3 ends"]),
}


@pytest.mark.parametrize("rule", BROKEN_RULES)
def test_each_structural_rule_fires(rule, request):
    (name, row, case), fields, messages = BROKEN_RULES[rule]
    setup = request.getfixturevalue(name)
    [template] = [f.template for fams in cascades.families(setup).values()
                  for f in fams if f.template.case_label is case and
                  f"{f.template.target.display_name} <- "
                  f"{f.template.source.display_name}" == row]
    assert cascades._structural_violations(setup, template) == []
    fields = {key: gen_by_name(setup, value) if isinstance(value, str)
              else value for key, value in fields.items()}
    broken = template._replace(**fields)
    assert cascades._structural_violations(setup, broken) == messages


SHAPE_RULE = {Case.CASE0: "Case 0 must be bare", Case.CASE1: "Case 1 shape",
              Case.CASE2: "Case 2 shape"}


def test_count_breaking_rows_refused(cp2, tau2, data_dir):
    """Every orbit-pair template with a count of its shape broken: two
    planes, two non-constant levels, a constant level without a plane, or
    two levels (a non-constant one under a constant one with a plane).
    Each such row breaks the shape rule of its label."""
    templates = 0
    for setup in (cp2, tau2, rank2_cp2(data_dir)):
        a = area_classes(setup.lattice_sigma.omega)(1)
        b = area_classes(setup.lattice_x.omega)(1)
        zero = (0,) * len(a)
        winding = int(pair(setup.lattice_x.sigma_intersection, b))
        plane, upper_plane = AugPuncture(1, b, winding), AugPuncture(2, b, winding)
        for t in (f.template for fams in cascades.families(setup).values()
                  for f in fams):
            if not isinstance(t.source, OrbitGenerator):
                continue
            templates += 1
            lo, hi = t.k_minus, t.k_plus
            for fields in ({"aug": (plane, plane)},
                           {"classes_a": (a, a), "multiplicities": (lo, lo, hi)},
                           {"classes_a": t.classes_a + (zero,),
                            "multiplicities": t.multiplicities + (hi,)},
                           {"classes_a": (a, zero), "aug": (upper_plane,),
                            "multiplicities": (lo, lo, hi)}):
                problems = cascades._structural_violations(
                    setup, t._replace(**fields))
                assert SHAPE_RULE[t.case_label] in problems, (
                    setup.name, t.target.display_name, t.source.display_name,
                    fields, problems)
    assert templates >= 10


# --- the case solver against the brute-force search ---------------------


def _by_area(setup, t):
    """The type with every class replaced by its area."""
    sigma, x = setup.lattice_sigma, setup.lattice_x
    return t._replace(
        classes_a=tuple(pair(sigma.omega, a) for a in t.classes_a),
        sphere_b=(None if t.sphere_b is None
                  else pair(x.omega, t.sphere_b)),
        aug=tuple(p._replace(class_b=pair(x.omega, p.class_b))
                  for p in t.aug))


def assert_matches_brute_force(setup, k_max, class_bound):
    """Target by target: same types (budget terms included), same warnings.

    In rank <= 1 the types must be equal outright.  In rank 2 the brute
    force may pick a different class of the same area from the solver's, so
    both sides are compared with every class replaced by its area.  Targets
    run one winding past k_max, so the truncation warning and the sources
    cut off by k_max are compared too.
    """
    rank_le_1 = max(setup.lattice_sigma.rank, setup.lattice_x.rank) <= 1
    for target in enumerate_generators(setup, k_max + 1):
        res = enumerate_contributions(setup, target, k_max, class_bound)
        types, warnings = oracles.brute_force_contributions(
            setup, target, k_max, class_bound)
        where = (setup.name, k_max, class_bound, target.display_name)
        if rank_le_1:
            assert res.types == types, where
        else:
            mine = [_by_area(setup, t) for t in res.types]
            assert len(set(mine)) == len(mine), where
            assert set(mine) == {_by_area(setup, t) for t in types}, where
        assert res.warnings == warnings, where


@pytest.mark.parametrize("name", ["cp2", "tau2", "rank0"])
@pytest.mark.parametrize("k_max,class_bound",
                         [(1, 1), (2, 5), (3, 3), (4, 8), (8, 3)])
def test_solver_matches_brute_force_shipped(name, k_max, class_bound, request):
    assert_matches_brute_force(request.getfixturevalue(name), k_max,
                               class_bound)


def _unit(*rates):
    """Least positive u with r*u integral for every positive rational r."""
    num, den = 1, 0
    for r in rates:
        num = num * r.denominator // math.gcd(num, r.denominator)
        den = math.gcd(den, r.numerator)
    return Fraction(num, den)


small_rational = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3))


@st.composite
def monotone_setups(draw):
    """Random setups that validate_setup accepts: c1 = tau*omega on X,
    c1 = (tau - K)*omega on Sigma, B.Sigma = K*omega, rank <= 2."""
    n = draw(st.integers(1, 3))
    k_const = draw(small_rational)
    tau = k_const + draw(small_rational)

    def lattice(rank, rates):
        unit = _unit(*rates)
        omega = [unit * draw(st.integers(-2, 2)) for _ in range(rank)]
        return omega, [str(w) for w in omega]

    sigma_rank, x_rank = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    omega_s, omega_s_raw = lattice(sigma_rank, (tau - k_const,))
    omega_x, omega_x_raw = lattice(x_rank, (tau, k_const))
    sigma_points = draw(st.lists(st.integers(0, 2 * n - 2), min_size=1,
                                 max_size=3))
    w_points = draw(st.lists(st.integers(0, 2 * n), max_size=2))
    raw = {
        "name": "random", "n": n, "tau_x": str(tau), "k_const": str(k_const),
        "t0": 1,
        "lattice_sigma": {
            "generators": [f"A{i}" for i in range(sigma_rank)],
            "omega": omega_s_raw,
            "c1": [int((tau - k_const) * w) for w in omega_s],
        },
        "lattice_x": {
            "generators": [f"L{i}" for i in range(x_rank)],
            "omega": omega_x_raw,
            "c1": [int(tau * w) for w in omega_x],
            "sigma_intersection": [int(k_const * w) for w in omega_x],
        },
        "morse_sigma": [{"name": f"s{i}", "index": m}
                        for i, m in enumerate(sigma_points)],
        "morse_w": [{"name": f"w{i}", "index": m}
                    for i, m in enumerate(w_points)],
    }
    return parse_setup(raw)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(setup=monotone_setups(), k_max=st.integers(1, 3),
       class_bound=st.integers(1, 3))
def test_solver_matches_brute_force_random(setup, k_max, class_bound):
    assert_matches_brute_force(setup, k_max, class_bound)


# --- the family solver against the per-row solver ----------------------


def assert_matches_per_row(setup, k_max, class_bound):
    """Same types, violations and warnings, in the same order."""
    assert certify_classification(setup, k_max, class_bound) == \
        oracles.per_row_certify(setup, k_max, class_bound), \
        (setup.name, k_max, class_bound)


@pytest.mark.parametrize("name", ["cp2", "tau2", "rank0"])
@pytest.mark.parametrize("k_max,class_bound",
                         [(1, 1), (2, 1), (3, 2), (5, 5), (9, 3), (12, 40)])
def test_families_match_per_row_shipped(name, k_max, class_bound, request):
    assert_matches_per_row(request.getfixturevalue(name), k_max, class_bound)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(setup=monotone_setups(), k_max=st.integers(1, 12),
       class_bound=st.integers(1, 12))
def test_families_match_per_row_random(setup, k_max, class_bound):
    assert_matches_per_row(setup, k_max, class_bound)


# --- budgets and the index identity against `Fraction` sums ------------


def assert_budget_matches_fractions(setup, t):
    """The budget terms and index identity of one orbit-target type are
    ints or `Fraction`s, never floats, and equal their `Fraction` sums; a
    budget verdict is the one those sums give."""
    where = (setup.name, t.target.display_name, t.source.display_name,
             t.multiplicities, t.classes_a, t.aug)
    identity = index_identity(setup, t)
    assert identity == oracles.fraction_index_identity(setup, t), where
    values = [v for _, v in t.budget.terms] + [t.budget.total, identity]
    assert {type(v) for v in values} <= {int, Fraction}, (where, values)
    if not t.budget.terms:
        return
    terms = oracles.fraction_budget(setup, t)
    assert t.budget.terms == terms, where
    cap = 0 if isinstance(t.source, InteriorGenerator) else 1
    total = sum(v for _, v in terms)
    verdict = next((f"budget term negative: {name}"
                    for name, v in terms if v < 0),
                   f"budget {total} exceeds {cap}" if total > cap else None)
    if verdict is None:
        assert t.infeasible_reason in (
            None, "constant level forces equal base points"), where
    else:
        assert t.infeasible_reason == verdict, where


def orbit_types(setup):
    """Every orbit-target family template, then types the catalog never
    holds, whose index identity need not be an integer: one constant
    level carrying a plane of winding 1 to 4, between any two lifts."""
    templates = [f.template for fams in cascades.families(setup).values()
                 for f in fams if isinstance(f.template.target, OrbitGenerator)]
    zero = (0,) * setup.lattice_sigma.rank
    lifts = [LiftedCriticalPoint(q, flag) for q in setup.morse_sigma
             for flag in FibreFlag]
    return templates + [
        CascadeType(OrbitGenerator(p, 1 + m), OrbitGenerator(q, 1),
                    (1, 1 + m), (zero,), None, (AugPuncture(1, (), m),),
                    Case.INFEASIBLE, cascades.BudgetTerms(()))
        for p in lifts for q in lifts for m in range(1, 5)]


@pytest.mark.parametrize("name", ["cp2", "tau2", "rank0", "rank2"])
def test_template_budgets_match_fractions_shipped(name):
    setup = shipped_setup(name)
    for t in orbit_types(setup):
        assert_budget_matches_fractions(setup, t)


@settings(max_examples=60, deadline=None)
@given(setup=monotone_setups())
def test_template_budgets_match_fractions_random(setup):
    for t in orbit_types(setup):
        assert_budget_matches_fractions(setup, t)


# (label, reason) of each classify_type call the brute force makes on
# cp2, tau2 and rank0, targets to winding 5 at k_max 4 and class bound 6.
BRUTE_VERDICTS = {
    (Case.INFEASIBLE, "budget term negative: spare_stabilizers"): 87,
    (Case.INFEASIBLE, "budget 2 exceeds 1"): 45,
    (Case.INFEASIBLE, "budget 3 exceeds 1"): 13,
    (Case.CASE0, None): 12,
    (Case.CASE1, None): 15,
    (Case.CASE2, None): 8,
    (Case.CASE3, None): 3,
}


def test_brute_force_budgets_match_fractions(cp2, tau2, rank0, monkeypatch):
    seen = []
    classify = cascades.classify_type

    def recorded(setup, *args):
        t = classify(setup, *args)
        seen.append((setup, t))
        return t

    monkeypatch.setattr(cascades, "classify_type", recorded)
    for setup in (cp2, tau2, rank0):
        for target in enumerate_generators(setup, 5):
            oracles.brute_force_contributions(setup, target, 4, 6)
    assert Counter((t.case_label, t.infeasible_reason)
                   for _, t in seen) == BRUTE_VERDICTS
    for setup, t in seen:
        if isinstance(t.target, OrbitGenerator):
            assert_budget_matches_fractions(setup, t)


def test_classify_calls_independent_of_kmax(tau2, monkeypatch):
    """One classification per family, whatever the bounds."""
    calls = []
    classify = cascades.classify_type

    def counted(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(cascades, "classify_type", counted)
    counts = []
    for k in (20, 200):
        calls.clear()
        certify_classification(tau2, k, k)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0, counts


# --- the family solver against the winding scan -----------------------


def assert_matches_winding_scan(setup, k_max, class_bound):
    """Every check target up to one winding past k_max: the two-level rows
    that `cascades.families` expands to are exactly the scan's shapes that
    `classify_type` finds feasible."""
    for target in enumerate_generators(setup, k_max + 1):
        if not isinstance(target, OrbitGenerator) \
                or target.point.flag is not FibreFlag.CHECK:
            continue
        got = [t for t in enumerate_contributions(
                   setup, target, k_max, class_bound).types
               if len(t.multiplicities) == 2]
        scanned = (classify_type(setup, target, *shape) for shape
                   in oracles.scan_level_shapes(setup, target, k_max,
                                                class_bound))
        want = sorted((t for t in scanned if t.feasible),
                      key=CascadeType.sort_key)
        assert got == want, (setup.name, k_max, class_bound,
                             target.display_name)


@pytest.mark.parametrize("name", ["cp2", "tau2", "rank0"])
def test_solver_matches_winding_scan_shipped(name, request):
    assert_matches_winding_scan(request.getfixturevalue(name), 40, 40)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(setup=monotone_setups(), k_max=st.integers(1, 30),
       class_bound=st.integers(1, 30))
def test_solver_matches_winding_scan_random(setup, k_max, class_bound):
    assert_matches_winding_scan(setup, k_max, class_bound)


def test_grade_calls_linear_in_kmax(tau2, monkeypatch):
    """One source winding per Sigma point, not a scan over all of them:
    doubling k_max at most about doubles the degrees computed."""
    calls = []
    scaled_degree = grading.scaled_degree

    def counted(setup, gen):
        calls.append(gen)
        return scaled_degree(setup, gen)

    monkeypatch.setattr(grading, "scaled_degree", counted)
    counts = []
    for k in (20, 40):
        calls.clear()
        certify_classification(tau2, k, k)
        counts.append(len(calls))
    assert counts[1] <= 2.5 * counts[0], counts


# --- integer degrees against the Fraction order ------------------------


def shipped_setup(name):
    """A data file, or "rank2" for `rank2_cp2`."""
    data = Path(__file__).parent.parent / "data"
    return rank2_cp2(data) if name == "rank2" else load_setup(
        data / f"{name}.json")


def assert_generators_match_fraction_order(setup, k_max, data):
    """`enumerate_generators` and `winding_at` against the `Fraction`
    reference: no degree filter, a degree some generator has, or one drawn
    at random, fractional, negative or never attained.  A degree outside
    (1/D)Z is no lift's degree at any winding, integer or not.  A set of
    points picks the full list's generators at those points, in order."""
    everything = enumerate_generators(setup, k_max)
    assert everything == oracles.fraction_sorted_generators(setup, k_max)
    points = data.draw(st.sets(st.sampled_from(
        [LiftedCriticalPoint(q, flag) for q in setup.morse_sigma
         for flag in FibreFlag] + list(setup.morse_w))))
    assert enumerate_generators(setup, k_max, points=points) == \
        [g for g in everything if g.point in points]
    attained = sorted({oracles.fraction_degree(setup, g) for g in everything})
    drawn = st.fractions(-40, 40, max_denominator=12) \
        | st.integers(-10**6, 10**6).map(Fraction)
    if attained:
        drawn |= st.sampled_from(attained)
    for degree in data.draw(st.lists(drawn, min_size=1, max_size=4)):
        got = enumerate_generators(setup, k_max, degree)
        assert got == oracles.fraction_sorted_generators(
            setup, k_max, degree), (setup.name, k_max, degree)
        scaled = setup.degree_scale[0] * degree
        for point in (LiftedCriticalPoint(q, flag) for q in setup.morse_sigma
                      for flag in FibreFlag):
            if scaled.denominator == 1:
                assert winding_at(setup, point, int(scaled)) == \
                    oracles.fraction_winding_at(setup, point, degree)
            else:
                assert oracles.fraction_winding(
                    setup, point, degree).denominator != 1


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(setup=monotone_setups(), k_max=st.integers(0, 30), data=st.data())
def test_generators_match_fraction_order_random(setup, k_max, data):
    assert_generators_match_fraction_order(setup, k_max, data)


@pytest.mark.parametrize("name", ["cp2", "tau2", "rank0", "rank2"])
@settings(max_examples=30, deadline=None)
@given(k_max=st.integers(0, 60), data=st.data())
def test_generators_match_fraction_order_shipped(name, k_max, data):
    assert_generators_match_fraction_order(shipped_setup(name), k_max, data)


# --- one class per area --------------------------------------------------


QUARTER = {
    "name": "quarter", "n": 2, "tau_x": 8, "k_const": 4, "t0": 1,
    "lattice_sigma": {"generators": ["A"], "omega": ["1/4"], "c1": [1]},
    "lattice_x": {"generators": ["L"], "omega": ["1/4"], "c1": [2],
                  "sigma_intersection": [1]},
    "morse_sigma": [{"name": "m", "index": 0}, {"name": "M", "index": 2}],
    "morse_w": [{"name": "x0", "index": 0}],
}


def test_classbound_caps_area_not_coordinates(tmp_path, run_cli):
    # omega = 1/4: the classes of area 1/2 have coordinate 2, above the
    # class bound 1, yet their area is within it
    setup = parse_setup(QUARTER)
    report, rows = full_catalog(setup, k_max=3, class_bound=1)
    assert ("m_check_3", "M_hat_1", 1, 1, 3, ((2,),), None, ()) in rows
    assert ("m_check_2", "x0", 3, 2, 2, ((0,),), (2,), ()) in rows
    assert report.certified and not report.warnings
    path = tmp_path / "quarter.json"
    path.write_text(json.dumps(QUARTER))
    outputs = [run_cli("enumerate", "--setup", str(path), "--all-targets",
                       "--kmax", "3", "--classbound", str(cb))
               for cb in (1, 8)]
    assert all(r.exit_code == 0 and r.output for r in outputs)
    assert outputs[0].output == outputs[1].output


def rank2_cp2(data_dir):
    """cp2 with two generators of area 1 in each lattice."""
    raw = json.loads((data_dir / "cp2.json").read_text())
    raw["lattice_sigma"] = {"generators": ["A", "B"], "omega": [1, 1],
                            "c1": [2, 2]}
    raw["lattice_x"] = {"generators": ["L", "M"], "omega": [1, 1],
                        "c1": [3, 3], "sigma_intersection": [1, 1]}
    return parse_setup(raw)


def test_rank2_catalog_independent_of_classbound(data_dir):
    setup = rank2_cp2(data_dir)
    catalogs = []
    for class_bound in (2, 3, 5):
        report, rows = full_catalog(setup, k_max=2, class_bound=class_bound)
        assert report.certified and not report.warnings
        assert report.summary().startswith("certified")
        catalogs.append(rows)
    assert catalogs[0] == catalogs[1] == catalogs[2]


@settings(max_examples=60, deadline=None)
@given(setup=monotone_setups())
def test_class_of_area_matches_box(setup):
    """The class has exactly the area asked for, and exists iff some class
    of that positive area does, tried on the areas m/d * u for u the least
    nonzero |omega_i|.  The brute force is a box of side 12: every omega
    entry `monotone_setups` draws is a multiple of u, so 12 times the
    generator of area +-u already reaches every area up to 12u."""
    for lattice in (setup.lattice_sigma, setup.lattice_x):
        nonzero = [abs(w) for w in lattice.omega if w]
        u = min(nonzero) if nonzero else Fraction(1)
        side = 12 if nonzero else 0
        box = {}
        for v in product(range(-side, side + 1), repeat=lattice.rank):
            box.setdefault(pair(lattice.omega, v), []).append(v)
        for m in range(-4, 13):
            for d in range(1, 5):
                area = Fraction(m, d) * u
                got = area_classes(lattice.omega)(area)
                if area > 0 and area in box:
                    assert pair(lattice.omega, got) == area
                    if lattice.rank == 1:
                        assert [got] == box[area]
                else:
                    assert got is None, (lattice, area)


@pytest.mark.parametrize("k_max,class_bound", [(2, 2), (3, 1), (6, 5)])
def test_rank2_families_match_per_row(data_dir, k_max, class_bound):
    assert_matches_per_row(rank2_cp2(data_dir), k_max, class_bound)


def _verdicts(setup):
    """`classify_type`'s verdict on each shape of `_representatives`."""
    return [classify_type(setup, target, *shape)
            for _, _, target, *shape in cascades._representatives(setup)]


@pytest.mark.parametrize("name,proposed", [
    ("cp2", 3), ("tau2", 8), ("rank0", 1)])
def test_representatives_all_accepted_shipped(name, proposed):
    setup = shipped_setup(name)
    verdicts = _verdicts(setup)
    assert len(verdicts) == proposed
    assert [t.infeasible_reason for t in verdicts] == [None] * proposed
    assert not any(cascades._structural_violations(setup, t)
                   for t in verdicts)


@settings(max_examples=60, deadline=None)
@given(setup=monotone_setups())
def test_representatives_all_accepted_random(setup):
    """No hat-over-check Case 0 pair and no plane between different base
    points is proposed, so `classify_type` refuses nothing and the
    re-check finds nothing."""
    for t in _verdicts(setup):
        assert t.feasible, t.infeasible_reason
        assert cascades._structural_violations(setup, t) == [], t


def propose_hat_over_check(monkeypatch):
    """Make `_representatives` also propose the Case 0 pair m_hat_1 <-
    m_check_1 of a setup with a Sigma point `m`, which the budget refuses
    (fibre step 2)."""
    propose = cascades._representatives

    def proposing(setup):
        yield from propose(setup)
        m = next(q for q in setup.morse_sigma if q.name == "m")
        yield (0, 0, OrbitGenerator(LiftedCriticalPoint(m, FibreFlag.HAT), 1),
               OrbitGenerator(LiftedCriticalPoint(m, FibreFlag.CHECK), 1),
               (1,), (), None, ())

    monkeypatch.setattr(cascades, "_representatives", proposing)


def test_refused_proposal_fails_certification(cp2, monkeypatch):
    """A shape the solver proposes and `classify_type` refuses is not
    dropped: each of its rows is in the catalog as Infeasible, with its
    refusal as a violation, and the catalog is not certified."""
    clean = certify_classification(cp2, 3, 3)
    propose_hat_over_check(monkeypatch)
    report = certify_classification(cp2, 3, 3)
    assert not report.certified
    assert report.violations == tuple(
        f"m_hat_{k} <- m_check_{k}: refused: budget 2 exceeds 1"
        for k in (1, 2, 3))
    refused = [t for t in report.types if not t.feasible]
    assert [(t.target.display_name, t.source.display_name, t.case_label)
            for t in refused] == [(f"m_hat_{k}", f"m_check_{k}",
                                   Case.INFEASIBLE) for k in (1, 2, 3)]
    assert tuple(t for t in report.types if t.feasible) == clean.types
    assert report.warnings == clean.warnings
    assert report.summary() == ("NOT certified: 3 violation(s), first: "
                                "m_hat_1 <- m_check_1: refused: budget 2 "
                                "exceeds 1")


# --- classification against the frozen reference ------------------------


def _verdict(classify, setup, shape):
    """What `classify` makes of one shape: its record, with the record's
    repr and the type of each budget term, or the type and message of what
    it raises."""
    try:
        t = classify(setup, *shape)
    except Exception as exc:   # structural nonsense, compared as it is
        return type(exc), str(exc)
    return t, repr(t), [type(v) for _, v in t.budget.terms]


def assert_classify_matches_reference(setup, shape):
    """The verdict on `shape`, once it is the reference's."""
    verdict = _verdict(classify_type, setup, shape)
    assert verdict == _verdict(oracles.reference_classify_type, setup,
                               shape), (setup.name, shape)
    return verdict


def broken_shapes(setup, t):
    """The shape of the record `t`, as it stands and then broken one way
    at a time: wrong end windings, a target one winding up, each
    non-constant class negated (a non-positive area), a constant level
    without its plane, a multiplicity too many, a plane on an out-of-range
    level or with a winding that does not match it, a plane of negated
    class, and a filling sphere added, dropped or negated."""
    target, source, mults, classes, sphere, aug = t[:6]
    yield target, source, mults, classes, sphere, aug
    if mults:
        for broken in ((mults[0] + 1,) + mults[1:],
                       mults[:-1] + (mults[-1] + 1,), mults + mults[-1:]):
            yield target, source, broken, classes, sphere, aug
    if isinstance(target, OrbitGenerator):
        up = OrbitGenerator(target.point, target.k + 1)
        yield up, source, mults, classes, sphere, aug
        yield up, source, mults[:-1] + (up.k,), classes, sphere, aug
    for i, a in enumerate(classes):
        if any(a):
            flipped = tuple(-c for c in a)
            yield (target, source, mults, classes[:i] + (flipped,)
                   + classes[i + 1:], sphere, aug)
    if aug:
        yield target, source, mults, classes, sphere, ()
    for p in aug:
        rest = tuple(q for q in aug if q is not p)
        for broken in (p._replace(level=0),
                       p._replace(level=len(classes) + 1),
                       p._replace(multiplicity=p.multiplicity + 1),
                       AugPuncture(p.level, tuple(-c for c in p.class_b),
                                   -p.multiplicity)):
            yield target, source, mults, classes, sphere, rest + (broken,)
    zero = (0,) * setup.lattice_x.rank
    if sphere is None:
        yield target, source, mults, classes, zero, aug
    else:
        yield target, source, mults, classes, None, aug
        yield (target, source, mults, classes, tuple(-c for c in sphere),
               aug)


@st.composite
def random_shapes(draw, setup):
    """A shape of any kind on `setup`: ends at windings up to 6 or at
    interior points, up to two levels, the multiplicity count sometimes
    wrong, classes sometimes of the wrong rank, any sphere, and planes on
    any level whose winding mostly matches their class."""
    lifts = [LiftedCriticalPoint(q, flag) for q in setup.morse_sigma
             for flag in FibreFlag]
    ends = st.builds(OrbitGenerator, st.sampled_from(lifts),
                     st.integers(1, 6))
    if setup.morse_w:
        ends |= st.sampled_from([InteriorGenerator(x) for x in setup.morse_w])
    target, source = draw(ends), draw(ends)
    n = draw(st.integers(0, 2))
    size = draw(st.sampled_from([n + 1] * 4 + [n, n + 2]))
    mults = draw(st.lists(st.integers(-1, 8), min_size=size, max_size=size))

    def vectors(rank):
        return st.lists(st.integers(-2, 3), min_size=rank, max_size=rank
                        ).map(tuple)

    sigma_rank = setup.lattice_sigma.rank
    classes = draw(st.lists(vectors(sigma_rank) | vectors(sigma_rank + 1)
                            if draw(st.booleans()) else vectors(sigma_rank),
                            min_size=n, max_size=n))
    sphere = draw(st.none() | vectors(setup.lattice_x.rank))
    planes = []
    for _ in range(draw(st.integers(0, 2))):
        b = draw(vectors(setup.lattice_x.rank))
        winding = pair(setup.lattice_x.sigma_intersection, b)
        planes.append(AugPuncture(draw(st.integers(0, n + 1)), b,
                                  winding + draw(st.sampled_from(
                                      [0, 0, 0, 1, -1]))))
    return target, source, tuple(mults), tuple(classes), sphere, tuple(planes)


# what the broken templates of cp2, tau2, rank0 and rank-2 cp2 reach
# between them: each refusal reason and each raise message
BROKEN_TEMPLATE_VERDICTS = {
    None, "degree difference != 1",
    "bottom winding != source winding", "top winding != target winding",
    "level 1 sphere has non-positive area", "level 1 winding balance fails",
    "filling sphere divisor intersection not a winding",
    "bottom winding != sphere divisor intersection",
    "0 levels need 1 multiplicities, got 2",
    "1 levels need 2 multiplicities, got 3",
    "augmentation level 0 out of range", "augmentation level 2 out of range",
    "augmentation winding 2 != divisor intersection 1",
    "orbit-to-orbit cascades carry no filling sphere",
    "orbit-to-interior cascades carry a filling sphere",
}


def test_classify_matches_reference_on_broken_templates():
    """Every family template and each way of breaking it: accepted,
    refused and raising shapes all come out as the reference's."""
    seen = set()
    for name in ("cp2", "tau2", "rank0", "rank2"):
        setup = shipped_setup(name)
        for t in (f.template for fams in cascades.families(setup).values()
                  for f in fams):
            for shape in broken_shapes(setup, t):
                got = assert_classify_matches_reference(setup, shape)
                seen.add(got[0].infeasible_reason if len(got) == 3
                         else got[1])
    assert seen == BROKEN_TEMPLATE_VERDICTS


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(setup=monotone_setups(), data=st.data())
def test_classify_matches_reference_random(setup, data):
    for t in (f.template for fams in cascades.families(setup).values()
              for f in fams):
        for shape in broken_shapes(setup, t):
            assert_classify_matches_reference(setup, shape)
    for shape in data.draw(st.lists(random_shapes(setup), max_size=8)):
        assert_classify_matches_reference(setup, shape)


@pytest.mark.parametrize("name", ["cp2", "tau2", "rank0", "rank2"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_classify_matches_reference_random_shapes_shipped(name, data):
    setup = shipped_setup(name)
    for shape in data.draw(st.lists(random_shapes(setup), max_size=8)):
        assert_classify_matches_reference(setup, shape)


def test_classify_matches_reference_on_brute_force(cp2, tau2, rank0,
                                                   monkeypatch):
    """Every shape the brute-force search judges, most of them refused by
    the budget (see `BRUTE_VERDICTS`)."""
    shapes = []
    classify = cascades.classify_type

    def recorded(setup, *shape):
        shapes.append((setup, shape))
        return classify(setup, *shape)

    monkeypatch.setattr(cascades, "classify_type", recorded)
    for setup in (cp2, tau2, rank0):
        for target in enumerate_generators(setup, 5):
            oracles.brute_force_contributions(setup, target, 4, 6)
    assert len(shapes) == sum(BRUTE_VERDICTS.values())
    for setup, shape in shapes:
        assert_classify_matches_reference(setup, shape)


@pytest.mark.parametrize("name", ["cp2", "tau2", "rank0", "rank2",
                                  "cp2 with a refused proposal"])
def test_families_classify_and_check_once_per_proposal(name, monkeypatch):
    """`families` reaches `classify_type` and `_structural_violations`
    through the module, once each per proposal, refused or not."""
    if name.endswith("refused proposal"):
        propose_hat_over_check(monkeypatch)
    setup = shipped_setup(name.split()[0])
    proposals = len(list(cascades._representatives(setup)))
    calls = Counter()

    def counted(fn):
        original = getattr(cascades, fn)

        def counting(*args):
            calls[fn] += 1
            return original(*args)
        monkeypatch.setattr(cascades, fn, counting)

    counted("classify_type")
    counted("_structural_violations")
    solved = cascades.families(setup)
    assert sum(map(len, solved.values())) == proposals >= 1
    assert calls == {"classify_type": proposals,
                     "_structural_violations": proposals}, name


# --- the streamed catalog against the list-building one -----------------


def assert_stream_matches_list_catalog(setup, k_max, class_bound):
    """Row for row, with the same warnings and violations: all targets at
    once, and each target up to one winding past k_max alone, so the
    truncation warning is compared too."""
    whole = oracles.list_catalog(setup, k_max, class_bound)
    assert certify_classification(setup, k_max, class_bound) == whole
    for target in [None] + oracles.fraction_sorted_generators(setup,
                                                              k_max + 1):
        warnings, rows = cascades.stream_catalog(setup, k_max, class_bound,
                                                 target)
        rows = list(rows)
        want = whole if target is None else oracles.list_catalog(
            setup, k_max, class_bound, target)
        where = (setup.name, k_max, class_bound, target)
        assert tuple(t for t, _ in rows) == want.types, where
        assert warnings == want.warnings, where
        assert tuple(v for t, family in rows
                     for v in family.violations(t)) == want.violations, where
        if target is not None:
            assert enumerate_contributions(setup, target, k_max,
                                           class_bound) == want, where


@pytest.mark.parametrize("name", ["cp2", "tau2", "rank0", "rank2"])
@pytest.mark.parametrize("k_max,class_bound",
                         [(1, 1), (3, 3), (6, 1), (12, 5), (40, 40)])
def test_stream_matches_list_catalog_shipped(name, k_max, class_bound):
    assert_stream_matches_list_catalog(shipped_setup(name), k_max,
                                       class_bound)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(setup=monotone_setups(), k_max=st.integers(1, 12),
       class_bound=st.integers(1, 12))
def test_stream_matches_list_catalog_random(setup, k_max, class_bound):
    assert_stream_matches_list_catalog(setup, k_max, class_bound)


def test_stream_matches_list_catalog_with_a_refused_family(cp2, monkeypatch):
    propose_hat_over_check(monkeypatch)
    assert_stream_matches_list_catalog(cp2, 3, 3)


def test_families_read_only_inside_their_windows(tau2, monkeypatch):
    """Each family is read only at the target windings of its window, so
    every call of `Family.row` is a row of the catalog."""
    calls = []
    row = cascades.Family.row

    def counted(family, target):
        calls.append(target)
        return row(family, target)

    monkeypatch.setattr(cascades.Family, "row", counted)
    report = certify_classification(tau2, 6, 6)
    assert len(calls) == len(report.types) == 32


def test_tied_rows_ordered_by_source_name_per_winding(data_dir):
    """Two Sigma points of equal index, `p` and `p_hat_1`: their Case 0
    rows into M_check_k tie on all of the sort key but the source name,
    and the names swap places between source windings 1 and 2
    ("p_hat_1" < "p_hat_1_hat_1", but "p_hat_1_hat_2" < "p_hat_2")."""
    raw = json.loads((data_dir / "cp2.json").read_text())
    raw["morse_sigma"] = [{"name": "p", "index": 0},
                          {"name": "p_hat_1", "index": 0},
                          {"name": "M", "index": 2}]
    setup = parse_setup(raw)
    report = certify_classification(setup, 3, 3)
    sources = {}
    for t in report.types:
        if t.target.point.base.name == "M":
            sources.setdefault(t.target.k, []).append(t.source.display_name)
    assert sources == {1: ["p_hat_1", "p_hat_1_hat_1"],
                       2: ["p_hat_1_hat_2", "p_hat_2"],
                       3: ["p_hat_1_hat_3", "p_hat_3"]}
    assert report == oracles.list_catalog(setup, 3, 3)
    assert_stream_matches_list_catalog(setup, 6, 6)


# D = 3: degrees lie in thirds, interior points of equal index and a
# Sigma point of each index, so blocks hold several remainders and
# interior degrees meet orbit degrees (x1 and m_check_3 both have 1).
THIRDS = {
    "name": "thirds", "n": 2, "tau_x": 4, "k_const": 3, "t0": 1,
    "lattice_sigma": {"generators": ["A"], "omega": [1], "c1": [1]},
    "lattice_x": {"generators": ["L"], "omega": [1], "c1": [4],
                  "sigma_intersection": [3]},
    "morse_sigma": [{"name": "m", "index": 0}, {"name": "b", "index": 1},
                    {"name": "M", "index": 2}],
    "morse_w": [{"name": "z", "index": 1}, {"name": "x1", "index": 1},
                {"name": "x0", "index": 0}, {"name": "x3", "index": 3}],
}


def test_block_order_is_fraction_order_with_interior_ties():
    setup = parse_setup(THIRDS)
    assert setup.degree_scale == (3, 2)
    for k_max in range(0, 13):
        gens = enumerate_generators(setup, k_max)
        assert gens == oracles.fraction_sorted_generators(setup, k_max)
        assert list(grading.ordered_generators(setup, k_max)) == gens
    degrees = {}
    for g in enumerate_generators(setup, 6):
        degrees.setdefault(oracles.fraction_degree(setup, g), set()).add(
            g.kind)
    assert sum(kinds == {"interior", "orbit"}
               for kinds in degrees.values()) >= 2
    for kept in ({"z", "m"}, {"x1", "x3"}, set()):
        points = [p for p in setup.morse_w if p.name in kept] + [
            LiftedCriticalPoint(q, flag) for q in setup.morse_sigma
            for flag in FibreFlag if q.name in kept]
        assert enumerate_generators(setup, 9, points=points) == [
            g for g in oracles.fraction_sorted_generators(setup, 9)
            if g.point in points]


def test_generator_stream_skips_empty_blocks():
    """Degrees far apart in blocks (a huge D with p = 1 puts the filling's
    points and the lifts up to 10**50 blocks apart) cost nothing to cross:
    only blocks that hold a generator are visited."""
    big = 10 ** 50
    raw = {**THIRDS, "tau_x": f"{big + 2}/{big}", "k_const": 1,
           "lattice_sigma": {"generators": [], "omega": [], "c1": []},
           "lattice_x": {"generators": [], "omega": [], "c1": [],
                         "sigma_intersection": []}}
    setup = parse_setup(raw)
    assert setup.degree_scale == (big // 4, 1)
    gens = list(grading.ordered_generators(setup, 3))
    assert len(gens) == 4 + 3 * 3 * 2
    assert gens == oracles.fraction_sorted_generators(setup, 3)
