"""The record contract: every public record of the engine is immutable,
equal exactly when its fields are, prints as `Name(field=value, ...)` and
refuses the inputs it refused as a frozen dataclass, with the same error
class and message."""

import importlib
import math
from fractions import Fraction

import pytest

from cascadix.cascades import (
    AugPuncture,
    BudgetTerms,
    CascadeType,
    Case,
    CertificationReport,
    Family,
)
from cascadix.errors import CascadixError
from cascadix.fredholm import (
    KernelSubspace,
    Puncture,
    PunctureMismatch,
    PuncturedProblem,
    Sign,
    Weighted,
    WeightSide,
)
from cascadix.grading import InteriorGenerator, OrbitGenerator
from cascadix.model import (
    Ambient,
    CriticalPoint,
    FibreFlag,
    HomologyLattice,
    LiftedCriticalPoint,
    SetupDescriptor,
    ValidationError,
)
from cascadix.morse import LiftedMorseData, MorseData, MorsePoint, SignedFlow
from cascadix.orientation import (
    IncludedSubspace,
    LinearMapSpec,
    OrientedFrame,
    OrientedSpace,
)
from cascadix.profiles import AdmissibilityReport, OrbitLevel, Profile
from cascadix.spectrum import (
    ComplexLinear,
    SpectralPoint,
    SpectrumError,
    VerticalC,
)

MODULES = ("model", "grading", "cascades", "morse", "orientation",
           "profiles", "spectrum", "fredholm")

F = Fraction
P = CriticalPoint("p", 0, Ambient.SIGMA)
Q = CriticalPoint("q", 4, Ambient.W)
LIFT = LiftedCriticalPoint(P, FibreFlag.CHECK)
TARGET = OrbitGenerator(LIFT, 2)
SOURCE = OrbitGenerator(LiftedCriticalPoint(P, FibreFlag.HAT), 1)
LATTICE = HomologyLattice(("L",), (F(1),), (3,), (1,))
BUDGET = BudgetTerms((("fibre", F(1)),))
ROW = CascadeType(TARGET, SOURCE, (1, 2), ((1,),), None, (), Case.CASE1,
                  BUDGET)
POINTS = (MorsePoint("a", 0), MorsePoint("b", 1))
FLOWS = (SignedFlow("b", "a", 1),)
LINE = OrientedSpace(1, ((2,),), -1)
MAP = LinearMapSpec(((1,), (2,)))

# name: (record class, fields, fields of an unequal record, repr,
#        [(refused fields, error class, message)])
RECORDS = {
    "HomologyLattice": (
        HomologyLattice, (("L",), (F(1),), (3,), (1,)),
        (("L",), (F(1),), (3,)),
        "HomologyLattice(generator_names=('L',), omega=(Fraction(1, 1),), "
        "c1=(3,), sigma_intersection=(1,))", []),
    "CriticalPoint": (
        CriticalPoint, ("p", 0, Ambient.SIGMA), ("p", 0, Ambient.W),
        "CriticalPoint(name='p', morse_index=0, ambient=<Ambient.SIGMA: "
        "'Sigma'>)", []),
    "LiftedCriticalPoint": (
        LiftedCriticalPoint, (P, FibreFlag.CHECK), (P, FibreFlag.HAT),
        "LiftedCriticalPoint(base=CriticalPoint(name='p', morse_index=0, "
        "ambient=<Ambient.SIGMA: 'Sigma'>), flag=<FibreFlag.CHECK: 'check'>)",
        [((Q, FibreFlag.CHECK), ValidationError,
          "only hypersurface critical points lift")]),
    "SetupDescriptor": (
        SetupDescriptor, (1, F(3), F(1), F(1), LATTICE, LATTICE, (P,), (Q,)),
        (1, F(3), F(2), F(1), LATTICE, LATTICE, (P,), (Q,)),
        "SetupDescriptor(n=1, tau_x=Fraction(3, 1), k_const=Fraction(1, 1), "
        "t0=Fraction(1, 1), lattice_sigma=HomologyLattice(generator_names="
        "('L',), omega=(Fraction(1, 1),), c1=(3,), sigma_intersection=(1,)), "
        "lattice_x=HomologyLattice(generator_names=('L',), omega=(Fraction(1, "
        "1),), c1=(3,), sigma_intersection=(1,)), morse_sigma=(CriticalPoint("
        "name='p', morse_index=0, ambient=<Ambient.SIGMA: 'Sigma'>),), "
        "morse_w=(CriticalPoint(name='q', morse_index=4, ambient=<Ambient.W: "
        "'W'>),), name='')",
        []),
    "OrbitGenerator": (
        OrbitGenerator, (LIFT, 1), (LIFT, 2),
        "OrbitGenerator(point=LiftedCriticalPoint(base=CriticalPoint(name='p', "
        "morse_index=0, ambient=<Ambient.SIGMA: 'Sigma'>), flag=<FibreFlag."
        "CHECK: 'check'>), k=1)",
        [((LIFT, 0), CascadixError, "orbit winding must be >= 1, got 0"),
         ((LIFT, -3), CascadixError, "orbit winding must be >= 1, got -3")]),
    "InteriorGenerator": (
        InteriorGenerator, (Q,), (CriticalPoint("r", 4, Ambient.W),),
        "InteriorGenerator(point=CriticalPoint(name='q', morse_index=4, "
        "ambient=<Ambient.W: 'W'>))",
        [((P,), CascadixError,
          "interior generator needs a W critical point, got p")]),
    "AugPuncture": (
        AugPuncture, (1, (1,), 2), (1, (1,), 3),
        "AugPuncture(level=1, class_b=(1,), multiplicity=2)", []),
    "BudgetTerms": (
        BudgetTerms, ((("fibre", F(1)),),), ((("fibre", F(0)),),),
        "BudgetTerms(terms=(('fibre', Fraction(1, 1)),))", []),
    "CascadeType": (
        CascadeType, (TARGET, SOURCE, (1, 2), ((1,),), None, (), Case.CASE1,
                      BUDGET),
        (TARGET, SOURCE, (1, 2), ((1,),), None, (), Case.CASE1, BUDGET, "no"),
        "CascadeType(target=OrbitGenerator(point=LiftedCriticalPoint(base="
        "CriticalPoint(name='p', morse_index=0, ambient=<Ambient.SIGMA: "
        "'Sigma'>), flag=<FibreFlag.CHECK: 'check'>), k=2), source="
        "OrbitGenerator(point=LiftedCriticalPoint(base=CriticalPoint(name="
        "'p', morse_index=0, ambient=<Ambient.SIGMA: 'Sigma'>), flag="
        "<FibreFlag.HAT: 'hat'>), k=1), multiplicities=(1, 2), "
        "classes_a=((1,),), sphere_b=None, aug=(), case_label=<Case.CASE1: "
        "1>, budget=BudgetTerms(terms=(('fibre', Fraction(1, 1)),)), "
        "infeasible_reason=None)", []),
    "Family": (
        Family, (ROW, 1, F(1), ()), (ROW, None, F(1), ()),
        "Family(template=" + repr(ROW) + ", step=1, area=Fraction(1, 1), "
        "problems=())", []),
    "CertificationReport": (
        CertificationReport, ((), (), ()), ((), ("v",), ()),
        "CertificationReport(types=(), violations=(), warnings=())", []),
    "MorsePoint": (
        MorsePoint, ("a", 0), ("a", 1), "MorsePoint(name='a', index=0)",
        [(("", 0), CascadixError, "bad critical point name ''"),
         ((3, 0), CascadixError, "bad critical point name 3"),
         (("a", -1), CascadixError, "negative index on a")]),
    "SignedFlow": (
        SignedFlow, ("b", "a", 1), ("b", "a", -1),
        "SignedFlow(source='b', target='a', count=1)",
        [((1, "a", 1), CascadixError, "bad flow ends 1 -> 'a'")]),
    "MorseData": (
        MorseData, (list(POINTS), list(FLOWS)), (POINTS,),
        "MorseData(points=(MorsePoint(name='a', index=0), MorsePoint(name="
        "'b', index=1)), flows=(SignedFlow(source='b', target='a', "
        "count=1),))",
        [(((MorsePoint("a", 0), MorsePoint("a", 1)),), CascadixError,
          "duplicate critical point names"),
         ((POINTS, (SignedFlow("b", "c", 1),)), CascadixError,
          "flow b -> c references unknown points"),
         ((POINTS, (SignedFlow("a", "b", 1),)), CascadixError,
          "flow a -> b drops index by -1, need exactly 1")]),
    "LiftedMorseData": (
        LiftedMorseData, (MorseData(POINTS), FLOWS), (MorseData(POINTS),),
        "LiftedMorseData(base=MorseData(points=(MorsePoint(name='a', "
        "index=0), MorsePoint(name='b', index=1)), flows=()), lifted_flows="
        "(SignedFlow(source='b', target='a', count=1),))", []),
    "OrientedSpace": (
        OrientedSpace, (1, ((2,),), -1), (1, ((2,),), 1),
        "OrientedSpace(dim=1, reference_basis=((Fraction(2, 1),),), sign=-1)",
        [((-1,), CascadixError, "dimension -1 < 0"),
         ((1, (), 2), CascadixError, "sign must be +-1, got 2"),
         ((2, ((1, 2),)), CascadixError,
          "reference basis must be square of size dim"),
         ((2, ((1, 2), (2, 4))), CascadixError, "reference basis is singular")]),
    "LinearMapSpec": (
        LinearMapSpec, (((1,), (2,)),), (((1,), (3,)),),
        "LinearMapSpec(matrix=((Fraction(1, 1),), (Fraction(2, 1),)))",
        [((((1,), (1, 2)),), CascadixError, "ragged matrix")]),
    "IncludedSubspace": (
        IncludedSubspace, (LINE, MAP), (OrientedSpace(1), MAP),
        "IncludedSubspace(space=OrientedSpace(dim=1, reference_basis=(("
        "Fraction(2, 1),),), sign=-1), inclusion=LinearMapSpec(matrix=(("
        "Fraction(1, 1),), (Fraction(2, 1),))))", []),
    "OrientedFrame": (
        OrientedFrame, (((F(1),),), 1), (((F(1),),), -1),
        "OrientedFrame(vectors=((Fraction(1, 1),),), sign=1)", []),
    "Profile": (
        Profile, ("p", math.exp, math.sin, math.cos),
        ("p", math.exp, math.sin, math.tan),
        "Profile(name='p', h=<built-in function exp>, h_prime=<built-in "
        "function sin>, h_double_prime=<built-in function cos>)", []),
    "OrbitLevel": (
        OrbitLevel, (1, 0.5, 1.5, 2.0, 3.0, 0.0), (1, 0.5, 1.5, 2.0, 3.0, 1.0),
        "OrbitLevel(k=1, b=0.5, rho=1.5, action=2.0, vertical_c=3.0, "
        "residual=0.0)", []),
    "AdmissibilityReport": (
        AdmissibilityReport, (False, "bad"), (True, None),
        "AdmissibilityReport(ok=False, first_violation='bad')", []),
    "ComplexLinear": (
        ComplexLinear, (2,), (1,), "ComplexLinear(rank=2)",
        [((0,), SpectrumError, "complex rank must be >= 1, got 0")]),
    "VerticalC": (
        VerticalC, (1,), (2.5,), "VerticalC(c=1.0)",
        [((-1,), SpectrumError,
          "vertical constant must be finite and >= 0, got -1"),
         ((math.inf,), SpectrumError,
          "vertical constant must be finite and >= 0, got inf")]),
    "SpectralPoint": (
        SpectralPoint, (0.0, 0, 2, 0), (0.0, 0, 2, 1),
        "SpectralPoint(eigenvalue=0.0, mode=0, multiplicity=2, winding=0)",
        []),
    "Weighted": (
        Weighted, (WeightSide.DECAY,), (WeightSide.GROWTH,),
        "Weighted(side=<WeightSide.DECAY: 'decay'>)", []),
    "KernelSubspace": (
        KernelSubspace, (1,), (2,), "KernelSubspace(dim_v=1)",
        [((-1,), PunctureMismatch, "kernel subspace dimension -1 < 0")]),
    "Puncture": (
        Puncture, (Sign.POSITIVE, VerticalC(1), KernelSubspace(1)),
        (Sign.POSITIVE, VerticalC(1), KernelSubspace(1), True),
        "Puncture(sign=<Sign.POSITIVE: '+'>, operator=VerticalC(c=1.0), "
        "decoration=KernelSubspace(dim_v=1), interior=False)", []),
    "PuncturedProblem": (
        PuncturedProblem, (1, 0, ()), (1, 1, ()),
        "PuncturedProblem(bundle_rank=1, rel_c1=0, punctures=())", []),
}


def _public_records():
    """Every public record class the engine modules define."""
    names = set()
    for module in MODULES:
        mod = importlib.import_module(f"cascadix.{module}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) and issubclass(obj, tuple)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                names.add(name)
    return names


def test_every_public_record_is_in_the_table():
    assert _public_records() == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    cls, fields, other_fields, text, refused = RECORDS[name]
    record, twin, other = cls(*fields), cls(*fields), cls(*other_fields)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert record != other
    assert repr(record) == text
    made = cls._make(record)
    assert type(made) is cls and made == record
    for args, error, message in refused:
        # `_make` and a changed copy go through the same checks
        for build in (lambda: cls(*args), lambda: cls._make(args),
                      lambda: record._replace(**dict(zip(cls._fields, args)))):
            with pytest.raises(error) as excinfo:
                build()
            assert type(excinfo.value) is error
            assert str(excinfo.value) == message


def test_cached_values_stay_outside_the_fields():
    """The setup's slope ratio and degree scale and a space's basis sign,
    each computed once,
    leave equality, hashing and repr alone."""
    cls, fields, _, text, _ = RECORDS["SetupDescriptor"]
    setup, fresh = cls(*fields), cls(*fields)
    assert setup.slope_ratio == 2
    assert setup.slope_ratio is setup.slope_ratio
    assert setup.degree_scale == (1, 4)
    assert setup.degree_scale is setup.degree_scale
    assert setup == fresh and hash(setup) == hash(fresh)
    assert repr(setup) == text
    assert LINE.basis_det_sign() == 1
    assert OrientedSpace(1, ((-2,),)).basis_det_sign() == -1
    assert OrientedSpace(1, ((-2,),), 1) != OrientedSpace(1, ((2,),), 1)


def test_replace_normalises_as_the_constructor_does():
    assert TARGET._replace(k=5) == OrbitGenerator(LIFT, 5)
    assert type(VerticalC(1)._replace(c=2).c) is float
    assert MAP._replace(matrix=[[1]]).matrix == ((F(1),),)


def test_level_counts_derive_from_the_classes():
    """A catalog row stores its level classes, not the counts they fix."""
    assert "n_levels" not in CascadeType._fields
    assert (ROW.n_levels, ROW.n_constant, ROW.n_nonconstant) == (1, 0, 1)
    mixed = ROW._replace(multiplicities=(1, 1, 2, 2),
                         classes_a=((0,), (2,), (0,)))
    assert (mixed.n_levels, mixed.n_constant, mixed.n_nonconstant) == (3, 2, 1)
    bare = ROW._replace(multiplicities=(), classes_a=())
    assert (bare.n_levels, bare.n_constant, bare.n_nonconstant) == (0, 0, 0)
