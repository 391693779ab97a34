import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

import oracles

from cascadix.model import (
    Ambient,
    CriticalPoint,
    DimensionMismatch,
    FibreFlag,
    HomologyLattice,
    LiftedCriticalPoint,
    ParseError,
    ValidationError,
    load_setup,
    pair,
    parse_rational,
    parse_setup,
)


def base_raw():
    return {
        "n": 2,
        "tau_x": 3,
        "k_const": 1,
        "t0": 1,
        "lattice_sigma": {"generators": ["A"], "omega": [1], "c1": [2]},
        "lattice_x": {
            "generators": ["L"], "omega": [1], "c1": [3], "sigma_intersection": [1],
        },
        "morse_sigma": [{"name": "m", "index": 0}, {"name": "M", "index": 2}],
        "morse_w": [{"name": "x0", "index": 0}],
    }


def test_cp2_file_loads(cp2):
    assert cp2.n == 2
    assert cp2.tau_x == 3 and cp2.k_const == 1
    assert cp2.slope_ratio == 2
    assert cp2.lattice_x.sigma_intersection == (1,)
    # the file sets x_classes_from_sigma; the gcd default from c1 = [2] is 2
    assert oracles.chern_gate_applies(cp2)


def test_k_equal_tau_rejected():
    raw = base_raw()
    raw["k_const"] = 3
    with pytest.raises(ValidationError, match=r"tau_X <= K"):
        parse_setup(raw)


def test_rank_zero_valid(rank0):
    assert rank0.lattice_sigma.rank == 0
    assert rank0.lattice_x.rank == 0


def test_pair_examples(cp2):
    assert pair(cp2.lattice_x.omega, [1]) == 1
    assert pair(cp2.lattice_x.c1, [2]) == 6
    assert pair(cp2.lattice_x.omega, [0]) == 0
    assert pair(cp2.lattice_x.sigma_intersection, [2]) == 2
    assert pair(cp2.lattice_sigma.c1, [1]) == 2


def test_pair_errors(cp2, rank0):
    with pytest.raises(DimensionMismatch):
        pair(cp2.lattice_x.omega, [1, 0])
    with pytest.raises(DimensionMismatch, match="^class vector of length 0 "
                       "against lattice of rank 1$"):
        pair(cp2.lattice_sigma.c1, [])
    # the divisor intersection lives on the X-lattice alone, and on a rank-0
    # one it is the empty functional
    assert cp2.lattice_sigma.sigma_intersection is None
    assert pair(rank0.lattice_x.sigma_intersection, ()) == 0


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=2),
       st.lists(st.integers(-50, 50), min_size=2, max_size=2))
def test_pair_is_linear(u, v):
    lat = HomologyLattice(("a", "b"), (Fraction(1, 3), Fraction(5, 2)), (1, 2))
    s = [u[i] + v[i] for i in range(2)]
    assert pair(lat.omega, s) == pair(lat.omega, u) + pair(lat.omega, v)


functionals = st.one_of(
    st.lists(st.integers(-10**6, 10**6), max_size=7),
    st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=60),
             max_size=7))


@given(st.data(), functionals)
def test_pair_matches_reference(data, values):
    """`pair` agrees with the generator-expression sum on int and
    `Fraction` functionals of rank 0-7, the zero class included, and gives
    an int on int functionals."""
    entries = st.integers(-50, 50)
    for cls in (data.draw(st.lists(entries, min_size=len(values),
                                   max_size=len(values))),
                [0] * len(values)):
        got = pair(values, cls)
        assert got == oracles.reference_pair(values, cls)
        if all(type(v) is int for v in values):
            assert type(got) is int


@given(functionals, st.lists(st.integers(-50, 50), max_size=8))
def test_pair_refuses_other_lengths(values, cls):
    assume(len(cls) != len(values))
    with pytest.raises(DimensionMismatch, match=f"^class vector of length "
                       f"{len(cls)} against lattice of rank {len(values)}$"):
        pair(values, cls)


def test_monotonicity_identities(cp2, tau2):
    # built-in consistency: c1 = tau*omega on X, (tau-K)*omega on Sigma,
    # intersection = K*omega on X
    for desc in (cp2, tau2):
        for i in range(desc.lattice_x.rank):
            e = [0] * desc.lattice_x.rank
            e[i] = 1
            assert pair(desc.lattice_x.c1, e) == \
                desc.tau_x * pair(desc.lattice_x.omega, e)
            assert pair(desc.lattice_x.sigma_intersection, e) == \
                desc.k_const * pair(desc.lattice_x.omega, e)
        for i in range(desc.lattice_sigma.rank):
            e = [0] * desc.lattice_sigma.rank
            e[i] = 1
            assert pair(desc.lattice_sigma.c1, e) == \
                (desc.tau_x - desc.k_const) * pair(desc.lattice_sigma.omega, e)


def test_bad_chern_convention_rejected():
    raw = base_raw()
    raw["lattice_x"]["c1"] = [2]  # should be tau*omega = 3
    with pytest.raises(ValidationError, match="c1 != tau_X"):
        parse_setup(raw)
    raw = base_raw()
    raw["lattice_sigma"]["c1"] = [3]
    with pytest.raises(ValidationError, match="Sigma-lattice"):
        parse_setup(raw)


def test_sigma_intersection_convention_rejected():
    raw = base_raw()
    raw["lattice_x"]["sigma_intersection"] = [2]
    with pytest.raises(ValidationError, match="sigma_intersection != K"):
        parse_setup(raw)
    raw = base_raw()
    del raw["lattice_x"]["sigma_intersection"]
    with pytest.raises(ValidationError, match="missing on X-lattice"):
        parse_setup(raw)
    raw = base_raw()
    raw["lattice_sigma"]["sigma_intersection"] = [1]
    with pytest.raises(ValidationError, match="present on Sigma-lattice"):
        parse_setup(raw)


def test_morse_range_checks():
    raw = base_raw()
    raw["morse_sigma"] = [{"name": "m", "index": 3}]  # top index is 2n-2 = 2
    with pytest.raises(ValidationError, match="on Sigma: m"):
        parse_setup(raw)
    raw = base_raw()
    raw["morse_w"] = [{"name": "x0", "index": 5}]
    with pytest.raises(ValidationError, match="on W: x0"):
        parse_setup(raw)


def test_duplicate_names_rejected():
    raw = base_raw()
    raw["morse_w"] = [{"name": "m", "index": 0}]
    with pytest.raises(ValidationError, match="duplicate"):
        parse_setup(raw)


def test_rational_parsing():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(7) == 7
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("+3") == 3
    # an optional sign and ASCII digits with an optional nonzero "/q", only
    for refused in (0.5, True, "3/0", "1.5", " 3/4", "1_0", "1e3", "",
                    "1/-2", "\u0663", "9" * 5000):
        with pytest.raises(ParseError):
            parse_rational(refused)


def test_fractional_constants_accepted():
    raw = base_raw()
    raw["tau_x"] = "5/2"
    raw["k_const"] = "1/2"
    # keep conventions consistent: c1 = tau*omega must stay integral
    raw["lattice_x"] = {
        "generators": ["L"], "omega": [2], "c1": [5], "sigma_intersection": [1],
    }
    raw["lattice_sigma"] = {"generators": ["A"], "omega": [1], "c1": [2]}
    desc = parse_setup(raw)
    assert desc.tau_x == Fraction(5, 2)
    assert desc.slope_ratio == 4


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown key"):
        parse_setup({**base_raw(), "extra": 1})
    with pytest.raises(ParseError, match="missing key"):
        parse_setup({k: v for k, v in base_raw().items() if k != "t0"})
    with pytest.raises(ParseError):
        parse_setup("not a dict")


def test_load_setup_bad_file(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    with pytest.raises(ParseError, match="cannot read setup .*broken.json"):
        load_setup(p)
    with pytest.raises(ParseError, match="cannot read"):
        load_setup(tmp_path / "absent.json")


def test_lifted_points():
    base = CriticalPoint("m", 0, Ambient.SIGMA)
    chk = LiftedCriticalPoint(base, FibreFlag.CHECK)
    hat = LiftedCriticalPoint(base, FibreFlag.HAT)
    assert chk.lifted_index == 0 and hat.lifted_index == 1
    assert chk.display_name == "m_check"
    with pytest.raises(ValidationError):
        LiftedCriticalPoint(CriticalPoint("x", 0, Ambient.W), FibreFlag.CHECK)


def test_unread_keys_are_type_checked_then_dropped():
    plain = parse_setup(base_raw())
    raw = base_raw()
    raw["min_chern_sigma"] = 1
    raw["x_classes_from_sigma"] = True
    assert parse_setup(raw) == plain
    assert repr(parse_setup(raw)) == repr(plain)
    for key, value, message in (
            ("min_chern_sigma", 1.0, "min_chern_sigma must be an integer"),
            ("min_chern_sigma", "2", "min_chern_sigma must be an integer"),
            ("x_classes_from_sigma", 1, "x_classes_from_sigma must be a boolean")):
        raw = base_raw()
        raw[key] = value
        with pytest.raises(ParseError, match=message):
            parse_setup(raw)
