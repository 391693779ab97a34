import contextlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles

from cascadix import cli, morse, pearls
from cascadix.cascades import certify_classification, stream_catalog
from cascadix.grading import (coset_label, enumerate_generators, grade,
                              orbit_generator)
from cascadix.model import FibreFlag, format_rational
from test_cascades import (monotone_setups, propose_hat_over_check,
                           shipped_setup)


# --- exit code contract ------------------------------------------------


def test_validate_happy_path(run_cli, data_dir):
    result = run_cli("validate", "--setup", str(data_dir / "cp2.json"))
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "monotone triple OK"
    assert "slope ratio: 2" in result.output


def test_engine_errors_exit_one(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "unexpected": 1}))
    result = run_cli("validate", "--setup", str(bad))
    assert result.exit_code == 1
    assert "error: model:" in result.stderr


@pytest.mark.parametrize("field,value,error", [
    ("n", 0, "ValidationError: n < 1"),
    ("tau_x", -1, "ValidationError: tau_X not positive"),
    ("k_const", 0, "ValidationError: K not positive"),
    ("t0", 0, "ValidationError: T0 not positive"),
    ("lattice_sigma", {"extra": 1},
     "ParseError: Sigma-lattice: unknown key 'extra'"),
    ("lattice_x", {"c1": ["5/2"]},
     "ValidationError: c1 not integral on X-lattice"),
    ("lattice_x", {"sigma_intersection": None},
     "ValidationError: sigma_intersection missing on X-lattice"),
], ids=["n", "tau_x", "k_const", "t0", "sigma-key", "x-c1", "x-sigma"])
def test_validate_names_the_fault(run_cli, data_dir, tmp_path, field, value,
                                  error):
    raw = json.loads((data_dir / "cp2.json").read_text())
    if isinstance(value, dict):   # merged into the lattice; None deletes
        value = {key: v for key, v in {**raw[field], **value}.items()
                 if v is not None}
    path = tmp_path / "setup.json"
    path.write_text(json.dumps({**raw, field: value}))
    result = run_cli("validate", "--setup", str(path))
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: model: {error}\n"


@pytest.mark.parametrize("name", ["m_check_1", "z_hat_2", "_check_0"])
def test_orbit_form_filling_name_refused(run_cli, data_dir, tmp_path, name):
    # `enumerate --target` reads <point>_<check|hat>_<digits> as an orbit
    # generator, so a filling point so named could not be asked for, and
    # `grade` and the catalog could print two generators of one name
    raw = json.loads((data_dir / "cp2.json").read_text())
    raw["morse_w"][0]["name"] = name
    path = tmp_path / "setup.json"
    path.write_text(json.dumps(raw))
    for command in ("validate", "grade", "enumerate --all-targets",
                    f"enumerate --target {name}"):
        result = run_cli(*command.split(), "--setup", str(path))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == ("error: model: ValidationError: filling "
                                 "critical point named like an orbit "
                                 f"generator: {name}\n")


@pytest.mark.parametrize("name", ["x_check", "x_hat_", "check_1", "x_hat_1a",
                                  "x_hat_\u00b2"])
def test_filling_names_near_the_orbit_form_load(run_cli, data_dir, tmp_path,
                                                name):
    # none is an orbit name; a superscript digit is no decimal digit, and
    # `int` cannot read it as a winding
    raw = json.loads((data_dir / "cp2.json").read_text())
    raw["morse_w"][0]["name"] = name
    path = tmp_path / "setup.json"
    path.write_text(json.dumps(raw))
    assert run_cli("validate", "--setup", str(path)).exit_code == 0
    # the catalog reads the point as cp2 reads x0, under its new name
    for target, shipped_target in ((name, "x0"), ("m_check_1", "m_check_1")):
        shipped = run_cli("enumerate", "--setup", str(data_dir / "cp2.json"),
                          "--target", shipped_target)
        renamed = run_cli("enumerate", "--setup", str(path),
                          "--target", target)
        assert renamed.exit_code == shipped.exit_code == 0
        assert renamed.stdout == shipped.stdout.replace("x0", name)


def test_usage_errors_exit_two(run_cli, data_dir):
    setup = str(data_dir / "cp2.json")
    r1 = run_cli("enumerate", "--setup", setup)
    assert r1.exit_code == 2
    r2 = run_cli("spectrum", "--C", "0", "--complex-rank", "2")
    assert r2.exit_code == 2
    r3 = run_cli("spectrum", "--C", "0", "--window", "oops")
    assert r3.exit_code == 2
    r4 = run_cli("validate", "--setup", "no_such_file.json")
    assert r4.exit_code == 2
    r5 = run_cli("validate", "--setup", str(data_dir))
    assert r5.exit_code == 2
    r6 = run_cli("validate", "--setup", setup, "extra")
    assert r6.exit_code == 2
    assert run_cli().exit_code == 2
    # a usage synopsis, then one error line naming the command
    for result, command in ((r1, "enumerate"), (r2, "spectrum"),
                            (r3, "spectrum"), (r4, "validate"),
                            (r5, "validate"), (r6, "validate")):
        lines = result.stderr.splitlines()
        assert lines[0].startswith(f"usage: cascadix {command} ")
        assert lines[-1].startswith(f"cascadix {command}: error: ")
        assert not any("error" in line for line in lines[:-1])
        assert result.stdout == ""


# --- per-command output ------------------------------------------------


def test_spectrum_zero_constant_layout(run_cli):
    result = run_cli("spectrum", "--C", "0", "--window=-7,7")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "operator: VerticalC{0}"
    body = [line.split() for line in lines[2:]]
    assert [row[3] for row in body] == ["-1", "0", "1"]
    assert all(row[2] == "2" for row in body)


def test_spectrum_positive_constant(run_cli):
    result = run_cli("spectrum", "--C", "1", "--window=-1.5,0.5")
    rows = [line.split() for line in result.output.splitlines()[2:]]
    values = [float(r[0]) for r in rows]
    assert -1.0 in values and 0.0 in values
    simple = [r for r in rows if float(r[0]) in (-1.0, 0.0)]
    assert all(r[2] == "1" for r in simple)


def test_index_frozen_value(run_cli):
    result = run_cli("index", "--n", "2", "--c1", "2")
    assert result.exit_code == 0
    assert "split index: 7" in result.output
    assert "vertical: rank 1" in result.output
    assert "horizontal: rank 1, rel c1 2" in result.output


def _assert_one_error_line(result):
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    return lines[0]


@pytest.mark.parametrize("operator", [["--C", "1"], ["--C", "0"],
                                      ["--complex-rank", "1"]],
                         ids=["vertical", "degenerate", "complex"])
@pytest.mark.parametrize("window", ["nan,1", "inf,inf", "-inf,0", "0,inf",
                                    "nan,nan", "3,-3", "1e300,1e300",
                                    "0,1e300"])
def test_spectrum_rejects_unusable_window(run_cli, operator, window):
    """A window with a non-finite or reversed pair of ends, or one so far
    out that float cannot tell its eigenvalues apart, is one error line and
    an empty stdout, never a traceback or an endless listing."""
    result = run_cli("spectrum", *operator, f"--window={window}")
    line = _assert_one_error_line(result)
    assert "SpectrumError" in line


@pytest.mark.parametrize("command, option, value", [
    (["spectrum", "--C", "1"], "--window", "-3,3"),
    (["grade", "--setup", "{data}/cp2.json"], "--degree", "-1/3"),
    (["index", "--n", "2"], "--c1", "-2"),
    (["spectrum", "--C", "0"], "--window", "-7,7"),
], ids=["window", "degree", "c1", "default-window"])
def test_option_value_may_start_with_a_dash(run_cli, data_dir, command,
                                            option, value):
    """`--opt -value` is the value, as `--opt=-value` is."""
    command = [word.format(data=data_dir) for word in command]
    spaced = run_cli(*command, option, value)
    joined = run_cli(*command, f"{option}={value}")
    assert spaced.exit_code == 0, spaced.output
    assert spaced == joined


COMMAND_OPTIONS = {
    "validate": ["--setup"],
    "grade": ["--setup", "--kmax", "--degree", "--csv"],
    "spectrum": ["--C", "--c", "--complex-rank", "--window"],
    "index": ["--n", "--c1", "--bottom", "--aug"],
    "dim": ["--setup", "--instance"],
    "enumerate": ["--setup", "--target", "--all-targets", "--kmax",
                  "--classbound", "--text"],
    "orient": ["--instance"],
    "morse": ["--data"],
    "report": ["--setup", "--kmax", "--classbound", "--profile", "--levels"],
}


@pytest.mark.parametrize("command", [None, *COMMAND_OPTIONS])
def test_help_names_every_option(run_cli, command):
    """`--help` exits 0 and names each option (the program's: each
    command)."""
    if command is None:
        result = run_cli("--help")
        names = list(COMMAND_OPTIONS)
    else:
        result = run_cli(command, "--help")
        names = COMMAND_OPTIONS[command]
    assert result.exit_code == 0
    for name in [*names, "--help"]:
        assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])",
                         result.stdout), (command, name)


def test_every_command_is_listed():
    assert list(COMMAND_OPTIONS) == list(cli.COMMANDS)


# Lines answered by help or a usage error: the program's and each command's.
PARSER_LINES = [
    ["--help"], [], ["nope"], ["-h"],
    *([name, "--help"] for name in COMMAND_OPTIONS),
    *([name, "--bogus"] for name in COMMAND_OPTIONS),
    ["spectrum", "--C", "0", "--complex-rank", "2"],
    ["validate", "--setup", "no_such_file.json"],
]


@pytest.mark.parametrize("argv", PARSER_LINES,
                         ids=lambda argv: " ".join(argv) or "(empty)")
def test_one_command_parser_prints_what_the_full_parser_prints(
        run_cli, monkeypatch, argv):
    """A line starting with a command is parsed by that command's
    sub-parser alone; its help and usage errors are byte for byte those of
    the parser holding every command."""
    lean = run_cli(*argv)
    assert lean.exit_code in (0, 2)
    build = cli._parser
    monkeypatch.setattr(cli, "_parser",
                        lambda prog, command=None: build(prog))
    assert run_cli(*argv) == lean


def test_parser_of_one_command_holds_that_command_alone():
    _, subparsers = cli._parser("cascadix", "grade")
    assert list(subparsers.choices) == ["grade"]
    _, subparsers = cli._parser("cascadix")
    assert list(subparsers.choices) == list(cli.COMMANDS)


def test_in_process_calls_may_switch_commands(run_cli, data_dir):
    lines = [["validate", "--setup", str(data_dir / "cp2.json")],
             ["spectrum", "--C", "1"],
             ["morse", "--data", str(data_dir / "morse_circle.json")]]
    first = [run_cli(*argv) for argv in lines]
    assert all(result.exit_code == 0 for result in first)
    assert [run_cli(*argv) for argv in reversed(lines)] == first[::-1]


def test_index_rejects_negative_augmentation_count(run_cli):
    result = run_cli("index", "--n", "2", "--aug", "-1")
    line = _assert_one_error_line(result)
    assert "PunctureMismatch" in line


def test_grade_csv_row(run_cli, data_dir):
    result = run_cli("grade", "--setup", str(data_dir / "cp2.json"),
                     "--kmax", "1", "--csv")
    lines = result.output.splitlines()
    assert lines[0] == "name,kind,degree,coset"
    assert "m_check_1,orbit,3,0" in lines
    assert "x0,interior,2,0" in lines


def test_grade_degree_filter(run_cli, data_dir):
    result = run_cli("grade", "--setup", str(data_dir / "cp2.json"),
                     "--kmax", "3", "--degree", "3", "--csv")
    body = result.output.splitlines()[1:]
    assert body == ["m_check_1,orbit,3,0"]


def test_grade_degree_independent_of_kmax(data_dir):
    """`--degree` solves each lift's winding instead of listing every
    generator, so a huge kmax answers at once."""
    proc = run_python("-m", "cascadix", "grade", "--setup",
                      str(data_dir / "cp2.json"), "--kmax", "1000000",
                      "--degree", "5", "--csv", timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"name,kind,degree,coset\r\nM_check_1,orbit,5,0\r\n"


def assert_degree_cells_match_fractions(setup, k_max, class_bound):
    """The catalog's degree_target and degree_source cells and the grade
    table's degree and coset cells print the `Fraction` degrees, and
    `grade` and `coset_label` are ints exactly when the degree is one."""
    report = certify_classification(setup, k_max, class_bound)
    _, stream = stream_catalog(setup, k_max, class_bound)
    cells = list(cli._catalog_cells(setup, stream, [], set()))
    assert len(cells) == len(report.types)
    for t, row in zip(report.types, cells):
        ends = (t.target, t.source)
        assert row[-2:] == [format_rational(grade(setup, g)) for g in ends]
        assert row[-2:] == [format_rational(oracles.fraction_degree(setup, g))
                            for g in ends]
    gens = enumerate_generators(setup, k_max)
    rows = list(cli._generator_rows(setup, k_max, None))
    assert [row[0] for row in rows] == [g.display_name for g in gens]
    for gen, (_, _, degree, coset) in zip(gens, rows):
        want = oracles.fraction_degree(setup, gen)
        assert degree == format_rational(grade(setup, gen)) \
            == format_rational(want)
        assert coset == format_rational(want - math.floor(want))
        assert (type(grade(setup, gen)) is int) == (want.denominator == 1)
        assert (type(coset_label(setup, gen)) is int) == \
            (want.denominator == 1)


@pytest.mark.parametrize("name", ["cp2", "tau2", "rank0", "rank2"])
def test_degree_cells_match_fractions_shipped(name):
    assert_degree_cells_match_fractions(shipped_setup(name), 40, 40)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(setup=monotone_setups().filter(lambda s: s.degree_scale[0] > 1),
       k_max=st.integers(1, 12), class_bound=st.integers(1, 12))
def test_degree_cells_match_fractions_random(setup, k_max, class_bound):
    assert_degree_cells_match_fractions(setup, k_max, class_bound)


def test_dim_matches_library(run_cli, data_dir, tmp_path, cp2):
    instance = tmp_path / "inst.json"
    instance.write_text(json.dumps({
        "kind": "cascade_y_to_y", "upper": "m_check_2",
        "lower": "M_hat_1", "levels": 1}))
    expect = pearls.y_to_y_dimension(
        cp2, orbit_generator(cp2, "m", FibreFlag.CHECK, 2),
        orbit_generator(cp2, "M", FibreFlag.HAT, 1), 1)
    result = run_cli("dim", "--setup", str(data_dir / "cp2.json"),
                     "--instance", str(instance))
    assert result.output.splitlines()[-1] == f"dimension: {expect}"


def test_dim_pearl_instance(run_cli, data_dir, tmp_path, cp2):
    instance = tmp_path / "pearl.json"
    instance.write_text(json.dumps({
        "kind": "pearl_in_sigma", "upper": "M", "lower": "m",
        "classes": [[1]], "aug_count": 0}))
    expect = pearls.pearl_in_sigma_dimension(
        cp2, cp2.sigma_point("m"), cp2.sigma_point("M"), ((1,),))
    result = run_cli("dim", "--setup", str(data_dir / "cp2.json"),
                     "--instance", str(instance))
    assert result.output.splitlines()[-1] == f"dimension: {expect}"


VARIANT_MISMATCH = "error: pearls: VariantMismatch: "
IN_SIGMA = {"kind": "pearl_in_sigma", "lower": "m", "upper": "M",
            "classes": [[1]], "aug_classes": [[1]]}
WITH_SPHERE = {"kind": "pearl_with_sphere", "interior": "x0", "upper": "m",
               "sphere": [1], "classes": [[0]]}
Y_TO_Y = {"kind": "cascade_y_to_y", "upper": "m_check_2", "lower": "M_hat_1",
          "levels": 2}
W_TO_Y = {"kind": "cascade_w_to_y", "upper": "m_check_1", "interior": "x0",
          "levels": 1}
DIM_CASES = {
    "pearl_in_sigma": (IN_SIGMA, 0, "dimension: 10"),
    "pearl_with_sphere": (WITH_SPHERE, 0, "dimension: 2"),
    "cascade_zero": ({"kind": "cascade_zero", "upper": "m_hat_1",
                      "lower": "m_check_1"}, 0, "dimension: 1"),
    "cascade_y_to_y": (Y_TO_Y, 0, "dimension: 2"),
    "cascade_w_to_y": (W_TO_Y, 0, "dimension: 2"),
    "y_to_y_no_level": ({**Y_TO_Y, "levels": 0}, 1,
                        "Y-to-Y cascades need at least one level"),
    "w_to_y_no_level": ({**W_TO_Y, "levels": 0}, 1,
                        "W-to-Y cascades need at least one level"),
    "sphere_without_spheres": ({**WITH_SPHERE, "classes": []}, 1,
                               "sphere-in-X chains need at least one sphere"),
    "zero_filling_sphere": ({**WITH_SPHERE, "sphere": [0]}, 1,
                            "filling sphere class must be nonzero"),
    "aug_classes_short": ({**IN_SIGMA, "aug_count": 2}, 1,
                          "1 augmentation classes for count 2"),
    "aug_count_negative": ({**IN_SIGMA, "aug_classes": None,
                            "aug_count": -1}, 1,
                           "augmentation count must be >= 0"),
    "zero_to_interior": ({"kind": "cascade_zero", "upper": "m_hat_1",
                          "lower": "x0"}, 1,
                         "lower must be an orbit generator"),
    "w_to_y_orbit_interior": ({**W_TO_Y, "interior": "m_hat_1"}, 1,
                              "interior must be an interior generator"),
    "y_to_y_interior_upper": ({**Y_TO_Y, "upper": "x0"}, 1,
                              "upper must be an orbit generator"),
}


@pytest.mark.parametrize("instance, code, line", DIM_CASES.values(),
                         ids=DIM_CASES.keys())
def test_dim_bytes(run_cli, data_dir, tmp_path, instance, code, line):
    """`dim` on cp2: the value of each instance kind, and one error line
    with exit 1 for each single fault the engine refuses."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    result = run_cli("dim", "--setup", str(data_dir / "cp2.json"),
                     "--instance", str(path))
    assert result.exit_code == code
    if code == 0:
        assert result.stdout == f"kind: {instance['kind']}\n{line}\n"
        assert result.stderr == ""
    else:
        assert result.stdout == ""
        assert result.stderr == VARIANT_MISMATCH + line + "\n"


def test_orient_fibre_sum(run_cli, tmp_path):
    instance = tmp_path / "fs.json"
    instance.write_text(json.dumps({
        "kind": "fibre_sum",
        "v1": {"dim": 1}, "v2": {"dim": 1}, "w": {"dim": 1},
        "f1": [[1]], "f2": [[1]]}))
    result = run_cli("orient", "--instance", str(instance))
    assert "basis: (1,1)" in result.output
    assert "sign: +1" in result.output


def test_orient_quotient(run_cli, tmp_path):
    instance = tmp_path / "q.json"
    instance.write_text(json.dumps({
        "kind": "quotient",
        "total": {"dim": 2},
        "sub": {"dim": 1},
        "inclusion": [[0], [1]]}))
    result = run_cli("orient", "--instance", str(instance))
    assert "basis: (1,0)" in result.output
    assert "sign: -1" in result.output


def test_orient_rational_entries(run_cli, tmp_path):
    instance = tmp_path / "r.json"
    instance.write_text(json.dumps({
        "kind": "fibre_sum",
        "v1": {"dim": 1}, "v2": {"dim": 1}, "w": {"dim": 1},
        "f1": [["1/2"]], "f2": [["3/2"]]}))
    result = run_cli("orient", "--instance", str(instance))
    assert "basis: (3,1)" in result.output


def test_morse_table(run_cli, data_dir):
    result = run_cli("morse", "--data",
                     str(data_dir / "morse_lens3.json"))
    assert "d^2 = 0: verified" in result.output
    assert any(line.split() == ["1", "0", "3"]
               for line in result.output.splitlines())


def test_morse_checks_square_zero_once(run_cli, data_dir, monkeypatch):
    calls = []
    check = morse._check_square_zero

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(morse, "_check_square_zero", counted)
    result = run_cli("morse", "--data",
                     str(data_dir / "morse_lens3.json"))
    assert result.exit_code == 0
    assert len(calls) == 1


def test_morse_rejects_broken_boundary(run_cli, tmp_path):
    bad = tmp_path / "bad_morse.json"
    bad.write_text(json.dumps({
        "points": [{"name": "a", "index": 0}, {"name": "b1", "index": 1},
                   {"name": "b2", "index": 1}, {"name": "c", "index": 2}],
        "flows": [{"source": "c", "target": "b1", "count": 1},
                  {"source": "c", "target": "b2", "count": 1},
                  {"source": "b1", "target": "a", "count": 1},
                  {"source": "b2", "target": "a", "count": 1}]}))
    result = run_cli("morse", "--data", str(bad))
    assert result.exit_code == 1
    assert "BoundarySquaredNonzero" in result.stderr


@st.composite
def flat_complexes(draw):
    """Up to 4 points in each of degrees 0 and 1, random flows between them
    (repeated and cancelling ones among them), and maybe a lone degree-3
    point over an empty degree 2; d^2 vanishes on every draw."""
    names = {d: [f"p{d}_{k}" for k in range(draw(st.integers(0, 4)))]
             for d in (0, 1)}
    if draw(st.booleans()):
        names[3] = ["top"]
    points = draw(st.permutations(
        [{"name": x, "index": d} for d, ns in names.items() for x in ns]))
    flows = []
    if names[0] and names[1]:
        for _ in range(draw(st.integers(0, 10))):
            flows.append({"source": draw(st.sampled_from(names[1])),
                          "target": draw(st.sampled_from(names[0])),
                          "count": draw(st.integers(-3, 3))})
    return {"points": points, "flows": flows}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=flat_complexes())
def test_morse_rows_match_dense_oracle(run_cli, raw):
    """Each boundary row printed by `morse` is a row of the dense matrix the
    oracle assembles, zeros included, and the table is the oracle's."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "complex.json"
        path.write_text(json.dumps(raw))
        result = run_cli("morse", "--data", str(path))
        data = morse.load_morse_data(path)
    dense = oracles.dense_differential(data)
    want = [f"points: {len(data.points)}"]
    for d, rows in dense.items():
        names = ",".join(p.name for p in data.points_of_degree(d))
        cells = "; ".join("(" + ",".join(map(str, r)) + ")" for r in rows)
        want.append(f"boundary degree {d} [{names}]: {cells or '(empty)'}")
    want += ["d^2 = 0: verified", "degree  betti  torsion"]
    for d, betti, torsion in oracles.dense_homology(data, dense):
        label = ";".join(map(str, torsion)) or "-"
        want.append(f"{d:>6} {betti:>6} {label:>8}")
    assert result.exit_code == 0
    assert result.stdout == "\n".join(want) + "\n"


MALFORMED_INPUTS = {
    "truncated": '{"kind": "fibre_sum", "v1": {"dim"',
    "index_not_integer": json.dumps({"points": [{"name": "a", "index": "x"}]}),
    "fibre_sum_without_fields": json.dumps({"kind": "fibre_sum"}),
    "pearl_without_fields": json.dumps({"kind": "pearl_in_sigma"}),
    "not_an_object": json.dumps([1, 2]),
    "name_not_a_string": json.dumps({"points": [{"name": ["a"], "index": 0}]}),
    "flow_end_not_a_string": json.dumps(
        {"points": [{"name": "a", "index": 0}, {"name": "b", "index": 1}],
         "flows": [{"source": ["b"], "target": "a", "count": 1}]}),
    "deeply_nested": "[" * 200_000 + "]" * 200_000,
}


@pytest.mark.parametrize("command", ["morse", "orient", "dim"])
@pytest.mark.parametrize("content", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_malformed_input_is_one_error_line(run_cli, data_dir, tmp_path,
                                           command, content):
    path = tmp_path / "malformed.json"
    path.write_text(content)
    args = {"morse": ["morse", "--data", str(path)],
            "orient": ["orient", "--instance", str(path)],
            "dim": ["dim", "--setup", str(data_dir / "cp2.json"),
                    "--instance", str(path)]}[command]
    result = run_cli(*args)
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr


def _cp2_with(**fields):
    raw = json.loads((Path(__file__).parent.parent / "data"
                      / "cp2.json").read_text())
    return json.dumps({**raw, **fields})


# Input files that once ended in a traceback, ran past 20 s or were taken
# as something they do not say: name -> (file bytes, command line, where
# "{file}" is the file's path and "{data}" the data directory).
FAULTY_FILES = {
    "non_utf8_setup_validate": (
        b'{"name": "\xff"}', ["validate", "--setup", "{file}"]),
    "non_utf8_setup_report": (
        b'{"name": "\xff"}', ["report", "--setup", "{file}"]),
    "deeply_nested_setup": (
        MALFORMED_INPUTS["deeply_nested"].encode(),
        ["validate", "--setup", "{file}"]),
    "setup_t0_exponent": (
        _cp2_with(t0="1e100000000").encode(), ["validate", "--setup", "{file}"]),
    "grade_degree_exponent": (
        b"", ["grade", "--setup", "{data}/cp2.json",
              "--degree", "1e100000000"]),
    "orient_float_entries": (
        json.dumps({"kind": "fibre_sum", "v1": {"dim": 1}, "v2": {"dim": 1},
                    "w": {"dim": 1}, "f1": [[0.1]], "f2": [[1e-1]]}).encode(),
        ["orient", "--instance", "{file}"]),
    # literals past the 4,300-digit cap, which stays while the commands
    # print longer derived values
    "setup_5000_digit_integer": (
        _cp2_with(t0=0).replace('"t0": 0', '"t0": ' + "7" * 5000).encode(),
        ["validate", "--setup", "{file}"]),
    "setup_5000_digit_rational": (
        _cp2_with(t0="7" * 5000).encode(), ["validate", "--setup", "{file}"]),
    "morse_5000_digit_count": (
        json.dumps({"points": [{"name": "a", "index": 0},
                               {"name": "b", "index": 1}],
                    "flows": [{"source": "b", "target": "a", "count": 0}]})
        .replace('"count": 0', '"count": ' + "3" * 5000).encode(),
        ["morse", "--data", "{file}"]),
}


@pytest.mark.parametrize("name", FAULTY_FILES)
def test_faulty_file_is_one_error_line_within_10s(data_dir, tmp_path, name):
    content, args = FAULTY_FILES[name]
    path = tmp_path / "input.json"
    path.write_bytes(content)
    proc = run_script(*(arg.format(file=path, data=data_dir) for arg in args),
                      timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == b""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(b"error:"), proc.stderr


# --- exact values past the interpreter's int <-> str digit limit --------


@contextlib.contextmanager
def _long_int_strings():
    """The test's own inputs and expected values are built without the
    interpreter's 4,300-digit limit on int <-> str, where it has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_long_slope_ratio_prints_in_full(run_cli, data_dir, tmp_path):
    """A rank-0 setup of 4,001-digit literals has an 8,000-digit slope
    ratio; every setup command prints it or runs on it without a traceback,
    and leaves the digit limit as it found it."""
    raw = json.loads((data_dir / "rank0.json").read_text())
    with _long_int_strings():
        raw["tau_x"] = f"{10**4000 + 3}/{10**3999 + 1}"
        raw["k_const"] = f"{10**3999 + 7}/{10**3999 + 9}"
        tau, k = Fraction(raw["tau_x"]), Fraction(raw["k_const"])
        ratio = format_rational((tau - k) / k)
    assert len(ratio) > 8000
    path = tmp_path / "long.json"
    path.write_text(json.dumps(raw))
    limit = _digit_limit()
    result = run_cli("validate", "--setup", str(path))
    assert result.exit_code == 0, result.output
    assert f"slope ratio: {ratio}" in result.stdout.splitlines()
    result = run_cli("report", "--setup", str(path))
    assert result.exit_code == 0, result.output
    assert f"slope={ratio}" in result.stdout
    for command in (["grade"], ["enumerate", "--all-targets"]):
        result = run_cli(*command, "--setup", str(path))
        assert (result.exit_code, result.stderr) == (0, ""), command
    assert _digit_limit() == limit


def test_long_torsion_factor_prints_in_full(run_cli, tmp_path):
    """Torsion Z/(10^3000 + 1) + Z/(10^3000 - 1) = Z/(10^6000 - 1), whose
    one factor has 6,000 digits."""
    with _long_int_strings():
        text = json.dumps({
            "points": [{"name": n, "index": i}
                       for n, i in (("a", 0), ("b", 0), ("c", 1), ("e", 1))],
            "flows": [{"source": "c", "target": "a", "count": 10**3000 + 1},
                      {"source": "e", "target": "b",
                       "count": 10**3000 - 1}]})
    path = tmp_path / "long_morse.json"
    path.write_text(text)
    result = run_cli("morse", "--data", str(path))
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[-2].split() == ["0", "0", "9" * 6000]


def test_long_target_winding(run_cli, data_dir):
    """A target wound 10^5000 - 1 times has no source within k_max, and
    the warning names its winding in full."""
    result = run_cli("enumerate", "--setup", str(data_dir / "cp2.json"),
                     "--target", "m_check_" + "9" * 5000)
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines() == [",".join(cli.CATALOG_HEADER)]
    assert result.stderr == (f"warning: k_max=3 below target winding "
                             f"{'9' * 5000}: sources missed\n")


def _morse_file(index=1, count=1, key="flows"):
    points = [{"name": "a", "index": 0}, {"name": "b", "index": index}]
    flows = [{"source": "b", "target": "a", "count": count}]
    if key == "lifted_flows":
        return {"base": {"points": points}, "lifted_flows": flows}
    return {"points": points, "flows": flows}


# An integer field given a float, a bool or a string, which `int()` would
# truncate or coerce: (command, instance, the field the error names)
NOT_INTEGERS = {
    "morse_index_float": (
        "morse", _morse_file(index=1.9, count=2.7), "critical point index"),
    "morse_index_bool": (
        "morse", _morse_file(index=True, count="3"), "critical point index"),
    "morse_count_float": ("morse", _morse_file(count=2.7), "flow count"),
    "morse_count_string": ("morse", _morse_file(count="3"), "flow count"),
    "morse_lifted_count_bool": (
        "morse", _morse_file(count=True, key="lifted_flows"), "flow count"),
    "y_to_y_levels_float": ("dim", {**Y_TO_Y, "levels": 2.9}, "levels"),
    "w_to_y_levels_bool": ("dim", {**W_TO_Y, "levels": True}, "levels"),
    "pearl_classes_float": (
        "dim", {**IN_SIGMA, "classes": [[1.5]]}, "each entry of classes"),
    "pearl_aug_count_float": (
        "dim", {**IN_SIGMA, "aug_count": 1.0}, "aug_count"),
    "pearl_aug_classes_bool": (
        "dim", {**IN_SIGMA, "aug_classes": [[True]]},
        "each entry of aug_classes"),
    "pearl_sphere_string": (
        "dim", {**WITH_SPHERE, "sphere": ["1"]}, "each entry of sphere"),
    "fibre_sum_dim_float": (
        "orient", {"kind": "fibre_sum", "v1": {"dim": 1.0}, "v2": {"dim": 1},
                   "w": {"dim": 1}, "f1": [[1]], "f2": [[1]]}, "v1.dim"),
    "fibre_sum_sign_float": (
        "orient", {"kind": "fibre_sum", "v1": {"dim": 1},
                   "v2": {"dim": 1, "sign": -1.0}, "w": {"dim": 1},
                   "f1": [[1]], "f2": [[1]]}, "v2.sign"),
    "quotient_dim_string": (
        "orient", {"kind": "quotient", "total": {"dim": "2"},
                   "sub": {"dim": 1}, "inclusion": [[0], [1]]}, "total.dim"),
}


@pytest.mark.parametrize("command, instance, field", NOT_INTEGERS.values(),
                         ids=NOT_INTEGERS.keys())
def test_integer_fields_take_json_integers_only(run_cli, data_dir, tmp_path,
                                                command, instance, field):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    args = {"morse": ["morse", "--data", str(path)],
            "orient": ["orient", "--instance", str(path)],
            "dim": ["dim", "--setup", str(data_dir / "cp2.json"),
                    "--instance", str(path)]}[command]
    result = run_cli(*args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        f"error: errors: CascadixError: {field} must be an integer\n")


SETUP_COMMANDS = (["validate"], ["grade"], ["enumerate", "--all-targets"],
                  ["report"])


def _assert_exit_zero_or_one_error_line(result, context):
    if result.exit_code != 0:
        assert result.exit_code == 1, (context, result.output)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), \
            (context, result.stderr)


def _run_setup_command(run_cli, command, path):
    """Run one setup command; assert exit 0 or exit 1 with one error line."""
    result = run_cli(*command, "--setup", str(path))
    _assert_exit_zero_or_one_error_line(result, command)
    return result


@pytest.mark.parametrize("command", SETUP_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("generators", [True, None, 3, "ab", {"A": 1}],
                         ids=["true", "null", "int", "string", "object"])
def test_lattice_generators_must_be_a_list_of_strings(run_cli, data_dir,
                                                      tmp_path, command,
                                                      generators):
    raw = json.loads((data_dir / "cp2.json").read_text())
    raw["lattice_sigma"]["generators"] = generators
    path = tmp_path / "setup.json"
    path.write_text(json.dumps(raw))
    result = _run_setup_command(run_cli, command, path)
    assert result.exit_code == 1
    assert "generators must be a list of strings" in result.stderr


@pytest.mark.parametrize("command", SETUP_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("points", ["morse_sigma", "morse_w"])
@pytest.mark.parametrize("name", [["m"], 3, None, ""],
                         ids=["list", "int", "null", "empty"])
def test_point_names_must_be_non_empty_strings(run_cli, data_dir, tmp_path,
                                               command, points, name):
    raw = json.loads((data_dir / "cp2.json").read_text())
    raw[points][0]["name"] = name
    path = tmp_path / "setup.json"
    path.write_text(json.dumps(raw))
    result = _run_setup_command(run_cli, command, path)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert f"bad {points} point name {name!r}" in result.stderr


def test_setup_name_key_names_the_setup(run_cli, data_dir, tmp_path):
    raw = json.loads((data_dir / "cp2.json").read_text())
    named, unnamed = tmp_path / "other.json", tmp_path / "unnamed.json"
    named.write_text(json.dumps({**raw, "name": "hello"}))
    del raw["name"]
    unnamed.write_text(json.dumps(raw))
    for path, want in ((named, "name: hello"), (unnamed, "name: unnamed")):
        result = run_cli("validate", "--setup", str(path))
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1] == want


@pytest.mark.parametrize("command", SETUP_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", [["x"], 7, ""], ids=["list", "int", "empty"])
def test_setup_name_must_be_a_non_empty_string(run_cli, data_dir, tmp_path,
                                               command, name):
    raw = json.loads((data_dir / "cp2.json").read_text())
    path = tmp_path / "setup.json"
    path.write_text(json.dumps({**raw, "name": name}))
    result = _run_setup_command(run_cli, command, path)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert f"bad setup name {name!r}" in result.stderr


def _node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _node_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _node_paths(value, prefix + (i,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50)
    | st.floats(-1e3, 1e3) | st.text(max_size=4)
    | st.sampled_from(["1/2", "-2/3", "3", "0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _mutated_text(data, text, values):
    """One node of the JSON text replaced by a drawn value or deleted, or
    the text truncated."""
    raw = json.loads(text)
    kind = data.draw(st.sampled_from(["replace", "delete", "truncate"]))
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    paths = list(_node_paths(raw))
    if kind == "delete":
        paths = paths[1:]
    path = data.draw(st.sampled_from(paths))
    if not path:
        return json.dumps(data.draw(values))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(values)
    return json.dumps(raw)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_setup_is_exit_zero_or_one_error_line(run_cli, data_dir, data):
    """One node of cp2.json replaced by a random JSON value or deleted, or
    the text truncated: every setup command exits 0, or 1 with one error
    line and no traceback."""
    text = _mutated_text(data, (data_dir / "cp2.json").read_text(),
                         JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        setup = Path(tmp) / "setup.json"
        setup.write_text(text)
        for command in SETUP_COMMANDS:
            _run_setup_command(run_cli, command, setup)


# Numbers stay within [-3, 3] and strings carry no digits, so no mutation
# asks for a large dimension: that is a cost question, not a parse error.
SMALL_TEXT = st.text(alphabet="Mm_abchtk /-.", max_size=4)
SMALL_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3)
    | SMALL_TEXT
    | st.sampled_from(["1/2", "-2/3", "3", "0", "m", "M", "m_check_2"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(SMALL_TEXT, inner, max_size=3),
    max_leaves=6)

ORIENT_INSTANCES = (
    {"kind": "fibre_sum",
     "v1": {"dim": 2, "basis": [[1, 0], [1, 1]], "sign": -1},
     "v2": {"dim": 1}, "w": {"dim": 1},
     "f1": [[1, "1/2"]], "f2": [[2]]},
    {"kind": "quotient", "total": {"dim": 2}, "sub": {"dim": 1},
     "inclusion": [[0], [1]]},
)
DIM_INSTANCES = (
    {"kind": "cascade_y_to_y", "upper": "m_check_2", "lower": "M_hat_1",
     "levels": 1},
    {"kind": "pearl_in_sigma", "upper": "M", "lower": "m",
     "classes": [[1]], "aug_count": 0},
)
MORSE_FILES = ("morse_circle", "morse_s2", "morse_hopf", "morse_lens3")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_instance_is_exit_zero_or_one_error_line(run_cli, data_dir,
                                                         data):
    """A mutated or truncated Morse file, orient instance or dim instance:
    `morse`, `orient` and `dim` exit 0, or 1 with one error line and no
    traceback."""
    cases = [(["morse", "--data"], (data_dir / f"{m}.json").read_text())
             for m in MORSE_FILES]
    cases += [(["orient", "--instance"], json.dumps(inst))
              for inst in ORIENT_INSTANCES]
    cases += [(["dim", "--setup", str(data_dir / "cp2.json"), "--instance"],
               json.dumps(inst)) for inst in DIM_INSTANCES]
    command, text = data.draw(st.sampled_from(cases))
    text = _mutated_text(data, text, SMALL_JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(text)
        result = run_cli(*command, str(path))
    _assert_exit_zero_or_one_error_line(result, (command[0], text))


def test_report_sections_cp2(run_cli, data_dir):
    result = run_cli("report", "--setup", str(data_dir / "cp2.json"),
                     "--kmax", "3", "--classbound", "3")
    for section in ("## setup", "## generators", "## actions",
                    "## cascade catalog", "## certification"):
        assert section in result.output
    assert "certified: all feasible types in {Case0,Case1,Case3}" \
        in result.output


def test_report_tau2_contains_case2(run_cli, data_dir):
    result = run_cli("report", "--setup", str(data_dir / "tau2.json"),
                     "--kmax", "2", "--classbound", "2")
    rows = [line.split() for line in result.output.splitlines()
            if line.startswith("m_check_2 m_hat_1")]
    assert any(row[2] == "2" for row in rows)
    assert "certified: all feasible types in {Case0,Case1,Case2,Case3}" \
        in result.output


def test_report_rank0_is_morse_only(run_cli, data_dir):
    result = run_cli("report", "--setup", str(data_dir / "rank0.json"),
                     "--kmax", "2", "--classbound", "2")
    assert "certified: all feasible types in {Case0}" in result.output


def test_uncertified_catalog_prints_each_violation(run_cli, data_dir,
                                                  monkeypatch):
    """A refused proposal: `report` still exits 0, with the summary under
    `## certification` and one `violation:` line per refused row, and
    `enumerate` prints each such row with case -1 and its violation on
    stderr, after the warnings."""
    propose_hat_over_check(monkeypatch)
    bounds = ("--setup", str(data_dir / "cp2.json"),
              "--kmax", "3", "--classbound", "3")
    refused = [f"m_hat_{k} <- m_check_{k}: refused: budget 2 exceeds 1"
               for k in (1, 2, 3)]
    report = run_cli("report", *bounds)
    assert report.exit_code == 0 and not report.stderr
    assert report.stdout.split("## certification\n")[1].splitlines() == [
        f"NOT certified: 3 violation(s), first: {refused[0]}",
        *(f"violation: {v}" for v in refused)]
    listed = run_cli("enumerate", "--all-targets", *bounds)
    assert listed.exit_code == 0
    assert listed.stderr.splitlines() == [f"violation: {v}" for v in refused]
    rows = [line.split(",")[:3] for line in listed.stdout.splitlines()]
    assert [row for row in rows if row[2] == "-1"] == [
        [f"m_hat_{k}", f"m_check_{k}", "-1"] for k in (1, 2, 3)]
    one = run_cli("enumerate", "--target", "m_hat_5", *bounds)
    assert one.exit_code == 0
    assert one.stderr.splitlines() == [
        "warning: k_max=3 below target winding 5: sources missed"]
    one = run_cli("enumerate", "--target", "m_hat_2", "--text", *bounds)
    assert one.exit_code == 0
    assert one.stderr.splitlines() == [f"violation: {refused[1]}"]
    assert [line.split()[:3] for line in one.stdout.splitlines()[1:]] == [
        ["m_hat_2", "m_check_2", "-1"]]


def test_report_rejects_inadmissible_profile(run_cli, data_dir):
    result = run_cli(
        "report", "--setup", str(data_dir / "cp2.json"),
        "--profile", "expr:rho;1;0")
    assert result.exit_code == 1
    assert "ProfileParseError" in result.stderr
    assert "h'' not positive" in result.stderr


@pytest.mark.parametrize("extra", [["--classbound", "-1"],
                                   ["--profile", "nosuch"],
                                   ["--profile", "expr:rho;1;0"],
                                   ["--levels", "0"],
                                   ["--profile", "expr:(rho-2)**2;2*(rho-2);"
                                                 "2/(rho-2-rho+2)"],
                                   ["--profile", "expr:rho;1;pi(1)"],
                                   ["--profile", "expr:log(2-rho);1;1"]],
                         ids=["classbound", "unknown-profile",
                              "inadmissible-profile", "levels",
                              "expr-zero-division", "expr-type",
                              "expr-math-domain"])
def test_report_rejected_input_prints_nothing(run_cli, data_dir, extra):
    """A rejected report writes no part of the document to stdout."""
    result = run_cli(
        "report", "--setup", str(data_dir / "cp2.json"), *extra)
    _assert_one_error_line(result)


@pytest.mark.parametrize("profile", [
    "expr:((rho>1)+(rho>1))**((rho>1)+(rho>1))**((rho>1)+(rho>1))**"
    "((rho>1)+(rho>1))**((rho>1)+(rho>1))**((rho>1)+(rho>1));1;1",
    "expr:(rho-2)**2;2*(rho-2);(True+True)**(True+True)**(True+True)**"
    "(True+True)**(True+True)**(True+True)",
    "expr:[1];1;1",
], ids=["compare-tower", "bool-tower", "list"])
def test_report_refuses_unlisted_expression_at_once(data_dir, profile):
    """Exact ints from comparisons or bools would make these towers
    2**(2**65536) and more; they are refused when parsed, with exit 1 and
    one error line."""
    proc = run_script("report", "--setup", str(data_dir / "cp2.json"),
                      "--profile", profile, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: profiles: ProfileParseError: ")
    assert "which a profile expression may not" in lines[0]


def test_report_accepts_custom_expr_profile(run_cli, data_dir):
    result = run_cli("report", "--setup", str(data_dir / "cp2.json"),
                     "--profile", "expr:(rho-2)**2;2*(rho-2);2",
                     "--levels", "2")
    assert result.exit_code == 0
    quad = run_cli("report", "--setup", str(data_dir / "cp2.json"),
                   "--levels", "2")
    strip = [line for line in result.output.splitlines()
             if not line.startswith("## actions")]
    strip_quad = [line for line in quad.output.splitlines()
                  if not line.startswith("## actions")]
    assert strip == strip_quad


# --- byte determinism and the golden catalog ---------------------------


# The package directory holding the `cascadix` imported above, so the
# subprocess runs the same source tree as the in-process tests rather than
# whatever copy (if any) is installed on $PATH.
PACKAGE_ROOT = Path(cli.__file__).resolve().parents[1]


def run_python(*argv, timeout=120, environ=None):
    """`python argv` with the source tree under test first on the path and
    the variables of `environ` set; `subprocess.TimeoutExpired` after
    `timeout` seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    env.update(environ or {})
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, env=env, timeout=timeout)


def run_script(*args, flags=(), timeout=120, environ=None):
    """`python [flags] -m cascadix args` on the source tree under test."""
    return run_python(*flags, "-m", "cascadix", *args, timeout=timeout,
                      environ=environ)


def test_selftest_is_not_a_command():
    """`selftest` is no command: exit 2, nothing on stdout, and argparse's
    invalid-choice line on stderr."""
    proc = run_script("selftest")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines()[-1].startswith(
        "cascadix: error: argument COMMAND: invalid choice: 'selftest'")


def test_golden_cp2_catalog(data_dir):
    golden = (data_dir.parent / "tests" / "golden"
              / "enumerate_cp2.csv").read_bytes()
    proc = run_script("enumerate", "--setup", str(data_dir / "cp2.json"),
                      "--all-targets", "--kmax", "3", "--classbound", "3")
    assert proc.returncode == 0
    assert proc.stdout == golden
    assert b"\r\n" in proc.stdout  # RFC 4180 line ends


@pytest.mark.parametrize("name", MORSE_FILES)
def test_golden_morse(data_dir, name):
    golden = (data_dir.parent / "tests" / "golden" / f"{name}.txt").read_bytes()
    proc = run_script("morse", "--data", str(data_dir / f"{name}.json"))
    assert proc.returncode == 0
    assert proc.stdout == golden


# golden file -> (command, setup, further arguments); a golden file with a
# `.stderr` sibling pins the run's stderr too, and without one it is empty
GOLDEN_SETUP_RUNS = {
    "report_cp2.txt": ("report", "cp2", ()),
    "report_tau2.txt": ("report", "tau2", ()),
    "report_rank0.txt": ("report", "rank0", ()),
    "report_cp2_power3.txt": ("report", "cp2",
                              ("--profile", "power:3", "--levels", "30")),
    "report_tau2_classbound1.txt": ("report", "tau2", ("--classbound", "1")),
    "grade_cp2.csv": ("grade", "cp2", ("--csv",)),
    "enumerate_tau2_kmax6_classbound1.txt": (
        "enumerate", "tau2",
        ("--all-targets", "--kmax", "6", "--classbound", "1", "--text")),
    "enumerate_cp2_m_check_5.csv": ("enumerate", "cp2",
                                    ("--target", "m_check_5")),
}


@pytest.mark.parametrize("name", GOLDEN_SETUP_RUNS)
def test_golden_setup_commands(data_dir, name):
    command, setup, args = GOLDEN_SETUP_RUNS[name]
    golden = data_dir.parent / "tests" / "golden" / name
    errors = golden.with_suffix(".stderr")
    proc = run_script(command, "--setup", str(data_dir / f"{setup}.json"),
                      *args)
    assert proc.returncode == 0
    assert proc.stdout == golden.read_bytes()
    assert proc.stderr == (errors.read_bytes() if errors.exists() else b"")


@pytest.mark.parametrize("command", [("enumerate", "--all-targets"),
                                     ("report",)], ids=["enumerate", "report"])
def test_enumerate_byte_deterministic(data_dir, command):
    args = (*command, "--setup", str(data_dir / "tau2.json"),
            "--kmax", "2", "--classbound", "2")
    first = run_script(*args)
    second = run_script(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout
    assert first.stdout == second.stdout


def test_catalog_bytes_do_not_depend_on_the_hash_seed(data_dir):
    """Lifts and critical points hash by their flag's and ambient's
    identity, so their hashes change with every launch, as str hashes do
    with the hash seed.  `report` and `enumerate --all-targets` at 40/40
    under hash seeds 0, 1 and random, two launches each, print the same
    bytes on stdout and stderr and exit the same way."""
    for name in ("cp2", "tau2", "rank0"):
        for command in (("report",), ("enumerate", "--all-targets")):
            args = (*command, "--setup", str(data_dir / f"{name}.json"),
                    "--kmax", "40", "--classbound", "40")
            runs = {(proc.returncode, proc.stdout, proc.stderr)
                    for seed in ("0", "1", "random") for _ in range(2)
                    for proc in [run_script(
                        *args, environ={"PYTHONHASHSEED": seed})]}
            [(code, stdout, _)] = runs
            assert code == 0 and stdout, (name, command)


# --- lean launches -------------------------------------------------------


@pytest.mark.parametrize("command, engine", [
    (["morse", "--data", "{data}/morse_circle.json"], {"morse"}),
    (["orient", "--instance", "{tmp}/fs.json"], {"orientation"}),
    (["validate", "--setup", "{data}/cp2.json"], {"model"}),
    (["--help"], set()),
    (["report", "--setup", "{data}/cp2.json"],
     {"model", "grading", "cascades", "profiles"}),
    (["enumerate", "--setup", "{data}/cp2.json", "--all-targets"],
     {"model", "grading", "cascades"}),
    (["grade", "--setup", "{data}/cp2.json"], {"model", "grading"}),
    (["dim", "--setup", "{data}/cp2.json", "--instance", "{tmp}/yy.json"],
     {"model", "grading", "pearls"}),
    (["spectrum", "--C", "1"], {"spectrum"}),
    (["index", "--n", "2"], {"fredholm", "spectrum"}),
], ids=["morse", "orient", "validate", "help", "report", "enumerate",
        "grade", "dim", "spectrum", "index"])
def test_launch_imports_only_the_engine_modules_it_runs(data_dir, tmp_path,
                                                        command, engine):
    (tmp_path / "fs.json").write_text(json.dumps({
        "kind": "fibre_sum",
        "v1": {"dim": 1}, "v2": {"dim": 1}, "w": {"dim": 1},
        "f1": [[1]], "f2": [[1]]}))
    (tmp_path / "yy.json").write_text(json.dumps(Y_TO_Y))
    argv = [arg.format(data=data_dir, tmp=tmp_path) for arg in command]
    loaded = _imported("-m", "cascadix", *argv)
    cascadix_modules = {name for name in loaded
                        if name.split(".")[0] == "cascadix"}
    assert cascadix_modules == {"cascadix", "cascadix.cli", "cascadix.errors"} \
        | {f"cascadix.{name}" for name in engine}
    # Records are NamedTuples: `dataclasses` and the `inspect` it imports
    # cost a launch some 11 ms.
    assert not loaded & {"dataclasses", "inspect"}
    # Beyond the package, only the standard library.  Exempt: what a bare
    # `-c pass` loads (`site` may load third-party hooks), and names that
    # are only tried and do not exist (`copy` tries `org.python.core`).
    tops = {name.split(".")[0]
            for name in loaded - _imported("-c", "pass")}
    third_party = {top for top in tops - set(sys.stdlib_module_names)
                   if top != "cascadix"
                   and importlib.util.find_spec(top) is not None}
    assert not third_party


def _imported(*argv):
    """Every module `python -X importtime argv` loads."""
    proc = run_python("-X", "importtime", *argv)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.decode().splitlines()
            if line.startswith("import time:")}
