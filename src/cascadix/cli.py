"""Command line front end.

Every subcommand prints a deterministic table: identical inputs give
byte-identical output.  CSV is RFC 4180 (CRLF line ends, minimal quoting);
rationals render as p/q; floating point columns use 12 significant digits.
Exit codes: 0 success, 1 for any validation or feasibility error raised by
the engine (printed module-qualified on stderr), 2 for usage errors.  A
usage error prints the `usage:` line of the command followed by one
`<prog> <cmd>: error: <message>` line on stderr.
The command line is parsed with `argparse` alone, and each command imports
the engine modules it runs itself, so a launch loads only those and starts
quickly.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .errors import (CascadixError, json_int, malformed, parse_rational,
                     read_json_object)

DESCRIPTION = "Exact index and cascade calculus for split symplectic homology."
DEFAULT = " [default: %(default)s]"

# name -> (command function, options as (names, add_argument keywords))
COMMANDS = {}


class UsageError(Exception):
    """A command line the parser accepted but the command cannot run."""


def command(name, *options):
    """Register a command and the options of its sub-parser."""
    def register(fn):
        COMMANDS[name] = (fn, options)
        return fn
    return register


def option(*names, **kwargs):
    """One option of a command, in the form `add_argument` takes."""
    return names, kwargs


def existing_file(value: str) -> str:
    path = Path(value)
    if not path.exists():
        raise argparse.ArgumentTypeError(f"file {value!r} does not exist")
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"file {value!r} is a directory")
    return value


# keywords of a required option naming an existing file
FILE = dict(required=True, type=existing_file, metavar="FILE")
SETUP_OPT = option("--setup", dest="setup_path", help="setup descriptor JSON",
                   **FILE)


def _vec(v) -> str:
    return "(" + ",".join(str(int(c)) for c in v) + ")"


def _emit_csv(header, rows):
    """Write the header and then each row as it comes."""
    import csv

    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _emit_text(rows):
    """Write each row as it comes, its cells joined by spaces, an empty
    cell as `-`."""
    write = sys.stdout.write
    for row in rows:
        write(" ".join(cell or "-" for cell in row) + "\n")


def _generator_by_name(setup, name):
    from . import grading
    from .model import orbit_name_parts

    parts = orbit_name_parts(name)
    if parts is not None:
        return grading.orbit_generator(setup, *parts)
    return grading.interior_generator(setup, name)


# --- validate ----------------------------------------------------------


@command("validate", SETUP_OPT)
def validate(setup_path):
    """Check a setup file against all structural invariants."""
    from .model import format_rational, load_setup

    setup = load_setup(setup_path)
    print("monotone triple OK")
    print(f"name: {setup.name}")
    print(f"n: {setup.n}")
    print(f"tau_X: {format_rational(setup.tau_x)}")
    print(f"K: {format_rational(setup.k_const)}")
    print(f"slope ratio: {format_rational(setup.slope_ratio)}")
    print(f"surface classes: rank {setup.lattice_sigma.rank}")
    print(f"filling classes: rank {setup.lattice_x.rank}")


# --- grade -------------------------------------------------------------


GEN_HEADER = ["name", "kind", "degree", "coset"]


def _generator_rows(setup, k_max, degree):
    """The cells of each generator, one generator at a time; the bounds are
    checked before the first."""
    from . import grading

    if degree is None:
        gens = grading.ordered_generators(setup, k_max)
    else:
        gens = grading.enumerate_generators(setup, k_max, degree)
    return ([gen.display_name, gen.kind, str(grading.grade(setup, gen)),
             str(grading.coset_label(setup, gen))] for gen in gens)


@command("grade",
         SETUP_OPT,
         option("--kmax", type=int, default=3,
                help="largest orbit multiplicity" + DEFAULT),
         option("--degree",
                help="keep only generators of this exact degree (e.g. 7/3)"),
         option("--csv", dest="as_csv", action="store_true",
                help="emit CSV instead of text"))
def grade(setup_path, kmax, degree, as_csv):
    """List generators with their degrees."""
    from .model import load_setup, parse_rational

    setup = load_setup(setup_path)
    wanted = parse_rational(degree) if degree is not None else None
    rows = _generator_rows(setup, kmax, wanted)
    if as_csv:
        _emit_csv(GEN_HEADER, rows)
        return
    print(f"{'name':<18} {'kind':<9} {'degree':>8} {'coset':>6}")
    for name, kind, deg, coset in rows:
        print(f"{name:<18} {kind:<9} {deg:>8} {coset:>6}")


# --- spectrum ----------------------------------------------------------


@command("spectrum",
         option("--C", "--c", dest="c_value", type=float, metavar="C",
                help="vertical operator parameter C >= 0"),
         option("--complex-rank", type=int,
                help="use the complex-linear operator of this rank instead"),
         option("--window", default="-7,7",
                help="eigenvalue window lo,hi" + DEFAULT))
def spectrum_cmd(c_value, complex_rank, window):
    """Eigenvalues, multiplicities, and windings in a window."""
    from . import spectrum

    try:
        lo, hi = (float(part) for part in window.split(","))
    except ValueError:
        raise UsageError("argument --window: window must be lo,hi")
    if (c_value is None) == (complex_rank is None):
        raise UsageError("give exactly one of --C or --complex-rank")
    if complex_rank is not None:
        op = spectrum.ComplexLinear(complex_rank)
    else:
        op = spectrum.VerticalC(c_value)
    points = spectrum.spectrum_window(op, lo, hi)
    print(f"operator: {op.label}")
    print(f"{'eigenvalue':>16} {'mode':>5} {'mult':>5} {'winding':>8}")
    for pt in points:
        print(f"{pt.eigenvalue:>16.12g} {pt.mode:>5} "
                   f"{pt.multiplicity:>5} {pt.winding:>8}")


# --- index -------------------------------------------------------------


@command("index",
         option("--n", type=int, required=True,
                help="half-dimension of the filling"),
         option("--c1", type=int, default=0,
                help="relative Chern number of the horizontal part" + DEFAULT),
         option("--bottom", choices=["ham", "reeb"], default="ham",
                help="negative-end orbit type" + DEFAULT),
         option("--aug", type=int, default=0,
                help="number of interior augmentation punctures" + DEFAULT))
def index_cmd(n, c1, bottom, aug):
    """Fredholm index breakdown of one split cylinder."""
    from . import fredholm

    vertical, horizontal = fredholm.split_cylinder_problems(
        n, c1, bottom=bottom, aug_count=aug)
    for label, prob in (("vertical", vertical), ("horizontal", horizontal)):
        print(f"{label}: rank {prob.bundle_rank}, "
                   f"rel c1 {prob.rel_c1}, "
                   f"index {fredholm.index_morse_bott(prob)}")
        for punc, contrib in fredholm.per_puncture_breakdown(prob):
            where = "interior" if punc.interior else "end"
            print(f"  {punc.sign.value} {where} "
                       f"{punc.operator.label}: {contrib:+d}")
    total = fredholm.split_floer_index(vertical, horizontal)
    interior = sum(1 for p in vertical.punctures if p.interior)
    print(f"interior punctures: {interior}")
    print(f"split index: {total}")


# --- dim ---------------------------------------------------------------


def _int_rows(rows, field):
    """A list of integer vectors, each entry a JSON integer."""
    return tuple(tuple(json_int(c, f"each entry of {field}") for c in row)
                 for row in rows)


def _pearl_measure(setup, raw):
    """The `pearls` function for a pearl chain instance, its pieces bound."""
    from . import pearls

    classes = _int_rows(raw.get("classes", []), "classes")
    aug_classes = raw.get("aug_classes")
    if aug_classes is not None:
        aug_classes = _int_rows(aug_classes, "aug_classes")
    aug_count = json_int(raw.get("aug_count",
                                 len(aug_classes) if aug_classes else 0),
                         "aug_count")
    if raw["kind"] == "pearl_in_sigma":
        return functools.partial(
            pearls.pearl_in_sigma_dimension, setup,
            setup.sigma_point(raw["lower"]), setup.sigma_point(raw["upper"]),
            classes, aug_count, aug_classes)
    return functools.partial(
        pearls.pearl_with_sphere_dimension, setup,
        setup.w_point(raw["interior"]), setup.sigma_point(raw["upper"]),
        tuple(json_int(c, "each entry of sphere") for c in raw["sphere"]),
        classes, aug_count, aug_classes)


def _cascade_measure(setup, raw):
    """The `pearls` function for a cascade instance, its pieces bound."""
    from . import pearls

    kind = raw["kind"]
    upper = _generator_by_name(setup, raw["upper"])
    if kind == "cascade_zero":
        return functools.partial(pearls.zero_cascade_dimension, setup, upper,
                                 _generator_by_name(setup, raw["lower"]))
    if kind == "cascade_y_to_y":
        return functools.partial(pearls.y_to_y_dimension, setup, upper,
                                 _generator_by_name(setup, raw["lower"]),
                                 json_int(raw["levels"], "levels"))
    return functools.partial(pearls.w_to_y_dimension, setup, upper,
                             _generator_by_name(setup, raw["interior"]),
                             json_int(raw["levels"], "levels"))


@command("dim",
         SETUP_OPT,
         option("--instance", dest="instance_path",
                help="JSON describing one pearl chain or cascade", **FILE))
def dim_cmd(setup_path, instance_path):
    """Expected dimension of one configuration space."""
    from .model import load_setup

    setup = load_setup(setup_path)
    raw = read_json_object(instance_path, "instance")
    kind = raw.get("kind")
    if kind in ("pearl_in_sigma", "pearl_with_sphere"):
        with malformed("instance"):
            measure = _pearl_measure(setup, raw)
    elif kind in ("cascade_zero", "cascade_y_to_y", "cascade_w_to_y"):
        with malformed("instance"):
            measure = _cascade_measure(setup, raw)
    else:
        raise CascadixError(f"unknown instance kind {kind!r}")
    value = measure()
    print(f"kind: {kind}")
    print(f"dimension: {value}")


# --- enumerate ---------------------------------------------------------


CATALOG_HEADER = [
    "target", "source", "case", "N", "N0", "N1", "aug_count",
    "k_minus", "k_plus", "multiplicities", "classes_a", "sphere_b", "aug",
    "degree_target", "degree_source",
]


def _catalog_cells(setup, rows, violations, cases):
    """The cells of each catalog row, one row at a time, from the (row,
    family) pairs of `cascades.stream_catalog`.

    The cells that do not move within a family (case, N, N0, N1,
    aug_count, classes_a, sphere_b, aug) are rendered once per family, the
    target's name and degree once per target; a source's degree is the
    target's less the family's degree difference.  Each row's violations
    are appended to `violations` and each family's case value added to
    `cases`.
    """
    from . import grading

    fixed = {}    # id(family) -> (cells before k_minus, after, degree gap)
    target = None
    for t, family in rows:
        cells = fixed.get(id(family))
        if cells is None:
            s = family.template
            cases.add(s.case_label.value)
            cells = fixed[id(family)] = (
                [str(s.case_label.value), str(s.n_levels), str(s.n_constant),
                 str(s.n_nonconstant), str(s.aug_count)],
                [";".join(_vec(a) for a in s.classes_a),
                 "" if s.sphere_b is None else _vec(s.sphere_b),
                 ";".join(f"{a.level}:{_vec(a.class_b)}" for a in s.aug)],
                grading.grade(setup, s.target)
                - grading.grade(setup, s.source))
        head, tail, gap = cells
        if family.problems:
            violations.extend(family.violations(t))
        if t.target is not target:
            target = t.target
            name, degree = target.display_name, grading.grade(setup, target)
            degree_cell = str(degree)
        ks = t.multiplicities
        yield [name, t.source.display_name, *head,
               str(ks[0]) if ks else "", str(ks[-1]) if ks else "",
               ";".join(map(str, ks)), *tail, degree_cell, str(degree - gap)]


@command("enumerate",
         SETUP_OPT,
         option("--target", help="one target generator by name"),
         option("--all-targets", action="store_true",
                help="every generator with winding <= kmax"),
         option("--kmax", type=int, default=3, help=DEFAULT),
         option("--classbound", type=int, default=3,
                help="area bound for sphere classes" + DEFAULT),
         option("--text", dest="as_text", action="store_true",
                help="aligned text instead of CSV"))
def enumerate_cmd(setup_path, target, all_targets, kmax, classbound, as_text):
    """Catalog of feasible cascade types, one row per type."""
    from . import cascades
    from .model import load_setup

    if (target is None) == (not all_targets):
        raise UsageError("give exactly one of --target or --all-targets")
    setup = load_setup(setup_path)
    if not all_targets:
        target = _generator_by_name(setup, target)
    warnings, rows = cascades.stream_catalog(setup, kmax, classbound, target)
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    violations = []
    cells = _catalog_cells(setup, rows, violations, set())
    if as_text:
        print(" ".join(CATALOG_HEADER))
        _emit_text(cells)
    else:
        _emit_csv(CATALOG_HEADER, cells)
    for violation in violations:
        print(f"violation: {violation}", file=sys.stderr)


# --- orient ------------------------------------------------------------


def _rationals(rows):
    return tuple(tuple(map(parse_rational, row)) for row in rows)


def _space_from(raw, where):
    from . import orientation

    basis = _rationals(raw.get("basis") or [])
    return orientation.OrientedSpace(json_int(raw["dim"], f"{where}.dim"),
                                     basis,
                                     json_int(raw.get("sign", 1),
                                              f"{where}.sign"))


def _map_from(raw):
    from . import orientation

    return orientation.LinearMapSpec(_rationals(raw))


@command("orient",
         option("--instance", dest="instance_path",
                help="JSON with spaces, maps, and signs", **FILE))
def orient_cmd(instance_path):
    """Oriented kernel of a fibre sum, or a quotient representative."""
    from . import orientation

    raw = read_json_object(instance_path, "instance")
    kind = raw.get("kind")
    if kind == "fibre_sum":
        with malformed("instance"):
            spaces = [_space_from(raw[key], key) for key in ("v1", "v2", "w")]
            maps = [_map_from(raw[key]) for key in ("f1", "f2")]
        frame = orientation.fibre_sum_orientation(*spaces, *maps)
        print("kernel of the difference map:")
    elif kind == "quotient":
        with malformed("instance"):
            sub = orientation.IncludedSubspace(_space_from(raw["sub"], "sub"),
                                               _map_from(raw["inclusion"]))
            total = _space_from(raw["total"], "total")
        frame = orientation.quotient_orientation(total, sub)
        print("complement representative:")
    else:
        raise CascadixError(f"unknown instance kind {kind!r}")
    print(f"dim: {frame.dim}")
    for vec in frame.vectors:
        print(f"basis: ({','.join(map(str, vec))})")
    print(f"sign: {frame.sign:+d}")


# --- morse -------------------------------------------------------------


@command("morse",
         option("--data", dest="data_path",
                help="Morse complex JSON (plain or lifted)", **FILE))
def morse_cmd(data_path):
    """Boundary matrices, d^2 check, homology table."""
    from . import morse

    data = morse.load_morse_data(data_path)
    if isinstance(data, morse.LiftedMorseData):
        print(f"lifted complex over {len(data.base.points)} base points")
        data = data.lifted()
    print(f"points: {len(data.points)}")
    boundaries = morse.boundaries(data)
    for d, columns in boundaries.items():
        names = ",".join(p.name for p in data.points_of_degree(d))
        rows = range(len(data.points_of_degree(d - 1)))
        mat = "; ".join(_vec(column.get(i, 0) for column in columns)
                        for i in rows) or "(empty)"
        print(f"boundary degree {d} [{names}]: {mat}")
    print("d^2 = 0: verified")
    print(f"{'degree':>6} {'betti':>6} {'torsion':>8}")
    for d, betti, torsion in morse.homology_from(data, boundaries):
        label = ";".join(str(t) for t in torsion) or "-"
        print(f"{d:>6} {betti:>6} {label:>8}")


# --- report ------------------------------------------------------------


@command("report",
         SETUP_OPT,
         option("--kmax", type=int, default=3, help=DEFAULT),
         option("--classbound", type=int, default=3, help=DEFAULT),
         option("--profile", dest="profile_spec", default="quadratic",
                help="Hamiltonian profile for the action table" + DEFAULT),
         option("--levels", type=int, default=5,
                help="orbit multiplicities in the action table" + DEFAULT))
def report_cmd(setup_path, kmax, classbound, profile_spec, levels):
    """One document: generators, actions, cascade catalog, certification."""
    from . import cascades, profiles
    from .model import format_rational, load_setup

    # Everything that can reject the input is checked before the first
    # line goes out, so a rejected input prints nothing on stdout; the
    # tables are then written as they are computed.
    if levels < 1:
        raise CascadixError(f"levels must be >= 1, got {levels}")
    setup = load_setup(setup_path)
    generators = _generator_rows(setup, kmax, None)
    prof = profiles.make_profile(profile_spec)
    admissibility = profiles.check_admissible(prof)
    if not admissibility.ok:
        raise profiles.ProfileParseError(
            f"profile {profile_spec!r} rejected: {admissibility.first_violation}")
    actions = [profiles.orbit_level(prof, k, setup.t0)
               for k in range(1, levels + 1)]
    warnings, rows = cascades.stream_catalog(setup, kmax, classbound)

    print(f"# report: {setup.name}")
    print("")
    print("## setup")
    print(f"n={setup.n} tau_X={format_rational(setup.tau_x)} "
               f"K={format_rational(setup.k_const)} "
               f"slope={format_rational(setup.slope_ratio)}")
    print("")
    print(f"## generators (kmax={kmax})")
    print(" ".join(GEN_HEADER))
    _emit_text(generators)
    print("")
    print(f"## actions ({profile_spec}, T0={format_rational(setup.t0)})")
    print("k rho action vertical_C")
    for k, level in enumerate(actions, 1):
        print(f"{k} {level.rho:.12g} {level.action:.12g} "
                   f"{level.vertical_c:.12g}")
    print("")
    print(f"## cascade catalog (kmax={kmax}, classbound={classbound})")
    print(" ".join(CATALOG_HEADER))
    violations, cases = [], set()
    _emit_text(_catalog_cells(setup, rows, violations, cases))
    print("")
    print("## certification")
    print(cascades.certification_summary(violations, cases))
    for message in warnings:
        print(f"warning: {message}")
    for violation in violations:
        print(f"violation: {violation}")


# --- parsing -------------------------------------------------------------


@functools.cache
def _parser(prog, command=None):
    """The parser for a command line, built once per process and command.

    `command` is the command the line starts with.  The parser then holds
    that command's sub-parser alone, since the line can reach no other.
    With None it holds every command's sub-parser, for `--help` and for
    lines that name no known command.  Help and usage errors read the same
    either way.
    """
    listing = "\n".join(f"  {name:<10} {fn.__doc__}"
                        for name, (fn, _) in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog=prog, description=DESCRIPTION, epilog="commands:\n" + listing,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help",
                        help="show this message and exit")
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND",
                                       required=True,
                                       help="one of the commands below")
    for name in COMMANDS if command is None else [command]:
        fn, options = COMMANDS[name]
        sub = subparsers.add_parser(name, description=fn.__doc__,
                                    add_help=False, allow_abbrev=False)
        for names, kwargs in options:
            sub.add_argument(*names, **kwargs)
        sub.add_argument("--help", action="help",
                         help="show this message and exit")
    return parser, subparsers


def _joined(argv):
    """`--opt value` as `--opt=value` for every option that takes a value.

    A value that starts with `-` (`--window -3,3`, `--degree -1/3`) then
    reaches its option instead of reading to argparse as another option.
    """
    if not argv or argv[0] not in COMMANDS:
        return argv
    takes_value = {name for names, kwargs in COMMANDS[argv[0]][1]
                   if "action" not in kwargs for name in names}
    words = iter(argv[1:])
    out = [argv[0]]
    for word in words:
        if word in takes_value:
            value = next(words, None)
            if value is not None:
                word = f"{word}={value}"
        out.append(word)
    return out


def main(args=None, prog_name="cascadix"):
    """Run one command line (default `sys.argv[1:]`)."""
    argv = sys.argv[1:] if args is None else list(args)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    parser, subparsers = _parser(prog_name, command)
    namespace, extra = parser.parse_known_args(_joined(argv))
    kwargs = vars(namespace)
    name = kwargs.pop("command")
    if extra:
        subparsers.choices[name].error(
            f"unrecognized arguments: {' '.join(extra)}")
    # Exact values derived from valid input (a slope ratio, a torsion
    # factor) can be longer than the interpreter's limit on int <-> str
    # conversion, so the command runs without it; `errors` keeps that cap
    # on the literals of the input files.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        COMMANDS[name][0](**kwargs)
    except UsageError as exc:
        subparsers.choices[name].error(str(exc))
    except CascadixError as exc:
        print(f"error: {exc.qualified()}", file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): exit 1 without a
        # traceback, and keep the final flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# perfbench/run.py::run_cli_traced calls the entry point as
# `main.main(args=..., prog_name=..., standalone_mode=False)`.
main.main = (lambda args=None, prog_name="cascadix", standalone_mode=True:
             main(args, prog_name))


if __name__ == "__main__":
    main()
