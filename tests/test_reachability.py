"""Every public function of the package is run by some command.

One interpreter imports the package under `sys.setprofile` and runs each
command line below in-process through `cli.main`, over the shipped data
files and small dim/orient instances.  Every public module-level function
defined in `cascadix.*` must be entered at least once; one that no command
reaches belongs with the tests that use it (`tests/oracles.py`), not in the
package.
"""

import json

from test_cli import DIM_CASES, run_python

# Public functions no command runs, each with its reason.
EXEMPT = {
    # the `morse` command runs `boundaries` and `homology_from` so that it
    # builds the boundary maps once; `homology` is the one-call form that
    # the benchmark's `algebra` workload and the CI Smith-form steps call
    "morse.homology",
    # the catalog held whole in one report, for callers that keep it (the
    # benchmark's `catalog` workload, the CI step at 20000/20000); `report`
    # and `enumerate` write the same rows as `stream_catalog` yields them
    "cascades.certify_classification",
    "cascades.enumerate_contributions",
}

# Runs every command line in-process and prints, as JSON, the public
# module-level functions of cascadix.* that were never entered.
SCRIPT = r"""
import contextlib, importlib, inspect, io, json, pkgutil, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
import cascadix
from cascadix import cli

for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            cli.main(argv)
    except SystemExit as exc:
        if exc.code:
            sys.exit(f"{argv} exited {exc.code}")
sys.setprofile(None)

missed = []
for info in pkgutil.iter_modules(cascadix.__path__):
    module = importlib.import_module(f"cascadix.{info.name}")
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and not name.startswith("_")
                and obj.__module__ == module.__name__
                and inspect.unwrap(obj).__code__ not in entered):
            missed.append(f"{info.name}.{name}")
print(json.dumps(sorted(missed)))
"""


def command_lines(data, tmp_path):
    setups = [str(data / f"{name}.json") for name in ("cp2", "tau2", "rank0")]
    lines = []
    for setup in setups:
        lines += [
            ["validate", "--setup", setup],
            ["grade", "--setup", setup],
            ["grade", "--setup", setup, "--csv", "--degree", "3"],
            ["report", "--setup", setup],
            ["enumerate", "--setup", setup, "--all-targets", "--text"],
        ]
    lines += [
        ["enumerate", "--setup", setups[0], "--target", "m_check_2"],
        ["report", "--setup", setups[0], "--profile", "power:3"],
        ["report", "--setup", setups[0],
         "--profile", "expr:(rho-2)**2;2*(rho-2);2"],
        ["spectrum", "--C", "1"],
        ["spectrum", "--complex-rank", "2"],
        ["index", "--n", "2"],
        ["index", "--n", "3", "--bottom", "reeb", "--aug", "1"],
    ]
    for name in ("morse_circle", "morse_s2", "morse_hopf", "morse_lens3"):
        lines.append(["morse", "--data", str(data / f"{name}.json")])
    for kind in ("pearl_in_sigma", "pearl_with_sphere", "cascade_zero",
                 "cascade_y_to_y", "cascade_w_to_y"):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(DIM_CASES[kind][0]))
        lines.append(["dim", "--setup", setups[0], "--instance", str(path)])
    orient = {
        "fibre_sum": {"kind": "fibre_sum",
                      "v1": {"dim": 1}, "v2": {"dim": 1}, "w": {"dim": 1},
                      "f1": [[1]], "f2": [[1]]},
        "quotient": {"kind": "quotient", "total": {"dim": 2},
                     "sub": {"dim": 1}, "inclusion": [[0], [1]]},
    }
    for kind, instance in orient.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(instance))
        lines.append(["orient", "--instance", str(path)])
    return lines


def test_every_public_function_is_run_by_a_command(data_dir, tmp_path):
    lines = command_lines(data_dir, tmp_path)
    proc = run_python("-c", SCRIPT, json.dumps(lines))
    assert proc.returncode == 0, proc.stderr.decode()
    missed = set(json.loads(proc.stdout.decode().splitlines()[-1]))
    assert missed == EXEMPT, sorted(missed - EXEMPT)
