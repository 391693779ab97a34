"""Benchmark of cascadix: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload catalog|algebra|cli --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout: the directory that holds src/cascadix,
data/ and tests/golden/.  The program is measured from outside, through the
public functions of its modules (catalog, algebra) or by launching
`python -m cascadix` (cli); nothing under src/ is modified.  Load is a closed
loop with a single client: one operation at a time.

With --trace 0 the run is split into segments, each a fresh set-up followed
by whole passes over the workload's operation list; it reports the
end-to-end metrics.  Times are in reference seconds: each wall time scaled
by a fixed kernel timed around it (hostspeed.py), so that the host's own
swings in speed cancel out.  With --trace 1 one segment runs half its time untraced
and half with spans around every public function of the measured modules,
and reports the per-layer metrics.  Every output is checked against the
independent oracles in oracles.py; a failed check makes `correct` false and
the exit code 1.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import hostspeed
import oracles
import worker
import workloads

SEGMENTS = 5                     # fresh set-ups per untraced run
TAIL = {"catalog": 0.80, "algebra": 0.90, "cli": 0.85}
CACHE = Path(".perfbench_cache")  # bytecode cache and generated inputs
OUT = Path("perfbench/out")       # span files of traced runs
PROBES = 10                       # launches per cli start-up probe


class Failed(Exception):
    """The benchmark could not run (not a wrong output)."""


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def child_env(root: Path) -> dict:
    """A fixed environment for every child process, whatever the caller's
    shell: one search thread, the source tree under test first on the path,
    a bytecode cache outside src/ that the run fills before timing, and a
    fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if not (k.startswith("PYTHON") or k.startswith("CASCADIX"))}
    env.update(CASCADIX_THREADS="1", PYTHONPATH=str(root / "src"),
               PYTHONPYCACHEPREFIX=str(root / CACHE / "pycache"),
               PYTHONHASHSEED="0")
    return env


def warm_cache(root: Path, env: dict):
    """Empty the bytecode cache, then fill it by importing what the timed
    processes import."""
    shutil.rmtree(root / CACHE, ignore_errors=True)
    (root / CACHE).mkdir()
    code = ("import sys; sys.path.insert(0, 'perfbench'); import workloads, "
            "spans, worker, argparse, gzip; import cascadix.cli, cascadix.__main__")
    status, _, err, _ = run_child([sys.executable, "-c", code], root, env, 120)
    if status:
        raise Failed("cannot import cascadix: "
                     + err.decode(errors="replace").strip()[-500:])


def run_child(cmd, root, env, timeout):
    """Run a child process to its end.  Returns (exit code, stdout, stderr,
    peak resident memory of that child alone in MB)."""
    err_path = root / CACHE / "child-stderr.txt"
    with err_path.open("wb") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err_path.read_bytes(), usage.ru_maxrss / 1024


# --- checks ------------------------------------------------------------------


class Checker:
    """Runs the oracles once per distinct (op, output) pair."""

    def __init__(self, root: Path):
        self.root = root
        self.setups = {s: oracles.Setup.load(root, s) for s in workloads.SETUPS}
        self.verdicts = {}
        self.problems = []

    def check(self, op, out, outputs):
        key = (op["id"], json.dumps(out, sort_keys=True))
        if key not in self.verdicts:
            found = self._check(op, out, outputs)
            self.verdicts[key] = found
            self.problems.extend(f"{op['id']}: {p}" for p in found)

    def _check(self, op, out, outputs):
        kind = op["kind"]
        if kind == "certify":
            setup = self.setups[op["setup"]]
            kmax, cb = op["kmax"], op["classbound"]
            if not setup.catalog_complete(kmax, cb):
                return ["bounds outside the closed form's range"]
            want = setup.catalog(kmax, cb)
            found = []
            if not oracles.same_rows(out["rows"], [r[:13] for r in want]):
                found.append("catalog differs from the closed-form enumeration")
            if out["violations"] or out["warnings"]:
                found.append("violations or warnings on a complete rank<=1 catalog")
            if out["summary"] != setup.certified_summary(want):
                found.append(f"summary {out['summary']!r}")
            return found
        if kind == "homology":
            got = [(d, b, tuple(t)) for d, b, t in out]
            if not oracles.same_homology(got, op["complex"]["homology"]):
                return ["homology differs from the construction"]
            return []
        if kind in ("fibre_sum", "quotient"):
            check = oracles.check_fibre_sum if kind == "fibre_sum" else oracles.check_quotient
            found = check(op["instance"], out["vectors"], out["sign"])
            if op.get("flip_of") and op["flip_of"] in outputs:
                found += oracles.check_flip(outputs[op["flip_of"]], out)
            return found
        text = out
        if kind == "report":
            return oracles.check_report(text, self.setups[op["setup"]])
        if kind == "enumerate":
            return oracles.check_enumerate(text, self.setups[op["setup"]])
        if kind == "grade":
            return oracles.check_grade(text, self.setups[op["setup"]])
        if kind == "morse":
            _, _, n_points = oracles.morse_file_complex(
                self.root / "data" / f"{op['data']}.json")
            return oracles.check_morse(text, op["data"], n_points)
        if kind == "orient":
            vectors, sign = oracles.parse_orient(text)
            return oracles.check_fibre_sum(op["instance"], vectors, sign)
        return [f"unknown op kind {kind}"]


# --- catalog and algebra: worker processes ----------------------------------------


def run_workers(args, root, env, checker):
    ops = {op["id"]: op for op in (workloads.catalog_ops() if args.workload == "catalog"
                                   else workloads.algebra_ops(args.seed))}
    segments = 1 if args.trace else SEGMENTS
    results = []
    for i in range(segments):
        cmd = [sys.executable, "perfbench/worker.py", "--workload", args.workload,
               "--seed", str(args.seed), "--budget", str(args.seconds / segments),
               "--trace", str(args.trace)]
        if args.trace:
            (root / OUT).mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out",
                    str(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")]
        before = hostspeed.measure()
        spawned = perf_counter()
        code, out, err, rss = run_child(cmd, root, env, args.seconds + 120)
        if code:
            raise Failed(f"worker exited with {code}: "
                         + err.decode(errors="replace").strip()[-2000:])
        res = json.loads(out.decode().strip().splitlines()[-1])
        res["setup_s"] = (res["first_op_at"] - spawned) * hostspeed.REF_S \
            / ((before + res["first_ref"]) / 2)
        res["rss_mb"] = rss
        for op_id, out in res["outputs"].items():
            checker.check(ops[op_id], out, res["outputs"])
        checker.problems.extend(f"{op_id}: output changed between repeats"
                                for op_id in res["mismatches"])
        results.append(res)
    return results


# --- cli: launches -----------------------------------------------------------------


def cli_plan(args, root):
    ops = workloads.pass_order(args.seed, workloads.cli_ops())
    inst = workloads.orient_cli_instance(args.seed)
    for op in ops:
        if op["kind"] == "orient":
            op["instance"] = inst
            op["argv"] = op["argv"][:-1] + [str(CACHE / workloads.ORIENT_INSTANCE)]
    return ops, inst


def launch(root, env, argv):
    """One `python -m cascadix` launch: (exit code, stdout, stderr, MB)."""
    return run_child([sys.executable, "-m", "cascadix", *argv], root, env, 120)


def run_cli(args, root, env, checker):
    ops, inst = cli_plan(args, root)
    clock = hostspeed.Clock()
    segments = []
    failed = 0
    for _ in range(SEGMENTS):
        before = clock.ref()
        start = perf_counter()
        (root / CACHE / workloads.ORIENT_INSTANCE).write_text(
            json.dumps(workloads.instance_json(inst)))
        code, _, err, rss = launch(root, env, ["validate", "--setup", "data/cp2.json"])
        if code:
            raise Failed("warm-up launch failed: " + err.decode(errors="replace"))
        setup = (perf_counter() - start) * clock.scale(before, clock.ref())
        seg = {"setup_s": setup, "latencies": [], "rss_mb": rss}
        outputs = {}

        def one_pass():
            nonlocal failed
            total = 0.0
            for op in ops:
                (code, out, err, rss), _, dur = clock.time(launch, root, env, op["argv"])
                total += dur
                seg["latencies"].append([op["id"], dur])
                seg["rss_mb"] = max(seg["rss_mb"], rss)
                if code or err:
                    failed += 1
                    checker.problems.append(f"{op['id']}: exit {code} "
                                            + err.decode(errors="replace")[-300:])
                elif outputs.setdefault(op["id"], out.decode()) != out.decode():
                    checker.problems.append(f"{op['id']}: output changed between repeats")
            return total

        seg["passes"] = worker.run_passes(args.seconds / SEGMENTS, one_pass)
        for op in ops:
            if op["id"] in outputs:
                checker.check(op, outputs[op["id"]], outputs)
        segments.append(seg)
    return segments, failed


def run_cli_traced(args, root, env, checker):
    """Start-up probes in child processes, then the op list in-process."""
    import spans

    interp = [launch_code(root, env, "pass") for _ in range(PROBES)]
    imports = [launch_code(root, env, "import cascadix.cli") for _ in range(PROBES)]
    interp_ms = statistics.median(interp) * 1e3
    metrics = {"cli.interpreter_ms": interp_ms,
               "cli.import_ms": statistics.median(imports) * 1e3 - interp_ms}

    sys.path.insert(0, str(root / "src"))
    sys.pycache_prefix = env["PYTHONPYCACHEPREFIX"]
    os.environ["CASCADIX_THREADS"] = "1"
    from cascadix import cli
    tracer = spans.Tracer(spans.layer_modules(), also=(cli,))
    ops, inst = cli_plan(args, root)
    (root / CACHE / workloads.ORIENT_INSTANCE).write_text(
        json.dumps(workloads.instance_json(inst)))

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            cli.main.main(args=list(argv), prog_name="cascadix", standalone_mode=False)
        return out.getvalue()

    outputs, latencies, render = {}, [], []
    clock = hostspeed.Clock()
    raw_passes = []

    def one_pass(trace):
        total = raw_total = 0.0
        for op in ops:
            before = tracer.stats.get("cli.main", [0, 0.0, 0.0])[2]
            if trace:
                out, raw, dur = clock.time(tracer.call, "cli.main", invoke, (op["argv"],))
            else:
                out, raw, dur = clock.time(invoke, op["argv"])
            total += dur
            raw_total += raw
            if trace:
                render.append(tracer.stats["cli.main"][2] - before)
            else:
                latencies.append(dur)
            if outputs.setdefault(op["id"], out) != out:
                checker.problems.append(f"{op['id']}: output changed between repeats")
        raw_passes.append(raw_total)
        return total

    invoke(["validate", "--setup", "data/cp2.json"])          # warm-up
    untraced = worker.run_passes(args.seconds / 2, lambda: one_pass(False))
    tracer.start_passes()
    traced = worker.run_passes(args.seconds / 2, lambda: one_pass(True),
                               tracer.end_pass)
    tracer.uninstall()
    (root / OUT).mkdir(parents=True, exist_ok=True)
    tracer.write(root / OUT / f"spans-cli-seed{args.seed}.csv.gz")
    for op in ops:
        checker.check(op, outputs[op["id"]], outputs)
    metrics["cli.command_ms"] = statistics.median(latencies) * 1e3
    metrics["cli.render_self_ms"] = statistics.median(render) * 1e3
    res = {"setup_layers": {"stats": {}, "counters": {}}, "layers": tracer.per_pass,
           "untraced_passes": untraced, "traced_passes": traced,
           "raw_passes": raw_passes, "refs": clock.refs,
           "spans_per_pass": len(tracer.recorded)}
    return res, metrics, (len(untraced) + len(traced)) * len(ops)


def launch_code(root, env, code):
    start = perf_counter()
    if run_child([sys.executable, "-c", code], root, env, 60)[0]:
        raise Failed(f"python -c {code!r} failed")
    return perf_counter() - start


# --- metrics ---------------------------------------------------------------------


def end_to_end(workload, segments):
    lat = [d for s in segments for _, d in s["latencies"]]
    passes = [p for s in segments for p in s["passes"]]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in segments),
        "pass_s": statistics.median(passes),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": percentile(lat, TAIL[workload]) * 1e3,
        "peak_rss_mb": max(s["rss_mb"] for s in segments),
    }, len(lat)


def per_layer(res, extra):
    """Per-pass layer metrics: counts from the first traced pass (they repeat
    exactly), times as the median over traced passes."""
    passes = res["layers"]

    def calls(name):
        return passes[0]["stats"].get(name, [0])[0]

    def med(name, col):
        return statistics.median(p["stats"].get(name, [0, 0.0, 0.0])[col] for p in passes)

    def counter(name):
        return passes[0]["counters"].get(name, 0)

    load = res["setup_layers"]["stats"].get("model.load_setup", [0, 0.0, 0.0])[1] \
        + med("model.load_setup", 1)
    classify = calls("cascades.classify_type")
    matrices = counter("morse.matrices_in_homology")
    m = {
        "model.load_setup.ms": load * 1e3,
        "model.pair.calls": calls("model.pair"),
        "model.pair.self_s": med("model.pair", 2),
        "grading.grade.calls": calls("grading.grade"),
        "grading.grade.self_s": med("grading.grade", 2),
        "grading.enumerate_generators.s": med("grading.enumerate_generators", 1),
        "pearls.multiplicity_balance.calls": calls("pearls.multiplicity_balance"),
        "pearls.augmentation_index.calls": calls("pearls.augmentation_index"),
        "cascades.classify_type.calls": classify,
        "cascades.classify_type.feasible": counter("cascades.classify_type.feasible"),
        "cascades.survivor_ratio": (counter("cascades.classify_type.feasible") / classify
                                    if classify else 0.0),
        "cascades.classify_type.self_s": med("cascades.classify_type", 2),
        "cascades.enumerate_contributions.self_s": med("cascades.enumerate_contributions", 2),
        "cascades.certify_classification.self_s": med("cascades.certify_classification", 2),
        "cascades.types": counter("cascades.types"),
        "morse.homology.s": med("morse.homology", 1),
        "morse.differential.s": med("morse.differential", 1),
        "morse.smith_invariant_factors.calls": calls("morse.smith_invariant_factors"),
        "morse.smith_invariant_factors.self_s": med("morse.smith_invariant_factors", 2),
        "morse.smith_per_matrix": (counter("morse.smith_in_homology") / matrices
                                   if matrices else 0.0),
        "orientation.fibre_sum_orientation.s": med("orientation.fibre_sum_orientation", 1),
        "orientation.quotient_orientation.s": med("orientation.quotient_orientation", 1),
        "orientation.det_sign.calls": calls("orientation.det_sign"),
        "orientation.det_sign.self_s": med("orientation.det_sign", 2),
        "orientation.matrix_rank.calls": calls("orientation.matrix_rank"),
        "orientation.matrix_rank.self_s": med("orientation.matrix_rank", 2),
        "orientation.kernel_basis.self_s": med("orientation.kernel_basis", 2),
        "profiles.orbit_level.s": med("profiles.orbit_level", 1),
        "profiles.check_admissible.s": med("profiles.check_admissible", 1),
        "cli.interpreter_ms": 0.0, "cli.import_ms": 0.0,
        "cli.command_ms": 0.0, "cli.render_self_ms": 0.0,
        "trace.untraced_pass_s": statistics.median(res["untraced_passes"]),
        "trace.traced_pass_s": statistics.median(res["traced_passes"]),
        "trace.spans_per_pass": res["spans_per_pass"],
        "host.kernel_ms": statistics.median(res["refs"]) * 1e3,
        "host.raw_pass_s": statistics.median(res["raw_passes"][:len(res["untraced_passes"])]),
    }
    m["trace.overhead_s"] = m["trace.traced_pass_s"] - m["trace.untraced_pass_s"]
    m.update(extra)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("catalog", "algebra", "cli"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("src/cascadix/cli.py", "data/cp2.json",
                           "tests/golden/enumerate_cp2.csv", "BENCHMARK.json")
               if not (root / p).is_file()]
    if missing:
        print(f"error: not the root of a cascadix checkout, missing {missing}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    broken = oracles.self_check(root)
    if broken:
        print("error: oracle self-check failed: " + "; ".join(broken), file=sys.stderr)
        return 1
    checker = Checker(root)
    try:
        env = child_env(root)
        warm_cache(root, env)
        failed = 0
        if args.workload == "cli" and args.trace:
            res, extra, attempted = run_cli_traced(args, root, env, checker)
            values = per_layer(res, extra)
        elif args.workload == "cli":
            segments, failed = run_cli(args, root, env, checker)
            values, attempted = end_to_end(args.workload, segments)
        else:
            results = run_workers(args, root, env, checker)
            if args.trace:
                values = per_layer(results[0], {})
                attempted = len(results[0]["latencies"])
            else:
                values, attempted = end_to_end(args.workload, results)
    except Failed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 1
    for p in checker.problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not checker.problems, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
