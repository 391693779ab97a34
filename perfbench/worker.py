"""One segment of the catalog or algebra workload, in its own process.

    python3 perfbench/worker.py --workload catalog --seed 1 --budget 8 --trace 0

The worker imports cascadix, loads the setups or builds the seeded inputs,
warms up, then runs whole passes over the workload's operation list, one
operation at a time, until its time budget is spent.  It prints one JSON
object: when its first timed operation started (perf_counter, which the
parent shares, so it can time the set-up from the launch), every operation's latency
and every pass's time in reference seconds (see hostspeed.py), the raw pass
times and kernel times, and each operation's output in a canonical form (taken
once per op id; later repeats are compared against it).  With --trace 1 it
runs half its budget untraced and half traced, and adds per-layer
aggregates.  Outputs are checked by the parent, not here, so that the
oracles' memory and time do not count against the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads


def _space(orientation, s):
    return orientation.OrientedSpace(s["dim"], tuple(map(tuple, s["basis"])), s["sign"])


def _map(orientation, m):
    return orientation.LinearMapSpec(tuple(tuple(Fraction(x) for x in r) for r in m))


def _frame(frame):
    return {"vectors": [[str(x) for x in v] for v in frame.vectors],
            "sign": frame.sign}


def _vec(v):
    return "(" + ",".join(str(int(c)) for c in v) + ")"


def _type_row(t):
    """The first 13 catalog columns of one cascade type."""
    return [t.target.display_name, t.source.display_name,
            str(t.case_label.value), str(t.n_levels), str(t.n_constant),
            str(t.n_nonconstant), str(t.aug_count),
            "" if t.k_minus is None else str(t.k_minus),
            "" if t.k_plus is None else str(t.k_plus),
            ";".join(str(m) for m in t.multiplicities),
            ";".join(_vec(a) for a in t.classes_a),
            "" if t.sphere_b is None else _vec(t.sphere_b),
            ";".join(f"{a.level}:{_vec(a.class_b)}" for a in t.aug)]


def prepare(workload, seed, root):
    """Import the program, build the inputs and warm up; return the plan,
    a list of (op, thunk, canonical form of its result)."""
    from cascadix import cascades, model, morse, orientation
    plan = []
    if workload == "catalog":
        setups = {s: model.load_setup(root / "data" / f"{s}.json")
                  for s in workloads.SETUPS}
        for s, k, c in workloads.CATALOG_WARMUP:
            cascades.certify_classification(setups[s], k, c)

        def canon(report):
            return {"rows": [_type_row(t) for t in report.types],
                    "summary": report.summary(),
                    "warnings": list(report.warnings),
                    "violations": list(report.violations)}

        for op in workloads.catalog_ops():
            args = (setups[op["setup"]], op["kmax"], op["classbound"])
            plan.append((op, (lambda a=args: cascades.certify_classification(*a)),
                         canon))
        return plan

    def complex_data(cx):
        names = {d: [f"c{d}_{i}" for i in range(n)] for d, n in cx["counts"].items()}
        return morse.MorseData(
            tuple(morse.MorsePoint(name, d) for d, ns in names.items() for name in ns),
            tuple(morse.SignedFlow(names[d][j], names[d - 1][i], v)
                  for d, rows in cx["matrices"].items()
                  for i, row in enumerate(rows) for j, v in enumerate(row) if v))

    for op in workloads.algebra_ops(seed):
        if op["kind"] == "homology":
            data = complex_data(op["complex"])
            plan.append((op, (lambda x=data: morse.homology(x)),
                         lambda h: [[d, b, list(t)] for d, b, t in h]))
        elif op["kind"] == "fibre_sum":
            i = op["instance"]
            args = (_space(orientation, i["v1"]), _space(orientation, i["v2"]),
                    _space(orientation, i["w"]), _map(orientation, i["f1"]),
                    _map(orientation, i["f2"]))
            plan.append((op, (lambda a=args: orientation.fibre_sum_orientation(*a)),
                         _frame))
        else:
            i = op["instance"]
            sub = orientation.IncludedSubspace(_space(orientation, i["sub"]),
                                               _map(orientation, i["inclusion"]))
            args = (_space(orientation, i["total"]), sub)
            plan.append((op, (lambda a=args: orientation.quotient_orientation(*a)),
                         _frame))
    # warm-up: one small call of each kind
    morse.homology(complex_data(
        workloads.build_complex(workloads.op_rng(seed, "warm-up"), 2, 6, 4)))
    inst = workloads.fibre_sum_instance(workloads.op_rng(seed, "warm-up"), 2, 1, 1)
    orientation.fibre_sum_orientation(
        *(_space(orientation, inst[k]) for k in ("v1", "v2", "w")),
        _map(orientation, inst["f1"]), _map(orientation, inst["f2"]))
    return plan


class Segment:
    def __init__(self, plan, tracer=None):
        self.plan = plan
        self.tracer = tracer
        self.clock = hostspeed.Clock()
        self.latencies = []            # [op id, reference seconds]
        self.passes = []               # reference seconds per pass (sum of op times)
        self.raw_passes = []           # wall seconds per pass
        self.outputs = {}              # op id -> canonical output
        self.mismatches = []

    def run_pass(self, traced=False):
        total = raw_total = 0.0
        for op, thunk, canon in self.plan:
            if traced:
                result, raw, dur = self.clock.time(self.tracer.call, "op", thunk)
            else:
                result, raw, dur = self.clock.time(thunk)
            total += dur
            raw_total += raw
            self.latencies.append([op["id"], dur])
            out = canon(result)
            first = self.outputs.setdefault(op["id"], out)
            if out != first:
                self.mismatches.append(op["id"])
        self.passes.append(total)
        self.raw_passes.append(raw_total)
        return total

    def run_for(self, budget, traced=False, after_pass=None):
        return run_passes(budget, lambda: self.run_pass(traced), after_pass)


def run_passes(budget, one_pass, after_pass=None):
    """Whole passes until the budget of wall seconds is spent (at least
    one); a pass is started only if at least half the median wall time of a
    pass so far still fits, so a run lasts about its budget.  Returns what
    one_pass returned for each pass."""
    start = perf_counter()
    times, walls = [], []
    while True:
        began = perf_counter()
        times.append(one_pass())
        walls.append(perf_counter() - began)
        if after_pass is not None:
            after_pass()
        if perf_counter() - start + statistics.median(walls) / 2 > budget:
            return times


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("catalog", "algebra"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    root = Path.cwd()

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(spans.layer_modules())
        tracer.install()
    plan = workloads.pass_order(args.seed, prepare(args.workload, args.seed, root))
    seg = Segment(plan, tracer)
    result = {}
    if tracer is None:
        result["first_op_at"] = perf_counter()
        result["first_ref"] = seg.clock.ref()
        seg.run_for(args.budget)
    else:
        result["setup_layers"] = tracer.take()
        tracer.uninstall()
        result["first_op_at"] = perf_counter()
        result["first_ref"] = seg.clock.ref()
        result["untraced_passes"] = seg.run_for(args.budget / 2)
        tracer.start_passes()
        result["traced_passes"] = seg.run_for(args.budget / 2, True, tracer.end_pass)
        tracer.uninstall()
        result["layers"] = tracer.per_pass
        result["spans_per_pass"] = len(tracer.recorded)
        if args.trace_out:
            tracer.write(args.trace_out)
    result.update(latencies=seg.latencies, passes=seg.passes,
                  raw_passes=seg.raw_passes, refs=seg.clock.refs,
                  outputs=seg.outputs, mismatches=seg.mismatches)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
