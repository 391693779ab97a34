"""Spans around the public functions of cascadix modules, for traced runs.

`Tracer.install` replaces every public module-level function of the given
modules, in every module that holds a reference to it, with a wrapper that
records a span (name, start, end, parent span).  Self time is a span's
duration minus the durations of its child spans.  Aggregates are kept per
pass; the spans of one pass are kept in memory and written out at the end
of the run.  `uninstall` puts the original functions back, so untraced
passes in the same process run the unmodified program.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from collections import Counter
from time import perf_counter

# Modules whose public functions get spans; spectrum, fredholm and selfcheck
# are not on the measured paths.
LAYERS = ("model", "grading", "pearls", "cascades", "morse", "orientation",
          "profiles")


def layer_modules():
    return [importlib.import_module(f"cascadix.{name}") for name in LAYERS]


class Tracer:
    def __init__(self, modules, also=()):
        self.modules = list(modules)
        self.also = list(also)         # modules whose references are rebound
        self.originals = []            # (module, attribute, function)
        self.stack = []                # [child seconds, span index, name]
        self.active = Counter()        # names currently on the stack
        self.stats = {}                # name -> [calls, inclusive s, self s]
        self.counters = Counter()
        self.spans = None              # [name, start, end, parent] while recording
        self.recorded = []             # the spans of the first traced pass
        self.per_pass = []             # aggregates of each traced pass

    # -- wrapping ---------------------------------------------------------

    def install(self):
        targets = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for mod in self.modules + self.also:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self.originals.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, fn in self.originals:
            setattr(mod, attr, fn)
        self.originals = []

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def call(self, name, fn, args=(), kwargs=None):
        """Run fn inside a span called name."""
        stack = self.stack
        index = -1
        if self.spans is not None:
            index = len(self.spans)
            parent = stack[-1][1] if stack else -1
            self.spans.append([name, 0.0, 0.0, parent])
        self.active[name] += 1
        stack.append([0.0, index, name])
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            child, _, _ = stack.pop()
            self.active[name] -= 1
            dur = end - start
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - child
            if stack:
                stack[-1][0] += dur
            if index >= 0:
                self.spans[index][1] = start
                self.spans[index][2] = end

    # -- per pass ---------------------------------------------------------

    def take(self):
        """Aggregates since the last take, and reset."""
        out = {"stats": self.stats, "counters": dict(self.counters)}
        self.stats, self.counters = {}, Counter()
        return out

    def start_passes(self):
        """Install the wrappers and record spans until the first end_pass."""
        self.take()
        self.spans = []
        self.install()

    def end_pass(self):
        self.per_pass.append(self.take())
        if self.spans is not None:
            self.recorded, self.spans = self.spans, None

    def write(self, path):
        """Write the recorded spans as gzip'd CSV: id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.recorded):
                fh.write(f"{i},{parent},{name},{start:.9f},{end:.9f}\n")


def _feasible(tracer, args, result):
    if result.feasible:
        tracer.counters["cascades.classify_type.feasible"] += 1


def _smith(tracer, args, result):
    if tracer.active["morse.homology"] and args and args[0]:
        tracer.counters["morse.smith_in_homology"] += 1


def _differential(tracer, args, result):
    if tracer.active["morse.homology"]:
        tracer.counters["morse.matrices_in_homology"] += sum(
            1 for m in result.values() if m)


def _certified(tracer, args, result):
    tracer.counters["cascades.types"] += len(result.types)


def _enumerated(tracer, args, result):
    if not tracer.active["cascades.certify_classification"]:
        tracer.counters["cascades.types"] += len(result.types)


HOOKS = {
    "cascades.certify_classification": _certified,
    "cascades.enumerate_contributions": _enumerated,
    "cascades.classify_type": _feasible,
    "morse.smith_invariant_factors": _smith,
    "morse.differential": _differential,
}
