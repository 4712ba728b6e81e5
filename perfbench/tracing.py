"""Outside-in tracing of the collective_schedules layers.

Every public function of each layer module is wrapped in a span recorder.
The modules bind each other's names at import (``from .metrics import
score``, ``from .model import require_valid_profile``), so the wrapper is
rebound at every import site inside the package; patching only the
defining module would let those calls escape the trace.

Spans stay in memory as tuples and are written out when the benchmark
ends.  A span's self time is its duration minus the durations of its
child spans; the run is single-threaded, so children nest strictly.

This module must not import numpy: the traced CLI child times the numpy
import itself after loading it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "collective_schedules"
LAYERS = (
    "model",
    "metrics",
    "solver",
    "heuristics",
    "rules",
    "axioms",
    "generation",
    "experiments",
    "io",
    "cli",
)

# Functions whose calls and self time are reported by name; layer totals
# cover every other wrapped function.
CALLS = (
    "model.validate_profile",
    "metrics.score",
    "metrics.pairwise_counts",
    "solver.solve_exact",
    "solver.enumerate_optima",
    "axioms.pta_condorcet_constraints",
    "axioms.lrm_probe",
    "generation.generate",
)
SELF = CALLS + (
    "cli.main",
    "io.read_instance",
    "heuristics.lmt",
    "heuristics.local_search",
    "rules.apply_rule",
    "axioms.unanimous_pairs",
    "experiments.run_audit_axioms",
    "experiments.run_lrm_audit",
)

# name -> unit, in the order the benchmark prints them
PER_LAYER_UNITS: dict[str, str] = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.self_s": "s" for name in SELF},
    "model.groups_per_voter": "ratio",
    "solver.states_explored": "count",
    "solver.solve_exact.s_per_state": "s/state",
    "solver.optima_enumerated": "count",
    "heuristics.local_search.steps": "count",
    "heuristics.local_search.swaps_scored": "count",
    "heuristics.local_search.useful_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "op.traced_s": "s",
    "calibration.slowdown": "ratio",
    "trace.untraced_instances_per_ref_s": "1/ref_s",
    "trace.traced_instances_per_ref_s": "1/ref_s",
    "trace.overhead_instances_per_ref_s": "1/ref_s",
}


def _observe_validate(counters, args, result):
    counters["groups"] += len(args[0].groups)
    counters["voters"] += result.voter_count


def _observe_solve(counters, args, result):
    counters["states"] += result.states_explored
    if result.optima is not None:
        counters["optima"] += len(result.optima)


def _observe_search(counters, args, result):
    schedule, trace = result
    steps = len(trace.steps)
    # each loop iteration that is not cut by the step cap scores every
    # adjacent swap; the last one finds no improvement at a local optimum
    scored_rounds = steps + (trace.terminated_by == "local-optimum")
    counters["steps"] += steps
    counters["swaps"] += scored_rounds * (len(schedule.order) - 1)


OBSERVERS = {
    "model.validate_profile": _observe_validate,
    "solver.solve_exact": _observe_solve,
    "heuristics.local_search": _observe_search,
}


class Tracer:
    """Records one span per call of a public layer function.

    Use as a context manager: entering wraps and rebinds, leaving restores
    every original binding.  ``op`` tags the spans of one operation.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, span_id, parent_id, name, start, end, error)
        self.counters: Counter = Counter()
        self.imports: list[tuple[float, float]] = []  # (numpy, package) per fresh process
        self.op: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack, ids, counters = self.spans, self._stack, self._ids, self.counters
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((self.op, span_id, parent, name, start, end, error))
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def dump(self) -> dict:
        """Spans, counters and import times as one JSON-ready document."""
        return {"spans": self.spans, "counters": dict(self.counters), "imports": self.imports}

    def merge(self, doc: dict, op: int) -> None:
        """Add the spans of a traced child process, tagged with ``op``."""
        renumbered = {span[1]: next(self._ids) for span in doc["spans"]}
        for _, span_id, parent, name, start, end, error in doc["spans"]:
            self.spans.append((op, renumbered[span_id], renumbered.get(parent), name, start, end, error))
        self.counters.update(doc["counters"])
        self.imports.extend(tuple(pair) for pair in doc["imports"])

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump(self.dump(), out)

    def self_times(self) -> tuple[Counter, Counter, Counter]:
        """Per function name: calls, summed self seconds, and errors."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, self_s, errors = Counter(), Counter(), Counter()
        for _, span_id, _, name, start, end, error in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[span_id]
            errors[name] += error
        return calls, self_s, errors

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation layer metrics over ``ops`` traced operations."""
        calls, self_s, _ = self.self_times()
        c = self.counters
        out: dict[str, float] = {}
        if self.imports:
            out["cli.import_numpy_s"] = sum(numpy for numpy, _ in self.imports) / len(self.imports)
            out["cli.import_s"] = sum(package for _, package in self.imports) / len(self.imports)
        for name in CALLS:
            out[f"{name}.calls"] = calls[name] / ops
        for name in SELF:
            out[f"{name}.self_s"] = self_s[name] / ops
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer) / ops
        out["model.groups_per_voter"] = c["groups"] / c["voters"] if c["voters"] else 0.0
        out["solver.states_explored"] = c["states"] / ops
        out["solver.solve_exact.s_per_state"] = self_s["solver.solve_exact"] / c["states"] if c["states"] else 0.0
        out["solver.optima_enumerated"] = c["optima"] / ops
        out["heuristics.local_search.steps"] = c["steps"] / ops
        out["heuristics.local_search.swaps_scored"] = c["swaps"] / ops
        out["heuristics.local_search.useful_ratio"] = c["steps"] / c["swaps"] if c["swaps"] else 0.0
        return out
