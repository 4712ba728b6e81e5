"""Seeded experiment pipelines and their report format.

Every pipeline emits an :class:`ExperimentReport`: a fixed-schema CSV
(`model,n,v,rule,metric,mean_ratio,violation_rate,unique_fraction,mean_time`,
'.' decimals, ',' separator, blank cells where a column does not apply)
plus a JSON twin carrying one record per instance.  Every row statistic
is computed from those records alone.  With ``include_times`` each record
also carries a ``times`` dict of measured wall-clock seconds, which
``mean_time`` averages; without it no record or row holds a time, and a
report is reproducible bit for bit from its seed.
"""

from __future__ import annotations

import csv
import io as stringio
import json
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields, replace
from itertools import product
from math import inf
from statistics import fmean
from typing import Any, Sequence

from .axioms import _first_inverted, _lrm_verdict, find_pta_condorcet_schedule, unanimous_pairs
from .errors import InvalidSpecError
from .generation import MODELS, GenSpec, canonical_model, generate
from .heuristics import lmt, local_search
from .metrics import score
from .model import Objective, PreferenceProfile, TaskSet, _is_int, _require_sizes, _shown
from .rules import EXACT_RULES
from .solver import SolveOptions, SolveReport, solve_exact

@dataclass(frozen=True, slots=True)
class ReportRow:
    """One aggregated result line, keyed by (model, n, v, rule, metric)."""

    model: str
    n: int
    v: int
    rule: str
    metric: str
    mean_ratio: float | None = None
    violation_rate: float | None = None
    unique_fraction: float | None = None
    mean_time: float | None = None


CSV_HEADER = tuple(f.name for f in fields(ReportRow))


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated rows plus per-instance detail for one pipeline run."""

    command: str
    params: dict[str, Any]
    rows: tuple[ReportRow, ...]
    instances: tuple[dict[str, Any], ...] = ()

    def to_csv(self) -> str:
        buffer = stringio.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.rows:
            writer.writerow([_cell(value) for value in asdict(row).values()])
        return buffer.getvalue()

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "params": self.params,
            "rows": [asdict(row) for row in self.rows],
            "instances": list(self.instances),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def instance_seed(base: int, *key: int) -> int:
    """Deterministic child seed for one instance of one experiment cell.

    The base seed and every key are reduced mod 2**32 before use, so a base
    of ``2**32`` gives the same children, and the same instances, as ``0``.
    Each must be an ``int`` (not a ``bool``): anything else raises
    :class:`InvalidSpecError` rather than being truncated to one.
    """
    import numpy as np  # imported on use: the solve path never loads numpy

    for value in (base, *key):
        if not _is_int(value):
            raise InvalidSpecError(f"instance_seed takes only integers, got {_shown(value)}")
    entropy = [value & 0xFFFFFFFF for value in (base, *key)]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _cells(models, ns, vs, instances, seed, length_range):
    """The seeded corpus shared by the pipelines, one cell per (model, n, v).

    Checks its arguments and returns ``(models, ns, vs, cells)``: the three
    axes as lists, each model name canonical, and an iterator of ``(model,
    n, v, draws)``.  ``draws`` yields ``(record, tasks, profile)`` for each
    instance ``i`` of the cell, generated from the child seed
    ``instance_seed(seed, MODELS.index(model), n, v, i)``, so a cell's
    instances do not depend on which other cells are run.  This starts
    each instance's record with its ``model``, ``n``, ``v`` and child
    ``seed``; a pipeline adds its own fields and appends the record, so
    after a cell its records are the last ``instances`` ones.
    """
    models = [canonical_model(m) for m in _listed("models", models)]
    ns, vs = _sizes("ns", ns), _sizes("vs", vs)
    _require_count("instances", instances)
    _require_seed(seed)

    def draws(model, n, v):
        for i in range(instances):
            child = instance_seed(seed, MODELS.index(model), n, v, i)
            record = {"model": model, "n": n, "v": v, "seed": child}
            yield (record, *generate(GenSpec(n, v, model, length_range, child)))

    return models, ns, vs, ((model, n, v, draws(model, n, v)) for model, n, v in product(models, ns, vs))


def run_compare(
    models: Sequence[str] = MODELS,
    ns: Sequence[int] = (5, 10),
    v: int = 100,
    instances: int = 50,
    seed: int = 0,
    length_range: tuple[int, int] = (1, 10),
    include_times: bool = True,
) -> ExperimentReport:
    """Cross-evaluate the three exact rules under the three metrics.

    For each instance and each rule the optimal schedule is computed, then
    scored under every metric and divided by that metric's own optimum.
    The diagonal ratio is exactly 1 by construction.  Each instance is
    compiled once; each rule's ``times`` entry is its ``solve_exact`` wall
    time, so ``sum-dev``'s includes the compile and the due tables it
    shares with ``sum-tard``, and ``pta-kemeny``'s its pair counts.
    """
    _require_count("v", v)
    models, ns, _, cells = _cells(models, ns, (v,), instances, seed, length_range)
    rows: list[ReportRow] = []
    details: list[dict[str, Any]] = []
    for model, n, v, draws in cells:
        for detail, tasks, profile in draws:
            reports = _solve_exact_rules(tasks, profile)
            detail["ratios"] = {
                rule: {
                    metric_rule: _ratio(score(rep.schedule, profile, objective), reports[metric_rule].optimal_score)
                    for metric_rule, objective in EXACT_RULES.items()
                }
                for rule, rep in reports.items()
            }
            if include_times:
                detail["times"] = {rule: rep.wall_time_s for rule, rep in reports.items()}
            details.append(detail)
        cell = details[-instances:]
        for rule in EXACT_RULES:
            for metric_rule, objective in EXACT_RULES.items():
                rows.append(
                    ReportRow(
                        model,
                        n,
                        v,
                        rule,
                        objective.value,
                        mean_ratio=fmean(d["ratios"][rule][metric_rule] for d in cell),
                        mean_time=_mean_time(cell, rule, include_times),
                    )
                )
    params = {
        "models": models,
        "ns": ns,
        "v": v,
        "instances": instances,
        "seed": seed,
        "length_range": list(length_range),
    }
    return ExperimentReport("compare", params, tuple(rows), tuple(details))


def run_lmt_eval(
    n: int = 10,
    v: int = 100,
    instances: int = 100,
    seed: int = 0,
    model: str = "uniform",
    length_range: tuple[int, int] = (1, 10),
    include_times: bool = True,
) -> ExperimentReport:
    """Quality of the median heuristic against the exact deviation optimum.

    Each instance is compiled, and its due tables built, once, by
    ``lmt``; all three rules read them.  So ``times["lmt"]`` covers the
    compile, the due tables and the median sort, ``times["lmt-ls"]`` that
    plus the descent, and ``times["sum-dev"]`` the exact solve on the
    shared tables.
    """
    _require_count("n", n)
    _require_count("v", v)
    details: list[dict[str, Any]] = []
    *_, cells = _cells((model,), (n,), (v,), instances, seed, length_range)
    ((model, _, _, draws),) = cells
    for detail, tasks, profile in draws:
        started = time.perf_counter()
        start = lmt(tasks, profile)
        lmt_seconds = time.perf_counter() - started
        _, trace = local_search(start, profile, Objective.SUM_DEVIATION)
        ls_seconds = time.perf_counter() - started
        exact = solve_exact(tasks, profile, Objective.SUM_DEVIATION)

        detail.update(
            ratio_lmt=_ratio(trace.start_score, exact.optimal_score),
            ratio_lmt_ls=_ratio(trace.final_score, exact.optimal_score),
            search_steps=len(trace.steps),
            terminated_by=trace.terminated_by,
        )
        if include_times:
            detail["times"] = {"lmt": lmt_seconds, "lmt-ls": ls_seconds, "sum-dev": exact.wall_time_s}
        details.append(detail)
    metric = Objective.SUM_DEVIATION.value
    pre = fmean(d["ratio_lmt"] for d in details)
    post = fmean(d["ratio_lmt_ls"] for d in details)
    rows = tuple(
        ReportRow(model, n, v, rule, metric, mean_ratio=ratio, mean_time=_mean_time(details, rule, include_times))
        for rule, ratio in (("lmt", pre), ("lmt-ls", post), ("sum-dev", 1.0))
    )
    params = {
        "model": model,
        "n": n,
        "v": v,
        "instances": instances,
        "seed": seed,
        "length_range": list(length_range),
    }
    return ExperimentReport("lmt-eval", params, rows, tuple(details))


def run_lrm_audit(
    instances: int = 1200,
    n: int = 8,
    v: int = 50,
    seed: int = 0,
    length_range: tuple[int, int] = (1, 10),
    include_times: bool = True,
    reduction: str = "unit",
) -> ExperimentReport:
    """Length-reduction monotonicity rates for the three exact rules.

    Half the corpus uses uniform ballots, half Plackett-Luce.  Each
    instance shortens one uniformly chosen task with length at least 2 and
    asks each rule whether the task's start time moved later.  With the
    default ``reduction="unit"`` policy the target loses one time unit;
    ``reduction="uniform"`` redraws its length uniformly below the old
    value, a harsher perturbation that roughly triples the violation rate
    of the deviation rule.  Each rule is solved on the instance and on its
    reduced copy, each of the two compiled once.  ``times["instance"]``
    covers the whole instance, compiles included.
    """
    import numpy as np  # imported on use: the solve path never loads numpy

    _require_count("instances", instances)
    _require_count("n", n)
    _require_count("v", v)
    _require_seed(seed)
    if reduction not in ("unit", "uniform"):
        raise InvalidSpecError(f"unknown reduction policy {_shown(reduction)}")
    longest = length_range[-1] if isinstance(length_range, (tuple, list)) and len(length_range) == 2 else None
    # GenSpec rejects every other malformed range
    if _is_int(longest) and longest < 2:
        raise InvalidSpecError(f"no task can be shortened with lengths in {_shown(length_range)}")
    details: list[dict[str, Any]] = []
    for i in range(instances):
        model = MODELS[0] if i < (instances + 1) // 2 else MODELS[1]
        chooser = np.random.default_rng(instance_seed(seed, i, 0xC0FFEE))
        for attempt in range(1000):
            child = instance_seed(seed, MODELS.index(model), n, v, i, attempt)
            tasks, profile = generate(GenSpec(n, v, model, length_range, child))
            reducible = [tid for tid in tasks.ids if tasks.length(tid) >= 2]
            if reducible:
                break
        started = time.perf_counter()
        target = reducible[int(chooser.integers(len(reducible)))]
        if reduction == "unit":
            reduced_length = tasks.length(target) - 1
        else:
            reduced_length = int(chooser.integers(1, tasks.length(target)))
        before = _solve_exact_rules(tasks, profile)
        reduced = PreferenceProfile(tasks.with_length(target, reduced_length), profile.groups)
        after = _solve_exact_rules(reduced.tasks, reduced)
        detail = {
            "model": model,
            "seed": child,
            "target": target,
            "old_length": tasks.length(target),
            "new_length": reduced_length,
            "verdicts": {},
        }
        for rule in EXACT_RULES:
            verdict = _lrm_verdict(target, tasks, reduced.tasks, before[rule].schedule, after[rule].schedule)
            detail["verdicts"][rule] = bool(verdict.holds)
            if not verdict.holds:
                detail.setdefault("witnesses", {})[rule] = {
                    "start_before": verdict.witness["start_before"],
                    "start_after": verdict.witness["start_after"],
                }
        if include_times:
            detail["times"] = {"instance": time.perf_counter() - started}
        details.append(detail)

    rows: list[ReportRow] = []
    # one block of rows per model that drew instances, then one over them all
    for model in (*MODELS, "all"):
        records = details if model == "all" else [d for d in details if d["model"] == model]
        if not records:
            continue
        for rule in EXACT_RULES:
            rows.append(
                ReportRow(
                    model,
                    n,
                    v,
                    rule,
                    "length-reduction-monotonicity",
                    violation_rate=sum(not d["verdicts"][rule] for d in records) / len(records),
                    mean_time=_mean_time(records, "instance", include_times) if model == "all" else None,
                )
            )
    params = {
        "instances": instances,
        "n": n,
        "v": v,
        "seed": seed,
        "length_range": list(length_range),
        "reduction": reduction,
    }
    return ExperimentReport("lrm-audit", params, tuple(rows), tuple(details))


def run_uniqueness_audit(
    models: Sequence[str] = MODELS,
    ns: Sequence[int] = (5, 8),
    vs: Sequence[int] = (100, 250),
    instances: int = 100,
    seed: int = 0,
    length_range: tuple[int, int] = (1, 10),
    include_times: bool = True,
) -> ExperimentReport:
    """How often each exact rule has a single optimal schedule."""
    models, ns, vs, cells = _cells(models, ns, vs, instances, seed, length_range)
    rows: list[ReportRow] = []
    details: list[dict[str, Any]] = []
    for model, n, v, draws in cells:
        for detail, tasks, profile in draws:
            reports = _solve_exact_rules(tasks, profile)
            detail["optimum_count"] = {rule: report.optimum_count for rule, report in reports.items()}
            if include_times:
                detail["times"] = {rule: report.wall_time_s for rule, report in reports.items()}
            details.append(detail)
        cell = details[-instances:]
        for rule in EXACT_RULES:
            rows.append(
                ReportRow(
                    model,
                    n,
                    v,
                    rule,
                    "uniqueness",
                    unique_fraction=sum(d["optimum_count"][rule] == 1 for d in cell) / instances,
                    mean_time=_mean_time(cell, rule, include_times),
                )
            )
    params = {
        "models": models,
        "ns": ns,
        "vs": vs,
        "instances": instances,
        "seed": seed,
        "length_range": list(length_range),
    }
    return ExperimentReport("uniqueness-audit", params, tuple(rows), tuple(details))


def run_audit_axioms(
    models: Sequence[str] = MODELS,
    ns: Sequence[int] = (6, 8),
    v: int = 50,
    instances: int = 100,
    seed: int = 0,
    length_range: tuple[int, int] = (1, 10),
    cap: int = 1000,
    include_times: bool = True,
) -> ExperimentReport:
    """Precedence-constraint and unanimity verdicts for each exact rule.

    Constraint consistency is judged only on instances where a fully
    consistent schedule exists.  For the pairwise rule, every enumerated
    optimum is checked, not just the tie-broken representative.  Each
    instance is compiled once, and ``times["instance"]`` covers all of it.
    """
    _require_count("cap", cap)
    _require_sizes(cap=cap)  # enumerate_optima's islice refuses a cap past sys.maxsize
    _require_count("v", v)
    models, ns, _, cells = _cells(models, ns, (v,), instances, seed, length_range)
    rows: list[ReportRow] = []
    details: list[dict[str, Any]] = []
    for model, n, v, draws in cells:
        for detail, tasks, profile in draws:
            started = time.perf_counter()
            unanimous = unanimous_pairs(profile)
            consistent = find_pta_condorcet_schedule(profile)
            detail.update(has_consistent_schedule=consistent is not None, rules={})
            # pta-kemeny is solved once, for its schedule and, where a
            # consistent schedule exists, for the optima checked below
            options = SolveOptions(enumerate_all=True, optimum_cap=cap) if consistent is not None else None
            kemeny = solve_exact(tasks, profile, Objective.PTA_KENDALL_TAU, options)
            for rule, objective in EXACT_RULES.items():
                schedule = kemeny.schedule if rule == "pta-kemeny" else solve_exact(tasks, profile, objective).schedule
                entry: dict[str, Any] = {}
                if consistent is not None:
                    entry["pta_condorcet"] = schedule == consistent
                entry["unanimity"] = _first_inverted(schedule, tasks, unanimous) is None
                detail["rules"][rule] = entry
            if consistent is not None:
                detail["kemeny_optima_consistent"] = kemeny.optima == (consistent,) if kemeny.optima_complete else None
            if include_times:
                detail["times"] = {"instance": time.perf_counter() - started}
            details.append(detail)
        cell = details[-instances:]
        applicable = sum(d["has_consistent_schedule"] for d in cell)
        optima_verdicts = [d.get("kemeny_optima_consistent") for d in cell]
        optima_checked = len(optima_verdicts) - optima_verdicts.count(None)
        for rule in EXACT_RULES:
            entries = [d["rules"][rule] for d in cell]
            condorcet_violations = sum(e.get("pta_condorcet") is False for e in entries)
            rates = {
                "pta-condorcet": (condorcet_violations / applicable) if applicable else None,
                "unanimity": sum(not e["unanimity"] for e in entries) / instances,
            }
            for metric, rate in rates.items():
                rows.append(ReportRow(model, n, v, rule, metric, violation_rate=rate))
        rows.append(
            ReportRow(
                model,
                n,
                v,
                "pta-kemeny",
                "pta-condorcet-all-optima",
                violation_rate=(optima_verdicts.count(False) / optima_checked) if optima_checked else None,
            )
        )
    per_instance = _mean_time(details, "instance", include_times)
    rows = [replace(r, mean_time=per_instance) if r.metric == "pta-condorcet-all-optima" else r for r in rows]
    params = {
        "models": models,
        "ns": ns,
        "v": v,
        "instances": instances,
        "seed": seed,
        "cap": cap,
        "length_range": list(length_range),
    }
    return ExperimentReport("audit-axioms", params, tuple(rows), tuple(details))


def _solve_exact_rules(tasks: TaskSet, profile: PreferenceProfile) -> dict[str, SolveReport]:
    """Each exact rule's solve of one instance, all on its one compiled form."""
    return {rule: solve_exact(tasks, profile, objective) for rule, objective in EXACT_RULES.items()}


def _cell(value: Any) -> Any:
    # statistics print with six decimals, inapplicable columns as blanks
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".6f")
    return value


def _ratio(value: int, optimum: int) -> float:
    if optimum == 0:
        return 1.0 if value == 0 else inf
    return value / optimum


def _mean_time(records: Sequence[dict[str, Any]], key: str, include: bool) -> float | None:
    # an empty corpus (no models or sizes requested) has no time to report
    return fmean(r["times"][key] for r in records) if include and records else None


def _listed(name: str, values: Iterable[Any]) -> list[Any]:
    # a string is iterable, but as a list of models it would be read letter by letter
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise InvalidSpecError(f"{name} must be a list, got {_shown(values)}")
    return list(values)


def _sizes(name: str, values: Iterable[Any]) -> list[int]:
    # checked before any seed is derived from them, so the message names the argument
    values = _listed(name, values)
    for value in values:
        if not _is_int(value, 1):
            raise InvalidSpecError(f"{name} must hold positive integers, got {_shown(value)}")
    return values


def _require_count(name: str, value: int) -> None:
    if not _is_int(value, 1):
        raise InvalidSpecError(f"{name} must be a positive integer, got {_shown(value)}")


def _require_seed(seed: int) -> None:
    # checked up front: a run with no cell to draw never calls instance_seed
    if not _is_int(seed):
        raise InvalidSpecError(f"seed must be an integer, got {_shown(seed)}")
