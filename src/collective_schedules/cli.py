"""Command-line harness around the solvers, audits, and experiments.

Exit codes: 0 on success, 2 for invalid input (bad arguments, malformed
instance files, profiles that fail validation), 3 when an instance
exceeds the exact-solver size guard.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .errors import (
    DuplicateTaskError,
    InstanceFormatError,
    InvalidReductionError,
    InvalidSpecError,
    MismatchedTaskSetError,
    TooManyTasksError,
    UnknownTaskError,
)
from .experiments import (
    ExperimentReport,
    run_audit_axioms,
    run_bench,
    run_compare,
    run_lmt_eval,
    run_lrm_audit,
    run_uniqueness_audit,
)
from .generation import MODELS, GenSpec, canonical_model, generate
from .heuristics import lmt, local_search
from .io import dumps_instance, read_instance
from .metrics import score
from .model import Objective, Schedule, validate_profile
from .rules import EXACT_RULES, RULE_NAMES, RULE_OBJECTIVE
from .solver import SolveOptions, solve_exact


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except TooManyTasksError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (
        InstanceFormatError,
        InvalidSpecError,
        InvalidReductionError,
        UnknownTaskError,
        DuplicateTaskError,
        MismatchedTaskSetError,
        ValueError,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collective-schedules",
        description="Aggregate voters' preferred task orders into consensus schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--model", default="uniform", help=f"ballot model ({', '.join(MODELS)}, or u/c)")
    gen.add_argument("--tasks", type=int, required=True, help="number of tasks")
    gen.add_argument("--voters", type=int, required=True, help="number of voters")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--len-min", type=int, default=1, help="smallest task length")
    gen.add_argument("--len-max", type=int, default=10, help="largest task length")
    gen.add_argument("--out", help="write the instance here instead of stdout")
    gen.set_defaults(handler=_cmd_gen)

    solve = sub.add_parser("solve", help="run one rule on an instance file")
    solve.add_argument("--rule", required=True, choices=RULE_NAMES)
    solve.add_argument("--input", required=True, help="instance file (JSON)")
    solve.add_argument("--all-optima", action="store_true", help="enumerate all optimal schedules")
    solve.add_argument("--cap", type=int, default=1000, help="enumeration cap")
    solve.add_argument("--max-tasks", type=int, default=20, help="exact-solver size guard")
    solve.add_argument(
        "--evaluate",
        metavar="ORDER",
        help="comma-separated task ids: score this schedule under the rule's objective instead of solving",
    )
    solve.add_argument("--out", help="write the report here instead of stdout")
    solve.set_defaults(handler=_cmd_solve)

    compare = sub.add_parser("compare", help="cross-evaluate the exact rules under all metrics")
    compare.add_argument("--models", default="u,c", help="comma-separated ballot models")
    compare.add_argument("--tasks", default="5,10", help="comma-separated task counts")
    compare.add_argument("--voters", type=int, default=100)
    compare.add_argument("--instances", type=int, default=50)
    _experiment_flags(compare)
    compare.set_defaults(handler=_cmd_compare)

    lmt_eval = sub.add_parser("lmt-eval", help="median heuristic quality versus the exact optimum")
    lmt_eval.add_argument("--model", default="uniform")
    lmt_eval.add_argument("--tasks", type=int, default=10)
    lmt_eval.add_argument("--voters", type=int, default=100)
    lmt_eval.add_argument("--instances", type=int, default=100)
    _experiment_flags(lmt_eval)
    lmt_eval.set_defaults(handler=_cmd_lmt_eval)

    lrm = sub.add_parser("lrm-audit", help="length-reduction monotonicity audit")
    lrm.add_argument("--instances", type=int, default=1200)
    lrm.add_argument("--tasks", type=int, default=8)
    lrm.add_argument("--voters", type=int, default=50)
    lrm.add_argument(
        "--reduction",
        choices=("unit", "uniform"),
        default="unit",
        help="shrink the target by one unit or to a uniformly drawn smaller length",
    )
    _experiment_flags(lrm)
    lrm.set_defaults(handler=_cmd_lrm_audit)

    uniq = sub.add_parser("uniqueness-audit", help="how often each rule's optimum is unique")
    uniq.add_argument("--models", default="u,c")
    uniq.add_argument("--tasks", default="5,8")
    uniq.add_argument("--voters", default="100,250", help="comma-separated voter counts")
    uniq.add_argument("--instances", type=int, default=100)
    _experiment_flags(uniq)
    uniq.set_defaults(handler=_cmd_uniqueness)

    audit = sub.add_parser("audit-axioms", help="precedence and unanimity verdicts per rule")
    audit.add_argument("--models", default="u,c")
    audit.add_argument("--tasks", default="6,8")
    audit.add_argument("--voters", type=int, default=50)
    audit.add_argument("--instances", type=int, default=100)
    audit.add_argument("--cap", type=int, default=1000)
    _experiment_flags(audit)
    audit.set_defaults(handler=_cmd_audit_axioms)

    bench = sub.add_parser("bench", help="wall-time measurements per rule")
    bench.add_argument("--models", default="u")
    bench.add_argument("--tasks", default="8,10,12")
    bench.add_argument("--voters", default="50")
    bench.add_argument("--rules", default=",".join(RULE_NAMES))
    bench.add_argument("--instances", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", help="write the CSV here instead of stdout")
    bench.add_argument("--json", dest="json_out", help="write the JSON twin here")
    bench.set_defaults(handler=_cmd_bench)

    return parser


def _experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="write the CSV here instead of stdout")
    sub.add_argument("--json", dest="json_out", help="write the JSON twin here")
    sub.add_argument(
        "--no-times",
        action="store_true",
        help="omit wall times so reports with equal seeds are byte-identical",
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(
        n=args.tasks,
        v=args.voters,
        model=canonical_model(args.model),
        length_range=(args.len_min, args.len_max),
        seed=args.seed,
    )
    tasks, profile = generate(spec)
    _write_text(args.out, dumps_instance(tasks, profile))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    tasks, profile = read_instance(args.input)
    validation = validate_profile(profile)
    if not validation.ok:
        for defect in validation.defects:
            print(f"invalid instance: {defect.message}", file=sys.stderr)
        return 2
    objective = RULE_OBJECTIVE[args.rule]

    if args.evaluate is not None:
        order = Schedule(tuple(tid.strip() for tid in args.evaluate.split(",")))
        payload = {
            "rule": args.rule,
            "objective": objective.value,
            "schedule": list(order.order),
            "score": score(order, profile, objective),
        }
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
        return 0

    if args.rule in EXACT_RULES:
        options = SolveOptions(
            enumerate_all=args.all_optima,
            optimum_cap=args.cap,
            max_tasks=args.max_tasks,
        )
        report = solve_exact(tasks, profile, objective, options)
        payload = {
            "rule": args.rule,
            "objective": objective.value,
            "score": report.optimal_score,
            "schedule": list(report.schedule.order),
            "optimum_count": report.optimum_count,
            "optima_complete": report.optima_complete,
            "states_explored": report.states_explored,
            "wall_time_s": report.wall_time_s,
        }
        if report.optima is not None:
            payload["optima"] = [list(s.order) for s in report.optima]
    else:
        started = time.perf_counter()
        schedule = lmt(tasks, profile)
        payload = {"rule": args.rule, "objective": objective.value}
        if args.rule == "lmt-ls":
            schedule, trace = local_search(schedule, profile, objective)
            payload["search_steps"] = len(trace.steps)
            payload["terminated_by"] = trace.terminated_by
            payload["score"] = trace.final_score
        else:
            payload["score"] = score(schedule, profile, objective)
        payload["schedule"] = list(schedule.order)
        payload["wall_time_s"] = time.perf_counter() - started
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    report = run_compare(
        models=_split(args.models),
        ns=_int_list(args.tasks),
        v=args.voters,
        instances=args.instances,
        seed=args.seed,
        include_times=not args.no_times,
    )
    return _emit(report, args)


def _cmd_lmt_eval(args: argparse.Namespace) -> int:
    report = run_lmt_eval(
        n=args.tasks,
        v=args.voters,
        instances=args.instances,
        seed=args.seed,
        model=args.model,
        include_times=not args.no_times,
    )
    return _emit(report, args)


def _cmd_lrm_audit(args: argparse.Namespace) -> int:
    report = run_lrm_audit(
        instances=args.instances,
        n=args.tasks,
        v=args.voters,
        seed=args.seed,
        include_times=not args.no_times,
        reduction=args.reduction,
    )
    return _emit(report, args)


def _cmd_uniqueness(args: argparse.Namespace) -> int:
    report = run_uniqueness_audit(
        models=_split(args.models),
        ns=_int_list(args.tasks),
        vs=_int_list(args.voters),
        instances=args.instances,
        seed=args.seed,
        include_times=not args.no_times,
    )
    return _emit(report, args)


def _cmd_audit_axioms(args: argparse.Namespace) -> int:
    report = run_audit_axioms(
        models=_split(args.models),
        ns=_int_list(args.tasks),
        v=args.voters,
        instances=args.instances,
        seed=args.seed,
        cap=args.cap,
        include_times=not args.no_times,
    )
    return _emit(report, args)


def _cmd_bench(args: argparse.Namespace) -> int:
    report = run_bench(
        models=_split(args.models),
        ns=_int_list(args.tasks),
        vs=_int_list(args.voters),
        rules=tuple(_split(args.rules)),
        instances=args.instances,
        seed=args.seed,
    )
    return _emit(report, args)


def _emit(report: ExperimentReport, args: argparse.Namespace) -> int:
    _write_text(args.out, report.to_csv())
    if getattr(args, "json_out", None):
        Path(args.json_out).write_text(report.to_json())
    return 0


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _split(raw: str) -> list[str]:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise InvalidSpecError(f"expected a comma-separated list, got {raw!r}")
    return items


def _int_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in _split(raw)]
    except ValueError:
        raise InvalidSpecError(f"expected comma-separated integers, got {raw!r}") from None


if __name__ == "__main__":
    sys.exit(main())
