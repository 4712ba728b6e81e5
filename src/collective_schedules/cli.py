"""Command-line harness around the solvers, audits, and experiments.

Exit codes: 0 on success, 3 when an instance exceeds the exact-solver
size guard, 2 for invalid input (bad arguments, malformed instance files,
failed validation, tables too big for memory) and any other package error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .errors import CollectiveSchedulesError, InvalidSpecError, TooManyTasksError
from .generation import MODELS, GenSpec, canonical_model, generate
from .heuristics import lmt, local_search
from .io import dumps_instance, read_instance
from .metrics import score
from .model import Schedule, validate_profile
from .rules import EXACT_RULES, RULE_NAMES, RULE_OBJECTIVE
from .solver import SolveOptions, solve_exact


# subcommand -> (pipeline's name in experiments, help, flags); each flag
# is (flag, pipeline keyword, argparse options).  Every pipeline
# subcommand also takes --seed, --out, --json and --no-times.  No flag has
# a default: one left out is not passed, so the pipeline's signature
# supplies it.
_PIPELINES = {
    "compare": ("run_compare", "cross-evaluate the exact rules under all metrics", (
        ("--models", "models", {"help": "comma-separated ballot models"}),
        ("--tasks", "ns", {"help": "comma-separated task counts"}),
        ("--voters", "v", {"type": int}),
        ("--instances", "instances", {"type": int}),
    )),
    "lmt-eval": ("run_lmt_eval", "median heuristic quality versus the exact optimum", (
        ("--model", "model", {}),
        ("--tasks", "n", {"type": int}),
        ("--voters", "v", {"type": int}),
        ("--instances", "instances", {"type": int}),
    )),
    "lrm-audit": ("run_lrm_audit", "length-reduction monotonicity audit", (
        ("--instances", "instances", {"type": int}),
        ("--tasks", "n", {"type": int}),
        ("--voters", "v", {"type": int}),
        ("--reduction", "reduction", {
            "choices": ("unit", "uniform"),
            "help": "shrink the target by one unit or to a uniformly drawn smaller length",
        }),
    )),
    "uniqueness-audit": ("run_uniqueness_audit", "how often each rule's optimum is unique", (
        ("--models", "models", {}),
        ("--tasks", "ns", {}),
        ("--voters", "vs", {"help": "comma-separated voter counts"}),
        ("--instances", "instances", {"type": int}),
    )),
    "audit-axioms": ("run_audit_axioms", "precedence and unanimity verdicts per rule", (
        ("--models", "models", {}),
        ("--tasks", "ns", {}),
        ("--voters", "v", {"type": int}),
        ("--instances", "instances", {"type": int}),
        ("--cap", "cap", {"type": int}),
    )),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except TooManyTasksError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (CollectiveSchedulesError, ValueError, OverflowError, MemoryError, OSError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
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

    for command, (pipeline, help_text, flags) in _PIPELINES.items():
        cmd = sub.add_parser(command, help=help_text)
        flags = (*flags, ("--seed", "seed", {"type": int}))
        keywords = {cmd.add_argument(flag, **options).dest: keyword for flag, keyword, options in flags}
        cmd.add_argument("--out", help="write the CSV here instead of stdout")
        cmd.add_argument("--json", dest="json_out", help="write the JSON twin here")
        cmd.add_argument(
            "--no-times",
            action="store_true",
            help="omit wall times so reports with equal seeds are byte-identical",
        )
        cmd.set_defaults(handler=_cmd_pipeline, pipeline=pipeline, keywords=keywords)

    return parser


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
    payload = {"rule": args.rule, "objective": objective.value}
    # each branch compiles the profile once, checking it again in the same walk
    if args.evaluate is not None:
        order = Schedule(tuple(tid.strip() for tid in args.evaluate.split(",")))
        payload.update(schedule=list(order.order), score=score(order, profile, objective))
    elif args.rule in EXACT_RULES:
        options = SolveOptions(enumerate_all=args.all_optima, optimum_cap=args.cap, max_tasks=args.max_tasks)
        report = solve_exact(tasks, profile, objective, options)
        payload.update(
            score=report.optimal_score,
            schedule=list(report.schedule.order),
            optimum_count=report.optimum_count,
            optima_complete=report.optima_complete,
            states_explored=report.states_explored,
            wall_time_s=report.wall_time_s,
        )
        if report.optima is not None:
            payload["optima"] = [list(s.order) for s in report.optima]
    else:
        started = time.perf_counter()
        schedule = lmt(tasks, profile)
        if args.rule == "lmt-ls":
            schedule, trace = local_search(schedule, profile, objective)
            payload.update(
                search_steps=len(trace.steps), terminated_by=trace.terminated_by, score=trace.final_score
            )
        else:
            payload["score"] = score(schedule, profile, objective)
        payload.update(schedule=list(schedule.order), wall_time_s=time.perf_counter() - started)
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    given = ((keyword, getattr(args, dest)) for dest, keyword in args.keywords.items())
    kwargs = {keyword: value for keyword, value in given if value is not None}
    # comma-separated lists are parsed here, not by argparse, so that a bad
    # list raises InvalidSpecError with its own message
    for keyword, parse in (("models", _split), ("ns", _int_list), ("vs", _int_list)):
        if keyword in kwargs:
            kwargs[keyword] = parse(kwargs[keyword])
    from . import experiments  # imported on use: solve never loads the pipelines

    report = getattr(experiments, args.pipeline)(**kwargs, include_times=not args.no_times)
    _write_text(args.out, report.to_csv())
    if args.json_out:
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
