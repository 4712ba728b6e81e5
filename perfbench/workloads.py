"""The four benchmark workloads: inputs, one operation, and its checks.

Every workload is a closed loop with one client in one process: the next
operation starts only when the previous one has returned.  Inputs come
from the workload seed alone.  Operation ``i`` always uses input
``i % period``, so a run that gets through more than ``period`` operations
repeats inputs and must repeat their outputs exactly.

Per workload:

* ``calibration`` names the kernel that measures the machine's speed
  between operations (see calibration.py);
* ``setup(seed, workdir)`` generates and writes the inputs (part of
  ``setup_s``);
* ``run_op(state, i, tracer)`` is the timed operation;
* ``canonical(result)`` renders a result as the exact text compared
  across repeats and against the default-seed reference;
* ``check(state, i, result)`` (untimed) returns the problems found.

Import this module only after the package under test is importable.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import collective_schedules as cs
from collective_schedules import experiments, heuristics, metrics

HERE = Path(__file__).resolve().parent
MODELS = ("uniform", "plackett-luce")
OBJECTIVES = tuple(cs.Objective)
EXACT = tuple(cs.EXACT_RULES)
LENGTHS = (1, 10)
WALL_TIME = re.compile(r'"wall_time_s": [^,\n]+')


def spec_seed(seed: int, k: int) -> int:
    """Generator seed of input ``k`` of a run with workload seed ``seed``."""
    return seed * 1000 + k


def _instance(n: int, v: int, model: str, seed: int):
    return cs.generate(cs.GenSpec(n, v, model, LENGTHS, seed))


def child_env() -> dict[str, str]:
    """Environment for a child Python that must import the package under test."""
    src = str(Path(cs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class ExactDP:
    """One operation: ``solve_exact`` under all three objectives on one instance."""

    name = "exact-dp"
    calibration = "cpu"
    period = 8
    instances_per_op = 1
    trace_ops = 2

    def __init__(self, tiny: bool = False) -> None:
        self.n, self.v = (7, 10) if tiny else (16, 50)

    def params(self) -> dict:
        return {"n": self.n, "v": self.v, "lengths": LENGTHS, "models": "alternating " + "/".join(MODELS),
                "rules": EXACT, "operation": "solve_exact under all three objectives on one instance"}

    def setup(self, seed: int, workdir: Path):
        pool = []
        for k in range(self.period):
            tasks, profile = _instance(self.n, self.v, MODELS[k % 2], spec_seed(seed, k))
            cs.write_instance(workdir / f"{self.name}-{k}.json", tasks, profile)
            pool.append((tasks, profile))
        return pool

    def run_op(self, pool, i, tracer=None):
        tasks, profile = pool[i % self.period]
        return {objective: cs.solve_exact(tasks, profile, objective) for objective in OBJECTIVES}

    def canonical(self, result) -> str:
        return json.dumps(
            {o.value: [r.optimal_score, list(r.schedule.order), r.optimum_count, r.states_explored] for o, r in result.items()}
        )

    def check(self, pool, i, result) -> list[str]:
        _, profile = pool[i % self.period]
        problems = []
        for objective, report in result.items():
            rescored = metrics.score(report.schedule, profile, objective)
            if rescored != report.optimal_score:
                problems.append(f"{objective.value}: reported score {report.optimal_score}, schedule scores {rescored}")
            if report.optimum_count < 1:
                problems.append(f"{objective.value}: optimum count {report.optimum_count}")
            for other, rival in result.items():
                if metrics.score(rival.schedule, profile, objective) < report.optimal_score:
                    problems.append(f"the {other.value} schedule beats the {objective.value} optimum")
        return problems


class HeuristicElectorate:
    """One operation: ``lmt-ls`` on one uniform and one Plackett-Luce instance.

    The two models cost different amounts per instance (uniform ballots
    run more descent steps), so an operation takes one of each and the
    distribution of operation times has a single mode.
    """

    name = "heuristic-electorate"
    calibration = "cpu"
    period = 8
    instances_per_op = 2
    trace_ops = 1
    rule = "lmt-ls"

    def __init__(self, tiny: bool = False) -> None:
        self.n, self.v = (6, 40) if tiny else (10, 1000)

    def params(self) -> dict:
        return {"n": self.n, "v": self.v, "lengths": LENGTHS, "models": MODELS, "rules": (self.rule,),
                "operation": "lmt-ls on one instance of each model"}

    def setup(self, seed: int, workdir: Path):
        pool = []
        for k in range(self.period):
            pair = []
            for m, model in enumerate(MODELS):
                tasks, profile = _instance(self.n, self.v, model, spec_seed(seed, 2 * k + m))
                cs.write_instance(workdir / f"{self.name}-{k}-{m}.json", tasks, profile)
                pair.append((tasks, profile))
            pool.append(pair)
        return pool

    def run_op(self, pool, i, tracer=None):
        return [cs.apply_rule(self.rule, tasks, profile) for tasks, profile in pool[i % self.period]]

    def canonical(self, result) -> str:
        return json.dumps([list(schedule.order) for schedule in result])

    def check(self, pool, i, result) -> list[str]:
        problems = []
        objective = cs.Objective.SUM_DEVIATION
        for (tasks, profile), schedule in zip(pool[i % self.period], result, strict=True):
            if sorted(schedule.order) != sorted(tasks.ids):
                problems.append(f"{schedule.order} is not a schedule of {tasks.ids}")
                continue
            current = metrics.score(schedule, profile, objective)
            order = list(schedule.order)
            improving = []
            for pos in range(len(order) - 1):
                swapped = order[:pos] + [order[pos + 1], order[pos]] + order[pos + 2:]
                if metrics.score(cs.Schedule(tuple(swapped)), profile, objective) < current:
                    improving.append(pos)
            if not improving:
                continue
            # not a local optimum: only acceptable if the descent hit its step cap
            best, trace = heuristics.local_search(heuristics.lmt(tasks, profile), profile, objective)
            if not (trace.terminated_by == "step-cap" and len(trace.steps) == 2 * tasks.n and best == schedule):
                problems.append(f"swap at {improving[0]} improves {schedule.order} and the descent was not capped")
        return problems


class AuditCorpus:
    """One operation: one ``run_audit_axioms`` call, then one ``run_lrm_audit`` call.

    Both pipelines run in every operation, always over the same small
    seeded corpus: the two calls take different times, and pairing them
    keeps the distribution of operation times single-moded.
    """

    name = "audit-corpus"
    calibration = "cpu"
    period = 1
    trace_ops = 10
    oracle_max_tasks = 8
    axiom_instances = 2
    lrm_instances = 2

    def __init__(self, tiny: bool = False) -> None:
        self.axiom_ns, self.lrm_n, self.v = ((4, 5), 5, 10) if tiny else ((6, 8), 8, 50)
        self.instances_per_op = len(MODELS) * len(self.axiom_ns) * self.axiom_instances + self.lrm_instances

    def params(self) -> dict:
        return {"audit_axioms": {"n": self.axiom_ns, "v": self.v, "models": MODELS, "instances": self.axiom_instances},
                "lrm_audit": {"n": self.lrm_n, "v": self.v, "instances": self.lrm_instances},
                "lengths": LENGTHS, "rules": EXACT, "include_times": False,
                "operation": "run_audit_axioms then run_lrm_audit over one seeded corpus"}

    def setup(self, seed: int, workdir: Path):
        # the pipelines generate their own instances from these seeds
        return {"axiom_seed": spec_seed(seed, 0), "lrm_seed": spec_seed(seed, 1)}

    def run_op(self, state, i, tracer=None):
        audit = experiments.run_audit_axioms(
            models=MODELS, ns=self.axiom_ns, v=self.v, instances=self.axiom_instances,
            seed=state["axiom_seed"], include_times=False,
        )
        lrm = experiments.run_lrm_audit(
            instances=self.lrm_instances, n=self.lrm_n, v=self.v, seed=state["lrm_seed"], include_times=False,
        )
        return audit, lrm

    def canonical(self, result) -> str:
        return "".join(report.to_csv() + report.to_json() for report in result)

    def check(self, state, i, result) -> list[str]:
        """Compare the exact solver with the n! oracle on every corpus instance."""
        audit, lrm = result
        corpus = [(d["model"], d["n"], self.v, d["seed"]) for d in audit.instances]
        corpus += [(d["model"], lrm.params["n"], self.v, d["seed"]) for d in lrm.instances]
        problems = []
        if len(corpus) != self.instances_per_op:
            problems.append(f"corpus has {len(corpus)} instances, expected {self.instances_per_op}")
        checkable = [spec for spec in corpus if spec[1] <= self.oracle_max_tasks]
        # the oracle scores all n! orders, seconds per instance at n=8: a
        # second process takes every other instance
        helper = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), json.dumps(checkable[1::2])],
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=HERE.parent,
        )
        try:
            for spec in checkable[::2]:
                problems += oracle_problems(spec)
            out, _ = helper.communicate(timeout=900)
        finally:
            if helper.poll() is None:
                helper.kill()
                helper.wait()
        if helper.returncode != 0:
            problems.append(f"oracle helper process exited with {helper.returncode}")
        else:
            problems += json.loads(out)
        return problems


def oracle_problems(spec: tuple[str, int, int, int]) -> list[str]:
    """Differences between ``solve_exact`` and the n! oracle on one instance."""
    model, n, v, seed = spec
    tasks, profile = _instance(n, v, model, seed)
    problems = []
    for objective in OBJECTIVES:
        exact = cs.solve_exact(tasks, profile, objective)
        oracle = cs.brute_force_oracle(tasks, profile, objective)
        got = (exact.optimal_score, exact.optimum_count, exact.schedule)
        want = (oracle.optimal_score, oracle.optimum_count, oracle.schedule)
        if got != want:
            problems.append(f"{model} n={n} seed={seed} {objective.value}: solver {got}, oracle {want}")
        if metrics.score(exact.schedule, profile, objective) != exact.optimal_score:
            problems.append(f"{model} n={n} seed={seed} {objective.value}: score does not recompute")
    return problems


class CliSolve:
    """One operation: one fresh ``python -m collective_schedules.cli solve`` process."""

    name = "cli-solve"
    calibration = "process"
    period = len(EXACT) * len(MODELS)
    instances_per_op = 1
    trace_ops = period

    def __init__(self, tiny: bool = False) -> None:
        self.n, self.v = (5, 10) if tiny else (10, 100)

    def params(self) -> dict:
        return {"n": self.n, "v": self.v, "lengths": LENGTHS, "models": MODELS, "rules": EXACT,
                "operation": "python -m collective_schedules.cli solve --rule R --all-optima --input F"}

    def setup(self, seed: int, workdir: Path):
        files = []
        for k, model in enumerate(MODELS):
            tasks, profile = _instance(self.n, self.v, model, spec_seed(seed, k))
            path = workdir / f"{self.name}-{k}.json"
            cs.write_instance(path, tasks, profile)
            files.append((path, tasks, profile))
        return {"files": files, "env": child_env(), "workdir": workdir}

    def _input(self, state, i):
        path, tasks, profile = state["files"][(i // len(EXACT)) % len(MODELS)]
        return EXACT[i % len(EXACT)], path, tasks, profile

    def run_op(self, state, i, tracer=None):
        rule, path, _, _ = self._input(state, i)
        args = ["solve", "--rule", rule, "--all-optima", "--input", str(path)]
        if tracer is None:
            argv = [sys.executable, "-m", "collective_schedules.cli", *args]
        else:
            spans = state["workdir"] / f"spans-{i}.json"
            argv = [sys.executable, str(HERE / "cli_traced.py"), str(spans), *args]
        proc = subprocess.run(argv, capture_output=True, text=True, env=state["env"], cwd=HERE.parent, timeout=120)
        if tracer is not None and proc.returncode == 0:
            tracer.merge(json.loads(spans.read_text()), op=i)
        return proc.returncode, proc.stdout, proc.stderr

    def canonical(self, result) -> str:
        code, stdout, _ = result
        return f"exit {code}\n" + WALL_TIME.sub('"wall_time_s": "*"', stdout)

    def check(self, state, i, result) -> list[str]:
        code, stdout, stderr = result
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        rule, _, tasks, profile = self._input(state, i)
        objective = cs.EXACT_RULES[rule]
        payload = json.loads(stdout)
        want = cs.solve_exact(tasks, profile, objective, cs.SolveOptions(enumerate_all=True))
        schedule = cs.Schedule(tuple(payload["schedule"]))
        problems = []
        if payload["rule"] != rule:
            problems.append(f"ran rule {payload['rule']}, asked for {rule}")
        if payload["score"] != want.optimal_score or metrics.score(schedule, profile, objective) != want.optimal_score:
            problems.append(f"score {payload['score']} for {payload['schedule']}, optimum is {want.optimal_score}")
        if schedule != want.schedule or payload["optimum_count"] != want.optimum_count:
            problems.append("schedule or optimum count differs from an in-process solve")
        if payload.get("optima") != [list(s.order) for s in want.optima]:
            problems.append("enumerated optima differ from an in-process solve")
        return problems


WORKLOADS = {w.name: w for w in (ExactDP, HeuristicElectorate, AuditCorpus, CliSolve)}


if __name__ == "__main__":
    # helper process of AuditCorpus.check: python3 workloads.py SPECS_JSON
    print(json.dumps([p for spec in json.loads(sys.argv[1]) for p in oracle_problems(tuple(spec))]))
