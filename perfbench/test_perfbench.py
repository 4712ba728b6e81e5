"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py

Every workload must run and check clean, with and without tracing, and a
deliberately wrong result must be counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import collective_schedules as cs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(name: str, trace: bool = False) -> dict:
    return run.run_benchmark(name, seed=3, seconds=0.3, trace=trace, tiny=True, say=lambda line: None)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_and_checks_clean(name):
    result = bench(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = bench(name, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == set(tracing.PER_LAYER_UNITS)


def test_tampered_score_is_counted(monkeypatch):
    solve = cs.solve_exact

    def off_by_one(*args, **kwargs):
        report = solve(*args, **kwargs)
        return dataclasses.replace(report, optimal_score=report.optimal_score + 1)

    monkeypatch.setattr(cs, "solve_exact", off_by_one)
    result = bench("exact-dp")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_tampered_schedule_is_counted(monkeypatch):
    apply_rule = cs.apply_rule

    def drop_last_task(*args, **kwargs):
        return cs.Schedule(apply_rule(*args, **kwargs).order[:-1])

    monkeypatch.setattr(cs, "apply_rule", drop_last_task)
    result = bench("heuristic-electorate")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_tampered_cli_output_is_counted(monkeypatch):
    run_op = workloads.CliSolve.run_op

    def wrong_score(self, state, i, tracer=None):
        code, stdout, stderr = run_op(self, state, i, tracer)
        payload = json.loads(stdout)
        payload["score"] += 1
        return code, json.dumps(payload), stderr

    monkeypatch.setattr(workloads.CliSolve, "run_op", wrong_score)
    result = bench("cli-solve")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_tracer_rebinds_every_import_site_and_restores_them():
    tasks, profile = cs.generate(cs.GenSpec(5, 9, "uniform", (1, 10), 1))
    original = cs.metrics.score
    with tracing.Tracer() as tracer:
        assert cs.heuristics.score is cs.metrics.score is cs.score is not original
        cs.apply_rule("lmt-ls", tasks, profile)
    assert cs.heuristics.score is cs.metrics.score is cs.score is original

    calls, self_s, errors = tracer.self_times()
    durations = {}
    for _, span_id, _, name, start, end, _ in tracer.spans:
        durations[name] = durations.get(name, 0.0) + end - start
    assert calls["rules.apply_rule"] == 1 and calls["heuristics.local_search"] == 1
    assert calls["metrics.score"] > 1  # reached through the heuristics module's own binding
    assert 0 <= self_s["rules.apply_rule"] < durations["rules.apply_rule"]
    assert sum(self_s.values()) == pytest.approx(durations["rules.apply_rule"])
    assert not any(errors.values())
    layer = tracer.layer_metrics(ops=1)
    steps = layer["heuristics.local_search.steps"]
    assert layer["heuristics.local_search.swaps_scored"] in (steps * (tasks.n - 1), (steps + 1) * (tasks.n - 1))


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(x) for x in range(1, 12)]) == (100.0 / 11, 1.0)
    percentile, value = run.tail([float(x) for x in range(1, 101)])
    assert (percentile, value) == (90.0, 90.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exact-dp", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_the_printed_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
