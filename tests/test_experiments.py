"""Experiment pipelines: report schema, determinism, and per-instance detail."""

import json
import re
from statistics import fmean

import pytest

from collective_schedules import (
    GenSpec,
    InvalidReductionError,
    InvalidSpecError,
    Objective,
    Schedule,
    axioms,
    check_unanimity,
    experiments,
    find_pta_condorcet_schedule,
    generate,
    is_pta_condorcet_consistent,
    local_search,
    lrm_probe,
    rules,
    solver,
)
from collective_schedules.experiments import (
    CSV_HEADER,
    instance_seed,
    run_audit_axioms,
    run_compare,
    run_lmt_eval,
    run_lrm_audit,
    run_uniqueness_audit,
)


class TestInstanceSeed:
    def test_deterministic(self):
        assert instance_seed(7, 1, 2) == instance_seed(7, 1, 2)

    def test_sensitive_to_every_component(self):
        base = instance_seed(7, 1, 2)
        assert base != instance_seed(8, 1, 2)
        assert base != instance_seed(7, 2, 2)
        assert base != instance_seed(7, 1, 3)
        assert base != instance_seed(7, 1)

    def test_reduced_mod_2_to_the_32(self):
        assert instance_seed(2**32 + 7, -1, 2) == instance_seed(7, 2**32 - 1, 2)

    @pytest.mark.parametrize("value", [1.5, 2.9, True, "3", None], ids=repr)
    def test_base_and_keys_must_be_ints(self, value):
        # int() would read 1.5 as 1, 2.9 as 2, True as 1 and "3" as 3
        for args in ((value,), (0, value), (0, 1, value)):
            with pytest.raises(InvalidSpecError, match=re.escape(f"instance_seed takes only integers, got {value!r}")):
                instance_seed(*args)

    @pytest.mark.parametrize(
        "spec, message",
        [
            pytest.param({"ns": (2.5,)}, "ns must hold positive integers, got 2.5", id="{'ns': (2.5,)}"),
            pytest.param({"ns": (True,)}, "ns must hold positive integers, got True", id="{'ns': (True,)}"),
            pytest.param({"v": 2.5}, "v must be a positive integer, got 2.5", id="{'v': 2.5}"),
        ],
    )
    def test_pipeline_rejects_a_non_int_key(self, spec, message):
        # named by the argument, before any seed is derived from it
        with pytest.raises(InvalidSpecError, match=re.escape(message)):
            run_compare(instances=1, **spec)

    @pytest.mark.parametrize(
        "pipeline, spec, message",
        [
            (run_compare, {"ns": (4, 0)}, "ns must hold positive integers, got 0"),
            (run_compare, {"v": -3}, "v must be a positive integer, got -3"),
            (run_uniqueness_audit, {"vs": (5, "6")}, "vs must hold positive integers, got '6'"),
            (run_uniqueness_audit, {"ns": (-(10**5000),)}, "ns must hold positive integers, got <int too long to print>"),
            (run_audit_axioms, {"v": True}, "v must be a positive integer, got True"),
            (run_lmt_eval, {"n": 4.0}, "n must be a positive integer, got 4.0"),
            (run_lmt_eval, {"v": 0}, "v must be a positive integer, got 0"),
            (run_lrm_audit, {"n": 2.5}, "n must be a positive integer, got 2.5"),
            (run_lrm_audit, {"v": False}, "v must be a positive integer, got False"),
            (run_lrm_audit, {"n": -(10**5000)}, "n must be a positive integer, got <int too long to print>"),
        ],
        ids=["compare-ns", "compare-v", "uniqueness-vs", "uniqueness-huge-ns", "axioms-v", "lmt-n", "lmt-v", "lrm-n", "lrm-v",
             "lrm-huge-n"],
    )
    def test_pipelines_name_a_bad_size(self, pipeline, spec, message):
        with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
            pipeline(instances=1, **spec)


class TestRunCompare:
    def test_report_shape(self):
        report = run_compare(models=("u",), ns=(4,), v=6, instances=2, seed=5,
                             include_times=False)
        assert report.command == "compare"
        assert report.params["v"] == 6
        assert len(report.rows) == 9
        assert len(report.instances) == 2
        for row in report.rows:
            assert row.mean_ratio >= 1.0
            assert row.mean_time is None
        diagonal = [r for r in report.rows if r.metric == "sum-deviation" and r.rule == "sum-dev"]
        assert diagonal[0].mean_ratio == 1.0

    def test_one_voter_makes_every_optimum_zero(self):
        # every rule returns the one ballot, which scores 0 under every
        # metric, and a ratio of 0 to an optimum of 0 reads 1.0
        report = run_compare(models=("u", "c"), ns=(4,), v=1, instances=2, include_times=False)
        assert [row.mean_ratio for row in report.rows] == [1.0] * 18

    def test_csv_and_json_agree(self):
        report = run_compare(models=("u",), ns=(4,), v=5, instances=2, include_times=False)
        lines = report.to_csv().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + len(report.rows)
        doc = json.loads(report.to_json())
        assert [r["rule"] for r in doc["rows"]] == [r.rule for r in report.rows]

    def test_same_seed_same_report(self):
        kwargs = dict(models=("u", "c"), ns=(4,), v=6, instances=2, seed=11,
                      include_times=False)
        assert run_compare(**kwargs).to_json() == run_compare(**kwargs).to_json()

    def test_times_column_populated_when_requested(self):
        report = run_compare(models=("u",), ns=(3,), v=4, instances=1, include_times=True)
        assert all(row.mean_time is not None for row in report.rows)


class TestRunLmtEval:
    def test_rows_and_ordering(self):
        report = run_lmt_eval(n=6, v=9, instances=3, seed=2, include_times=False)
        rules = [row.rule for row in report.rows]
        assert rules == ["lmt", "lmt-ls", "sum-dev"]
        lmt_row, ls_row, exact_row = report.rows
        assert exact_row.mean_ratio == 1.0
        assert 1.0 <= ls_row.mean_ratio <= lmt_row.mean_ratio
        for detail in report.instances:
            assert detail["ratio_lmt_ls"] <= detail["ratio_lmt"]
            assert detail["terminated_by"] == "local-optimum"


class TestRunLrmAudit:
    def test_report_shape(self):
        report = run_lrm_audit(instances=4, n=5, v=9, seed=1, include_times=False)
        assert report.params["reduction"] == "unit"
        assert {row.model for row in report.rows} == {"uniform", "plackett-luce", "all"}
        for row in report.rows:
            assert row.metric == "length-reduction-monotonicity"
            assert 0.0 <= row.violation_rate <= 1.0
        for detail in report.instances:
            assert detail["new_length"] == detail["old_length"] - 1
            assert set(detail["verdicts"]) == {"sum-dev", "sum-tard", "pta-kemeny"}

    def test_uniform_reduction_policy(self):
        report = run_lrm_audit(instances=2, n=4, v=5, seed=3, reduction="uniform",
                               include_times=False)
        assert report.params["reduction"] == "uniform"
        for detail in report.instances:
            assert 1 <= detail["new_length"] < detail["old_length"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidSpecError):
            run_lrm_audit(instances=1, reduction="halve")

    @pytest.mark.parametrize("length_range", [(1, 1), (0, 1)])
    def test_lengths_that_cannot_shrink_rejected(self, length_range):
        with pytest.raises(InvalidSpecError, match="shortened"):
            run_lrm_audit(instances=1, n=3, v=3, length_range=length_range)


class TestRunUniquenessAudit:
    def test_report_shape(self):
        report = run_uniqueness_audit(models=("u",), ns=(4,), vs=(7,), instances=3,
                                      include_times=False)
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.metric == "uniqueness"
            assert 0.0 <= row.unique_fraction <= 1.0
        for detail in report.instances:
            assert all(count >= 1 for count in detail["optimum_count"].values())


class TestRunAuditAxioms:
    def test_kemeny_optima_always_pass_when_checked(self):
        report = run_audit_axioms(models=("u",), ns=(4,), v=9, instances=4,
                                  include_times=False)
        all_optima_rows = [r for r in report.rows if r.metric == "pta-condorcet-all-optima"]
        assert len(all_optima_rows) == 1
        rate = all_optima_rows[0].violation_rate
        assert rate is None or rate == 0.0
        kemeny_rows = [r for r in report.rows
                       if r.metric == "pta-condorcet" and r.rule == "pta-kemeny"]
        assert kemeny_rows[0].violation_rate in (None, 0.0)

    def test_one_exact_solve_per_rule_and_instance(self, monkeypatch):
        calls = []
        solve = experiments.solve_exact

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(experiments, "solve_exact", counting)
        report = run_audit_axioms(models=("u", "c"), ns=(4, 5), v=9, instances=3,
                                  include_times=False)
        assert any(d["has_consistent_schedule"] for d in report.instances)
        assert len(calls) == 3 * len(report.instances)

    def test_precedence_lists_built_once_per_instance(self, monkeypatch):
        # the binding constraints are built inside find_pta_condorcet_schedule
        calls = {"pta_condorcet_constraints": 0, "unanimous_pairs": 0}
        for module, name in ((axioms, "pta_condorcet_constraints"), (experiments, "unanimous_pairs")):
            original = getattr(module, name)

            def counting(profile, name=name, original=original):
                calls[name] += 1
                return original(profile)

            monkeypatch.setattr(module, name, counting)
        report = run_audit_axioms(models=("u", "c"), ns=(4, 5), v=9, instances=3,
                                  include_times=False)
        assert any(d["has_consistent_schedule"] for d in report.instances)
        assert calls == {name: len(report.instances) for name in calls}

    @pytest.mark.parametrize("cap", [0, -3, True, 2.0])
    def test_cap_must_be_a_positive_int(self, cap):
        # no instance of this corpus has a consistent schedule, so no
        # enumeration would ever read the cap
        report = run_audit_axioms(models=("u",), ns=(6,), instances=1, include_times=False)
        assert not any(d["has_consistent_schedule"] for d in report.instances)
        with pytest.raises(InvalidSpecError, match="cap"):
            run_audit_axioms(models=("u",), ns=(6,), instances=1, cap=cap)


def _regenerate(record, n, v, length_range):
    return generate(GenSpec(n, v, record["model"], tuple(length_range), record["seed"]))


class TestAuditVerdictsMatchPublicApi:
    """Each recorded verdict, recomputed from the instance through the public API."""

    # two voters often agree on a pair that a rule then inverts
    @pytest.mark.parametrize("v,cap", [(2, 1), (7, 20)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_audit_axioms(self, seed, v, cap):
        report = run_audit_axioms(models=("u", "c"), ns=(3, 4, 5), v=v, instances=4,
                                  seed=seed, cap=cap, include_times=False)
        params = report.params
        for record in report.instances:
            tasks, profile = _regenerate(record, record["n"], params["v"], params["length_range"])
            consistent = find_pta_condorcet_schedule(profile) is not None
            assert record["has_consistent_schedule"] == consistent
            for rule, entry in record["rules"].items():
                schedule = rules.apply_rule(rule, tasks, profile)
                expected = {"unanimity": check_unanimity(schedule, profile).holds}
                if consistent:
                    expected["pta_condorcet"] = is_pta_condorcet_consistent(schedule, profile).holds
                assert entry == expected, (record, rule)
            if consistent:
                optima, complete = solver.enumerate_optima(tasks, profile, "pta-kendall-tau", cap)
                checked = all(is_pta_condorcet_consistent(s, profile).holds for s in optima)
                assert record["kemeny_optima_consistent"] == (checked if complete else None)
        assert any(d["has_consistent_schedule"] for d in report.instances)

    @pytest.mark.parametrize("reduction", ["unit", "uniform"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lrm_audit(self, seed, reduction):
        report = run_lrm_audit(instances=8, n=6, v=2, seed=seed, reduction=reduction,
                               include_times=False)
        params = report.params
        for record in report.instances:
            _, profile = _regenerate(record, params["n"], params["v"], params["length_range"])
            for rule, holds in record["verdicts"].items():
                verdict = lrm_probe(profile, rule, record["target"], record["new_length"])
                assert holds == verdict.holds, (record, rule)
                if not holds:
                    witness = {key: verdict.witness[key] for key in ("start_before", "start_after")}
                    assert record["witnesses"][rule] == witness
            assert set(record.get("witnesses", {})) == {r for r, h in record["verdicts"].items() if not h}


class TestOneCompilePerInstance:
    def test_audit_axioms(self, compile_counts):
        report = run_audit_axioms(models=("u", "c"), ns=(4, 5), v=9, instances=2, include_times=True)
        count = len(report.instances)
        assert any(d["has_consistent_schedule"] for d in report.instances)
        assert compile_counts == {"compiles": count}

    @pytest.mark.parametrize("reduction", ["unit", "uniform"])
    def test_lrm_audit(self, reduction, compile_counts):
        # one compile for the instance, one for its reduced copy
        report = run_lrm_audit(instances=3, n=5, v=9, reduction=reduction, include_times=True)
        assert compile_counts == {"compiles": 6}
        assert len(report.instances) == 3

    def test_lmt_eval(self, compile_counts):
        report = run_lmt_eval(n=5, v=9, instances=3, include_times=True)
        assert len(report.instances) == 3
        assert compile_counts == {"compiles": 3}

    @pytest.mark.parametrize("pipeline", [run_compare, run_uniqueness_audit])
    def test_exact_rule_pipelines(self, pipeline, compile_counts):
        report = pipeline(models=("u", "c"), ns=(4,), instances=2, include_times=True)
        count = len(report.instances)
        assert count >= 4
        assert compile_counts == {"compiles": count}


@pytest.mark.parametrize(
    "pipeline",
    [run_compare, run_lmt_eval, run_lrm_audit, run_uniqueness_audit, run_audit_axioms],
)
@pytest.mark.parametrize("count", [True, 2.0, 0])
def test_instance_count_must_be_a_positive_int(pipeline, count):
    with pytest.raises(InvalidSpecError, match="instances"):
        pipeline(instances=count)


@pytest.mark.parametrize(
    "pipeline",
    [run_compare, run_lmt_eval, run_lrm_audit, run_uniqueness_audit, run_audit_axioms],
)
@pytest.mark.parametrize("seed", [1.5, True, "3"])
def test_seed_must_be_an_int(pipeline, seed, monkeypatch):
    # a truncated seed would run the instances of seed 1, 1 and 3 while the report names the seed given
    monkeypatch.setattr(experiments, "generate", None)  # no instance may be drawn
    with pytest.raises(InvalidSpecError, match="seed"):
        pipeline(instances=1, seed=seed)


@pytest.mark.parametrize(
    "pipeline, keyword, value",
    [
        (run_compare, "models", "uniform"),  # not split into letters
        (run_compare, "models", "uc"),  # not read as two short names
        (run_audit_axioms, "models", "pl"),
        (run_compare, "ns", 5),
        (run_uniqueness_audit, "vs", 5),
    ],
)
def test_list_arguments_must_be_lists(pipeline, keyword, value):
    with pytest.raises(InvalidSpecError, match=f"{keyword} must be a list"):
        pipeline(**{keyword: value}, instances=1)


@pytest.mark.parametrize(
    "call",
    [
        lambda huge: rules.apply_rule(huge, *generate(GenSpec(3, 2, "uniform", (1, 3), 0))),
        lambda huge: lrm_probe(generate(GenSpec(4, 3, "uniform", (2, 5), 0))[1], huge, "t1", 1),
        lambda huge: run_compare(models=huge, instances=1),
        lambda huge: run_lrm_audit(reduction=huge, instances=1),
    ],
    ids=["apply_rule", "lrm_probe", "compare-models", "lrm-audit-reduction"],
)
def test_an_unprintable_spec_value_is_named(call):
    # repr refuses an int of over 4,300 digits; the message prints a placeholder
    with pytest.raises(InvalidSpecError, match="<int too long to print>"):
        call(10**5000)


@pytest.mark.parametrize(
    "call, error",
    [
        (
            lambda huge: lrm_probe(generate(GenSpec(4, 3, "uniform", (2, 5), 0))[1], "sum-dev", "t1", huge),
            InvalidReductionError,
        ),
        (lambda huge: run_compare(seed=[huge], instances=1), InvalidSpecError),
        (lambda huge: instance_seed(0, [huge]), InvalidSpecError),
        (lambda huge: run_lrm_audit(length_range=[huge, 1], instances=1), InvalidSpecError),
        (lambda huge: solver.SolveOptions(optimum_cap=[huge]), ValueError),
        (
            lambda huge: local_search(
                Schedule.of("t1", "t2", "t3"),
                generate(GenSpec(3, 2, "uniform", (1, 3), 0))[1],
                Objective.SUM_DEVIATION,
                max_steps=[huge],
            ),
            ValueError,
        ),
    ],
    ids=["lrm_probe-length", "compare-seed", "instance_seed", "lrm-audit-range", "SolveOptions", "local_search"],
)
def test_a_rejected_value_too_long_to_print_is_named(call, error):
    # the call's own error, not repr's ValueError, with a placeholder for the
    # value (an int of over 4,300 digits, or a list holding one)
    with pytest.raises(error, match="too long to print>"):
        call(10**5000)


def test_rule_name_maps_an_objective_to_its_exact_rule():
    assert rules.rule_name(Objective.SUM_DEVIATION) == "sum-dev"
    assert rules.rule_name(Objective.SUM_TARDINESS) == "sum-tard"
    assert rules.rule_name(Objective.PTA_KENDALL_TAU) == "pta-kemeny"


def test_rule_name_rejects_an_unknown_rule():
    message = "unknown rule 'median'; expected one of sum-dev, sum-tard, pta-kemeny, lmt, lmt-ls"
    with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
        rules.rule_name("median")


# Every report statistic can be recomputed from the report's own instance
# records: per (model, n, v) cell, and for lrm-audit per model and over all.
METRIC_RULE = {objective.value: rule for rule, objective in rules.EXACT_RULES.items()}


def _cells_of(records):
    cells = {}
    for record in records:
        cells.setdefault((record["model"], record["n"], record["v"]), []).append(record)
    return cells


def _rate(count, total):
    return count / total if total else None


def _compare_stats(row, report):
    cell = _cells_of(report.instances)[row.model, row.n, row.v]
    ratios = [d["ratios"][row.rule][METRIC_RULE[row.metric]] for d in cell]
    return {"mean_ratio": fmean(ratios)}


def _lmt_eval_stats(row, report):
    field = {"lmt": "ratio_lmt", "lmt-ls": "ratio_lmt_ls"}.get(row.rule)
    return {"mean_ratio": fmean(d[field] for d in report.instances) if field else 1.0}


def _lrm_audit_stats(row, report):
    records = [d for d in report.instances if row.model in ("all", d["model"])]
    violations = sum(not d["verdicts"][row.rule] for d in records)
    return {"violation_rate": violations / len(records)}


def _uniqueness_stats(row, report):
    cell = _cells_of(report.instances)[row.model, row.n, row.v]
    unique = sum(d["optimum_count"][row.rule] == 1 for d in cell)
    return {"unique_fraction": unique / len(cell)}


def _audit_axioms_stats(row, report):
    cell = _cells_of(report.instances)[row.model, row.n, row.v]
    applicable = [d for d in cell if d["has_consistent_schedule"]]
    if row.metric == "unanimity":
        violations = sum(not d["rules"][row.rule]["unanimity"] for d in cell)
        return {"violation_rate": violations / len(cell)}
    if row.metric == "pta-condorcet":
        violations = sum(not d["rules"][row.rule]["pta_condorcet"] for d in applicable)
        return {"violation_rate": _rate(violations, len(applicable))}
    checked = [d["kemeny_optima_consistent"] for d in applicable
               if d["kemeny_optima_consistent"] is not None]
    return {"violation_rate": _rate(checked.count(False), len(checked))}


RECOMPUTED = {
    "compare": (
        lambda seed, times: run_compare(models=("u", "c"), ns=(3, 4), v=7, instances=3,
                                        seed=seed, include_times=times),
        _compare_stats,
    ),
    "lmt-eval": (
        lambda seed, times: run_lmt_eval(n=5, v=8, instances=4, seed=seed,
                                         model=("uniform", "plackett-luce")[seed % 2],
                                         include_times=times),
        _lmt_eval_stats,
    ),
    "lrm-audit": (
        lambda seed, times: run_lrm_audit(instances=5, n=5, v=8, seed=seed,
                                          reduction=("unit", "uniform")[seed % 2],
                                          include_times=times),
        _lrm_audit_stats,
    ),
    "uniqueness-audit": (
        lambda seed, times: run_uniqueness_audit(models=("u", "c"), ns=(3, 4), vs=(4, 9),
                                                 instances=3, seed=seed, include_times=times),
        _uniqueness_stats,
    ),
    "audit-axioms": (
        lambda seed, times: run_audit_axioms(models=("u", "c"), ns=(4, 5), v=9, instances=3,
                                             seed=seed, cap=20, include_times=times),
        _audit_axioms_stats,
    ),
}


# The records a row's mean_time averages, and the key of their times dict.
def _timed_records(pipeline, row, report):
    if pipeline in ("compare", "uniqueness-audit"):
        return _cells_of(report.instances)[row.model, row.n, row.v], row.rule
    if pipeline == "lmt-eval":
        return report.instances, row.rule
    if pipeline == "lrm-audit":
        return (report.instances, "instance") if row.model == "all" else ((), None)
    if row.metric == "pta-condorcet-all-optima":
        return report.instances, "instance"
    return (), None


@pytest.mark.parametrize("include_times", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pipeline", sorted(RECOMPUTED))
def test_row_statistics_recompute_from_instance_records(pipeline, seed, include_times):
    run, stats = RECOMPUTED[pipeline]
    report = run(seed, include_times)
    assert report.rows
    assert all(("times" in d) == include_times for d in report.instances)
    for row in report.rows:
        for column, expected in stats(row, report).items():
            assert getattr(row, column) == expected, (row, column)
        records, key = _timed_records(pipeline, row, report)
        if include_times and key:
            assert row.mean_time == fmean(d["times"][key] for d in records), row
        else:
            assert row.mean_time is None, row



# The keys of each pipeline's instance records, in order, and of their
# times dicts.  Records hold a subset of their pipeline's keys, in this
# order: audit-axioms adds kemeny_optima_consistent only where a consistent
# schedule exists, lrm-audit adds witnesses only where a rule fails.
RULE_TIMES = ("sum-dev", "sum-tard", "pta-kemeny")
RECORD_KEYS = {
    "compare": (("model", "n", "v", "seed", "ratios", "times"), RULE_TIMES),
    "lmt-eval": (
        ("model", "n", "v", "seed", "ratio_lmt", "ratio_lmt_ls", "search_steps",
         "terminated_by", "times"),
        ("lmt", "lmt-ls", "sum-dev"),
    ),
    "lrm-audit": (
        ("model", "seed", "target", "old_length", "new_length", "verdicts", "witnesses",
         "times"),
        ("instance",),
    ),
    "uniqueness-audit": (("model", "n", "v", "seed", "optimum_count", "times"), RULE_TIMES),
    "audit-axioms": (
        ("model", "n", "v", "seed", "has_consistent_schedule", "rules",
         "kemeny_optima_consistent", "times"),
        ("instance",),
    ),
}
OPTIONAL_KEYS = {"kemeny_optima_consistent", "witnesses"}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pipeline", sorted(RECOMPUTED))
def test_timed_record_keys_keep_their_order(pipeline, seed):
    run, _ = RECOMPUTED[pipeline]
    keys, time_keys = RECORD_KEYS[pipeline]
    for record in run(seed, True).instances:
        assert list(record) == [k for k in keys if k in record], record
        assert set(keys) - set(record) <= OPTIONAL_KEYS, record
        assert list(record)[-1] == "times"
        assert tuple(record["times"]) == time_keys
