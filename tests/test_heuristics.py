"""Median-order heuristic and adjacent-swap local search."""

import numpy as np
import pytest

from collective_schedules import rules
from collective_schedules import (
    GenSpec,
    LocalSearchTrace,
    MismatchedTaskSetError,
    Objective,
    PreferenceProfile,
    Schedule,
    TaskSet,
    apply_rule,
    generate,
    lmt,
    local_search,
    median_completion_times,
    score,
    solve_exact,
)


class TestMedianCompletionTimes:
    def test_worked_example(self, example):
        _, profile = example
        assert median_completion_times(profile) == {"1": 6, "2": 5, "3": 7}

    def test_lower_median_on_even_split(self):
        # Completion times of u are {1, 1, 9, 9}: the lower median is 1.
        tasks = TaskSet.of(("u", 1), ("w", 8))
        profile = PreferenceProfile.of(tasks, (("u", "w"), 2), (("w", "u"), 2))
        assert median_completion_times(profile) == {"u": 1, "w": 8}

    def test_unanimous_profile_gives_ballot_completions(self):
        tasks = TaskSet.of(("a", 3), ("b", 1), ("c", 2))
        profile = PreferenceProfile.of(tasks, (("c", "a", "b"), 9))
        assert median_completion_times(profile) == {"c": 2, "a": 5, "b": 6}


class TestLmt:
    def test_worked_example(self, example):
        tasks, profile = example
        assert lmt(tasks, profile).order == ("2", "1", "3")

    def test_unanimous_profile_returns_the_ballot(self):
        tasks = TaskSet.of(("a", 3), ("b", 1), ("c", 2))
        profile = PreferenceProfile.of(tasks, (("c", "a", "b"), 4))
        assert lmt(tasks, profile).order == ("c", "a", "b")

    def test_median_ties_break_by_length_then_id(self):
        # Both unit tasks have median completion 1 under opposed voters,
        # so the declared-id tie-break decides.
        tasks = TaskSet.of(("a", 1), ("b", 1))
        profile = PreferenceProfile.of(tasks, (("a", "b"), 1), (("b", "a"), 1))
        assert lmt(tasks, profile).order == ("a", "b")

        # Equal medians, different lengths: the shorter task goes first.
        tasks = TaskSet.of(("s", 1), ("l", 2), ("x", 3))
        profile = PreferenceProfile.of(
            tasks, (("l", "s", "x"), 1), (("s", "l", "x"), 1), (("x", "l", "s"), 1)
        )
        medians = median_completion_times(profile)
        assert medians["s"] == medians["l"] == 3
        assert lmt(tasks, profile).order == ("s", "l", "x")

    def test_stable_under_duplicated_electorate(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            seed = int(rng.integers(0, 2**31))
            tasks, profile = generate(GenSpec(6, 9, "uniform", (1, 5), seed))
            tripled = PreferenceProfile(
                tasks, tuple((s, 3 * m) for s, m in profile.groups)
            )
            assert lmt(tasks, profile) == lmt(tasks, tripled)

    def test_rejects_mismatched_task_set(self, example):
        _, profile = example
        other = TaskSet.of(("1", 2), ("2", 4), ("3", 2))
        with pytest.raises(MismatchedTaskSetError):
            lmt(other, profile)


class TestLocalSearch:
    def test_descent_from_worst_order(self, example):
        _, profile = example
        sched, trace = local_search(
            Schedule.of("3", "2", "1"), profile, Objective.SUM_DEVIATION
        )
        assert sched.order == ("2", "1", "3")
        assert trace.start_score == 40
        assert trace.final_score == 20
        assert trace.terminated_by == "local-optimum"
        assert [(s.position, s.score_before, s.score_after) for s in trace.steps] == [
            (0, 40, 29),
            (1, 29, 20),
        ]
        # n - 1 = 2 gains at the start, then one neighbour's per step: the
        # swapped pair's own gain is the step's, negated
        assert trace.swaps_scored == 4

    def test_swaps_scored_takes_no_part_in_equality(self, example):
        _, profile = example
        _, trace = local_search(Schedule.of("3", "2", "1"), profile, Objective.SUM_DEVIATION)
        by_hand = LocalSearchTrace(trace.steps, trace.terminated_by, trace.start_score, trace.final_score)
        assert by_hand.swaps_scored == 0 and by_hand == trace

    def test_no_steps_at_an_optimum(self, example):
        _, profile = example
        sched, trace = local_search(
            Schedule.of("2", "1", "3"), profile, Objective.SUM_DEVIATION
        )
        assert sched.order == ("2", "1", "3")
        assert trace.steps == ()
        assert trace.terminated_by == "local-optimum"
        assert trace.start_score == trace.final_score == 20
        assert trace.swaps_scored == 2

    def test_step_cap(self, example):
        _, profile = example
        sched, trace = local_search(
            Schedule.of("3", "2", "1"),
            profile,
            Objective.SUM_DEVIATION,
            max_steps=0,
        )
        assert sched.order == ("3", "2", "1")
        assert trace.steps == ()
        assert trace.terminated_by == "step-cap"
        assert trace.swaps_scored == 2

    def test_negative_cap_rejected(self, example):
        _, profile = example
        with pytest.raises(ValueError):
            local_search(Schedule.of("1", "2", "3"), profile, Objective.SUM_DEVIATION, max_steps=-1)

    def test_bool_cap_rejected(self, example):
        # True used to cap the descent at one step
        _, profile = example
        with pytest.raises(ValueError):
            local_search(Schedule.of("3", "2", "1"), profile, Objective.SUM_DEVIATION, max_steps=True)

    def test_non_integer_cap_rejected(self, example):
        # 2.5 used to cap the descent at three steps
        _, profile = example
        with pytest.raises(ValueError):
            local_search(Schedule.of("3", "2", "1"), profile, Objective.SUM_DEVIATION, max_steps=2.5)

    def test_scores_strictly_decrease_along_the_trace(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            seed = int(rng.integers(0, 2**31))
            tasks, profile = generate(GenSpec(7, 15, "uniform", (1, 8), seed))
            start = Schedule(tuple(rng.permutation(tasks.ids)))
            for objective in Objective:
                sched, trace = local_search(start, profile, objective)
                scores = [trace.start_score] + [s.score_after for s in trace.steps]
                assert all(x > y for x, y in zip(scores, scores[1:]))
                assert trace.final_score == scores[-1]
                assert trace.final_score == score(sched, profile, objective)
                assert trace.final_score <= trace.start_score
                # n - 1 gains at the start, then one or two neighbours' per step
                steps = len(trace.steps)
                assert tasks.n - 1 + steps <= trace.swaps_scored <= tasks.n - 1 + 2 * steps

    def test_default_budget_suffices_in_practice(self):
        # The default step budget is 2n; seeded descents finish within it.
        rng = np.random.default_rng(23)
        for trial in range(15):
            seed = int(rng.integers(0, 2**31))
            tasks, profile = generate(GenSpec(6, 11, "uniform", (1, 6), seed))
            start = Schedule(tuple(rng.permutation(tasks.ids)))
            _, trace = local_search(start, profile, Objective.SUM_DEVIATION)
            assert trace.terminated_by == "local-optimum"
            assert len(trace.steps) <= 2 * tasks.n

    def test_never_worse_than_exact_optimum(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            seed = int(rng.integers(0, 2**31))
            tasks, profile = generate(GenSpec(6, 10, "uniform", (1, 6), seed))
            exact = solve_exact(tasks, profile, Objective.SUM_DEVIATION)
            improved, trace = local_search(
                lmt(tasks, profile), profile, Objective.SUM_DEVIATION
            )
            assert trace.final_score >= exact.optimal_score


class TestOneCompilePerCall:
    @pytest.mark.parametrize("rule", ["lmt", "lmt-ls"])
    def test_apply_rule_validates_and_tabulates_once(self, rule, compile_counts):
        tasks, profile = generate(GenSpec(8, 30, "uniform", (1, 10), 7))
        apply_rule(rule, tasks, profile)
        assert compile_counts == {"compiles": 1}

    def test_lmt_ls_calls_the_public_heuristics(self, monkeypatch):
        # a tracer that wraps public names sees the sort and the descent
        calls = []
        for name in ("lmt", "local_search"):
            original = getattr(rules, name)

            def counting(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(rules, name, counting)
        tasks, profile = generate(GenSpec(8, 30, "uniform", (1, 10), 7))
        apply_rule("lmt-ls", tasks, profile)
        assert calls == ["lmt", "local_search"]
