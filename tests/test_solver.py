"""Exact solvers: optimal scores, tie-breaking, enumeration, and guards."""

import dataclasses
import gc
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collective_schedules import (
    GenSpec,
    Objective,
    PreferenceProfile,
    Schedule,
    SolveOptions,
    TaskSet,
    TooManyTasksError,
    apply_rule,
    brute_force_oracle,
    enumerate_optima,
    generate,
    local_search,
    score,
    solve_exact,
)
from reference_kernels import kernel_instances, reference_exact_solve
from test_delta_search import reference_local_search, row_rule_instances, tabulates_rows

MODELS = ("uniform", "plackett-luce")


class TestWorkedExample:
    def test_deviation_optimum(self, example):
        tasks, profile = example
        report = solve_exact(tasks, profile, Objective.SUM_DEVIATION)
        assert report.optimal_score == 20
        assert report.schedule.order == ("2", "1", "3")
        assert report.optimum_count == 1
        assert report.states_explored == 8

    def test_tardiness_optimum(self, example):
        tasks, profile = example
        report = solve_exact(tasks, profile, Objective.SUM_TARDINESS)
        assert report.optimal_score == 11
        assert report.schedule.order == ("1", "2", "3")
        assert report.optimum_count == 1

    def test_pairwise_optima(self, example):
        tasks, profile = example
        options = SolveOptions(enumerate_all=True)
        report = solve_exact(tasks, profile, Objective.PTA_KENDALL_TAU, options)
        assert report.optimal_score == 12
        assert report.optimum_count == 2
        assert report.schedule.order == ("1", "2", "3")
        assert report.optima == (
            Schedule.of("1", "2", "3"),
            Schedule.of("1", "3", "2"),
        )
        assert report.optima_complete

    def test_optima_skipped_unless_requested(self, example):
        tasks, profile = example
        report = solve_exact(tasks, profile, Objective.PTA_KENDALL_TAU)
        assert report.optima is None
        assert report.optima_complete

    def test_enumeration_cap(self, example):
        tasks, profile = example
        options = SolveOptions(enumerate_all=True, optimum_cap=1)
        report = solve_exact(tasks, profile, Objective.PTA_KENDALL_TAU, options)
        assert len(report.optima) == 1
        assert not report.optima_complete
        assert report.optimum_count == 2  # exact count is independent of the cap

    def test_enumerate_optima_helper(self, example):
        tasks, profile = example
        optima, complete = enumerate_optima(tasks, profile, Objective.PTA_KENDALL_TAU)
        assert complete
        assert [s.order for s in optima] == [("1", "2", "3"), ("1", "3", "2")]


class TestOracle:
    def test_matches_worked_example(self, example):
        tasks, profile = example
        expected = {
            Objective.SUM_DEVIATION: (20, [("2", "1", "3")]),
            Objective.SUM_TARDINESS: (11, [("1", "2", "3")]),
            Objective.PTA_KENDALL_TAU: (12, [("1", "2", "3"), ("1", "3", "2")]),
        }
        for objective, (best, optima) in expected.items():
            report = brute_force_oracle(tasks, profile, objective)
            assert report.optimal_score == best
            assert [s.order for s in report.optima] == optima
            assert report.optima_complete
            assert report.states_explored == 6

    def test_size_guard(self):
        tasks = TaskSet.of(*((f"t{i}", 1) for i in range(10)))
        profile = PreferenceProfile.of(tasks, (tasks.ids, 1))
        with pytest.raises(TooManyTasksError):
            brute_force_oracle(tasks, profile, Objective.SUM_DEVIATION)

    def test_agrees_with_exact_solver_on_random_instances(self):
        rng = np.random.default_rng(99)
        enumerate_all = SolveOptions(enumerate_all=True, optimum_cap=720)
        for trial in range(30):
            n = int(rng.integers(3, 6))
            v = int(rng.integers(1, 12))
            model = MODELS[trial % 2]
            seed = int(rng.integers(0, 2**31))
            tasks, profile = generate(GenSpec(n, v, model, (1, 6), seed))
            for objective in Objective:
                oracle = brute_force_oracle(tasks, profile, objective)
                fast = solve_exact(tasks, profile, objective, enumerate_all)
                assert fast.optimal_score == oracle.optimal_score
                assert fast.optima == oracle.optima
                assert fast.optimum_count == len(oracle.optima)
                assert fast.schedule == oracle.optima[0]


class TestOptions:
    def test_defaults(self):
        options = SolveOptions()
        assert not options.enumerate_all
        assert options.optimum_cap == 1000
        assert options.max_tasks == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"optimum_cap": 0},
            {"max_tasks": 0},
            pytest.param({"optimum_cap": True}, id="optimum_cap-bool"),
            pytest.param({"optimum_cap": "3"}, id="optimum_cap-str"),
            pytest.param({"optimum_cap": 2.5}, id="optimum_cap-float"),
            pytest.param({"max_tasks": True}, id="max_tasks-bool"),
            pytest.param({"max_tasks": 2.5}, id="max_tasks-float"),
            # the solve filled and counted, then islice refused the cap
            pytest.param({"enumerate_all": True, "optimum_cap": 10**30}, id="optimum_cap-past-maxsize"),
            pytest.param({"optimum_cap": sys.maxsize + 1}, id="optimum_cap-maxsize-plus-1"),
            pytest.param({"max_tasks": sys.maxsize + 1}, id="max_tasks-maxsize-plus-1"),
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolveOptions(**kwargs)

    def test_cap_at_the_ceiling_enumerates(self, example):
        tasks, profile = example
        report = solve_exact(tasks, profile, Objective.PTA_KENDALL_TAU, SolveOptions(enumerate_all=True, optimum_cap=sys.maxsize))
        assert report.optima_complete and len(report.optima) == report.optimum_count

    @pytest.mark.parametrize("cap", [10**20, 2**63])
    def test_cap_past_the_ceiling_named_before_any_solve(self, example, cap):
        tasks, profile = example
        with pytest.raises(ValueError, match=rf"^cap must be an integer from 1 to sys.maxsize \({sys.maxsize}\), got {cap}$"):
            enumerate_optima(tasks, profile, Objective.SUM_DEVIATION, cap=cap)

    def test_size_guard(self, example):
        tasks, profile = example
        with pytest.raises(TooManyTasksError):
            solve_exact(tasks, profile, Objective.SUM_DEVIATION, SolveOptions(max_tasks=2))


class TestTieBreaking:
    def test_representative_is_lexicographically_least(self):
        # Two unit tasks and two opposed voters tie every order;
        # the representative must follow the declared task order.
        tasks = TaskSet.of(("y", 1), ("x", 1))
        profile = PreferenceProfile.of(tasks, (("y", "x"), 1), (("x", "y"), 1))
        for objective in Objective:
            report = solve_exact(tasks, profile, objective, SolveOptions(enumerate_all=True))
            assert report.schedule.order == ("y", "x")
            assert report.optimum_count == 2
            assert report.optima == (Schedule.of("y", "x"), Schedule.of("x", "y"))

    def test_unanimous_profile_returns_the_ballot(self):
        tasks = TaskSet.of(("a", 3), ("b", 1), ("c", 2))
        profile = PreferenceProfile.of(tasks, (("c", "a", "b"), 7))
        for objective in Objective:
            report = solve_exact(tasks, profile, objective)
            assert report.schedule.order == ("c", "a", "b")
            assert report.optimal_score == 0
            assert report.optimum_count == 1


def _force_pair_before(profile: PreferenceProfile, a: str, b: str) -> PreferenceProfile:
    """Rewrite every ballot so task ``a`` sits immediately before ``b``."""
    orders = []
    for schedule, mult in profile.groups:
        order = [tid for tid in schedule.order if tid != a]
        order.insert(order.index(b), a)
        orders.extend([tuple(order)] * mult)
    return PreferenceProfile.from_orders(profile.tasks, orders)


class TestUnanimousPairStructure:
    """When every voter places a before b, optima keep the pair in order
    provided the earlier task is not longer than the later one."""

    def _corpus(self):
        rng = np.random.default_rng(4242)
        for trial in range(25):
            n = int(rng.integers(4, 6))
            v = int(rng.integers(3, 9))
            model = MODELS[trial % 2]
            seed = int(rng.integers(0, 2**31))
            tasks, profile = generate(GenSpec(n, v, model, (1, 3), seed))
            yield tasks, profile

    def test_every_pairwise_optimum_respects_shorter_first_pair(self):
        for tasks, profile in self._corpus():
            a, b = next(
                (x, y)
                for x, y in itertools.permutations(tasks.ids, 2)
                if tasks.length(x) <= tasks.length(y)
            )
            forced = _force_pair_before(profile, a, b)
            optima, complete = enumerate_optima(
                tasks, forced, Objective.PTA_KENDALL_TAU, cap=5000
            )
            assert complete
            assert all(s.position(a) < s.position(b) for s in optima)

    def test_some_tardiness_optimum_respects_shorter_first_pair(self):
        for tasks, profile in self._corpus():
            a, b = next(
                (x, y)
                for x, y in itertools.permutations(tasks.ids, 2)
                if tasks.length(x) <= tasks.length(y)
            )
            forced = _force_pair_before(profile, a, b)
            optima, complete = enumerate_optima(
                tasks, forced, Objective.SUM_TARDINESS, cap=5000
            )
            assert complete
            assert any(s.position(a) < s.position(b) for s in optima)

    def test_some_deviation_optimum_respects_equal_length_pair(self):
        for tasks, profile in self._corpus():
            pair = next(
                (
                    (x, y)
                    for x, y in itertools.combinations(tasks.ids, 2)
                    if tasks.length(x) == tasks.length(y)
                ),
                None,
            )
            if pair is None:
                continue
            a, b = pair
            forced = _force_pair_before(profile, a, b)
            optima, complete = enumerate_optima(
                tasks, forced, Objective.SUM_DEVIATION, cap=5000
            )
            assert complete
            assert any(s.position(a) < s.position(b) for s in optima)


class TestReportShape:
    def test_states_and_timing(self, example):
        tasks, profile = example
        report = solve_exact(tasks, profile, Objective.SUM_DEVIATION)
        assert report.objective is Objective.SUM_DEVIATION
        assert report.states_explored == 2 ** tasks.n
        assert report.wall_time_s >= 0.0

    def test_phases_split_the_wall_time(self, example):
        tasks, profile = example
        for objective in Objective:
            # a fresh profile object, so the compile phase compiles it
            fresh = PreferenceProfile(tasks, profile.groups)
            report = solve_exact(tasks, fresh, objective, SolveOptions(enumerate_all=True))
            assert set(report.phases) == {"compile", "tables", "fill", "count", "walk"}
            assert all(seconds >= 0 for seconds in report.phases.values())
            assert sum(report.phases.values()) <= report.wall_time_s
            # the phases take no part in comparisons, and replace keeps them
            assert dataclasses.replace(report, phases=None) == report
            assert dataclasses.replace(report, wall_time_s=0.0).phases == report.phases
        assert brute_force_oracle(tasks, profile, Objective.SUM_DEVIATION).phases is None

    def test_single_task_instance(self):
        tasks = TaskSet.of(("only", 4))
        profile = PreferenceProfile.of(tasks, (("only",), 3))
        for objective in Objective:
            report = solve_exact(tasks, profile, objective, SolveOptions(enumerate_all=True))
            assert report.schedule.order == ("only",)
            assert report.optimal_score == 0
            assert report.optima == (Schedule.of("only"),)


@st.composite
def tie_heavy_instances(draw, max_tasks=7, min_tasks=1):
    """``min_tasks`` to ``max_tasks`` tasks of one length and one or two voters: optima tie often."""
    n = draw(st.integers(min_tasks, max_tasks))
    length = draw(st.integers(1, 3))
    tasks = TaskSet.of(*((f"t{i}", length) for i in range(n)))
    v = draw(st.sampled_from((1, 2)))
    orders = [draw(st.permutations(tasks.ids)) for _ in range(v)]
    return tasks, PreferenceProfile.from_orders(tasks, orders)


class TestCappedEnumeration:
    @settings(max_examples=40, deadline=None)
    @given(instance=tie_heavy_instances(), objective=st.sampled_from(list(Objective)))
    def test_capped_optima_are_a_prefix_of_the_oracle(self, instance, objective):
        tasks, profile = instance
        oracle = brute_force_oracle(tasks, profile, objective)
        count = oracle.optimum_count
        for cap in range(1, count + 2):
            report = solve_exact(tasks, profile, objective, SolveOptions(enumerate_all=True, optimum_cap=cap))
            assert report.optimum_count == count
            assert report.schedule == oracle.schedule
            assert report.optima == oracle.optima[:cap]
            assert report.optima_complete == (count <= cap)
        plain = solve_exact(tasks, profile, objective)
        assert plain.optima is None
        assert plain.optima_complete


class TestBlockFillMatchesOracle:
    """The fill's per-block slices and pta's split-pair charges at every size
    from one task (no low half at all) to seven, odd sizes included."""

    @pytest.mark.parametrize("n", range(1, 8))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), objective=st.sampled_from(list(Objective)))
    def test_score_count_representative_and_capped_optima(self, n, data, objective):
        tasks, profile = data.draw(tie_heavy_instances(n, min_tasks=n))
        oracle = brute_force_oracle(tasks, profile, objective)
        count = oracle.optimum_count
        cap = data.draw(st.integers(1, count + 1), label="cap")
        report = solve_exact(tasks, profile, objective, SolveOptions(enumerate_all=True, optimum_cap=cap))
        assert (report.optimal_score, report.optimum_count, report.schedule) == (
            oracle.optimal_score,
            count,
            oracle.schedule,
        )
        assert report.optima == oracle.optima[:cap]
        assert report.optima_complete == (count <= cap)


class TestOptimumCount:
    """The count walks forward over the transitions that keep the optimum."""

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_opposite_ballots(self, n):
        # two exactly opposite voters of unit tasks: every order ties under
        # pta, and dev and tard each have 2^(n/2) optima
        tasks = TaskSet.of(*((f"t{i:02d}", 1) for i in range(n)))
        profile = PreferenceProfile.from_orders(tasks, [tasks.ids, tasks.ids[::-1]])
        expected = {
            Objective.SUM_DEVIATION: 2 ** (n // 2),
            Objective.SUM_TARDINESS: 2 ** (n // 2),
            Objective.PTA_KENDALL_TAU: math.factorial(n),
        }
        for objective, count in expected.items():
            report = solve_exact(tasks, profile, objective)
            assert report.optimum_count == count
            assert report.states_explored == 2**n
            if n <= 9:
                oracle = brute_force_oracle(tasks, profile, objective)
                assert (report.optimal_score, report.optimum_count, report.schedule) == (
                    oracle.optimal_score,
                    oracle.optimum_count,
                    oracle.schedule,
                )
            if objective is Objective.PTA_KENDALL_TAU:
                assert report.schedule.order == tasks.ids

    @settings(max_examples=60, deadline=None)
    @given(instance=tie_heavy_instances(12), objective=st.sampled_from(list(Objective)), data=st.data())
    def test_matches_the_counting_fill(self, instance, objective, data):
        tasks, profile = instance
        cap = data.draw(st.integers(1, 50), label="cap")
        report = solve_exact(tasks, profile, objective, SolveOptions(enumerate_all=True, optimum_cap=cap))
        reference = reference_exact_solve(tasks, profile, objective, cap)
        assert (report.optimal_score, report.optimum_count, report.schedule, report.optima) == reference
        assert report.optima_complete == (reference[1] <= cap)


class TestFillMatchesTheCountingFillWithBigIntegers:
    """Past the oracle's range, with lengths up to 10^12 and multiplicities up
    to 2^50; and at one to three tasks, where the low half has no task or
    one, and the full high half has no subset to fill or one."""

    def check(self, instance, objective, cap):
        tasks, profile = instance
        report = solve_exact(tasks, profile, objective, SolveOptions(enumerate_all=True, optimum_cap=cap))
        reference = reference_exact_solve(tasks, profile, objective, cap)
        assert (report.optimal_score, report.optimum_count, report.schedule, report.optima) == reference
        assert report.optima_complete == (reference[1] <= cap)
        assert report.states_explored == 2**tasks.n

    @settings(max_examples=30, deadline=None)
    @given(instance=kernel_instances(13, min_tasks=8), objective=st.sampled_from(list(Objective)), data=st.data())
    def test_eight_to_thirteen_tasks(self, instance, objective, data):
        self.check(instance, objective, data.draw(st.integers(1, 50), label="cap"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), objective=st.sampled_from(list(Objective)))
    def test_one_to_three_tasks(self, n, data, objective):
        instance = data.draw(kernel_instances(n, min_tasks=n), label="instance")
        self.check(instance, objective, data.draw(st.integers(1, 7), label="cap"))


class TestMemory:
    def test_solve_leaves_no_reference_cycles(self):
        # a cycle would keep the 2^n tables alive until the cyclic collector runs
        tasks, profile = generate(GenSpec(6, 5, "uniform", (1, 3), 7))
        gc.collect()
        gc.disable()
        try:
            for objective in Objective:
                for enumerate_all in (False, True):
                    solve_exact(tasks, profile, objective, SolveOptions(enumerate_all=enumerate_all))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_shared_tables_leave_no_reference_cycles(self):
        # the kept compiled profile keeps its due tables and pair counts,
        # which hold no reference back to it or to a solve's own tables
        tasks, profile = generate(GenSpec(6, 5, "uniform", (1, 3), 7))
        gc.collect()
        gc.disable()
        try:
            for objective in list(Objective) * 2:
                solve_exact(tasks, profile, objective, SolveOptions(enumerate_all=True))
            for rule in ("lmt", "lmt-ls"):
                apply_rule(rule, tasks, profile)
            assert gc.collect() == 0
        finally:
            gc.enable()


@st.composite
def guard_instances(draw):
    """Up to 8 tasks: tie-heavy ones (one or two voters, equal lengths), huge
    multiplicities, and lengths up to 10**12, which outgrow any per-start
    cost table."""
    n = draw(st.integers(1, 8))
    length = st.one_of(st.integers(1, 4), st.integers(1, 10**12))
    if draw(st.booleans()):
        lengths = [draw(length)] * n
    else:
        lengths = draw(st.lists(length, min_size=n, max_size=n))
    tasks = TaskSet(tuple((f"t{i}", x) for i, x in enumerate(lengths)))
    groups = draw(st.one_of(st.sampled_from((1, 2)), st.integers(1, 5)))
    ballots = [draw(st.permutations(tasks.ids)) for _ in range(groups)]
    mults = draw(st.lists(st.one_of(st.integers(1, 5), st.integers(1, 2**50)), min_size=groups, max_size=groups))
    return tasks, PreferenceProfile.of(tasks, *zip(ballots, mults))


class TestExactSolveMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(instance=guard_instances(), objective=st.sampled_from(list(Objective)), data=st.data())
    def test_score_count_optima_and_local_search(self, instance, objective, data):
        tasks, profile = instance
        oracle = brute_force_oracle(tasks, profile, objective)
        count = oracle.optimum_count
        plain = solve_exact(tasks, profile, objective)
        assert (plain.optimal_score, plain.optimum_count, plain.schedule) == (oracle.optimal_score, count, oracle.schedule)
        cap = data.draw(st.integers(1, count + 1), label="cap")
        capped = solve_exact(tasks, profile, objective, SolveOptions(enumerate_all=True, optimum_cap=cap))
        assert capped.optima == oracle.optima[:cap]
        assert capped.optima_complete == (count <= cap)
        start = Schedule(tuple(data.draw(st.permutations(tasks.ids), label="start")))
        max_steps = data.draw(st.sampled_from([0, 1, None]), label="max_steps")
        assert local_search(start, profile, objective, max_steps) == reference_local_search(
            start, profile, objective, max_steps
        )


class TestExactSolveMatchesOracleAcrossRowRule:
    """The deviation and tardiness fill reads per-start rows on one side of
    the row rule and bisects on the other; both must match the oracle."""

    @pytest.mark.parametrize("rows", [True, False])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), objective=st.sampled_from(list(Objective)))
    def test_score_count_representative_and_capped_optima(self, rows, data, objective):
        tasks, profile = data.draw(row_rule_instances(rows))
        assert tabulates_rows(tasks) == rows
        oracle = brute_force_oracle(tasks, profile, objective)
        count = oracle.optimum_count
        report = solve_exact(tasks, profile, objective)
        assert (report.optimal_score, report.optimum_count, report.schedule) == (
            oracle.optimal_score,
            count,
            oracle.schedule,
        )
        assert report.states_explored == 2**tasks.n
        cap = data.draw(st.integers(1, count + 1), label="cap")
        assert enumerate_optima(tasks, profile, objective, cap) == (oracle.optima[:cap], count <= cap)


class TestTablesNeverSizedByLoad:
    """A table indexed by load value would need as many entries as the
    largest load (up to 3 * 10^12 here): the solves below would fail with
    ``MemoryError`` or exhaust the machine.  Three equal lengths take the
    rows over distinct loads; the others, and n = 12, bisect."""

    @pytest.mark.parametrize(
        "lengths",
        [
            (10**12,),
            (10**12 - 7, 10**12 + 3),
            (10**12, 10**12),
            (999_999_999_989, 10**12, 10**12 + 11),
            (10**12, 10**12, 10**12),
            (1_057_960_822,) * 3,
        ],
    )
    @pytest.mark.parametrize("objective", list(Objective))
    def test_long_tasks_at_one_to_three_tasks(self, lengths, objective):
        tasks = TaskSet(tuple((f"t{i}", length) for i, length in enumerate(lengths)))
        ballots = list(itertools.permutations(tasks.ids))
        profile = PreferenceProfile.of(tasks, *((order, k + 1) for k, order in enumerate(ballots)))
        oracle = brute_force_oracle(tasks, profile, objective)
        report = solve_exact(tasks, profile, objective, SolveOptions(enumerate_all=True))
        assert (report.optimal_score, report.optimum_count, report.optima) == (
            oracle.optimal_score,
            oracle.optimum_count,
            oracle.optima,
        )

    @pytest.mark.parametrize("objective", list(Objective))
    def test_twelve_tasks_past_break_even(self, objective):
        tasks, profile = generate(GenSpec(12, 20, "uniform", (1, 1000), 0))
        assert not tabulates_rows(tasks)
        report = solve_exact(tasks, profile, objective)
        assert report.states_explored == 2**12
        assert report.optimal_score == score(report.schedule, profile, objective)
        # an optimum is a local optimum: no adjacent swap improves it
        _, trace = local_search(report.schedule, profile, objective)
        assert trace.steps == () and trace.final_score == report.optimal_score
