"""Scoring functions and rank distances on hand-checked instances."""

from collections import defaultdict
from dataclasses import replace
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collective_schedules import (
    CollectiveSchedulesError,
    DuplicateTaskError,
    GenSpec,
    MismatchedTaskSetError,
    Objective,
    PreferenceProfile,
    Schedule,
    TaskSet,
    UnknownTaskError,
    completion_times,
    deviation,
    generate,
    lmt,
    local_search,
    lrm_probe,
    median_completion_times,
    pairwise_counts,
    pta_condorcet_constraints,
    pta_kendall_tau,
    require_valid_profile,
    score,
    solve_exact,
    tardiness,
    unanimous_pairs,
)
from collective_schedules import metrics
from collective_schedules.metrics import _compile_profile
from reference_kernels import pair_count_kernel, reference_compile
from test_model import Seats, defective_profiles

# Every permutation of the shared example, scored by hand:
# (order) -> (sum of absolute deviations, sum of tardiness, pairwise score)
EXAMPLE_TABLE = {
    ("1", "2", "3"): (24, 11, 12),
    ("1", "3", "2"): (41, 12, 12),
    ("2", "1", "3"): (20, 14, 14),
    ("2", "3", "1"): (29, 16, 16),
    ("3", "1", "2"): (46, 12, 14),
    ("3", "2", "1"): (40, 14, 16),
}


class TestObjectiveScores:
    def test_example_score_table(self, example):
        _, profile = example
        for order, (dev, tard, pta) in EXAMPLE_TABLE.items():
            s = Schedule(order)
            assert deviation(s, profile) == dev
            assert tardiness(s, profile) == tard
            assert pta_kendall_tau(s, profile) == pta

    def test_scores_are_exact_ints(self, example):
        _, profile = example
        s = Schedule.of("2", "1", "3")
        assert type(deviation(s, profile)) is int
        assert type(tardiness(s, profile)) is int
        assert type(pta_kendall_tau(s, profile)) is int

    def test_score_dispatcher_matches_metric_functions(self, example):
        _, profile = example
        s = Schedule.of("3", "1", "2")
        assert score(s, profile, Objective.SUM_DEVIATION) == deviation(s, profile)
        assert score(s, profile, Objective.SUM_TARDINESS) == tardiness(s, profile)
        assert score(s, profile, Objective.PTA_KENDALL_TAU) == pta_kendall_tau(s, profile)

    def test_tardiness_never_exceeds_deviation(self, example):
        _, profile = example
        for order in EXAMPLE_TABLE:
            s = Schedule(order)
            assert 0 <= tardiness(s, profile) <= deviation(s, profile)

    def test_multiplicity_scales_linearly(self):
        tasks = TaskSet.of(("a", 2), ("b", 3))
        single = PreferenceProfile.of(tasks, (("b", "a"), 1))
        triple = PreferenceProfile.of(tasks, (("b", "a"), 3))
        s = Schedule.of("a", "b")
        for objective in Objective:
            assert score(s, triple, objective) == 3 * score(s, single, objective)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_union_scores_the_sum_of_its_parts(self, data):
        # every objective sums over voters, which reinforcement relies on;
        # ballots repeat across the parts, so the union holds some twice
        n = data.draw(st.integers(1, 6))
        tasks = TaskSet(tuple((f"t{i}", data.draw(st.integers(1, 10))) for i in range(n)))
        pool = data.draw(st.lists(st.permutations(tasks.ids), min_size=1, max_size=4))
        groups = st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2**50)), min_size=1, max_size=4)
        part_a = PreferenceProfile.of(tasks, *data.draw(groups))
        part_b = PreferenceProfile.of(tasks, *data.draw(groups))
        union = PreferenceProfile(tasks, part_a.groups + part_b.groups)
        s = Schedule(tuple(data.draw(st.permutations(tasks.ids))))
        for objective in Objective:
            assert score(s, union, objective) == score(s, part_a, objective) + score(s, part_b, objective)

    def test_deviation_against_single_voter(self, example):
        tasks, _ = example
        voter = PreferenceProfile.of(tasks, (("1", "2", "3"), 1))
        assert deviation(Schedule.of("2", "1", "3"), voter) == 6

    def test_zero_against_own_ballot(self, example):
        tasks, _ = example
        for order in EXAMPLE_TABLE:
            voter = PreferenceProfile.of(tasks, (order, 1))
            s = Schedule(order)
            assert deviation(s, voter) == 0
            assert tardiness(s, voter) == 0
            assert pta_kendall_tau(s, voter) == 0

    def test_rejects_foreign_schedule(self, example):
        _, profile = example
        with pytest.raises(MismatchedTaskSetError):
            deviation(Schedule.of("1", "2"), profile)


class TestPairwiseCounts:
    def test_example_matrix(self, example):
        _, profile = example
        counts = pairwise_counts(profile)
        assert counts.voter_count == 5
        expected = {
            ("1", "2"): 2,
            ("2", "1"): 3,
            ("1", "3"): 4,
            ("3", "1"): 1,
            ("2", "3"): 4,
            ("3", "2"): 1,
        }
        for (a, b), want in expected.items():
            assert counts.before(a, b) == want

    def test_opposing_counts_sum_to_voters(self, example):
        tasks, profile = example
        counts = pairwise_counts(profile)
        for a in tasks.ids:
            for b in tasks.ids:
                if a != b:
                    assert counts.before(a, b) + counts.before(b, a) == 5

    def test_precomputed_counts_give_same_score(self, example):
        # a before b costs len(a) per voter who wanted b first
        tasks, profile = example
        counts = pairwise_counts(profile)
        for order in permutations(tasks.ids):
            by_hand = sum(
                tasks.length(a) * counts.before(b, a)
                for i, a in enumerate(order)
                for b in order[i + 1 :]
            )
            assert by_hand == pta_kendall_tau(Schedule(order), profile)


def unit_tasks(ids):
    return TaskSet(tuple((t, 1) for t in ids))


def rank_distances(x, y, tasks=None):
    """Kendall tau and Spearman's footrule between two orders.

    They are ``score`` under ``pta-kendall-tau`` and ``sum-deviation`` with
    unit-length tasks (``x``'s by default) and ``y`` as the only voter.
    """
    voter = PreferenceProfile.of(tasks or unit_tasks(x.order), (y.order, 1))
    return score(x, voter, Objective.PTA_KENDALL_TAU), score(x, voter, Objective.SUM_DEVIATION)


def unit_voter(tasks):
    """The declared order of ``tasks`` as the only voter, every length 1."""
    return PreferenceProfile.of(unit_tasks(tasks.ids), (tasks.ids, 1))


class TestRankDistances:
    def test_three_element_reversal(self):
        x = Schedule.of("p", "q", "r")
        y = Schedule.of("r", "q", "p")
        assert rank_distances(x, y) == (3, 4)

    def test_identical_orders(self):
        x = Schedule.of("p", "q", "r")
        assert rank_distances(x, x) == (0, 0)

    def test_single_adjacent_swap(self):
        x = Schedule.of("p", "q", "r")
        y = Schedule.of("q", "p", "r")
        assert rank_distances(x, y) == (1, 2)

    def test_symmetry(self):
        x = Schedule.of("a", "b", "c", "d")
        y = Schedule.of("c", "a", "d", "b")
        assert rank_distances(x, y) == rank_distances(y, x)

    def test_explicit_task_set_agrees(self):
        # the declared order of the unit-length task set plays no part
        tasks = TaskSet.of(("r", 1), ("p", 1), ("q", 1))
        x = Schedule.of("p", "q", "r")
        y = Schedule.of("r", "q", "p")
        assert rank_distances(x, y, tasks) == (3, 4)

    def test_mismatched_orders_rejected(self):
        with pytest.raises(UnknownTaskError):
            rank_distances(Schedule.of("a", "b"), Schedule.of("a", "c"))
        with pytest.raises(MismatchedTaskSetError):
            rank_distances(Schedule.of("a", "b", "c"), Schedule.of("a", "b"))
        with pytest.raises(DuplicateTaskError):
            rank_distances(Schedule.of("a", "a"), Schedule.of("a", "a"))

    def test_footrule_bounds_kendall(self):
        # Diaconis-Graham: kt <= footrule <= 2 * kt.
        orders = list(permutations(("a", "b", "c", "d")))
        base = Schedule(orders[0])
        for order in orders[1:]:
            kt, fr = rank_distances(base, Schedule(order))
            assert kt <= fr <= 2 * kt


# Every entry point that reads a schedule rejects a non-permutation with the
# same error: the schedule is scanned in order, the first unknown or repeated
# id is reported, and a missing task only once the scan is complete.
SCHEDULE_ENTRY_POINTS = {
    "score-dev": lambda s, tasks, profile: score(s, profile, Objective.SUM_DEVIATION),
    "score-tard": lambda s, tasks, profile: score(s, profile, Objective.SUM_TARDINESS),
    "score-pta": lambda s, tasks, profile: score(s, profile, Objective.PTA_KENDALL_TAU),
    "deviation": lambda s, tasks, profile: deviation(s, profile),
    "tardiness": lambda s, tasks, profile: tardiness(s, profile),
    "pta": lambda s, tasks, profile: pta_kendall_tau(s, profile),
    # the classical distances to the declared order, as rank_distances takes them
    "kendall-tau": lambda s, tasks, profile: score(s, unit_voter(tasks), Objective.PTA_KENDALL_TAU),
    "footrule": lambda s, tasks, profile: score(s, unit_voter(tasks), Objective.SUM_DEVIATION),
    "local-search": lambda s, tasks, profile: local_search(s, profile, Objective.SUM_DEVIATION),
    "completion-times": lambda s, tasks, profile: completion_times(s, tasks),
}

NON_PERMUTATIONS = {
    "missing": (("1", "2"), MismatchedTaskSetError, "schedule does not cover the whole task set"),
    "unknown-extra": (("1", "2", "3", "z"), UnknownTaskError, "unknown task id 'z' in schedule"),
    "repeat": (("1", "2", "3", "2"), MismatchedTaskSetError, "task '2' appears twice in schedule"),
    "repeat-then-unknown": (("1", "1", "z"), MismatchedTaskSetError, "task '1' appears twice in schedule"),
    "unknown-then-repeat": (("z", "1", "1"), UnknownTaskError, "unknown task id 'z' in schedule"),
}


@pytest.mark.parametrize("case", sorted(NON_PERMUTATIONS))
@pytest.mark.parametrize("entry", sorted(SCHEDULE_ENTRY_POINTS))
def test_non_permutation_schedules_rejected(example, entry, case):
    tasks, profile = example
    order, error, message = NON_PERMUTATIONS[case]
    with pytest.raises(error) as caught:
        SCHEDULE_ENTRY_POINTS[entry](Schedule(order), tasks, profile)
    assert type(caught.value) is error
    assert str(caught.value) == message


class TestKeptCompiledProfile:
    """One compiled form is kept, for the profile most recently compiled."""

    @staticmethod
    def every_entry_point(tasks, profile):
        start = lmt(tasks, profile)
        results = [start, local_search(start, profile, Objective.SUM_DEVIATION)]
        for objective in Objective:
            results.append(score(start, profile, objective))
            results.append(replace(solve_exact(tasks, profile, objective), wall_time_s=0.0))
        return results + [pta_condorcet_constraints(profile), unanimous_pairs(profile)]

    @pytest.mark.parametrize(
        "groups, error, message",
        [
            (((("1", "2"), 1),), MismatchedTaskSetError, "group 0 is missing task(s) ['3']"),
            (((("1", "2", "9"), 1),), UnknownTaskError, "group 0 names unknown task '9'"),
            (((("1", "2", "3"), 0),), ValueError, "multiplicity must be a positive integer, got 0"),
        ],
    )
    def test_invalid_profile_raises_the_same_error_every_call(self, example, groups, error, message):
        tasks, _ = example
        profile = PreferenceProfile.of(tasks, *groups)
        for _ in range(2):
            with pytest.raises(error) as caught:
                score(Schedule.of("1", "2", "3"), profile, Objective.SUM_DEVIATION)
            assert type(caught.value) is error and str(caught.value) == message

    def test_one_validation_and_one_table_build_per_profile(self, compile_counts):
        tasks, profile = generate(GenSpec(6, 20, "uniform", (1, 10), 3))
        self.every_entry_point(tasks, profile)
        assert compile_counts == {"compiles": 1}

    def test_the_slot_holds_one_profile(self, compile_counts):
        tasks, a = generate(GenSpec(5, 9, "uniform", (1, 10), 1))
        _, b = generate(GenSpec(5, 9, "uniform", (1, 10), 2))
        for profile in (a, b, a):
            lmt(profile.tasks, profile)
        assert compile_counts == {"compiles": 3}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), share=st.sampled_from(["tasks", "ballots", "nothing"]))
    def test_results_never_come_from_the_previous_profile(self, data, share):
        # A and B share their task set, or also their ballots (so only the
        # multiplicities differ), or nothing
        n = data.draw(st.integers(1, 6))
        lengths = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        tasks = TaskSet(tuple(zip((f"t{i}" for i in range(n)), lengths)))
        ballots = st.lists(st.permutations(tasks.ids), min_size=1, max_size=4)

        def groups(orders):
            return [(order, data.draw(st.integers(1, 5))) for order in orders]

        a_groups = groups(data.draw(ballots))
        b_groups = groups([order for order, _ in a_groups] if share == "ballots" else data.draw(ballots))
        b_tasks = TaskSet(tuple(zip(tasks.ids, lengths[::-1]))) if share == "nothing" else tasks
        a = PreferenceProfile.of(tasks, *a_groups)
        b = PreferenceProfile.of(b_tasks, *b_groups)
        fresh = PreferenceProfile.of(TaskSet(b_tasks.tasks), *b_groups)

        expected = self.every_entry_point(fresh.tasks, fresh)
        self.every_entry_point(tasks, a)
        assert self.every_entry_point(b_tasks, b) == expected
        # the reduced copy that lrm_probe builds and compiles
        target = next((tid for tid in b_tasks.ids if b_tasks.length(tid) >= 2), None)
        if target is not None:
            for rule in ("sum-dev", "lmt-ls"):
                expected = lrm_probe(fresh, rule, target, 1)
                lmt(tasks, a)
                assert lrm_probe(b, rule, target, 1) == expected


@st.composite
def rule_sides(draw):
    """A tiny profile (one to three ballots, some of them repeating an id) on
    either side of the dense rows rule: lengths up to 4, lengths up to 2^61,
    or rows one entry inside or past 256 per task; multiplicities up to 2^61."""
    n = draw(st.integers(1, 5))
    side = draw(st.sampled_from(["small", "huge", "edge"]))
    if side == "edge":  # the first task takes the rest of a total at the bound
        total = 255 + draw(st.integers(0, 1))
        lengths = [total - n + 1] + [1] * (n - 1)
    else:
        lengths = draw(st.lists(st.integers(1, 4 if side == "small" else 2**61), min_size=n, max_size=n))
    tasks = TaskSet(tuple((f"t{i}", x) for i, x in enumerate(lengths)))
    ballot = st.permutations(tasks.ids) | st.lists(st.sampled_from(tasks.ids), min_size=n, max_size=n)
    mult = st.integers(1, 3) | st.integers(1, 2**61)
    return PreferenceProfile.of(tasks, *draw(st.lists(st.tuples(ballot, mult), min_size=1, max_size=3)))


class TestCompileMatchesValidationThenTwoWalks:
    @settings(max_examples=400, deadline=None)
    @given(case=defective_profiles())
    def test_same_form_or_same_error(self, case):
        profile, tasks = case
        if tasks is not None:
            profile = PreferenceProfile(tasks, profile.groups)
        self.check(profile)

    @pytest.mark.parametrize("mult", [True, False, 0, -2, 1.0, 2.5, "2", None, Seats.NONE, Seats.THREE, 2**61])
    def test_each_multiplicity_beside_valid_ballots(self, example, mult):
        # the draws above rarely make a lone bad multiplicity the only defect
        tasks, profile = example
        self.check(PreferenceProfile(tasks, profile.groups + ((profile.groups[0][0], mult),)))

    @settings(max_examples=300, deadline=None)
    @given(case=rule_sides())
    def test_either_side_of_the_dense_rows_rule(self, case):
        self.check(case)

    @pytest.mark.parametrize("lengths", [(1, 1, 1), (5, 1, 2), (2**61, 1, 3)])
    def test_repeats_that_compensate_across_groups(self, lengths):
        # A runs x twice and lacks y, B runs y twice and lacks x: summed over
        # the two, every task runs twice, so only a per-group check sees it
        tasks = TaskSet(tuple(zip(("x", "y", "z"), lengths)))
        profile = PreferenceProfile.of(tasks, (("x", "x", "z"), 1), (("y", "y", "z"), 1))
        with pytest.raises(MismatchedTaskSetError, match="group 0 repeats task 'x'"):
            _compile_profile(profile)
        self.check(profile)

    @pytest.mark.parametrize("past", [0, 1])
    @pytest.mark.parametrize("n, groups", [(1, 1), (3, 2), (3, 300)])
    def test_rows_are_dense_up_to_the_bound(self, n, groups, past):
        # the n rows of total + 1 entries hold at most max(n * groups, 256 * n)
        total = max(groups, 256) - 1 + past
        tasks = TaskSet(tuple((f"t{i}", 1 if i else total - n + 1) for i in range(n)))
        profile = PreferenceProfile.of(tasks, *((tasks.ids[::-1] if g % 2 else tasks.ids, 1) for g in range(groups)))
        with mock.patch.object(metrics, "defaultdict", wraps=defaultdict) as dict_rows:
            _compile_profile(profile)
        assert dict_rows.called == bool(past)
        self.check(profile)

    @staticmethod
    def check(profile):
        # a valid profile compiles to the plain two-walk form, with the pair
        # counts of the per-voter kernel; an invalid one raises what
        # require_valid_profile raises, class and message
        try:
            require_valid_profile(profile)
        except (CollectiveSchedulesError, ValueError) as expected:
            with pytest.raises(type(expected)) as caught:
                _compile_profile(profile)
            assert type(caught.value) is type(expected) and str(caught.value) == str(expected)
            return
        compiled = _compile_profile(profile)
        assert (compiled.mults, compiled.voter_count, compiled.due_tables) == reference_compile(profile)
        assert compiled.pair_counts == pair_count_kernel(profile)
