"""Core data types: task sets, schedules, profiles, and validation."""

import re
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collective_schedules import (
    DuplicateTaskError,
    MismatchedTaskSetError,
    Objective,
    PairwiseCountMatrix,
    PreferenceProfile,
    ProfileDefect,
    ProfileValidation,
    Schedule,
    TaskSet,
    UnknownTaskError,
    check_unanimity,
    completion_times,
    is_pta_condorcet_consistent,
    lmt,
    local_search,
    lrm_probe,
    require_valid_profile,
    score,
    solve_exact,
    swap_tasks_in_profile,
    validate_profile,
)
from collective_schedules.model import _is_int, _shown


class TestTaskSet:
    def test_basic_accessors(self):
        tasks = TaskSet.of(("a", 2), ("b", 4), ("c", 1))
        assert tasks.n == 3
        assert tasks.ids == ("a", "b", "c")
        assert tasks.lengths == (2, 4, 1)
        assert tasks.total_load == 7
        assert tasks.length("b") == 4
        assert tasks.index("c") == 2
        assert "a" in tasks and "z" not in tasks

    def test_declared_order_is_preserved(self):
        tasks = TaskSet.of(("z", 1), ("a", 1))
        assert tasks.ids == ("z", "a")
        assert tasks.index("z") == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateTaskError):
            TaskSet.of(("a", 1), ("a", 2))

    def test_empty_task_set_rejected(self):
        with pytest.raises(ValueError):
            TaskSet.of()

    @pytest.mark.parametrize("length", [0, -3, 1.5, True])
    def test_bad_lengths_rejected(self, length):
        with pytest.raises(ValueError):
            TaskSet.of(("a", length))

    def test_bad_id_rejected(self):
        with pytest.raises(ValueError):
            TaskSet.of(("", 1))

    def test_unknown_task_lookup(self):
        tasks = TaskSet.of(("a", 1))
        with pytest.raises(UnknownTaskError):
            tasks.index("b")
        with pytest.raises(UnknownTaskError):
            tasks.length("b")

    def test_with_length_returns_new_set(self):
        tasks = TaskSet.of(("a", 2), ("b", 4))
        shorter = tasks.with_length("b", 1)
        assert shorter.lengths == (2, 1)
        assert shorter.ids == tasks.ids
        assert tasks.lengths == (2, 4)

    def test_equality_and_hash(self):
        assert TaskSet.of(("a", 1), ("b", 2)) == TaskSet.of(("a", 1), ("b", 2))
        assert TaskSet.of(("a", 1), ("b", 2)) != TaskSet.of(("b", 2), ("a", 1))
        assert hash(TaskSet.of(("a", 1))) == hash(TaskSet.of(("a", 1)))


class TestSchedule:
    def test_of_and_iteration(self):
        s = Schedule.of("b", "a", "c")
        assert s.order == ("b", "a", "c")
        assert list(s) == ["b", "a", "c"]
        assert len(s) == 3

    def test_position(self):
        s = Schedule.of("b", "a")
        assert s.position("b") == 0
        assert s.position("a") == 1
        with pytest.raises(UnknownTaskError):
            s.position("z")

    def test_swap(self):
        s = Schedule.of("a", "b", "c")
        assert s.swap("a", "c").order == ("c", "b", "a")
        assert s.swap("b", "b") is s


class TestCompletionTimes:
    def test_worked_example(self, example):
        tasks, _ = example
        times = completion_times(Schedule.of("2", "1", "3"), tasks)
        assert times == {"2": 4, "1": 6, "3": 7}

    def test_rejects_non_permutations(self, example):
        tasks, _ = example
        with pytest.raises(MismatchedTaskSetError):
            completion_times(Schedule.of("1", "2"), tasks)
        with pytest.raises(MismatchedTaskSetError):
            completion_times(Schedule.of("1", "1", "2"), tasks)
        with pytest.raises(UnknownTaskError):
            completion_times(Schedule.of("1", "2", "z"), tasks)


class TestPreferenceProfile:
    def test_of_builds_grouped_ballots(self, example):
        tasks, profile = example
        assert profile.tasks == tasks
        assert profile.voter_count == 5
        assert profile.groups[0] == (Schedule.of("2", "1", "3"), 2)

    def test_from_orders_collapses_and_sorts(self):
        tasks = TaskSet.of(("a", 1), ("b", 2))
        profile = PreferenceProfile.from_orders(
            tasks, [("b", "a"), ("a", "b"), ("b", "a")]
        )
        assert profile.groups == (
            (Schedule.of("a", "b"), 1),
            (Schedule.of("b", "a"), 2),
        )
        assert profile.voter_count == 3

    @pytest.mark.parametrize("orders", [[("a", "zz")], [("a", "b"), ("zz", "a"), ("b", "a")]])
    def test_from_orders_rejects_unknown_ids(self, orders):
        tasks = TaskSet.of(("a", 1), ("b", 2))
        with pytest.raises(UnknownTaskError, match="^unknown task id 'zz'$"):
            PreferenceProfile.from_orders(tasks, orders)

    def test_from_orders_keeps_invalid_ballots_as_groups(self):
        # a ballot that repeats or misses an id is grouped like any other,
        # in index order, and left for validate_profile to report
        tasks = TaskSet.of(("a", 1), ("b", 2), ("c", 3))
        orders = [("b", "b", "a"), ("a", "b", "c"), ("c", "a"), ("b", "b", "a"), ("a", "b")]
        profile = PreferenceProfile.from_orders(tasks, orders)
        assert profile.groups == (
            (Schedule.of("a", "b"), 1),
            (Schedule.of("a", "b", "c"), 1),
            (Schedule.of("b", "b", "a"), 2),
            (Schedule.of("c", "a"), 1),
        )
        report = validate_profile(profile)
        assert [(d.group, d.code) for d in report.defects] == [
            (0, "missing-task"),
            (2, "duplicate-task"),
            (2, "missing-task"),
            (3, "missing-task"),
        ]

    @pytest.mark.parametrize(
        "orders, named",
        [
            ([("a", "b", "c"), ("c", "y", "x"), ("z", "a", "b")], "y"),
            ([("z", "a"), ("a", "y")], "z"),
            ([("a", "q"), ("p", "a"), ("a", "q")], "q"),
        ],
    )
    def test_from_orders_names_the_first_unknown_id_in_input_order(self, orders, named):
        tasks = TaskSet.of(("a", 1), ("b", 2), ("c", 3))
        with pytest.raises(UnknownTaskError, match=f"^unknown task id '{named}'$"):
            PreferenceProfile.from_orders(tasks, orders)

    def test_equal_ballot_multisets_compare_equal(self):
        tasks = TaskSet.of(("a", 1), ("b", 2))
        one = PreferenceProfile.from_orders(tasks, [("b", "a"), ("a", "b")])
        two = PreferenceProfile.from_orders(tasks, [("a", "b"), ("b", "a")])
        assert one == two


class TestValidation:
    def test_valid_profile(self, example):
        tasks, profile = example
        report = validate_profile(profile)
        assert profile.tasks == tasks
        assert report.ok
        assert report.voter_count == 5
        assert report.task_count == 3
        assert report.defects == ()

    def test_mismatched_task_set(self, example):
        # ballots are checked against another task set by rebuilding the
        # profile over it; only the ids matter, not the lengths
        _, profile = example
        relengthed = TaskSet.of(("1", 2), ("2", 4), ("3", 2))
        assert validate_profile(PreferenceProfile(relengthed, profile.groups)).ok
        renamed = TaskSet.of(("1", 2), ("2", 4), ("4", 1))
        report = validate_profile(PreferenceProfile(renamed, profile.groups))
        assert not report.ok
        assert {d.code for d in report.defects} == {"unknown-task", "missing-task"}

    def test_no_voters(self):
        tasks = TaskSet.of(("a", 1))
        report = validate_profile(PreferenceProfile(tasks, ()))
        assert not report.ok
        assert any(d.code == "no-voters" for d in report.defects)

    def test_bad_multiplicity(self):
        tasks = TaskSet.of(("a", 1))
        profile = PreferenceProfile(tasks, ((Schedule.of("a"), 0),))
        report = validate_profile(profile)
        assert any(d.code == "bad-multiplicity" for d in report.defects)

    @pytest.mark.parametrize("mult", [2.7, 2.0, "3", True, None])
    def test_of_keeps_a_bad_multiplicity_for_the_check(self, mult):
        # coercing with int() turned 2.7 into 2, "3" into 3 and True into 1
        tasks = TaskSet.of(("a", 1), ("b", 2))
        profile = PreferenceProfile.of(tasks, (("a", "b"), 1), (("b", "a"), mult))
        assert profile.groups[1][1] is mult
        report = validate_profile(profile)
        assert [(d.group, d.code) for d in report.defects] == [(1, "bad-multiplicity")]

    def test_unknown_task(self):
        tasks = TaskSet.of(("a", 1))
        profile = PreferenceProfile(tasks, ((Schedule.of("z"), 1),))
        report = validate_profile(profile)
        assert any(d.code == "unknown-task" for d in report.defects)

    @pytest.mark.parametrize(
        "order, shown",
        [
            pytest.param((["a"], "b"), "['a']", id="unhashable"),
            pytest.param(("a", {"b": 1}), "{'b': 1}", id="unhashable-last"),
            pytest.param((10**5000, "a", "b"), "<int too long to print>", id="too-long-to-print"),
        ],
    )
    def test_unhashable_or_unprintable_id_is_an_unknown_task(self, order, shown):
        # an unhashable id raised TypeError from the set and dict lookups; the
        # scoring entry points now raise what require_valid_profile raises
        tasks = TaskSet.of(("a", 1), ("b", 2))
        profile = PreferenceProfile(tasks, ((Schedule(order), 1),))
        report = validate_profile(profile)
        assert not report.ok
        assert report.defects[0] == ProfileDefect(0, "unknown-task", f"group 0 names unknown task {shown}")
        for call in (
            lambda: score(Schedule.of("a", "b"), profile, Objective.SUM_DEVIATION),
            lambda: solve_exact(tasks, profile, Objective.PTA_KENDALL_TAU),
            lambda: lmt(tasks, profile),
        ):
            with pytest.raises(UnknownTaskError, match=f"^group 0 names unknown task {re.escape(shown)}$"):
                call()

    def test_duplicate_task_in_ballot(self):
        tasks = TaskSet.of(("a", 1), ("b", 1))
        profile = PreferenceProfile(tasks, ((Schedule.of("a", "a"), 1),))
        report = validate_profile(profile)
        assert any(d.code == "duplicate-task" for d in report.defects)

    def test_missing_task_in_ballot(self):
        tasks = TaskSet.of(("a", 1), ("b", 1))
        profile = PreferenceProfile(tasks, ((Schedule.of("a"), 1),))
        report = validate_profile(profile)
        assert any(d.code == "missing-task" for d in report.defects)

    def test_require_valid_profile_passes_good_input(self, example):
        _, profile = example
        require_valid_profile(profile)

    def test_require_valid_profile_raises_by_defect(self):
        tasks = TaskSet.of(("a", 1), ("b", 1))
        with pytest.raises(UnknownTaskError):
            require_valid_profile(PreferenceProfile(tasks, ((Schedule.of("z", "b"), 1),)))
        with pytest.raises(MismatchedTaskSetError):
            require_valid_profile(PreferenceProfile(tasks, ((Schedule.of("a"), 1),)))
        with pytest.raises(ValueError):
            require_valid_profile(PreferenceProfile(tasks, ()))


ID_RULE_TASKS = TaskSet.of(("a", 1), ("b", 2))
ID_RULE_PROFILE = PreferenceProfile.of(ID_RULE_TASKS, (("a", "b"), 1), (("b", "a"), 2))

# each entry point, handed one value that is not a task id where an id goes
ID_RULE_ENTRY_POINTS = {
    "TaskSet.index": lambda bad: ID_RULE_TASKS.index(bad),
    "length": lambda bad: ID_RULE_TASKS.length(bad),
    "with_length": lambda bad: ID_RULE_TASKS.with_length(bad, 3),
    "from_orders": lambda bad: PreferenceProfile.from_orders(ID_RULE_TASKS, [("a", "b"), (bad, "a")]),
    "Schedule.position": lambda bad: Schedule.of("a", "b").position(bad),
    "score": lambda bad: score(Schedule(("a", bad)), ID_RULE_PROFILE, Objective.SUM_DEVIATION),
    "completion_times": lambda bad: completion_times(Schedule((bad, "a")), ID_RULE_TASKS),
    "local_search": lambda bad: local_search(Schedule(("a", bad)), ID_RULE_PROFILE, Objective.SUM_DEVIATION),
    "solve_exact": lambda bad: solve_exact(
        ID_RULE_TASKS, PreferenceProfile(ID_RULE_TASKS, ((Schedule(("a", bad)), 1),)), Objective.PTA_KENDALL_TAU
    ),
    "check_unanimity": lambda bad: check_unanimity(Schedule(("a", bad)), ID_RULE_PROFILE),
    "is_pta_condorcet_consistent": lambda bad: is_pta_condorcet_consistent(Schedule(("a", bad)), ID_RULE_PROFILE),
    "lrm_probe": lambda bad: lrm_probe(ID_RULE_PROFILE, "sum-dev", bad, 1),
    "swap_tasks_in_profile": lambda bad: swap_tasks_in_profile(ID_RULE_PROFILE, "a", bad),
    "PairwiseCountMatrix.before": lambda bad: PairwiseCountMatrix(ID_RULE_TASKS, ((0, 1), (2, 0)), 3).before("a", bad),
}


class TestIdRule:
    """A value that is not one of the task set's ids names no task, wherever it is passed."""

    @pytest.mark.parametrize(
        "bad",
        [["a"], {"a": 1}, None, 0, b"a", 10**5000],
        ids=["list", "dict", "none", "int", "bytes", "int-too-long-to-print"],
    )
    @pytest.mark.parametrize("entry", [*ID_RULE_ENTRY_POINTS, "in", "validate_profile"])
    def test_non_id_is_an_unknown_task(self, entry, bad):
        shown = _shown(bad)
        if entry == "in":
            assert (bad in ID_RULE_TASKS) is False
        elif entry == "validate_profile":
            report = validate_profile(PreferenceProfile(ID_RULE_TASKS, ((Schedule(("a", bad)), 1),)))
            assert report.defects[0] == ProfileDefect(0, "unknown-task", f"group 0 names unknown task {shown}")
        else:
            with pytest.raises(UnknownTaskError, match=re.escape(shown)):
                ID_RULE_ENTRY_POINTS[entry](bad)


def reference_validate_profile(profile):
    """The per-id defect loop run on every group, as validation first shipped."""
    tasks = profile.tasks
    defects: list[ProfileDefect] = []
    if not profile.groups:
        defects.append(ProfileDefect(None, "no-voters", "profile has no voter groups"))
    voters = 0
    ids = tasks.ids
    for g, (schedule, mult) in enumerate(profile.groups):
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            defects.append(ProfileDefect(g, "bad-multiplicity", f"multiplicity must be a positive integer, got {_shown(mult)}"))
        else:
            voters += mult
        seen: set[str] = set()
        for tid in schedule.order:
            if tid not in tasks:
                defects.append(ProfileDefect(g, "unknown-task", f"group {g} names unknown task {tid!r}"))
            elif tid in seen:
                defects.append(ProfileDefect(g, "duplicate-task", f"group {g} repeats task {tid!r}"))
            seen.add(tid)
        missing = [tid for tid in ids if tid not in seen]
        if missing:
            defects.append(ProfileDefect(g, "missing-task", f"group {g} is missing task(s) {missing}"))
    if not defects and voters < 1:
        defects.append(ProfileDefect(None, "no-voters", "profile has zero voters"))
    return ProfileValidation(ok=not defects, voter_count=voters, task_count=tasks.n, defects=tuple(defects))


class Seats(IntEnum):
    """An int subclass other than bool: a valid multiplicity when positive."""

    NONE = 0
    ONE = 1
    THREE = 3


good_multiplicities = st.one_of(st.integers(1, 3), st.integers(2**60, 2**62), st.sampled_from([Seats.ONE, Seats.THREE]))
bad_multiplicities = st.one_of(st.integers(-3, 0), st.booleans(), st.sampled_from([1.0, 2.5, "2", None, Seats.NONE]))


class TestIntRule:
    """``model._is_int`` alone decides what counts as a count, length, size, cap or seed."""

    @pytest.mark.parametrize(
        "value, least, expected",
        [
            (1, None, True),
            (-(2**64), None, True),
            (0, 0, True),
            (0, 1, False),
            (3, 3, True),
            (2, 3, False),
            (Seats.THREE, 1, True),
            (Seats.NONE, 1, False),
            (True, None, False),
            (False, 0, False),
            (np.int64(3), None, False),
            (1.0, None, False),
            ("1", None, False),
            (None, None, False),
        ],
    )
    def test_accepts_a_non_bool_int_at_least_least(self, value, least, expected):
        assert _is_int(value, least) is expected


@st.composite
def defective_profiles(draw):
    """A task set, a profile over it, and the task set its ballots are checked against.

    Half the draws are valid profiles.  The rest draw ballots from the known
    ids and a few unknown ones, with repeats and omissions, or as exact
    permutations; multiplicities may be bools, zero, negative, not ints or
    ``IntEnum`` members; groups may be absent; the task set the ballots are
    checked against may differ from the one they were drawn over.
    """
    n = draw(st.integers(1, 5))
    tasks = TaskSet(tuple((f"t{i}", draw(st.integers(1, 4))) for i in range(n)))
    exact = st.permutations(tasks.ids)
    if draw(st.booleans()):
        groups = draw(st.lists(st.tuples(exact, good_multiplicities), min_size=1, max_size=4))
        return PreferenceProfile(tasks, tuple((Schedule(tuple(o)), m) for o, m in groups)), draw(st.sampled_from([None, tasks]))
    loose = st.lists(st.sampled_from(tasks.ids + ("u", "t9", "")), max_size=n + 2)
    multiplicities = st.one_of(good_multiplicities, bad_multiplicities)
    groups = draw(st.lists(st.tuples(st.one_of(exact, loose), multiplicities), max_size=4))
    profile = PreferenceProfile(tasks, tuple((Schedule(tuple(order)), mult) for order, mult in groups))
    other = st.one_of(
        st.none(),
        st.just(tasks),
        st.just(TaskSet(tuple(reversed(tasks.tasks)))),
        st.just(TaskSet(tasks.tasks + (("extra", 1),))),
        st.just(TaskSet(((tasks.ids[0], tasks.lengths[0] + 1),) + tasks.tasks[1:])),
    )
    return profile, draw(other)


class TestValidationMatchesPerIdLoop:
    @settings(max_examples=400, deadline=None)
    @given(case=defective_profiles())
    def test_whole_report_matches(self, case):
        profile, tasks = case
        if tasks is not None:
            profile = PreferenceProfile(tasks, profile.groups)
        assert validate_profile(profile) == reference_validate_profile(profile)


class TestSwapTasksInProfile:
    def test_swaps_every_ballot(self, example):
        tasks, profile = example
        swapped = swap_tasks_in_profile(profile, "1", "3")
        orders = [g.order for g, _ in swapped.groups]
        assert orders == [("2", "3", "1"), ("3", "2", "1"), ("1", "2", "3")]
        assert swapped.tasks == tasks

    def test_swap_is_involutive(self, example):
        _, profile = example
        assert swap_tasks_in_profile(swap_tasks_in_profile(profile, "1", "2"), "1", "2") == profile

    def test_swapping_a_task_with_itself_returns_the_profile(self, example):
        _, profile = example
        assert swap_tasks_in_profile(profile, "2", "2") is profile
