"""Hand-built instances: tension between objectives and heuristic traps."""

import sys

import pytest

from collective_schedules import (
    InvalidSpecError,
    Objective,
    Schedule,
    deviation,
    solve_exact,
    tardiness,
)
from collective_schedules.gallery import (
    deviation_length_reduction_counterexample,
    deviation_neutrality_counterexample,
    deviation_unanimity_counterexample,
    kemeny_unanimity_counterexample,
    median_trap_family,
    median_trap_scores,
    three_task_example,
    two_task_tension,
)
from collective_schedules.heuristics import lmt, median_completion_times


class TestThreeTaskExample:
    def test_shape(self):
        tasks, profile = three_task_example()
        assert tasks.ids == ("1", "2", "3")
        assert tasks.lengths == (2, 4, 1)
        assert profile.voter_count == 5
        assert [(g.order, m) for g, m in profile.groups] == [
            (("2", "1", "3"), 2),
            (("1", "2", "3"), 2),
            (("3", "2", "1"), 1),
        ]


class TestTwoTaskTension:
    def test_objectives_disagree(self):
        tasks, profile = two_task_tension(v=5)
        assert tasks.lengths == (1, 5)  # k defaults to v
        dev = solve_exact(tasks, profile, Objective.SUM_DEVIATION)
        tard = solve_exact(tasks, profile, Objective.SUM_TARDINESS)
        assert dev.schedule.order == ("b", "a")
        assert dev.optimal_score == 12
        assert tard.schedule.order == ("a", "b")
        assert tard.optimal_score == 3
        # Deviation's pick is costly under the tardiness lens: 10 versus 3.
        assert tardiness(dev.schedule, profile) == 10

    def test_tardiness_gap_grows_with_length(self):
        gaps = []
        for k in (5, 25, 125):
            tasks, profile = two_task_tension(k=k, v=5)
            dev = solve_exact(tasks, profile, Objective.SUM_DEVIATION)
            best = solve_exact(tasks, profile, Objective.SUM_TARDINESS).optimal_score
            gaps.append(tardiness(dev.schedule, profile) / best)
        assert gaps[0] < gaps[1] < gaps[2]

    @pytest.mark.parametrize("kwargs", [{"v": 4}, {"v": 1}, {"k": 0}, {"k": 2.5}, {"v": 5.0}, {"k": "5"}, {"k": True}])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidSpecError):
            two_task_tension(**kwargs)


class TestCounterexampleFixtures:
    def test_neutrality_fixture_shape(self):
        tasks, profile, pair = deviation_neutrality_counterexample()
        assert pair == ("b", "e")
        assert tasks.length("b") == 1 and tasks.length("e") == 20
        assert profile.voter_count == 400

    @pytest.mark.parametrize("kwargs", [{"k": 3}, {"v": 3}, {"v": 401}, {"v": 6.0}, {"k": 4.5}, {"k": "5"}, {"v": True}])
    def test_neutrality_fixture_validation(self, kwargs):
        with pytest.raises(InvalidSpecError):
            deviation_neutrality_counterexample(**kwargs)

    def test_unanimity_fixture_shapes(self):
        tasks, profile, pair = deviation_unanimity_counterexample()
        assert pair == ("e", "c")
        assert profile.voter_count == 88
        tasks, profile, pair = kemeny_unanimity_counterexample()
        assert pair == ("b", "a")
        assert profile.voter_count == 100

    def test_length_reduction_fixture_shape(self):
        tasks, profile, target, reduced = deviation_length_reduction_counterexample()
        assert target == "p" and reduced == 1
        assert tasks.length("p") == 10
        assert profile.voter_count == 400


class TestMedianTrap:
    def test_structure(self):
        tasks, profile, alternative = median_trap_family(3, 6, 6)
        assert tasks.ids == ("t1", "t2", "t3", "t4", "t5", "t6")
        assert tasks.lengths[:3] == (3, 3, 3)
        assert tasks.lengths[3:] == (1, 1, 1)
        assert profile.voter_count == 6
        assert alternative.order == ("t1", "t3", "t4", "t5", "t6", "t2")

    def test_ids_zero_padded_for_larger_families(self):
        tasks, _, _ = median_trap_family(2, 12, 4)
        assert tasks.ids[0] == "t01" and tasks.ids[-1] == "t12"

    def test_long_tasks_share_a_deceptive_median(self):
        p = 3
        _, profile, _ = median_trap_family(p, 6, 6)
        medians = median_completion_times(profile)
        assert medians["t1"] == medians["t2"] == p
        assert medians["t3"] == 2 * p

    @pytest.mark.parametrize("p,n,v", [(2, 5, 6), (3, 4, 4), (5, 7, 8)])
    def test_closed_forms_match_measured_scores(self, p, n, v):
        tasks, profile, alternative = median_trap_family(p, n, v)
        heuristic, alt = median_trap_scores(p, n, v)
        assert deviation(lmt(tasks, profile), profile) == heuristic
        assert deviation(alternative, profile) == alt
        assert heuristic > alt

    @pytest.mark.parametrize("kwargs", [
        {"p": 0, "n": 5, "v": 6},
        {"p": 2, "n": 3, "v": 6},
        {"p": 2, "n": 5, "v": 5},
        {"p": 2, "n": 4, "v": 4.0},
        {"p": 2, "n": 4.5, "v": 4},
        {"p": 2.5, "n": 5, "v": 6},
        {"p": "2", "n": 5, "v": 6},
        {"p": True, "n": 5, "v": 6},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidSpecError):
            median_trap_family(**kwargs)

    @pytest.mark.parametrize(
        "call, shown",
        [
            # len(str(n)) raised ValueError past 4,300 digits
            (lambda: median_trap_family(2, 10**5000, 4), "n=<int too long to print>"),
            (lambda: median_trap_family(2, 4, 2 * sys.maxsize), f"v={2 * sys.maxsize}"),
            (lambda: two_task_tension(v=2 * sys.maxsize + 1), f"v={2 * sys.maxsize + 1}"),
            (lambda: deviation_neutrality_counterexample(v=2 * sys.maxsize), f"v={2 * sys.maxsize}"),
        ],
        ids=["median-trap-n", "median-trap-v", "tension-v", "neutrality-v"],
    )
    def test_sizes_past_the_ceiling_rejected(self, call, shown):
        name = shown[0]
        with pytest.raises(InvalidSpecError) as raised:
            call()
        assert str(raised.value) == f"{name} must be at most sys.maxsize ({sys.maxsize}), got {shown}"
