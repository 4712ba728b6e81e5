"""Metamorphic relations of the exact rules, past the oracle's reach.

``brute_force_oracle`` stops at 9 tasks.  At n = 16 the subset DP is
checked instead through relations that hold on every instance, with no
second solver:

* every objective is linear in the task lengths (a common factor scales
  every completion time) and in the multiplicities, so scaling either by 3
  multiplies each optimum by 3 and keeps the same optimal orders, hence the
  same count and the same lexicographically least representative;
* with all lengths equal, every order completes its tasks at the same set
  of times, so each voter's earliness and lateness sum to the same total:
  deviation is twice tardiness for every schedule, and the two rules share
  their optimal orders.
"""

import pytest

from collective_schedules import (
    GenSpec,
    Objective,
    PreferenceProfile,
    TaskSet,
    deviation,
    generate,
    lmt,
    solve_exact,
    tardiness,
)
from collective_schedules.generation import MODELS


def optimum(profile, objective):
    report = solve_exact(profile.tasks, profile, objective)
    return report.optimal_score, report.optimum_count, report.schedule


@pytest.fixture(scope="module", params=MODELS)
def instance(request):
    """A seeded n=16, v=50 instance and each objective's optimum on it."""
    _, profile = generate(GenSpec(16, 50, request.param, seed=0))
    return profile, {objective: optimum(profile, objective) for objective in Objective}


def scaled(profile, factor, what):
    if what == "lengths":
        return PreferenceProfile(TaskSet(tuple((t, factor * p) for t, p in profile.tasks.tasks)), profile.groups)
    return PreferenceProfile(profile.tasks, tuple((s, factor * m) for s, m in profile.groups))


@pytest.mark.parametrize("what", ["lengths", "multiplicities"])
def test_scaling_by_three_triples_every_optimum(instance, what):
    profile, optima = instance
    triple = scaled(profile, 3, what)
    for objective, (value, count, schedule) in optima.items():
        assert optimum(triple, objective) == (3 * value, count, schedule), objective


def test_equal_lengths_make_deviation_twice_tardiness(instance):
    profile, _ = instance
    equal = PreferenceProfile(TaskSet(tuple((t, 5) for t in profile.tasks.ids)), profile.groups)
    dev_value, dev_count, dev_schedule = optimum(equal, Objective.SUM_DEVIATION)
    tard_value, tard_count, tard_schedule = optimum(equal, Objective.SUM_TARDINESS)
    assert dev_value == 2 * tard_value
    assert (dev_count, dev_schedule) == (tard_count, tard_schedule)
    heuristic = lmt(equal.tasks, equal)
    assert deviation(heuristic, equal) == 2 * tardiness(heuristic, equal)
