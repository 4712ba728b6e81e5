"""Hand-built instances with known, instructive behavior.

Each constructor returns a task set and profile (plus, where useful, the
ingredients of the property the instance demonstrates).  They are small
enough for the brute-force oracle, which is how the expected outcomes in
the test suite were computed and frozen.
"""

from __future__ import annotations

from .errors import InvalidSpecError
from .model import PreferenceProfile, Schedule, TaskSet, _is_int, _require_sizes


def three_task_example() -> tuple[TaskSet, PreferenceProfile]:
    """Five voters over three tasks of lengths 2, 4, 1.

    The smallest instance on which the three objectives already pull in
    different directions; used throughout the tests as a worked example.
    """
    tasks = TaskSet.of(("1", 2), ("2", 4), ("3", 1))
    profile = PreferenceProfile.of(
        tasks,
        (("2", "1", "3"), 2),
        (("1", "2", "3"), 2),
        (("3", "2", "1"), 1),
    )
    return tasks, profile


def deviation_neutrality_counterexample(k: int = 20, v: int = 400) -> tuple[TaskSet, PreferenceProfile, tuple[str, str]]:
    """Instance where relabeling two tasks changes the deviation winner.

    Tasks ``b`` and ``e`` trade places in every ballot under the returned
    swap pair, yet the unique deviation-optimal schedule of the swapped
    profile is not the swap of the original winner: the rule treats tasks
    differently because of their lengths alone.  Requires ``k >= 4`` so the
    two long tasks keep distinct positive lengths, and an even ``v >= 4``.
    """
    if not (_is_int(k, 4) and _is_int(v, 4)) or v % 2:
        raise InvalidSpecError("need k >= 4 and even v >= 4")
    _require_sizes(v=v)
    tasks = TaskSet.of(("a", 1), ("b", 1), ("c", 1), ("d", 2), ("e", k), ("f", k - 2))
    half = v // 2 - 1
    profile = PreferenceProfile.of(
        tasks,
        (("b", "a", "f", "e", "d", "c"), half),
        (("b", "e", "a", "f", "d", "c"), 1),
        (("b", "f", "c", "e", "d", "a"), 1),
        (("f", "c", "d", "a", "b", "e"), half),
    )
    return tasks, profile, ("b", "e")


def deviation_unanimity_counterexample() -> tuple[TaskSet, PreferenceProfile, tuple[str, str]]:
    """88 voters all schedule ``e`` before ``c``; the deviation optimum does not.

    Three long tasks (length 10) and two fillers (length 1): the optimal
    deviation schedule reorders the pair every single voter agrees on.
    """
    tasks = TaskSet.of(("a", 10), ("b", 10), ("c", 10), ("d", 1), ("e", 1))
    profile = PreferenceProfile.of(
        tasks,
        (("d", "a", "e", "b", "c"), 29),
        (("e", "c", "d", "a", "b"), 30),
        (("d", "b", "e", "c", "a"), 29),
    )
    return tasks, profile, ("e", "c")


def kemeny_unanimity_counterexample() -> tuple[TaskSet, PreferenceProfile, tuple[str, str]]:
    """100 voters all schedule ``b`` before ``a``; the pairwise optimum does not.

    The processing-time-aware Kendall tau rule pulls the short task ``a``
    to the front even though every voter wanted the long ``b`` first.
    """
    tasks = TaskSet.of(("a", 1), ("b", 10), ("c", 2), ("d", 2), ("e", 2), ("f", 2), ("g", 2))
    profile = PreferenceProfile.of(
        tasks,
        (("c", "d", "e", "f", "g", "b", "a"), 50),
        (("b", "a", "c", "d", "e", "f", "g"), 50),
    )
    return tasks, profile, ("b", "a")


def deviation_length_reduction_counterexample() -> tuple[TaskSet, PreferenceProfile, str, int]:
    """Shortening one task pushes its deviation-optimal start time later.

    Returns the instance plus the target task id and the reduced length
    (10 down to 1).  Under the deviation rule the target starts at time 1
    originally but at time 3 after the reduction.
    """
    tasks = TaskSet.of(("1", 1), ("2", 1), ("3", 1), ("x", 1), ("p", 10))
    profile = PreferenceProfile.of(
        tasks,
        (("x", "2", "1", "p", "3"), 101),
        (("3", "2", "1", "p", "x"), 101),
        (("3", "p", "x", "1", "2"), 99),
        (("3", "p", "x", "2", "1"), 99),
    )
    return tasks, profile, "p", 1


def two_task_tension(k: int | None = None, v: int = 5) -> tuple[TaskSet, PreferenceProfile]:
    """A short task against a long one, with a near-even split of voters.

    ``v`` must be odd and at least 3.  (v-1)/2 voters want the short task
    ``a`` (length 1) first; (v+1)/2 want the long task ``b`` (length ``k``,
    default ``v``) first.  A slim majority backs the long task, but moving
    it forward delays the short one by ``k``: the instance separates the
    objectives and is the canonical precedence-threshold exercise.
    """
    if not _is_int(v, 3) or v % 2 == 0:
        raise InvalidSpecError("need odd v >= 3")
    _require_sizes(v=v)
    k = v if k is None else k
    if not _is_int(k, 1):
        raise InvalidSpecError("need k >= 1")
    tasks = TaskSet.of(("a", 1), ("b", k))
    profile = PreferenceProfile.of(
        tasks,
        (("a", "b"), (v - 1) // 2),
        (("b", "a"), (v + 1) // 2),
    )
    return tasks, profile


def median_trap_family(p: int, n: int, v: int) -> tuple[TaskSet, PreferenceProfile, Schedule]:
    """Family on which the median-sorting heuristic is unboundedly bad.

    Three tasks of length ``p`` and ``n - 3`` unit tasks.  Nearly half the
    voters start with (t1, t3, ...), nearly half with (t2, t3, ...), so the
    medians rank t1 and t2 first and the heuristic opens with both long
    tasks back to back.  Also returns the schedule (t1, t3, t4, ..., tn,
    t2), whose deviation is smaller by a factor growing linearly in ``p``
    (see :func:`median_trap_scores`).  Requires ``n >= 4``, even ``v >= 4``.
    """
    if not (_is_int(n, 4) and _is_int(v, 4)) or v % 2:
        raise InvalidSpecError("need n >= 4 and even v >= 4")
    _require_sizes(n=n, v=v)
    if not _is_int(p, 1):
        raise InvalidSpecError("need p >= 1")
    width = len(str(n))
    ids = [f"t{i + 1:0{width}d}" for i in range(n)]
    t1, t2, t3, rest = ids[0], ids[1], ids[2], ids[3:]
    tasks = TaskSet(tuple((tid, p if i < 3 else 1) for i, tid in enumerate(ids)))
    half = v // 2 - 1
    profile = PreferenceProfile.of(
        tasks,
        ((t1, t3, *rest, t2), half),
        ((t1, t2, *rest, t3), 1),
        ((t2, t1, *rest, t3), 1),
        ((t2, t3, *rest, t1), half),
    )
    alternative = Schedule((t1, t3, *rest, t2))
    return tasks, profile, alternative


def median_trap_scores(p: int, n: int, v: int) -> tuple[int, int]:
    """Closed-form deviation of the heuristic and alternative schedules.

    For the :func:`median_trap_family` instance the heuristic schedule
    (t1, t2, t3, rest...) has total deviation v*n*p + v*n - 3*v - 4*p while
    the alternative (t1, t3, rest..., t2) achieves
    2*p*v + v*n - 3*v + 2*p + 2*n - 6.
    """
    heuristic = v * n * p + v * n - 3 * v - 4 * p
    alternative = 2 * p * v + v * n - 3 * v + 2 * p + 2 * n - 6
    return heuristic, alternative
