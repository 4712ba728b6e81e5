"""Fast approximate rules: median sorting and adjacent-swap descent.

``lmt`` orders tasks by the lower median of their completion times across
the voters.  ``local_search`` then applies the best adjacent swap until none
improves: n - 1 swap gains at the start, then per step at most two re-scored
and one O(n) ``min``.  Neither is guaranteed optimal (see
``gallery.median_trap_family``), but together they land within a couple
percent on random instances.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

from .metrics import CompiledProfile, _compile_profile, _evaluator, _swap_terms
from .model import Objective, PreferenceProfile, Schedule, TaskSet, _is_int, _require_permutation, _require_same_tasks, _shown


@dataclass(frozen=True, slots=True)
class LocalSearchStep:
    """One applied swap: position swapped with its right neighbor."""

    position: int
    score_before: int
    score_after: int


@dataclass(frozen=True, slots=True)
class LocalSearchTrace:
    """What the descent did and why it stopped."""

    steps: tuple[LocalSearchStep, ...]
    terminated_by: str  # "local-optimum" or "step-cap"
    start_score: int
    final_score: int
    swaps_scored: int = field(default=0, compare=False)  # swap gains evaluated


def median_completion_times(profile: PreferenceProfile) -> dict[str, int]:
    """Lower median of each task's completion time over all voters.

    With ``v`` voters this is the ceil(v/2)-th smallest completion,
    multiplicities expanded.
    """
    return dict(zip(profile.tasks.ids, _medians(_compile_profile(profile))))


def lmt(tasks: TaskSet, profile: PreferenceProfile) -> Schedule:
    """Schedule tasks by nondecreasing median completion time.

    Ties go to the shorter task, then to the smaller task id.
    """
    _require_same_tasks(tasks, profile)
    medians = _medians(_compile_profile(profile))
    lengths, ids = tasks.lengths, tasks.ids
    order = sorted(range(len(ids)), key=lambda i: (medians[i], lengths[i], ids[i]))
    return Schedule(tuple(ids[i] for i in order))


def local_search(
    schedule: Schedule,
    profile: PreferenceProfile,
    objective: Objective,
    max_steps: int | None = None,
) -> tuple[Schedule, LocalSearchTrace]:
    """Best-improvement descent over adjacent transpositions.

    Each step applies the swap with the largest improvement (leftmost on
    ties), until none improves or after ``max_steps`` swaps (default 2n), so
    the trace's scores strictly decrease.
    A swap's gain is its change in score, from ``metrics._swap_terms``.
    Swapping positions p and p + 1 negates their gain and moves only the
    gains of their neighbours, which alone are re-scored.
    """
    objective = Objective(objective)
    compiled = _compile_profile(profile)
    tasks = profile.tasks
    order = list(_require_permutation(schedule, tasks))
    if max_steps is None:
        max_steps = 2 * tasks.n
    if not _is_int(max_steps):
        raise ValueError(f"max_steps must be an integer, got {_shown(max_steps)}")
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")

    n, lengths = tasks.n, tasks.lengths
    pair = _swap_terms(compiled, objective)
    start_score = current_score = _evaluator(compiled, objective)(order)
    starts = [0, *accumulate(lengths[i] for i in order[:-1])]  # the load before each position

    def gain(pos: int) -> int:  # the change in score from swapping pos and pos + 1
        a, b, start = order[pos], order[pos + 1], starts[pos]
        return pair(b, a, start) - pair(a, b, start)

    gains = [gain(pos) for pos in range(n - 1)]
    swaps_scored = n - 1
    steps: list[LocalSearchStep] = []
    terminated_by = "local-optimum"
    while True:
        if len(steps) >= max_steps:
            terminated_by = "step-cap"
            break
        best = min(gains, default=0)
        if best >= 0:
            break
        pos = gains.index(best)  # the leftmost of the largest improvements
        order[pos], order[pos + 1] = order[pos + 1], order[pos]
        starts[pos + 1] = starts[pos] + lengths[order[pos]]
        gains[pos] = -best  # swapping back undoes the step
        for near in (pos - 1, pos + 1):  # the only other gains the swap moves
            if 0 <= near < n - 1:
                gains[near] = gain(near)
                swaps_scored += 1
        steps.append(LocalSearchStep(pos, current_score, current_score + best))
        current_score += best

    trace = LocalSearchTrace(tuple(steps), terminated_by, start_score, current_score, swaps_scored)
    return Schedule(tuple(tasks.ids[i] for i in order)), trace


def _medians(compiled: CompiledProfile) -> list[int]:
    """Each task's lower median completion, by declared index."""
    threshold = (compiled.voter_count + 1) // 2
    # cum_mult[r] weighs the r smallest dues, so the median is the last due
    # of the shortest prefix reaching the threshold
    return [dues[bisect_left(cum_mult, threshold) - 1] for dues, cum_mult, *_ in compiled.due_tables]
