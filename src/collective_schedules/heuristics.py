"""Fast approximate rules: median sorting and adjacent-swap descent.

``lmt`` orders tasks by the lower median of their completion times across
the voters, a linear-time stand-in for the exact solvers.  ``local_search``
then repeatedly applies the best adjacent swap.  Neither is guaranteed
optimal (see ``gallery.median_trap_family`` for how bad the sort alone can
get) but together they land within a couple percent on random instances.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

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
    lengths = tasks.lengths
    ids = tasks.ids
    order = sorted(range(len(ids)), key=lambda i: (medians[i], lengths[i], ids[i]))
    return Schedule(tuple(ids[i] for i in order))


def local_search(
    schedule: Schedule,
    profile: PreferenceProfile,
    objective: Objective,
    max_steps: int | None = None,
) -> tuple[Schedule, LocalSearchTrace]:
    """Best-improvement descent over adjacent transpositions.

    Each step scores all n-1 adjacent swaps and applies the one with the
    largest improvement (leftmost on ties), stopping at a local optimum or
    after ``max_steps`` swaps (default 2n).  Scores along the trace are
    strictly decreasing.

    The profile is compiled at most once.  A swap only moves the two swapped
    tasks, so it is scored by its change in score, read from the
    objective's swap terms (``metrics._swap_terms``): O(1) for the pairwise
    objective and O(log groups) for deviation and tardiness, after an
    O(groups n^2) setup at most, whatever the number of tasks.
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

    lengths = tasks.lengths
    pair = _swap_terms(compiled, objective)
    start_score = current_score = _evaluator(compiled, objective)(order)
    steps: list[LocalSearchStep] = []
    terminated_by = "local-optimum"
    while True:
        if len(steps) >= max_steps:
            terminated_by = "step-cap"
            break
        best_pos = None
        best_score = current_score
        start = 0  # completion time of the task before position pos
        for pos in range(len(order) - 1):
            a, b = order[pos], order[pos + 1]
            value = current_score + pair(b, a, start) - pair(a, b, start)
            if value < best_score:  # strict: leftmost candidate wins ties
                best_score = value
                best_pos = pos
            start += lengths[a]
        if best_pos is None:
            break
        order[best_pos], order[best_pos + 1] = order[best_pos + 1], order[best_pos]
        steps.append(LocalSearchStep(best_pos, current_score, best_score))
        current_score = best_score

    trace = LocalSearchTrace(tuple(steps), terminated_by, start_score, current_score)
    return Schedule(tuple(tasks.ids[i] for i in order)), trace


def _medians(compiled: CompiledProfile) -> list[int]:
    """Each task's lower median completion, by declared index."""
    threshold = (compiled.voter_count + 1) // 2
    # cum_mult[r] weighs the r smallest dues, so the median is the last due
    # of the shortest prefix reaching the threshold
    return [dues[bisect_left(cum_mult, threshold) - 1] for dues, cum_mult, *_ in compiled.due_tables]
