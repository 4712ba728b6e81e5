"""Audits of the aggregation rules against scheduling fairness properties.

Each check returns an :class:`AxiomVerdict`.  ``holds`` is ``True`` when the
property was confirmed, ``False`` with a ``witness`` when it was refuted,
and ``None`` when the check could not decide (an optimum enumeration hit
its cap).

The precedence constraints here are processing-time aware: a majority for
running ``a`` before ``b`` only binds once it clears the threshold
``p_a / (p_a + p_b)`` of the electorate, so short tasks need fewer backers
to earn an early slot.  A schedule respecting every such constraint plays
the role of a Condorcet winner.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import InvalidReductionError, MismatchedTaskSetError
from .metrics import pairwise_counts, score
from .model import (
    Objective,
    PreferenceProfile,
    Schedule,
    TaskSet,
    require_valid_profile,
    swap_tasks_in_profile,
)
from .rules import apply_rule
from .solver import SolveOptions, enumerate_optima


@dataclass(frozen=True, slots=True)
class CondorcetConstraint:
    """Binding precedence: ``before`` must run earlier than ``after``."""

    before: str
    after: str
    supporters: int  # voters scheduling `before` first


@dataclass(frozen=True, slots=True)
class AxiomVerdict:
    """Outcome of one axiom check; ``None`` means undecided."""

    axiom: str
    holds: bool | None
    witness: object = None


def pta_condorcet_constraints(profile: PreferenceProfile) -> tuple[CondorcetConstraint, ...]:
    """All binding precedence constraints of the profile.

    The pair (a, b) binds when supporters(a before b) * (p_a + p_b) is at
    least p_a * v, compared exactly in integers.  Opposite constraints can
    both bind only when both comparisons are exact ties.
    """
    tasks = profile.tasks
    counts = pairwise_counts(profile)
    v = profile.voter_count
    out: list[CondorcetConstraint] = []
    for a in tasks.ids:
        for b in tasks.ids:
            if a == b:
                continue
            supporters = counts.before(a, b)
            if supporters * (tasks.length(a) + tasks.length(b)) >= tasks.length(a) * v:
                out.append(CondorcetConstraint(a, b, supporters))
    return tuple(out)


def is_pta_condorcet_consistent(schedule: Schedule, profile: PreferenceProfile) -> AxiomVerdict:
    """Does the schedule respect every binding precedence constraint?"""
    positions = {tid: i for i, tid in enumerate(schedule.order)}
    for constraint in pta_condorcet_constraints(profile):
        if positions[constraint.before] > positions[constraint.after]:
            return AxiomVerdict("pta-condorcet", False, constraint)
    return AxiomVerdict("pta-condorcet", True)


def find_pta_condorcet_schedule(profile: PreferenceProfile) -> Schedule | None:
    """A schedule satisfying every binding constraint, if one exists.

    The constraint digraph either has a cycle (no consistent schedule, so
    ``None``) or is a DAG, in which case every linear extension works and
    the lexicographically least one is returned.
    """
    tasks = profile.tasks
    n = tasks.n
    after_lists: list[list[int]] = [[] for _ in range(n)]
    pending = [0] * n  # unsatisfied predecessors per task
    for constraint in pta_condorcet_constraints(profile):
        i, j = tasks.index(constraint.before), tasks.index(constraint.after)
        after_lists[i].append(j)
        pending[j] += 1
    ready = [i for i in range(n) if pending[i] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(tasks.ids[i])
        for j in after_lists[i]:
            pending[j] -= 1
            if pending[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != n:  # a cycle kept some tasks pending
        return None
    return Schedule(tuple(order))


def unanimous_pairs(profile: PreferenceProfile) -> tuple[tuple[str, str], ...]:
    """Ordered pairs every single voter schedules the same way."""
    tasks = profile.tasks
    counts = pairwise_counts(profile)
    v = profile.voter_count
    return tuple(
        (a, b)
        for a in tasks.ids
        for b in tasks.ids
        if a != b and counts.before(a, b) == v
    )


def check_unanimity(schedule: Schedule, profile: PreferenceProfile) -> AxiomVerdict:
    """Does the schedule keep every unanimously agreed precedence?"""
    positions = {tid: i for i, tid in enumerate(schedule.order)}
    for a, b in unanimous_pairs(profile):
        if positions[a] > positions[b]:
            return AxiomVerdict("unanimity", False, (a, b))
    return AxiomVerdict("unanimity", True)


def lrm_probe(
    profile: PreferenceProfile,
    rule: str | Objective,
    target: str,
    reduced_length: int,
    options: SolveOptions | None = None,
) -> AxiomVerdict:
    """Length-reduction monotonicity: shortening a task must not delay it.

    Runs ``rule`` on the instance and on a copy where ``target``'s length
    drops to ``reduced_length`` (ballot orders unchanged), then compares
    the target's start times.  Holds when the start does not move later.
    """
    require_valid_profile(profile)
    tasks = profile.tasks
    old_length = tasks.length(target)
    if not isinstance(reduced_length, int) or isinstance(reduced_length, bool):
        raise InvalidReductionError("reduced length must be an integer")
    if not 1 <= reduced_length < old_length:
        raise InvalidReductionError(
            f"reduced length must be in [1, {old_length - 1}], got {reduced_length}"
        )
    reduced_tasks = tasks.with_length(target, reduced_length)
    reduced_profile = PreferenceProfile(reduced_tasks, profile.groups)

    before = apply_rule(rule, tasks, profile, options)
    after = apply_rule(rule, reduced_tasks, reduced_profile, options)
    start_before = _start_time(before, tasks, target)
    start_after = _start_time(after, reduced_tasks, target)
    if start_after <= start_before:
        return AxiomVerdict("length-reduction-monotonicity", True)
    witness = {
        "target": target,
        "schedule_before": before,
        "schedule_after": after,
        "start_before": start_before,
        "start_after": start_after,
    }
    return AxiomVerdict("length-reduction-monotonicity", False, witness)


def neutrality_probe(
    profile: PreferenceProfile,
    a: str,
    b: str,
    objective: Objective,
    cap: int = 1000,
) -> AxiomVerdict:
    """Relabeling two tasks must relabel the optimum set and nothing else.

    Compares the optima of the profile with tasks ``a`` and ``b`` swapped
    in every ballot against the swap image of the original optima.  When
    either enumeration overflows ``cap`` the verdict is undecided.
    """
    optima, complete = enumerate_optima(profile.tasks, profile, objective, cap)
    swapped_profile = swap_tasks_in_profile(profile, a, b)
    swapped_optima, swapped_complete = enumerate_optima(
        profile.tasks, swapped_profile, objective, cap
    )
    if not (complete and swapped_complete):
        return AxiomVerdict("neutrality", None)
    expected = {s.swap(a, b) for s in optima}
    if expected == set(swapped_optima):
        return AxiomVerdict("neutrality", True)
    witness = {
        "pair": (a, b),
        "original_optima": optima,
        "swapped_optima": swapped_optima,
    }
    return AxiomVerdict("neutrality", False, witness)


def reinforcement_check(
    part_a: PreferenceProfile,
    part_b: PreferenceProfile,
    objective: Objective,
    samples: int = 40,
    seed: int = 0,
    cap: int = 2000,
) -> AxiomVerdict:
    """Two electorates agreeing on an optimum keep it when merged.

    Checks (a) score additivity, on ``samples`` seeded random schedules,
    and (b) that when the parts share optima, the merged profile's optimum
    set is exactly that intersection.  Undecided if enumeration hits
    ``cap``.
    """
    if part_a.tasks != part_b.tasks:
        raise MismatchedTaskSetError("both profiles must range over the same task set")
    tasks = part_a.tasks
    union = PreferenceProfile(tasks, part_a.groups + part_b.groups)

    rng = np.random.default_rng(seed)
    ids = tasks.ids
    for _ in range(samples):
        order = tuple(ids[i] for i in rng.permutation(tasks.n))
        s = Schedule(order)
        parts = score(s, part_a, objective) + score(s, part_b, objective)
        if parts != score(s, union, objective):
            return AxiomVerdict("reinforcement", False, {"schedule": s, "split_score": parts})

    optima_a, complete_a = enumerate_optima(tasks, part_a, objective, cap)
    optima_b, complete_b = enumerate_optima(tasks, part_b, objective, cap)
    if not (complete_a and complete_b):
        return AxiomVerdict("reinforcement", None)
    common = set(optima_a) & set(optima_b)
    if not common:
        return AxiomVerdict("reinforcement", True)
    optima_union, complete_union = enumerate_optima(tasks, union, objective, cap)
    if not complete_union:
        return AxiomVerdict("reinforcement", None)
    if set(optima_union) == common:
        return AxiomVerdict("reinforcement", True)
    witness = {"common": common, "union_optima": set(optima_union)}
    return AxiomVerdict("reinforcement", False, witness)


def _start_time(schedule: Schedule, tasks: TaskSet, target: str) -> int:
    elapsed = 0
    for tid in schedule.order:
        if tid == target:
            return elapsed
        elapsed += tasks.length(tid)
    raise MismatchedTaskSetError(f"task {target!r} missing from schedule")
