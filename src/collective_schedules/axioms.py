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

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import InvalidReductionError, MismatchedTaskSetError
from .metrics import _compile_profile
from .model import (
    Objective,
    PreferenceProfile,
    Schedule,
    TaskSet,
    _is_int,
    _shown,
    completion_times,
    swap_tasks_in_profile,
)
from .rules import apply_rule
from .solver import enumerate_optima


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
    compiled = _compile_profile(profile)
    counts, lengths, v = compiled.pair_counts, compiled.lengths, compiled.voter_count
    ids = compiled.tasks.ids
    return tuple(
        CondorcetConstraint(ids[a], ids[b], counts[a][b])
        for a in range(len(ids))
        for b in range(len(ids))
        if a != b and counts[a][b] * (lengths[a] + lengths[b]) >= lengths[a] * v
    )


def is_pta_condorcet_consistent(schedule: Schedule, profile: PreferenceProfile) -> AxiomVerdict:
    """Does the schedule respect every binding precedence constraint?"""
    constraints = {(c.before, c.after): c for c in pta_condorcet_constraints(profile)}
    inverted = _first_inverted(schedule, profile.tasks, constraints)
    return AxiomVerdict("pta-condorcet", inverted is None, constraints.get(inverted))


def find_pta_condorcet_schedule(profile: PreferenceProfile) -> Schedule | None:
    """The schedule satisfying every binding constraint, if one exists.

    Every pair binds in at least one direction, and in both only on an
    exact tie, so the constraints form a tournament.  A consistent schedule
    exists only if that tournament is transitive, and is then its unique
    linear extension; otherwise ``None``.
    """
    binding = [(c.before, c.after) for c in pta_condorcet_constraints(profile)]
    # in a transitive tournament the task at position k heads n-1-k arcs,
    # so the order by that count is the only candidate
    heads = Counter(a for a, _ in binding)
    schedule = Schedule(tuple(sorted(profile.tasks.ids, key=heads.__getitem__, reverse=True)))
    return schedule if _first_inverted(schedule, profile.tasks, binding) is None else None


def unanimous_pairs(profile: PreferenceProfile) -> tuple[tuple[str, str], ...]:
    """Ordered pairs every single voter schedules the same way."""
    compiled = _compile_profile(profile)
    counts, v = compiled.pair_counts, compiled.voter_count
    ids = compiled.tasks.ids
    return tuple((ids[a], ids[b]) for a in range(len(ids)) for b in range(len(ids)) if a != b and counts[a][b] == v)


def check_unanimity(schedule: Schedule, profile: PreferenceProfile) -> AxiomVerdict:
    """Does the schedule keep every unanimously agreed precedence?"""
    inverted = _first_inverted(schedule, profile.tasks, unanimous_pairs(profile))
    return AxiomVerdict("unanimity", inverted is None, inverted)


def lrm_probe(
    profile: PreferenceProfile,
    rule: str | Objective,
    target: str,
    reduced_length: int,
) -> AxiomVerdict:
    """Length-reduction monotonicity: shortening a task must not delay it.

    Runs ``rule`` on the instance and on a copy where ``target``'s length
    drops to ``reduced_length`` (ballot orders unchanged), then compares
    the target's start times.  Holds when the start does not move later.
    """
    _compile_profile(profile)  # rejects an invalid profile first; the rule reads the kept form
    tasks = profile.tasks
    old_length = tasks.length(target)
    if not _is_int(reduced_length):
        raise InvalidReductionError("reduced length must be an integer")
    if not 1 <= reduced_length < old_length:
        raise InvalidReductionError(
            f"reduced length must be in [1, {old_length - 1}], got {_shown(reduced_length)}"
        )
    before = apply_rule(rule, tasks, profile)
    reduced = PreferenceProfile(tasks.with_length(target, reduced_length), profile.groups)
    after = apply_rule(rule, reduced.tasks, reduced)
    return _lrm_verdict(target, tasks, reduced.tasks, before, after)


def _lrm_verdict(
    target: str, tasks: TaskSet, reduced_tasks: TaskSet, before: Schedule, after: Schedule
) -> AxiomVerdict:
    """:func:`lrm_probe`'s verdict on the rule's schedules before and after the reduction."""
    start_before = completion_times(before, tasks)[target] - tasks.length(target)
    start_after = completion_times(after, reduced_tasks)[target] - reduced_tasks.length(target)
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
    cap: int = 2000,
) -> AxiomVerdict:
    """Two electorates agreeing on an optimum keep it when merged.

    When the parts share optima, the merged profile's optimum set must be
    exactly that intersection.  Undecided if enumeration hits ``cap``.
    """
    if part_a.tasks != part_b.tasks:
        raise MismatchedTaskSetError("both profiles must range over the same task set")
    tasks = part_a.tasks
    optima_a, complete_a = enumerate_optima(tasks, part_a, objective, cap)
    optima_b, complete_b = enumerate_optima(tasks, part_b, objective, cap)
    if not (complete_a and complete_b):
        return AxiomVerdict("reinforcement", None)
    common = set(optima_a) & set(optima_b)
    if not common:
        return AxiomVerdict("reinforcement", True)
    union = PreferenceProfile(tasks, part_a.groups + part_b.groups)
    optima_union, complete_union = enumerate_optima(tasks, union, objective, cap)
    if not complete_union:
        return AxiomVerdict("reinforcement", None)
    if set(optima_union) == common:
        return AxiomVerdict("reinforcement", True)
    witness = {"common": common, "union_optima": set(optima_union)}
    return AxiomVerdict("reinforcement", False, witness)


def _first_inverted(
    schedule: Schedule, tasks: TaskSet, precedences: Iterable[tuple[str, str]]
) -> tuple[str, str] | None:
    # completion times rise along a schedule, so they order its tasks, and
    # computing them rejects a schedule that is not a permutation of tasks
    finish = completion_times(schedule, tasks)
    return next(((a, b) for a, b in precedences if finish[a] > finish[b]), None)
