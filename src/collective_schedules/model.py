"""Core data model for collective scheduling.

A *task set* is an ordered list of tasks with positive integer lengths.  A
*schedule* is one permutation of those tasks, executed back to back on a
single machine starting at time 0, so the completion time of a task is the
sum of the lengths scheduled up to and including it.  Voters submit their
preferred schedules; identical submissions are stored once with a
multiplicity.  The declared order of the task set is the canonical order
used for every lexicographic tie-break in the package.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import DuplicateTaskError, InvalidSpecError, MismatchedTaskSetError, UnknownTaskError


class Objective(str, Enum):
    """Aggregation objectives a consensus schedule can minimize."""

    SUM_DEVIATION = "sum-deviation"
    SUM_TARDINESS = "sum-tardiness"
    PTA_KENDALL_TAU = "pta-kendall-tau"


@dataclass(frozen=True, slots=True)
class TaskSet:
    """Ordered collection of (task_id, length) pairs.

    Ids are opaque strings and must be unique; lengths are positive
    integers.  The declared order defines the canonical task indexing.
    """

    tasks: tuple[tuple[str, int], ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        frozen = tuple((tid, length) for tid, length in self.tasks)
        object.__setattr__(self, "tasks", frozen)
        index: dict[str, int] = {}
        for pos, (tid, length) in enumerate(frozen):
            if not isinstance(tid, str) or not tid:
                raise ValueError(f"task id must be a non-empty string, got {_shown(tid)}")
            if not _is_int(length, 1):
                raise ValueError(f"task {tid!r} needs a positive integer length, got {_shown(length)}")
            if tid in index:
                raise DuplicateTaskError(f"duplicate task id {tid!r}")
            index[tid] = pos
        if not index:
            raise ValueError("a task set needs at least one task")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_ids", tuple(tid for tid, _ in frozen))
        object.__setattr__(self, "_lengths", tuple(length for _, length in frozen))

    @classmethod
    def of(cls, *tasks: tuple[str, int]) -> "TaskSet":
        return cls(tuple(tasks))

    @property
    def n(self) -> int:
        return len(self.tasks)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def lengths(self) -> tuple[int, ...]:
        return self._lengths

    @property
    def total_load(self) -> int:
        return sum(self.lengths)

    def index(self, task_id: str) -> int:
        if task_id in self:
            return self._index[task_id]
        raise UnknownTaskError(f"unknown task id {_shown(task_id)}")

    def length(self, task_id: str) -> int:
        return self.tasks[self.index(task_id)][1]

    def __contains__(self, task_id: object) -> bool:
        # the one id rule: a non-string, say an unhashable list, names no task
        return isinstance(task_id, str) and task_id in self._index

    def with_length(self, task_id: str, new_length: int) -> "TaskSet":
        """Copy of this task set with one task's length replaced."""
        pos = self.index(task_id)
        updated = list(self.tasks)
        updated[pos] = (task_id, new_length)
        return TaskSet(tuple(updated))


@dataclass(frozen=True, slots=True)
class Schedule:
    """One execution order over a task set (a permutation of its ids)."""

    order: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))

    @classmethod
    def of(cls, *order: str) -> "Schedule":
        return cls(order)

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)

    def position(self, task_id: str) -> int:
        if isinstance(task_id, str) and task_id in self.order:
            return self.order.index(task_id)
        raise UnknownTaskError(f"task {_shown(task_id)} not in schedule")

    def swap(self, a: str, b: str) -> "Schedule":
        """Schedule with the positions of tasks ``a`` and ``b`` exchanged."""
        if a == b:
            return self
        pa, pb = self.position(a), self.position(b)
        order = list(self.order)
        order[pa], order[pb] = order[pb], order[pa]
        return Schedule(tuple(order))


@dataclass(frozen=True, slots=True)
class PreferenceProfile:
    """Voters' preferred schedules, grouped with multiplicities.

    The profile is a plain record: it stores whatever it is given so that
    :func:`validate_profile` can report defects.  Scoring and solving entry
    points reject an invalid profile as they compile it, before any scoring,
    raising what :func:`require_valid_profile` raises.
    """

    tasks: TaskSet
    groups: tuple[tuple[Schedule, int], ...]

    def __post_init__(self) -> None:
        frozen = tuple((schedule, mult) for schedule, mult in self.groups)
        object.__setattr__(self, "groups", frozen)

    @classmethod
    def of(cls, tasks: TaskSet, *groups: tuple[Sequence[str], int]) -> "PreferenceProfile":
        """Build a profile from (order, multiplicity) pairs, multiplicities as given."""
        return cls(tasks, tuple((Schedule(tuple(order)), mult) for order, mult in groups))

    @classmethod
    def from_orders(cls, tasks: TaskSet, orders: Iterable[Sequence[str]]) -> "PreferenceProfile":
        """Collapse a stream of individual ballots into grouped form.

        Groups appear sorted by canonical task indices so that equal ballot
        multisets always produce equal profiles.
        """
        return _grouped(tasks, [tuple(map(tasks.index, order)) for order in orders])

    @property
    def voter_count(self) -> int:
        return sum(mult for _, mult in self.groups)


@dataclass(frozen=True, slots=True)
class ProfileDefect:
    """One problem found while validating a profile."""

    group: int | None
    code: str
    message: str


@dataclass(frozen=True, slots=True)
class ProfileValidation:
    """Outcome of :func:`validate_profile`."""

    ok: bool
    voter_count: int
    task_count: int
    defects: tuple[ProfileDefect, ...]


def completion_times(schedule: Schedule, tasks: TaskSet) -> dict[str, int]:
    """Completion time of every task under ``schedule``.

    Tasks run back to back from time 0, so task k at position j completes at
    the sum of the lengths of positions 0..j.  Raises if the schedule is not
    a permutation of ``tasks``.
    """
    order = _require_permutation(schedule, tasks)
    return dict(zip(schedule.order, accumulate(map(tasks.lengths.__getitem__, order))))


def validate_profile(profile: PreferenceProfile) -> ProfileValidation:
    """Check a profile's ballots against its task set and report every defect found."""
    tasks = profile.tasks
    defects: list[ProfileDefect] = []
    if not profile.groups:
        defects.append(ProfileDefect(None, "no-voters", "profile has no voter groups"))
    voters = 0
    for g, (schedule, mult) in enumerate(profile.groups):
        if not _is_int(mult, 1):
            defects.append(ProfileDefect(g, "bad-multiplicity", f"multiplicity must be a positive integer, got {_shown(mult)}"))
        else:
            voters += mult
        seen: set[str] = set()
        for tid in schedule.order:
            if tid not in tasks:
                defects.append(ProfileDefect(g, "unknown-task", f"group {g} names unknown task {_shown(tid)}"))
            elif tid in seen:
                defects.append(ProfileDefect(g, "duplicate-task", f"group {g} repeats task {tid!r}"))
            else:
                seen.add(tid)
        missing = [tid for tid in tasks.ids if tid not in seen]
        if missing:
            defects.append(ProfileDefect(g, "missing-task", f"group {g} is missing task(s) {missing}"))
    return ProfileValidation(ok=not defects, voter_count=voters, task_count=tasks.n, defects=tuple(defects))


def require_valid_profile(profile: PreferenceProfile) -> None:
    """Raise on the first defect that makes a profile unusable for scoring."""
    report = validate_profile(profile)
    if report.ok:
        return
    defect = report.defects[0]
    if defect.code == "unknown-task":
        raise UnknownTaskError(defect.message)
    if defect.code in ("missing-task", "duplicate-task"):
        raise MismatchedTaskSetError(defect.message)
    raise ValueError(defect.message)


def swap_tasks_in_profile(profile: PreferenceProfile, a: str, b: str) -> PreferenceProfile:
    """Exchange tasks ``a`` and ``b`` in every voter's schedule.

    Multiplicities are untouched and applying the same swap twice returns
    the original profile.
    """
    profile.tasks.index(a), profile.tasks.index(b)  # reject unknown ids
    if a == b:
        return profile
    return PreferenceProfile(profile.tasks, tuple((s.swap(a, b), m) for s, m in profile.groups))


def _require_permutation(schedule: Schedule, tasks: TaskSet) -> tuple[int, ...]:
    # the schedule's task indices, checked in the same pass: every id known,
    # no repeats, nothing missing
    index = tasks._index
    order: list[int] = []
    seen: set[int] = set()
    for tid in schedule.order:
        if tid not in tasks:
            raise UnknownTaskError(f"unknown task id {_shown(tid)} in schedule")
        i = index[tid]
        if i in seen:
            raise MismatchedTaskSetError(f"task {tid!r} appears twice in schedule")
        seen.add(i)
        order.append(i)
    if len(order) != tasks.n:
        raise MismatchedTaskSetError("schedule does not cover the whole task set")
    return tuple(order)


def _grouped(tasks: TaskSet, rows: Iterable[tuple[int, ...]]) -> PreferenceProfile:
    # the one grouping rule: equal ballots, as rows of task indices, are
    # counted, and the groups ordered by ascending index tuple
    ids = tasks.ids
    counted = sorted(Counter(rows).items())
    return PreferenceProfile(tasks, tuple((Schedule(tuple(map(ids.__getitem__, row))), mult) for row, mult in counted))


def _shown(value: object) -> str:
    # repr for an error message; str() refuses an int of over 4,300 digits
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _is_int(value: object, least: int | None = None) -> bool:
    # the one rule for counts, lengths, sizes, caps and seeds: an int or IntEnum, never a bool or numpy integer
    return isinstance(value, int) and not isinstance(value, bool) and (least is None or value >= least)


def _require_sizes(**sizes: int) -> None:
    # the one ceiling for counts of tasks, voters or optima past _is_int: sys.maxsize, the longest list or array
    for name, value in sizes.items():
        if value > sys.maxsize:
            raise InvalidSpecError(f"{name} must be at most sys.maxsize ({sys.maxsize}), got {name}={_shown(value)}")


def _require_same_tasks(tasks: TaskSet, profile: PreferenceProfile) -> None:
    if tasks != profile.tasks:
        raise MismatchedTaskSetError("profile was built over a different task set")
