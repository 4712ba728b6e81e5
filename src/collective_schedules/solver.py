"""Exact minimization of the three scheduling objectives.

Two routes to the optimum:

* ``brute_force_oracle`` scores every one of the n! permutations as
  ``score`` does, summing each task's charge along the order.  It is the
  reference for the search and is kept deliberately simple: it reads no
  transition table, and the tests check its optima against per-voter
  kernels.  It refuses instances with more than 9 tasks.
* ``solve_exact`` runs a dynamic program over the 2^n subsets of tasks.
  Appending one task to a fixed prefix changes each objective by an amount
  that depends only on the prefix load (for deviation and tardiness) or on
  the set of tasks already scheduled (for the pairwise objective), so
  optimal completions of every subset can be combined bottom-up.  Each
  transition's charge is read in O(1) from tables indexed by the two
  halves of the subset's bitmask (see ``metrics._transitions``), and the
  fill visits only the waiting tasks, one block of subsets per high half
  at a time, so it costs O(n 2^n).  It keeps only costs: the optima are
  counted and enumerated afterwards, over the transitions that keep the
  optimum.

Both report the same exact integer optimum; ties are always broken toward
the schedule whose sequence of declared task indices is lexicographically
smallest.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache
from itertools import islice, permutations
from math import factorial
from operator import sub

from .errors import TooManyTasksError
from .metrics import _compile_profile, _evaluator, _transitions
from .model import Objective, PreferenceProfile, Schedule, TaskSet, _is_int, _require_same_tasks, _shown

ORACLE_MAX_TASKS = 9


@dataclass(frozen=True, slots=True)
class SolveOptions:
    """Knobs for :func:`solve_exact`.

    ``optimum_cap`` bounds only the enumerated ``optima`` list; the optimum
    count itself is always exact.  Ties always break lexicographically, as
    described in the module docstring.
    """

    enumerate_all: bool = False
    optimum_cap: int = 1000
    max_tasks: int = 20

    def __post_init__(self) -> None:
        for name in ("optimum_cap", "max_tasks"):
            _require_bound(name, getattr(self, name))


def _require_bound(name: str, value: object) -> None:
    if not (_is_int(value) and 1 <= value <= sys.maxsize):  # islice refuses a cap past sys.maxsize
        raise ValueError(f"{name} must be an integer from 1 to sys.maxsize ({sys.maxsize}), got {_shown(value)}")


_DEFAULT_OPTIONS = SolveOptions()


@dataclass(frozen=True, slots=True)
class SolveReport:
    """Outcome of one exact solve.

    ``schedule`` is the lexicographically least optimal schedule.
    ``optima`` is ``None`` unless enumeration was requested; when present
    it is sorted lexicographically and ``optima_complete`` says whether it
    holds every optimum or was cut off at the cap.  ``phases`` holds the
    seconds of :func:`solve_exact`'s phases (``None`` from the oracle); it
    takes no part in comparisons, and no report or CLI output prints it.
    """

    objective: Objective
    optimal_score: int
    schedule: Schedule
    optimum_count: int
    optima: tuple[Schedule, ...] | None
    optima_complete: bool
    states_explored: int
    wall_time_s: float
    phases: dict[str, float] | None = field(default=None, compare=False)


def brute_force_oracle(tasks: TaskSet, profile: PreferenceProfile, objective: Objective) -> SolveReport:
    """Minimize by scoring all permutations; the ground truth for tests."""
    started = time.perf_counter()
    objective = Objective(objective)
    n = tasks.n
    if n > ORACLE_MAX_TASKS:
        raise TooManyTasksError(f"oracle handles at most {ORACLE_MAX_TASKS} tasks, got {n}")
    _require_same_tasks(tasks, profile)
    evaluate = _evaluator(_compile_profile(profile), objective)

    best: int | None = None
    argmins: list[tuple[int, ...]] = []
    for order in permutations(range(n)):  # ascending lex over index tuples
        value = evaluate(order)
        if best is None or value < best:
            best = value
            argmins = [order]
        elif value == best:
            argmins.append(order)

    ids = tasks.ids
    optima = tuple(Schedule(tuple(ids[i] for i in order)) for order in argmins)
    assert best is not None
    return SolveReport(
        objective=objective,
        optimal_score=best,
        schedule=optima[0],
        optimum_count=len(optima),
        optima=optima,
        optima_complete=True,
        states_explored=factorial(n),
        wall_time_s=time.perf_counter() - started,
    )


def solve_exact(
    tasks: TaskSet,
    profile: PreferenceProfile,
    objective: Objective,
    options: SolveOptions | None = None,
) -> SolveReport:
    """Minimize the objective with a subset dynamic program.

    State: the set of tasks already scheduled (as a bitmask over declared
    indices).  Value: the best achievable cost of scheduling the remaining
    tasks, up to a per-subset offset that is 0 at the empty set (pta defers
    a split pair's charge, see ``metrics._transitions``).  Memory and time
    grow as 2^n, hence the ``max_tasks`` guard.  The fill values one block of
    masks ``mh << n // 2 | ml`` per high half ``mh`` at a time, from the full
    set down; README's "Rules and objectives" gives its loops.  The count
    then walks forward from the empty set, one layer of subsets at a
    time, over the transitions that keep the optimum, so it reaches only the
    subsets on optimal paths (all 2^n only where every order is optimal).
    ``states_explored`` is 2^n, the subsets the fill values.  ``wall_time_s``
    covers the whole call, the compile when ``profile`` is not the kept one
    and the pair counts when no earlier call on it built them included.
    ``phases`` splits it into seconds in ``compile`` (that profile check and
    compile), ``tables`` (the pair counts and the transition tables),
    ``fill``, ``count`` and ``walk`` (the representative or capped optima).
    """
    started = time.perf_counter()
    objective = Objective(objective)
    options = options or _DEFAULT_OPTIONS
    n = tasks.n
    if n > options.max_tasks:
        raise TooManyTasksError(f"exact solver limited to {options.max_tasks} tasks, got {n}")
    _require_same_tasks(tasks, profile)
    marks = [time.perf_counter()]
    compiled = _compile_profile(profile)
    marks.append(time.perf_counter())
    rows, low_key, high_key, high = tables = _transitions(compiled, objective)
    marks.append(time.perf_counter())

    half = n // 2
    targets, high_waiting = _low_targets(half), _waiting(half, n)
    size, top, h = 1 << half, len(high_waiting) - 1, [0] * (1 << n)
    # the full high half (its full set has h = 0): each best starts from its first waiting task, met again below
    key, hb = high_key[top], [0] * size
    for ml in range(size - 2, -1, -1):
        row, waiting = rows[low_key[ml] + key], targets[ml]
        i, nl = waiting[0]
        best = row[i] + hb[nl]
        for i, nl in waiting:
            cand = row[i] + hb[nl]
            if cand < best:
                best = cand
        hb[ml] = best
    h[top << half :] = hb
    charged = any(map(any, high))  # read from the tables, never from the objective
    for mh in range(top - 1, -1, -1):
        base, key, extra = mh << half, high_key[mh], high[mh]
        # per waiting high-half task j: the slice of h over the block it leads to and, if
        # charged, j's charge within the high half; the last one starts every best
        ahead = []
        for j, bit in high_waiting[mh]:
            col = h[base | bit : (base | bit) + size]
            ahead.append((j, extra[j], col) if charged else (j, col))
        if charged:
            j0, e0, col0 = ahead.pop()
            for ml in range(size - 1, -1, -1):
                row = rows[low_key[ml] + key]
                best = row[j0] + e0 + col0[ml]
                for j, e, col in ahead:
                    cand = row[j] + e + col[ml]
                    if cand < best:
                        best = cand
                for i, nl in targets[ml]:  # high[mh][i] is 0 for a low-half task
                    cand = row[i] + hb[nl]
                    if cand < best:
                        best = cand
                hb[ml] = best
        else:
            j0, col0 = ahead.pop()
            for ml in range(size - 1, -1, -1):
                row = rows[low_key[ml] + key]
                best = row[j0] + col0[ml]
                for j, col in ahead:
                    cand = row[j] + col[ml]
                    if cand < best:
                        best = cand
                for i, nl in targets[ml]:
                    cand = row[i] + hb[nl]
                    if cand < best:
                        best = cand
                hb[ml] = best
        h[base : base + size] = hb
    marks.append(time.perf_counter())

    tight = _tight(n, h, tables)
    layer = {0: 1}  # the optimal prefixes reaching each subset, one layer of equal-sized subsets at a time
    for _ in range(n):
        layer = tight(layer)
    count = layer[(1 << n) - 1]
    marks.append(time.perf_counter())
    ids = tasks.ids
    walk = (Schedule(tuple(ids[i] for i in order)) for order in _optimal_orders(n, tight))
    optima = tuple(islice(walk, options.optimum_cap)) if options.enumerate_all else None
    representative = optima[0] if optima is not None else next(walk)
    marks.append(time.perf_counter())

    return SolveReport(
        objective=objective,
        optimal_score=h[0],
        schedule=representative,
        optimum_count=count,
        optima=optima,
        optima_complete=optima is None or len(optima) == count,
        states_explored=len(h),
        wall_time_s=time.perf_counter() - started,
        phases=dict(zip(("compile", "tables", "fill", "count", "walk"), map(sub, marks[1:], marks))),
    )


def enumerate_optima(
    tasks: TaskSet,
    profile: PreferenceProfile,
    objective: Objective,
    cap: int = 1000,
) -> tuple[tuple[Schedule, ...], bool]:
    """All optimal schedules (lexicographic order) up to ``cap``.

    Returns the schedules and a flag telling whether the list is complete.
    """
    _require_bound("cap", cap)
    report = solve_exact(tasks, profile, objective, SolveOptions(enumerate_all=True, optimum_cap=cap))
    assert report.optima is not None
    return report.optima, report.optima_complete


@cache
def _waiting(first: int, stop: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per mask ``m`` over tasks ``first..stop-1`` (bit ``i - first`` for task ``i``): the
    ``(i, 1 << i)`` pairs of the tasks not in ``m``, by ascending ``i``.  Kept across
    solves: a few thousand short tuples in all for every half of up to 20 tasks."""
    pairs = [(i, 1 << i) for i in range(first, stop)]
    return tuple(tuple(p for k, p in enumerate(pairs) if not m >> k & 1) for m in range(1 << (stop - first)))


@cache
def _low_targets(half: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per low-half mask ``ml``: :func:`_waiting`'s pairs with ``ml | 1 << i`` for ``1 << i``."""
    return tuple(tuple((i, ml | bit) for i, bit in waiting) for ml, waiting in enumerate(_waiting(0, half)))


def _tight(n, h, tables):
    """The one test of a transition that keeps the optimum, as ``step(layer)``.

    ``layer`` maps subsets (masks) to the number of optimal prefixes that
    reach each; ``step`` returns the same map for the subsets one task
    larger that those transitions reach from them, the steps from one mask
    by ascending task index.  Running task ``i`` from ``mask`` keeps the
    optimum when its charge plus ``h`` of the next subset is ``h[mask]``;
    the per-subset offset in ``h`` shifts each charge by the offsets of its
    two ends, so it keeps the same transitions.  The test runs per layer,
    not in a generator per mask: where every order is optimal the count
    reaches every subset, and there a generator per mask nearly doubled
    its time.
    """
    rows, low_key, high_key, high = tables
    half = n // 2
    low_waiting, high_waiting = _waiting(0, half), _waiting(half, n)
    low_full = (1 << half) - 1

    def step(layer):
        reached = defaultdict(int)
        for mask, paths in layer.items():
            ml, mh = mask & low_full, mask >> half
            row, extra, target = rows[low_key[ml] + high_key[mh]], high[mh], h[mask]
            for i, bit in low_waiting[ml]:  # high[mh][i] is 0, as in the fill
                if row[i] + h[nxt := mask | bit] == target:
                    reached[nxt] += paths
            for i, bit in high_waiting[mh]:
                if row[i] + extra[i] + h[nxt := mask | bit] == target:
                    reached[nxt] += paths
        return reached

    return step


def _optimal_orders(n, tight):
    """Every optimal order of task indices, lexicographically least first.

    A depth-first walk over the transitions that keep the optimum, taking
    the smallest viable index first.  It is a module-level function with an
    explicit stack: a nested function that called itself would sit in a
    reference cycle with its closure and keep the 2^n tables alive until
    the cyclic collector ran.
    """
    full = (1 << n) - 1
    stack = [(0, ())]
    while stack:
        mask, prefix = stack.pop()
        if mask == full:
            yield prefix
            continue
        # pushed largest first, so the smallest index is popped first
        stack += [(nxt, prefix + ((nxt ^ mask).bit_length() - 1,)) for nxt in reversed(tight({mask: 1}))]
