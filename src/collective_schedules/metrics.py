"""Distance metrics between schedules and voter profiles.

Three profile metrics drive the aggregation rules:

* ``deviation``: sum over voters and tasks of |completion in the candidate
  schedule - completion in the voter's schedule|.
* ``tardiness``: like deviation but only counting lateness, i.e.
  max(0, candidate completion - voter completion).
* ``pta_kendall_tau``: processing-time-aware Kendall tau.  Every ordered
  pair the candidate schedule places as (a before b) against a voter who
  wanted b first costs the length of a, the task that was moved ahead.

All scores are exact Python integers.  The pairwise order counts are built
once per profile (O(v n^2)) so that evaluating one more candidate schedule
costs O(n^2) rather than another scan over the voters.  Scoring, solving,
heuristic and audit entry points read a :class:`CompiledProfile`, the same
ballots in task-index space, which builds its pair counts and due tables
once for every rule run on it.  One compiled form is kept, for the profile
most recently compiled: every entry point called on that same profile
object reads it without validating or compiling again, and the next
profile replaces it.

Only this module knows each objective: its full-score kernels score a whole
order from the ballots (:func:`_evaluator`, for scoring and the brute-force
oracle), and its transition costs charge one more task (:func:`_transitions`),
which the exact solver and the local search read.

The classical distances between two orders are the unit-length cases
against a single voter: Kendall tau is ``pta_kendall_tau`` and Spearman's
footrule is ``deviation``, both through :func:`score`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul, sub

from .model import (
    Objective,
    PreferenceProfile,
    Schedule,
    TaskSet,
    _completions_by_index,
    _kept_form,
    _require_permutation,
)


@dataclass(frozen=True, slots=True)
class PairwiseCountMatrix:
    """Voter counts for every ordered task pair.

    ``counts[i][j]`` is the number of voters (with multiplicity) whose
    schedule runs the task with declared index ``i`` before the one with
    declared index ``j``.  The diagonal is zero and for distinct tasks
    ``counts[i][j] + counts[j][i]`` equals the voter count.
    """

    tasks: TaskSet
    counts: tuple[tuple[int, ...], ...]
    voter_count: int

    def before(self, a: str, b: str) -> int:
        """Number of voters scheduling task ``a`` before task ``b``."""
        return self.counts[self.tasks.index(a)][self.tasks.index(b)]


def pairwise_counts(profile: PreferenceProfile) -> PairwiseCountMatrix:
    """Count, for every ordered pair, the voters placing one task first."""
    compiled = _compile_profile(profile)
    return PairwiseCountMatrix(profile.tasks, compiled.pair_counts, compiled.voter_count)


def deviation(schedule: Schedule, profile: PreferenceProfile) -> int:
    """Total absolute completion-time deviation from all voters."""
    return score(schedule, profile, Objective.SUM_DEVIATION)


def tardiness(schedule: Schedule, profile: PreferenceProfile) -> int:
    """Total lateness versus every voter's preferred completion times."""
    return score(schedule, profile, Objective.SUM_TARDINESS)


def pta_kendall_tau(schedule: Schedule, profile: PreferenceProfile) -> int:
    """Processing-time-aware Kendall tau score of ``schedule``."""
    return score(schedule, profile, Objective.PTA_KENDALL_TAU)


def score(schedule: Schedule, profile: PreferenceProfile, objective: Objective) -> int:
    """Evaluate one schedule under the given objective."""
    objective = Objective(objective)
    evaluate = _evaluator(_compile_profile(profile), objective)
    return evaluate(_require_permutation(schedule, profile.tasks))


# ---------------------------------------------------------------------------
# index-space form of a profile and the kernels that read it, shared with the
# solver, the enumeration oracle, the heuristics and the experiment pipelines

@dataclass(slots=True)
class CompiledProfile:
    """A validated profile in task-index space, built once per instance.

    ``dues[g][i]`` is the completion time voter group ``g`` wants for the
    task with declared index ``i``; ``mults[g]`` is that group's
    multiplicity.  Get it from :func:`_compile_profile`, which keeps the
    most recent one.  The per-task due tables (:func:`_due_prefix_tables`)
    and the pair counts (:func:`_pair_counts`) are built on first read and
    kept, so every rule run on the same profile shares them.  Nothing built
    from them is kept here: a solve's own tables die with the solve.
    """

    tasks: TaskSet
    lengths: tuple[int, ...]
    dues: list[list[int]]
    mults: list[int]
    voter_count: int
    _due_tables: list | None = field(default=None, init=False, repr=False, compare=False)
    _pair_counts: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def due_tables(self) -> list[tuple[list[int], list[int], list[int], int, int]]:
        if self._due_tables is None:
            self._due_tables = _due_prefix_tables(self)
        return self._due_tables

    @property
    def pair_counts(self) -> tuple[tuple[int, ...], ...]:
        if self._pair_counts is None:
            self._pair_counts = _pair_counts(self)
        return self._pair_counts


def _compile_profile(profile: PreferenceProfile) -> CompiledProfile:
    """``profile``'s ballots in index space, validated and built once while kept."""
    return _kept_form(profile, _compile)


def _compile(profile: PreferenceProfile) -> CompiledProfile:
    tasks = profile.tasks
    lengths = tasks.lengths
    index = tasks._index
    dues = [_completions_by_index([index[tid] for tid in s.order], lengths) for s, _ in profile.groups]
    mults = [m for _, m in profile.groups]
    return CompiledProfile(tasks, lengths, dues, mults, sum(mults))


def _due_prefix_tables(compiled: CompiledProfile):
    """Per task: its distinct preferred completions, sorted, with cumulative weight sums.

    Entry ``i`` is ``(sorted_dues, cum_mult, cum_due, total_mult,
    total_due)``.  Groups wanting the same completion share one entry
    weighted by their summed multiplicity.  The cumulative lists start at
    0, so ``cum_mult[r]`` is the weight of the voters wanting one of the
    ``r`` smallest dues.
    """
    tables = []
    for column in zip(*compiled.dues):
        weight: dict[int, int] = {}
        for due, mult in zip(column, compiled.mults):
            weight[due] = weight.get(due, 0) + mult
        sorted_dues = sorted(weight)
        weights = [weight[due] for due in sorted_dues]
        cum_mult = list(accumulate(weights, initial=0))
        cum_due = list(accumulate(map(mul, sorted_dues, weights), initial=0))
        tables.append((sorted_dues, cum_mult, cum_due, cum_mult[-1], cum_due[-1]))
    return tables


def _transitions(compiled: CompiledProfile, objective: Objective, tabulate: bool = False):
    """``(charges, pair)``: the objective's cost split into per-task charges.

    ``charges(mask, start)`` gives ``c``, where ``c[i]`` is the charge for
    running task ``i`` from time ``start`` once the tasks in the bitmask
    ``mask`` (``i`` not among them) have run; an order's score is the sum
    of its charges.  ``c`` is one :class:`_OnRead`, rebound by each call,
    so it is read before the next: in O(n) per charge for the pairwise
    objective, and for deviation and tardiness, which depend only on the
    finish time, by bisecting the due tables in O(log groups).
    ``pair(a, b, start)`` holds the terms that change when adjacent ``a``
    then ``b``, starting at ``start``, swap places: the swap changes the
    score by ``pair(b, a, start) - pair(a, b, start)``.

    The exact solver, which reads n 2^(n-1) charges, passes ``tabulate``
    for tables instead: ``(rows, low_key, high_key, high)``, such that for
    ``mask = mh << n // 2 | ml`` task ``i``'s charge is
    ``rows[low_key[ml] + high_key[mh]][i] + high[mh][i]``.  Pairwise: the
    keys pick ``rows[ml]``, every charge once the low-half tasks in ``ml``
    have run, and ``high[mh]`` is what the high-half tasks in ``mh`` take
    off it (2 n 2^(n/2) entries, already scaled by length).
    Deviation and tardiness: the keys are the half masks' loads, ``rows``
    maps each distinct start (a subset load below the total) to its row of
    n charges, and ``high`` is one shared zero row.  Rows are built only
    while there are at most 2^(n-1) distinct subset loads, so they cost no
    more charges than they replace, and n times those at most
    max(2^n, 2^16); otherwise ``rows[start]`` is the bisecting ``c``.
    """
    lengths = compiled.lengths
    n = len(lengths)
    half = n // 2
    if objective is Objective.PTA_KENDALL_TAU:
        # running i ahead of a waiting j costs lengths[i] per voter wanting j
        # first, so the charge is lengths[i] times column i summed over the
        # tasks not in the mask
        counts = compiled.pair_counts

        def charge(i: int, mask: int, start: int) -> int:
            return lengths[i] * sum(row[i] for j, row in enumerate(counts) if not mask >> j & 1)

        def pair(a: int, b: int, start: int) -> int:
            return lengths[a] * counts[b][a]

        if tabulate:
            # rows[m]: the charges once the low-half tasks in m have run; high[m]: what the high-half ones add
            waiting = [list(map(mul, lengths, row)) for row in counts]
            rows, high = [[sum(col) for col in zip(*waiting)]], [[0] * n]
            for sums, vectors in ((rows, waiting[:half]), (high, waiting[half:])):
                for vector in vectors:  # the masks with this bit set follow those without
                    sums += [list(map(sub, s, vector)) for s in sums]
            return rows, range(len(rows)), [0] * len(high), high
    else:
        # deviation or tardiness of task i finishing at start + lengths[i]
        tardy_only = objective is Objective.SUM_TARDINESS
        table = compiled.due_tables

        def charge(i: int, mask: int, start: int) -> int:
            dues, cum_mult, cum_due, total_mult, total_due = table[i]
            finish = start + lengths[i]
            r = bisect_right(dues, finish)
            late = finish * cum_mult[r] - cum_due[r]
            if tardy_only:
                return late
            return late + (total_due - cum_due[r]) - finish * (total_mult - cum_mult[r])

        def pair(a: int, b: int, start: int) -> int:
            return charge(a, 0, start) + charge(b, 0, start + lengths[a])

        if tabulate:
            # the loads of the half masks: the masks with a bit set follow those without
            low_key, high_key = keys = [0], [0]
            for k, length in enumerate(lengths):
                keys[k >= half].extend([x + length for x in keys[k >= half]])
            # rows over the distinct subset loads (n + 1 or more: past break-even at n <= 2) unless
            # past break-even or the memory cap; none at the full set's load, where no task waits
            rows = _RowsOnRead(_OnRead(charge))
            if n > 2:
                starts, limit = {0}, min(1 << (n - 1), max(1 << n, 1 << 16) // n)
                for length in lengths:
                    starts |= {x + length for x in starts}
                    if len(starts) > limit:
                        break
                else:
                    rows = {start: [charge(i, 0, start) for i in range(n)] for start in starts - {sum(lengths)}}
            return rows, low_key, high_key, [[0] * n] * len(high_key)
    return _OnRead(charge).at, pair


class _OnRead:
    """``c[i]``: ``charge(i, mask, start)`` for the latest :meth:`at`, rebound: one per mask costs more than its reads."""

    __slots__ = ("charge", "mask", "start")

    def __init__(self, charge) -> None:
        self.charge = charge

    def at(self, mask: int, start: int) -> _OnRead:
        self.mask, self.start = mask, start
        return self

    def __getitem__(self, i: int) -> int:
        return self.charge(i, self.mask, self.start)


class _RowsOnRead:
    """``rows[start]``: one :class:`_OnRead` rebound to ``start``, in place of the per-load rows."""

    __slots__ = ("reader",)

    def __init__(self, reader: _OnRead) -> None:
        self.reader = reader

    def __getitem__(self, start: int) -> _OnRead:
        return self.reader.at(0, start)


def _pair_counts(compiled: CompiledProfile) -> tuple[tuple[int, ...], ...]:
    """``counts[i][j]``: voters running task ``i`` before task ``j``."""
    # completions rise strictly along a ballot, so due order is ballot order
    n = len(compiled.lengths)
    counts = [[0] * n for _ in range(n)]
    for due, mult in zip(compiled.dues, compiled.mults):
        for i in range(n):
            for j in range(i + 1, n):
                if due[i] < due[j]:
                    counts[i][j] += mult
                else:
                    counts[j][i] += mult
    return tuple(tuple(row) for row in counts)


def _evaluator(compiled: CompiledProfile, objective: Objective):
    """``evaluate(order)``: an index order's full score from the per-voter kernels."""
    lengths = compiled.lengths
    if objective is Objective.PTA_KENDALL_TAU:
        counts = compiled.pair_counts
        return lambda order: _pta_kernel(order, lengths, counts)
    kernel = _deviation_kernel if objective is Objective.SUM_DEVIATION else _tardiness_kernel
    dues, mults = compiled.dues, compiled.mults
    return lambda order: kernel(_completions_by_index(order, lengths), dues, mults)


def _deviation_kernel(comp: list[int], dues: list[list[int]], mults: list[int]) -> int:
    total = 0
    for due, mult in zip(dues, mults):
        total += mult * sum(abs(c - d) for c, d in zip(comp, due))
    return total


def _tardiness_kernel(comp: list[int], dues: list[list[int]], mults: list[int]) -> int:
    total = 0
    for due, mult in zip(dues, mults):
        group = 0
        for c, d in zip(comp, due):
            if c > d:
                group += c - d
        total += mult * group
    return total


def _pta_kernel(
    order: list[int] | tuple[int, ...],
    lengths: tuple[int, ...],
    counts: tuple[tuple[int, ...], ...],
) -> int:
    # cost of running `earlier` before `later`: lengths[earlier] per voter
    # who wanted the opposite order
    total = 0
    n = len(order)
    for r in range(n):
        earlier = order[r]
        weight = lengths[earlier]
        for c in range(r + 1, n):
            total += weight * counts[order[c]][earlier]
    return total

