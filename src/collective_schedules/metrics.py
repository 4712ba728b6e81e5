"""Distance metrics between schedules and voter profiles.

Three profile metrics drive the aggregation rules:

* ``deviation``: sum over voters and tasks of |completion in the candidate
  schedule - completion in the voter's schedule|.
* ``tardiness``: like deviation but only counting lateness, i.e.
  max(0, candidate completion - voter completion).
* ``pta_kendall_tau``: processing-time-aware Kendall tau.  Every ordered
  pair the candidate schedule places as (a before b) against a voter who
  wanted b first costs the length of a, the task that was moved ahead.

All scores are exact Python integers.  Scoring, solving, heuristic and
audit entry points read a :class:`CompiledProfile`, the same ballots in
task-index space, which builds its pairwise order counts and per-task due
tables once for every rule run on it: scoring one more candidate then
costs O(n^2) for the pairwise objective and O(n log groups) for the
others, not another scan over the voters.  One compiled form is kept, for
the profile most recently compiled: every entry point called on that same
profile object reads it without validating or compiling again, and the
next profile replaces it.

Only this module knows each objective, and it computes each cost one way.
Deviation and tardiness charge each task by its finish time alone
(:func:`_finish_charge`); the pairwise objective charges each inverted pair
from the pair counts.  Every reader derives from that: the full score of an
order (:func:`_evaluator`, for scoring, the brute-force oracle and the local
search's start), the exact solver's tables (:func:`_transitions`) and the
local search's swap terms (:func:`_swap_terms`).

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


def _finish_charge(compiled: CompiledProfile, objective: Objective):
    """``charge(i, start)``: deviation or tardiness over all voters of task ``i`` run
    from ``start``, by bisecting its due table in O(log groups)."""
    lengths = compiled.lengths
    table = compiled.due_tables
    tardy_only = objective is Objective.SUM_TARDINESS

    def charge(i: int, start: int) -> int:
        dues, cum_mult, cum_due, total_mult, total_due = table[i]
        finish = start + lengths[i]
        r = bisect_right(dues, finish)
        late = finish * cum_mult[r] - cum_due[r]
        if tardy_only:
            return late
        return late + (total_due - cum_due[r]) - finish * (total_mult - cum_mult[r])

    return charge


def _transitions(compiled: CompiledProfile, objective: Objective):
    """The exact solver's tables ``(rows, low_key, high_key, high)`` of per-task charges.

    For ``mask = mh << n // 2 | ml``, the charge for running task ``i``
    once the tasks in ``mask`` (``i`` not among them) have run is
    ``rows[low_key[ml] + high_key[mh]][i] + high[mh][i]``; an order's
    score is the sum of its charges.  Pairwise: the keys pick ``rows[ml]``,
    every charge once the low-half tasks in ``ml`` have run, and
    ``high[mh]`` is what the high-half tasks in ``mh`` take off it
    (2 n 2^(n/2) entries, already scaled by length).  Deviation and
    tardiness: the keys are the half masks' loads, ``rows`` maps each
    distinct start (a subset load below the total) to its row of
    :func:`_finish_charge`, and ``high`` is one shared zero row.  Rows are
    built only while there are at most 2^(n-1) distinct subset loads, so
    they cost no more charges than they replace, and n times those at most
    max(2^n, 2^16); otherwise ``rows[start]`` bisects on read.
    """
    lengths = compiled.lengths
    n = len(lengths)
    half = n // 2
    if objective is Objective.PTA_KENDALL_TAU:
        # running i ahead of a waiting j costs lengths[i] per voter wanting j
        # first, so the charge is lengths[i] times column i summed over the
        # waiting tasks; rows[m]: the charges once the low-half tasks in m
        # have run, high[m]: what the high-half ones take off
        waiting = [list(map(mul, lengths, row)) for row in compiled.pair_counts]
        rows, high = [[sum(col) for col in zip(*waiting)]], [[0] * n]
        for sums, vectors in ((rows, waiting[:half]), (high, waiting[half:])):
            for vector in vectors:  # the masks with this bit set follow those without
                sums += [list(map(sub, s, vector)) for s in sums]
        return rows, range(len(rows)), [0] * len(high), high
    charge = _finish_charge(compiled, objective)
    # the loads of the half masks: the masks with a bit set follow those without
    low_key, high_key = keys = [0], [0]
    for k, length in enumerate(lengths):
        keys[k >= half].extend([x + length for x in keys[k >= half]])
    # rows over the distinct subset loads (n + 1 or more: past break-even at n <= 2) unless
    # past break-even or the memory cap; none at the full set's load, where no task waits
    rows = _RowsOnRead(charge)
    if n > 2:
        starts, limit = {0}, min(1 << (n - 1), max(1 << n, 1 << 16) // n)
        for length in lengths:
            starts |= {x + length for x in starts}
            if len(starts) > limit:
                break
        else:
            rows = {start: [charge(i, start) for i in range(n)] for start in starts - {sum(lengths)}}
    return rows, low_key, high_key, [[0] * n] * len(high_key)


def _swap_terms(compiled: CompiledProfile, objective: Objective):
    """``pair(a, b, start)``: the terms that change when adjacent ``a`` then ``b``, from
    ``start``, swap; the swap changes the score by ``pair(b, a, start) - pair(a, b, start)``."""
    lengths = compiled.lengths
    if objective is Objective.PTA_KENDALL_TAU:
        counts = compiled.pair_counts
        return lambda a, b, start: lengths[a] * counts[b][a]
    charge = _finish_charge(compiled, objective)
    return lambda a, b, start: charge(a, start) + charge(b, start + lengths[a])


class _OnRead:
    """``c[i]``: ``charge(i, start)`` for the latest ``start`` bound by :class:`_RowsOnRead`."""

    __slots__ = ("charge", "start")

    def __init__(self, charge) -> None:
        self.charge = charge

    def __getitem__(self, i: int) -> int:
        return self.charge(i, self.start)


class _RowsOnRead:
    """``rows[start]``: one :class:`_OnRead` rebound to ``start``: one per mask costs more than its reads."""

    __slots__ = ("reader",)

    def __init__(self, charge) -> None:
        self.reader = _OnRead(charge)

    def __getitem__(self, start: int) -> _OnRead:
        self.reader.start = start
        return self.reader


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
    """``evaluate(order)``: an index order's full score, :func:`_finish_charge` summed along it in
    O(n log groups), or pairwise, each task's length times the voters wanting a later one first."""
    lengths = compiled.lengths
    if objective is Objective.PTA_KENDALL_TAU:
        counts = compiled.pair_counts

        def evaluate(order) -> int:
            total = 0
            for r, earlier in enumerate(order):
                weight = lengths[earlier]
                for later in order[r + 1 :]:
                    total += weight * counts[later][earlier]
            return total

        return evaluate
    charge = _finish_charge(compiled, objective)

    def evaluate(order) -> int:
        total = start = 0
        for i in order:
            total += charge(i, start)
            start += lengths[i]
        return total

    return evaluate
