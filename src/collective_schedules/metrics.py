"""Distance metrics between schedules and voter profiles.

Three profile metrics drive the aggregation rules:

* ``deviation``: sum over voters and tasks of |completion in the candidate
  schedule - completion in the voter's schedule|.
* ``tardiness``: like deviation but only counting lateness, i.e.
  max(0, candidate completion - voter completion).
* ``pta_kendall_tau``: processing-time-aware Kendall tau.  Every ordered
  pair the candidate schedule places as (a before b) against a voter who
  wanted b first costs the length of a, the task that was moved ahead.

All scores are exact Python integers.  Every entry point reads a
:class:`CompiledProfile`: per-task due tables built in one walk that checks
the ballots, and pairwise counts built on first read.  The form of the
profile compiled last is kept (README, "Rules and objectives").

Only this module knows each objective, and it computes each cost one way.
Deviation and tardiness charge each task by its finish time alone
(:func:`_finish_charge`); the pairwise objective charges each inverted pair
from the pair counts.  Every reader derives from that: the full score of an
order (:func:`_evaluator`, for scoring, the brute-force oracle and the local
search's start), the exact solver's tables (:func:`_transitions`) and the
local search's swap terms (:func:`_swap_terms`).  The solver's deviation and
tardiness rows repeat its two-line formula in :func:`_swept`, one ascending
sweep per task where a charge per entry would bisect.  ``_finish_charge``
does no setup beyond binding its closure, since :func:`score` builds an
evaluator on every call and the local search one set of swap terms per run.

The classical distances between two orders are the unit-length cases
against a single voter: Kendall tau is ``pta_kendall_tau`` and Spearman's
footrule is ``deviation``, both through :func:`score`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, compress
from operator import lt, mul, sub

from .model import Objective, PreferenceProfile, Schedule, TaskSet, _is_int, _require_permutation, require_valid_profile


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
    """A valid profile in task-index space, built once per instance.

    ``groups`` is the profile's own ``(schedule, multiplicity)`` pairs and
    ``mults[g]`` group ``g``'s multiplicity.  ``due_tables[i]`` is
    ``(sorted_dues, cum_mult, cum_due, total_mult, total_due)``: task
    ``i``'s distinct wanted completions, sorted, each weighted by the summed
    multiplicity of the groups wanting it, with cumulative sums that start
    at 0, so ``cum_mult[r]`` is the weight of the voters wanting one of the
    ``r`` smallest dues.  :func:`_compile` adds those weights into one list
    per task indexed by completion time while the n lists of ``total + 1``
    entries hold at most ``max(n * groups, 256 * n)`` in all: no more than
    the ballots themselves, or 256 entries per task, which all hold cached
    small ints.  Past that, it adds them into one dict per task, which costs
    a profile with a huge total, or few voters and a long total, only its
    distinct dues.  Get it
    from :func:`_compile_profile`, which keeps the most recent one.  The
    pair counts (:func:`_pair_counts`) are built from ``groups`` on first
    read and kept, so every rule run on the same profile shares them.
    Nothing built from these is kept here: a solve's own tables die with
    the solve.
    """

    tasks: TaskSet
    lengths: tuple[int, ...]
    groups: tuple[tuple[Schedule, int], ...]
    mults: list[int]
    voter_count: int
    due_tables: list[tuple[list[int], list[int], list[int], int, int]]
    _pair_counts: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def pair_counts(self) -> tuple[tuple[int, ...], ...]:
        if self._pair_counts is None:
            self._pair_counts = _pair_counts(self)
        return self._pair_counts


# The profile most recently compiled and its compiled form: one entry, keyed
# by identity.  It holds the profile itself, so the id cannot be recycled
# while the entry lasts, and a valid profile is deeply immutable, so a kept
# form cannot go stale.  Readers take the pair in one read: a concurrent
# caller may replace it between two reads, which at worst costs a second
# compile, never another profile's form.
_kept: tuple[PreferenceProfile | None, CompiledProfile | None] = (None, None)


def _compile_profile(profile: PreferenceProfile) -> CompiledProfile:
    """``profile``'s ballots in index space, checked and built once while kept."""
    global _kept
    kept, compiled = _kept
    if kept is not profile:
        compiled = _compile(profile)
        _kept = (profile, compiled)
    return compiled


def _compile(profile: PreferenceProfile) -> CompiledProfile:
    """One walk over the ballots: each group's completions added into its tasks'
    due weights, and the group checked on the way.

    A group passes with a multiplicity that is a positive non-bool ``int``
    and n known ids, none repeated: each id sets its task's bit, and a
    repeat leaves some bit unset.  Where one fails, the profile goes to
    :func:`require_valid_profile`, which raises on its first defect.
    """
    tasks = profile.tasks
    lengths = tasks.lengths
    groups = profile.groups
    n, total = len(lengths), sum(lengths)
    dense = total < max(len(groups), 256)  # the rule in CompiledProfile's docstring
    weights = [[0] * (total + 1) if dense else defaultdict(int) for _ in lengths]
    slots = {tid: (1 << i, length, weights[i]) for i, (tid, length) in enumerate(tasks.tasks)}
    everyone = (1 << n) - 1
    mults: list[int] = []
    try:
        for schedule, mult in groups:
            # an exact int skips the _is_int call, which slowed lmt-ls at n=10, v=1000 by 2.4% on 2 vCPUs
            if not (type(mult) is int or _is_int(mult)) or mult < 1 or len(schedule.order) != n:
                break
            seen = elapsed = 0
            for tid in schedule.order:
                bit, length, weight = slots[tid]
                elapsed += length
                seen |= bit
                weight[elapsed] += mult
            if seen != everyone:  # n known ids with a repeat leave a task never run
                break
            mults.append(mult)
    except (KeyError, TypeError, IndexError):  # an unknown or unhashable id, or a repeat run past the total
        pass
    if not mults or len(mults) < len(groups):
        require_valid_profile(profile)  # raises on the defect the walk stopped at
    tables = []
    for weight in weights:
        if dense:
            sorted_dues, counts = list(compress(range(total + 1), weight)), list(filter(None, weight))
        else:
            sorted_dues = sorted(weight)
            counts = list(map(weight.__getitem__, sorted_dues))
        cum_mult = list(accumulate(counts, initial=0))
        cum_due = list(accumulate(map(mul, sorted_dues, counts), initial=0))
        tables.append((sorted_dues, cum_mult, cum_due, cum_mult[-1], cum_due[-1]))
    return CompiledProfile(tasks, lengths, groups, mults, sum(mults), tables)


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

    For ``mask = mh << n // 2 | ml``, the charge for running task ``i`` once
    the tasks in ``mask`` (``i`` not among them) have run is
    ``rows[low_key[ml] + high_key[mh]][i] + high[mh][i]``; an order's score is
    the sum of its charges.  ``high[mh][i]`` is 0 for a low-half task
    ``i < n // 2``, so the solver's fill adds it for high-half tasks alone,
    and only if ``high`` has a nonzero entry.  Pairwise: a pair within one half
    is charged when its first task runs; a pair split between the halves, when
    its high-half task runs, at the cost of the order it then has.  The keys
    pick ``rows[ml]``: once the low-half tasks in ``ml`` have run, every
    low-half task's charge and each high-half task's split pairs.  ``high[mh]``
    holds each high-half task's pairs with the high-half tasks that ``mh``
    leaves waiting (2 n 2^(n/2) entries, scaled by length; some nonzero once
    the high half holds two tasks).  So a subset's best completion cost carries
    the split pairs whose low-half task it has run and whose high-half task
    waits: an offset per subset, 0 at the empty set, which keeps every
    transition that keeps the optimum.  Deviation and tardiness: the keys are
    the half masks' loads, ``rows`` maps each distinct start (a subset load
    below the total) to its row of :func:`_finish_charge`, and ``high`` is one
    shared zero row, so the fill runs without the add.  Rows are built by one
    sweep per task over the sorted starts (:func:`_swept`), and only while
    there are at most 2^(n-1) distinct subset loads, so they hold no more
    entries than the fill's n 2^(n-1) reads, and n times those at most
    max(2^n, 2^16); otherwise ``rows[start]`` bisects on read.
    """
    lengths = compiled.lengths
    n = len(lengths)
    half = n // 2
    if objective is Objective.PTA_KENDALL_TAU:
        # running i ahead of a waiting k costs waiting[k][i]: lengths[i] per voter
        # wanting k first; a split pair (low k, high j) costs j waiting[k][j] while
        # k waits and waiting[j][k] once k has run
        waiting = [list(map(mul, lengths, row)) for row in compiled.pair_counts]
        low, highs = waiting[:half], waiting[half:]
        rows = [list(map(sum, zip([0] * n, *low)))]
        # the per-bit vectors, in place: low k's row less waiting[j][k] at each
        # high j, so its bit adds that to j's charge; high j's row, 0 on the low half
        for w, col in zip(low, zip(*highs)):
            w[half:] = map(sub, w[half:], col)
        for w in highs:
            w[:half] = [0] * half
        high = [list(map(sum, zip(*highs)))]
        for sums, vectors in ((rows, low), (high, highs)):
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
    starts, limit = {0}, min(1 << (n - 1), max(1 << n, 1 << 16) // n)
    for length in lengths:
        starts |= {x + length for x in starts}
        if len(starts) > limit:
            break
    else:
        starts = sorted(starts - {sum(lengths)})
        tardy_only = objective is Objective.SUM_TARDINESS
        columns = [_swept(table, length, starts, tardy_only) for table, length in zip(compiled.due_tables, lengths)]
        rows = dict(zip(starts, map(list, zip(*columns))))
    return rows, low_key, high_key, [[0] * n] * len(high_key)


def _swept(table, length: int, starts: list[int], tardy_only: bool) -> list[int]:
    """:func:`_finish_charge` of one task from each of the ascending ``starts``, in
    one sweep of its due table: ``r`` only rises, to ``bisect_right``'s boundary."""
    dues, cum_mult, cum_due, total_mult, total_due = table
    column = []
    r, last = 0, len(dues)
    for start in starts:
        finish = start + length
        while r < last and dues[r] <= finish:
            r += 1
        late = finish * cum_mult[r] - cum_due[r]
        column.append(late if tardy_only else late + (total_due - cum_due[r]) - finish * (total_mult - cum_mult[r]))
    return column


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
    # each group's ballot positions by task index, read from the checked groups;
    # one pass per pair over the task columns, and the voters not ahead are behind
    mults, voters, index = compiled.mults, compiled.voter_count, compiled.tasks._index
    columns = [[0] * len(mults) for _ in index]
    for g, (schedule, _) in enumerate(compiled.groups):
        for place, tid in enumerate(schedule.order):
            columns[index[tid]][g] = place
    counts = [[0] * len(columns) for _ in columns]
    for i, column in enumerate(columns):
        for j in range(i + 1, len(columns)):
            ahead = sum(compress(mults, map(lt, column, columns[j])))
            counts[i][j], counts[j][i] = ahead, voters - ahead
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
