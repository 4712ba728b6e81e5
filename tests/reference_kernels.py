"""Plain per-voter kernels: each objective summed voter group by voter group.

The package scores deviation and tardiness from per-task due tables and the
pairwise objective from pair counts.  These loops read the ballots directly
and share nothing with it but the public profile, so a property checked
against them keeps ``score``, the brute-force oracle, the exact solver's
charges and the pair counts (:func:`pair_count_kernel`) honest from outside.  :func:`reference_compile` builds a valid
profile's index-space form the plain way, walk by walk, for the compiled
profile to be checked against.  :func:`reference_exact_solve` is the
subset DP with a fill that also counts every subset's optimal completions;
unlike the kernels it reads the solver's own tables, so it checks the
solver's separate count of the optima.
"""

from itertools import accumulate, islice
from operator import mul

from hypothesis import strategies as st

from collective_schedules import Objective, PreferenceProfile, Schedule, TaskSet
from collective_schedules.metrics import _compile_profile, _transitions
from collective_schedules.solver import _optimal_orders, _tight, _waiting


def completions(order, lengths: tuple[int, ...]) -> list[int]:
    """``comp[i]``: the finish time of task ``i`` when the tasks run in ``order`` (indices)."""
    comp = [0] * len(lengths)
    elapsed = 0
    for i in order:
        elapsed += lengths[i]
        comp[i] = elapsed
    return comp


def deviation_kernel(comp: list[int], dues: list[list[int]], mults: list[int]) -> int:
    total = 0
    for due, mult in zip(dues, mults):
        total += mult * sum(abs(c - d) for c, d in zip(comp, due))
    return total


def tardiness_kernel(comp: list[int], dues: list[list[int]], mults: list[int]) -> int:
    total = 0
    for due, mult in zip(dues, mults):
        group = 0
        for c, d in zip(comp, due):
            if c > d:
                group += c - d
        total += mult * group
    return total


def pta_kernel(order, lengths: tuple[int, ...], dues: list[list[int]], mults: list[int]) -> int:
    # a voter who wanted b before a charges lengths[a] when a runs first
    total = 0
    for due, mult in zip(dues, mults):
        for r, a in enumerate(order):
            total += mult * lengths[a] * sum(1 for b in order[r + 1 :] if due[b] < due[a])
    return total


def pair_count_kernel(profile: PreferenceProfile) -> tuple[tuple[int, ...], ...]:
    """``counts[i][j]``: voters whose ballot runs task ``i`` before task ``j``,
    read off each group's ballot one ordered pair at a time."""
    index = profile.tasks._index
    n = profile.tasks.n
    counts = [[0] * n for _ in range(n)]
    for ballot, mult in profile.groups:
        for r, earlier in enumerate(ballot.order):
            for later in ballot.order[r + 1 :]:
                counts[index[earlier]][index[later]] += mult
    return tuple(map(tuple, counts))


def kernel_evaluator(profile: PreferenceProfile, objective: Objective):
    """``evaluate(order)``: an index order's score from the per-voter kernels."""
    objective = Objective(objective)
    tasks = profile.tasks
    lengths = tasks.lengths
    dues = [completions([tasks.index(tid) for tid in ballot.order], lengths) for ballot, _ in profile.groups]
    mults = [mult for _, mult in profile.groups]
    if objective is Objective.PTA_KENDALL_TAU:
        return lambda order: pta_kernel(order, lengths, dues, mults)
    kernel = deviation_kernel if objective is Objective.SUM_DEVIATION else tardiness_kernel
    return lambda order: kernel(completions(order, lengths), dues, mults)


def reference_compile(profile: PreferenceProfile):
    """``(mults, voter_count, due_tables)`` of a valid profile, built in two
    walks over the ballots: the index-space completions, then per task a
    dict of due weights sorted into cumulative tables."""
    tasks = profile.tasks
    lengths = tasks.lengths
    index = tasks._index
    dues = [completions([index[tid] for tid in s.order], lengths) for s, _ in profile.groups]
    mults = [m for _, m in profile.groups]
    tables = []
    for column in zip(*dues):
        weight: dict[int, int] = {}
        for due, mult in zip(column, mults):
            weight[due] = weight.get(due, 0) + mult
        sorted_dues = sorted(weight)
        weights = [weight[due] for due in sorted_dues]
        cum_mult = list(accumulate(weights, initial=0))
        cum_due = list(accumulate(map(mul, sorted_dues, weights), initial=0))
        tables.append((sorted_dues, cum_mult, cum_due, cum_mult[-1], cum_due[-1]))
    return mults, sum(mults), tables


def reference_exact_solve(tasks: TaskSet, profile: PreferenceProfile, objective: Objective, cap: int):
    """``(optimal_score, optimum_count, representative, optima[:cap])`` from a
    fill that keeps, beside each subset's best completion cost, the number
    of its optimal completions in ``ways``."""
    n = tasks.n
    rows, low_key, high_key, high = tables = _transitions(_compile_profile(profile), Objective(objective))
    half = n // 2
    low_waiting, high_waiting = _waiting(0, half), _waiting(half, n)
    full, low_full = (1 << n) - 1, (1 << half) - 1
    h, ways = [0] * (full + 1), [1] * (full + 1)
    for mh in range(len(high_waiting) - 1, -1, -1):
        base, key, extra, waiting_high = mh << half, high_key[mh], high[mh], high_waiting[mh]
        # the full set, met first, has no waiting task
        for ml in range(low_full - (base | low_full == full), -1, -1):
            mask = base | ml
            row = rows[low_key[ml] + key]
            best = None
            for i, bit in low_waiting[ml] + waiting_high:
                nxt = mask | bit
                cand = row[i] + extra[i] + h[nxt]
                if best is None or cand < best:
                    best, count = cand, ways[nxt]
                elif cand == best:
                    count += ways[nxt]
            h[mask], ways[mask] = best, count
    ids = tasks.ids
    walk = (Schedule(tuple(ids[i] for i in order)) for order in _optimal_orders(n, _tight(n, h, tables)))
    optima = tuple(islice(walk, cap))
    return h[0], ways[0], optima[0], optima


@st.composite
def kernel_instances(draw, max_tasks=8, min_tasks=1):
    """``min_tasks`` to ``max_tasks`` tasks: half of them tie-heavy (one or two voters of
    multiplicity one, equal and often unit lengths), the rest with up to five
    groups, multiplicities up to 2^50 and lengths up to 10^12."""
    n = draw(st.integers(min_tasks, max_tasks))
    length = st.integers(1, 3) | st.integers(1, 10**12)
    if draw(st.booleans()):
        lengths = [draw(st.just(1) | length)] * n
        mult = st.just(1)
        groups = draw(st.integers(1, 2))
    else:
        lengths = draw(st.lists(length, min_size=n, max_size=n))
        mult = st.integers(1, 5) | st.integers(1, 2**50)
        groups = draw(st.integers(1, 5))
    tasks = TaskSet(tuple((f"t{i}", x) for i, x in enumerate(lengths)))
    ballots = [draw(st.permutations(tasks.ids)) for _ in range(groups)]
    return tasks, PreferenceProfile.of(tasks, *((ballot, draw(mult)) for ballot in ballots))
