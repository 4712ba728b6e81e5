"""Fast paths against the plain kernels they replace.

``local_search`` scores each adjacent swap by its change in score, read
from the compiled profile; ``median_completion_times`` reads the lower
median from the per-task sorted due tables; ``score``, the brute-force
oracle and the exact solver's tables sum per-task charges.  All must agree
exactly with the straightforward versions: the full-rescore descent and a
voter-by-voter median kept here, and the per-voter kernels of
``reference_kernels``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collective_schedules import (
    GenSpec,
    LocalSearchStep,
    LocalSearchTrace,
    Objective,
    PreferenceProfile,
    Schedule,
    TaskSet,
    brute_force_oracle,
    generate,
    lmt,
    local_search,
    median_completion_times,
    pairwise_counts,
    require_valid_profile,
    score,
)
from collective_schedules.generation import MODELS
from collective_schedules.metrics import (
    _compile_profile,
    _finish_charge,
    _pair_counts,
    _RowsOnRead,
    _swap_terms,
    _transitions,
)
from collective_schedules.model import _require_permutation
from reference_kernels import kernel_evaluator, kernel_instances, pair_count_kernel


def reference_local_search(
    schedule: Schedule,
    profile: PreferenceProfile,
    objective: Objective,
    max_steps: int | None = None,
) -> tuple[Schedule, LocalSearchTrace]:
    """The full-rescore descent: every candidate swap is scored from scratch."""
    objective = Objective(objective)
    require_valid_profile(profile)
    tasks = profile.tasks
    _require_permutation(schedule, tasks)
    if max_steps is None:
        max_steps = 2 * tasks.n
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")

    current = schedule
    current_score = score(schedule, profile, objective)
    start_score = current_score
    steps: list[LocalSearchStep] = []
    terminated_by = "local-optimum"
    while True:
        if len(steps) >= max_steps:
            terminated_by = "step-cap"
            break
        best_pos = None
        best_score = current_score
        order = current.order
        for pos in range(len(order) - 1):
            swapped = list(order)
            swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
            value = score(Schedule(tuple(swapped)), profile, objective)
            if value < best_score:  # strict: leftmost candidate wins ties
                best_score = value
                best_pos = pos
        if best_pos is None:
            break
        swapped = list(order)
        swapped[best_pos], swapped[best_pos + 1] = swapped[best_pos + 1], swapped[best_pos]
        current = Schedule(tuple(swapped))
        steps.append(LocalSearchStep(best_pos, current_score, best_score))
        current_score = best_score

    trace = LocalSearchTrace(tuple(steps), terminated_by, start_score, current_score)
    return current, trace


def expanded_lower_medians(profile: PreferenceProfile) -> dict[str, int]:
    """Each task's ceil(v/2)-th smallest completion, one entry per voter."""
    times: dict[str, list[int]] = {tid: [] for tid in profile.tasks.ids}
    for schedule, mult in profile.groups:
        elapsed = 0
        for tid in schedule.order:
            elapsed += profile.tasks.length(tid)
            times[tid].extend([elapsed] * mult)
    return {tid: sorted(done)[(len(done) + 1) // 2 - 1] for tid, done in times.items()}


multiplicities = st.one_of(st.integers(1, 5), st.integers(2**40, 2**42))


@st.composite
def instances(draw, mults=multiplicities, max_tasks=8):
    n = draw(st.integers(1, max_tasks))
    lengths = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    tasks = TaskSet(tuple((f"t{i}", length) for i, length in enumerate(lengths)))
    ballots = draw(st.lists(st.permutations(tasks.ids), min_size=1, max_size=6))
    counts = draw(st.lists(mults, min_size=len(ballots), max_size=len(ballots)))
    return tasks, PreferenceProfile.of(tasks, *zip(ballots, counts))


class TestDeltaSearchMatchesFullRescore:
    @settings(max_examples=300, deadline=None)
    @given(
        instance=instances(),
        data=st.data(),
        objective=st.sampled_from(list(Objective)),
        max_steps=st.sampled_from([0, 1, 2, None]),
    )
    def test_random_instances(self, instance, data, objective, max_steps):
        tasks, profile = instance
        start = Schedule(tuple(data.draw(st.permutations(tasks.ids))))
        assert local_search(start, profile, objective, max_steps) == reference_local_search(
            start, profile, objective, max_steps
        )

    @pytest.mark.parametrize("model", MODELS)
    def test_seeded_corpus(self, model):
        rng = np.random.default_rng(2018)
        for n, v in itertools.product((2, 5, 7, 10), (1, 5, 50)):
            tasks, profile = generate(GenSpec(n, v, model, (1, 10), int(rng.integers(0, 2**31))))
            starts = (lmt(tasks, profile), Schedule(tuple(rng.permutation(tasks.ids))))
            for start, objective in itertools.product(starts, Objective):
                assert local_search(start, profile, objective) == reference_local_search(
                    start, profile, objective
                ), (model, n, v, start, objective)

    @pytest.mark.parametrize("objective", list(Objective))
    def test_many_tasks(self, objective):
        # no task limit here: the setup must stay polynomial in n, unlike the
        # exact solver's 2^n tables
        tasks, profile = generate(GenSpec(40, 5, "uniform", (1, 10), 11))
        start = Schedule(tuple(reversed(tasks.ids)))
        assert local_search(start, profile, objective, 3) == reference_local_search(start, profile, objective, 3)

    @pytest.mark.parametrize("n", [20, 30, 40])
    @pytest.mark.parametrize("objective", list(Objective))
    def test_full_descents_at_many_tasks(self, n, objective):
        # a gain left stale by a swap shows only at a later step, so these
        # run the default budget out, from the reversed order and a random one
        tasks, profile = generate(GenSpec(n, 5, "uniform", (1, 10), n))
        rng = np.random.default_rng(n)
        for start in (Schedule(tuple(reversed(tasks.ids))), Schedule(tuple(rng.permutation(tasks.ids)))):
            result = local_search(start, profile, objective)
            assert result == reference_local_search(start, profile, objective), (n, objective, start)
            assert len(result[1].steps) > n // 2

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 9),
        data=st.data(),
        objective=st.sampled_from(list(Objective)),
        max_steps=st.sampled_from([1, 3, None]),
    )
    def test_tie_heavy_instances(self, n, data, objective, max_steps):
        # unit lengths and one or two voters: many swaps gain the same, and
        # the leftmost of them must be the one applied
        tasks = TaskSet(tuple((f"t{i}", 1) for i in range(n)))
        ballots = data.draw(st.lists(st.permutations(tasks.ids), min_size=1, max_size=2))
        profile = PreferenceProfile.of(tasks, *((ballot, 1) for ballot in ballots))
        start = Schedule(tuple(data.draw(st.permutations(tasks.ids))))
        assert local_search(start, profile, objective, max_steps) == reference_local_search(
            start, profile, objective, max_steps
        )

    @pytest.mark.parametrize("n", [12, 24])
    @pytest.mark.parametrize("objective", list(Objective))
    def test_tied_descents_at_many_tasks(self, n, objective):
        tasks = TaskSet(tuple((f"t{i:02d}", 1) for i in range(n)))
        rng = np.random.default_rng(n)
        for orders in ([tasks.ids], [tasks.ids, tasks.ids[::-1]], [rng.permutation(tasks.ids), rng.permutation(tasks.ids)]):
            profile = PreferenceProfile.from_orders(tasks, orders)
            for start in (Schedule(tasks.ids[::-1]), Schedule(tuple(rng.permutation(tasks.ids)))):
                result = local_search(start, profile, objective)
                assert result == reference_local_search(start, profile, objective), (n, objective, start)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("max_steps", [0, 1, None])
    def test_one_and_two_tasks(self, n, max_steps):
        tasks = TaskSet(tuple((f"t{i}", 2 * i + 1) for i in range(n)))
        for ballots, objective in itertools.product(itertools.permutations(tasks.ids), Objective):
            profile = PreferenceProfile.of(tasks, (ballots, 3))
            for order in itertools.permutations(tasks.ids):
                start = Schedule(order)
                result = local_search(start, profile, objective, max_steps)
                assert result == reference_local_search(start, profile, objective, max_steps)
                if max_steps == 0:  # the cap is checked first, even with no swap to score
                    assert result[1].terminated_by == "step-cap"

    def test_validates_the_profile_once(self, compile_counts):
        # the full-rescore descent re-validated the profile for every swap
        tasks, profile = generate(GenSpec(8, 30, "uniform", (1, 10), 7))
        start = Schedule(tuple(reversed(tasks.ids)))
        for objective in Objective:
            compile_counts.clear()
            # an equal copy is not the kept profile, so each call compiles
            _, trace = local_search(start, PreferenceProfile(tasks, profile.groups), objective)
            assert trace.steps
            assert compile_counts == {"compiles": 1}


def tabulates_rows(tasks: TaskSet) -> bool:
    """The row rule: whether ``_transitions`` reads the
    deviation and tardiness charges from rows over the distinct subset
    loads or bisects the due tables."""
    n, loads = tasks.n, {0}
    for length in tasks.lengths:
        loads |= {x + length for x in loads}
    return len(loads) <= 2 ** (n - 1) and n * len(loads) <= max(2**n, 2**16)


@st.composite
def row_rule_instances(draw, rows):
    """An instance on the rows side of the row rule (``rows``) or the bisect
    side, with up to 8 tasks; a third of them tie-heavy, with one or two
    voters of multiplicity one and, where the side allows, equal (often
    unit) lengths.  Rows with long tasks come from few distinct loads:
    equal lengths, or short lengths scaled up."""
    ties = draw(st.integers(0, 2)) == 0
    if rows:
        n = draw(st.integers(3, 8))  # at n = 1 and 2 there are always more than 2^(n-1) distinct loads
        if ties:  # n + 1 distinct loads
            lengths = [draw(st.just(1) | st.integers(1, 10**12))] * n
        else:  # a total load below 2^(n-1) bounds the distinct loads, whatever the scale
            budget = 2 ** (n - 1) - 1
            lengths = []
            for i in range(n):
                lengths.append(draw(st.integers(1, budget - sum(lengths) - (n - 1 - i))))
            scale = draw(st.just(1) | st.integers(2, 10**9))
            lengths = [scale * length for length in lengths]
    else:
        n = draw(st.integers(1, 8))
        length = st.integers(1, 12) | st.integers(13, 10**12)
        # equal lengths give n + 1 distinct loads, more than 2^(n-1) only at n <= 2
        if ties and n <= 2:
            lengths = [draw(length)] * n
        else:
            lengths = draw(st.lists(length, min_size=n, max_size=n))
    tasks = TaskSet(tuple((f"t{i}", length) for i, length in enumerate(lengths)))
    assume(tabulates_rows(tasks) == rows)
    if ties:
        ballots = draw(st.lists(st.permutations(tasks.ids), min_size=1, max_size=2))
        counts = [1] * len(ballots)
    else:
        ballots = draw(st.lists(st.permutations(tasks.ids), min_size=1, max_size=6))
        counts = draw(st.lists(multiplicities, min_size=len(ballots), max_size=len(ballots)))
    return tasks, PreferenceProfile.of(tasks, *zip(ballots, counts))


def charge_sum(charge, order, lengths) -> int:
    """The sum of ``charge(i, mask, start)`` along ``order``."""
    total = start = mask = 0
    for i in order:
        total += charge(i, mask, start)
        start += lengths[i]
        mask |= 1 << i
    return total


class TestTransitionsMatchKernels:
    """The exact solver's tables, the local search's swap terms and the
    bisecting fallback rows, against the per-voter kernels, with and
    without the rows over distinct loads."""

    @pytest.mark.parametrize("rows", [True, False])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), objective=st.sampled_from(list(Objective)))
    def test_table_charges_sum_to_the_score(self, rows, data, objective):
        tasks, profile = data.draw(row_rule_instances(rows))
        assert tabulates_rows(tasks) == rows
        table_rows, low_key, high_key, high = _transitions(_compile_profile(profile), objective)
        if objective is not Objective.PTA_KENDALL_TAU:
            assert isinstance(table_rows, dict) == rows
        half = tasks.n // 2

        def charge(i, mask, start):
            ml, mh = mask & (1 << half) - 1, mask >> half
            return table_rows[low_key[ml] + high_key[mh]][i] + high[mh][i]

        order = data.draw(st.permutations(range(tasks.n)))
        assert charge_sum(charge, order, tasks.lengths) == kernel_evaluator(profile, objective)(order)

    @pytest.mark.parametrize("rows", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), objective=st.sampled_from(list(Objective)))
    def test_high_half_charges_are_zero_for_low_half_tasks(self, rows, data, objective):
        # the fill's low loop reads a low-half task's charge from rows alone
        tasks, profile = data.draw(row_rule_instances(rows))
        n, half = tasks.n, tasks.n // 2
        high = _transitions(_compile_profile(profile), objective)[3]
        assert len(high) == 2 ** (n - half)
        for row in high:
            assert len(row) == n
            assert row[:half] == [0] * half

    @pytest.mark.parametrize("rows", [True, False])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), objective=st.sampled_from(list(Objective)))
    def test_pairs_give_each_swap_and_fallback_rows_sum_to_the_score(self, rows, data, objective):
        tasks, profile = data.draw(row_rule_instances(rows))
        compiled = _compile_profile(profile)
        evaluate = kernel_evaluator(profile, objective)
        order = data.draw(st.permutations(range(tasks.n)))
        if objective is not Objective.PTA_KENDALL_TAU:
            fallback = _RowsOnRead(_finish_charge(compiled, objective))
            total = charge_sum(lambda i, mask, start: fallback[start][i], order, tasks.lengths)
            assert total == evaluate(order)
            if rows:
                for start, row in _transitions(compiled, objective)[0].items():
                    assert row == [fallback[start][i] for i in range(tasks.n)]
        pair = _swap_terms(compiled, objective)
        start = 0
        for pos in range(tasks.n - 1):
            a, b = order[pos], order[pos + 1]
            swapped = list(order)
            swapped[pos], swapped[pos + 1] = b, a
            assert pair(b, a, start) - pair(a, b, start) == evaluate(swapped) - evaluate(order)
            start += tasks.lengths[a]


class TestSweptRows:
    """Two rows checked by hand as well as against :func:`_finish_charge`: a
    finish on a wanted completion, and finishes past the last one."""

    # lengths 1, 1, 2, 2: 7 distinct subset loads, within the 2^(n-1) = 8 of the row rule
    tasks = TaskSet((("t0", 1), ("t1", 1), ("t2", 2), ("t3", 2)))

    def rows(self, *groups):
        profile = PreferenceProfile.of(self.tasks, *groups)
        compiled = _compile_profile(profile)
        rows = {}
        for objective in (Objective.SUM_DEVIATION, Objective.SUM_TARDINESS):
            rows[objective] = table = _transitions(compiled, objective)[0]
            charge = _finish_charge(compiled, objective)
            assert sorted(table) == [0, 1, 2, 3, 4, 5]
            assert table == {start: [charge(i, start) for i in range(self.tasks.n)] for start in table}
        return rows[Objective.SUM_DEVIATION], rows[Objective.SUM_TARDINESS]

    def test_a_finish_equal_to_a_wanted_completion(self):
        # t0 is wanted at 1 by five voters and at 2 by two
        dev, tard = self.rows((("t1", "t0", "t2", "t3"), 2), (("t0", "t1", "t2", "t3"), 5))
        # from 0 it finishes at 1: on time for the five, early by 1 for the two
        assert (dev[0][0], tard[0][0]) == (2, 0)
        # from 1 it finishes at 2: late by 1 for the five, on time for the two
        assert (dev[1][0], tard[1][0]) == (5, 5)
        # t2 from 2 finishes at 4, where every voter wants it
        assert (dev[2][2], tard[2][2]) == (0, 0)

    def test_finishes_past_the_last_due(self):
        # t3 is wanted at 2 by three voters and at 3 by one
        dev, tard = self.rows((("t3", "t0", "t1", "t2"), 3), (("t0", "t3", "t1", "t2"), 1))
        assert (dev[0][3], tard[0][3]) == (1, 0)
        for start, finish in ((2, 4), (4, 6), (5, 7)):
            assert dev[start][3] == tard[start][3] == 3 * (finish - 2) + (finish - 3)


class TestScoresMatchPerVoterKernels:
    """``score`` and the brute-force oracle read the same charges as the
    exact solver; these properties keep both independent of them."""

    @settings(max_examples=200, deadline=None)
    @given(instance=kernel_instances(), objective=st.sampled_from(list(Objective)), data=st.data())
    def test_score(self, instance, objective, data):
        tasks, profile = instance
        order = data.draw(st.permutations(range(tasks.n)))
        schedule = Schedule(tuple(tasks.ids[i] for i in order))
        assert score(schedule, profile, objective) == kernel_evaluator(profile, objective)(order)

    @settings(max_examples=60, deadline=None)
    @given(instance=kernel_instances(max_tasks=6), objective=st.sampled_from(list(Objective)))
    def test_oracle_optimum_and_argmin_set(self, instance, objective):
        tasks, profile = instance
        evaluate = kernel_evaluator(profile, objective)
        scores = {order: evaluate(order) for order in itertools.permutations(range(tasks.n))}
        best = min(scores.values())
        argmins = tuple(Schedule(tuple(tasks.ids[i] for i in o)) for o, value in scores.items() if value == best)
        oracle = brute_force_oracle(tasks, profile, objective)
        assert (oracle.optimal_score, oracle.optima) == (best, argmins)


class TestMedianFromDueTables:
    @settings(max_examples=300, deadline=None)
    @given(instance=instances(mults=st.integers(1, 6)))
    def test_matches_voter_expanded_lower_median(self, instance):
        _, profile = instance
        assert median_completion_times(profile) == expanded_lower_medians(profile)


class TestPairCountsFromDues:
    @settings(max_examples=200, deadline=None)
    @given(instance=instances())
    def test_matches_ballot_positions(self, instance):
        tasks, profile = instance
        matrix = pairwise_counts(profile)
        for a, b in itertools.permutations(tasks.ids, 2):
            expected = sum(m for s, m in profile.groups if s.position(a) < s.position(b))
            assert matrix.before(a, b) == expected

    @settings(max_examples=200, deadline=None)
    @given(instance=instances(mults=st.integers(1, 3) | st.integers(1, 10**12), max_tasks=9))
    def test_columns_match_the_per_voter_kernel(self, instance):
        # each pair counted from the task columns, its reverse as the voters not ahead
        _, profile = instance
        assert _pair_counts(_compile_profile(profile)) == pair_count_kernel(profile)
