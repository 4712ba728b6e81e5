"""Precedence constraints, unanimity, neutrality, reinforcement, and
start-time monotonicity probes."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collective_schedules import (
    CondorcetConstraint,
    GenSpec,
    InvalidReductionError,
    MismatchedTaskSetError,
    Objective,
    PreferenceProfile,
    Schedule,
    SolveOptions,
    TaskSet,
    UnknownTaskError,
    check_unanimity,
    completion_times,
    find_pta_condorcet_schedule,
    generate,
    is_pta_condorcet_consistent,
    lrm_probe,
    neutrality_probe,
    pta_condorcet_constraints,
    reinforcement_check,
    solve_exact,
    unanimous_pairs,
)
from collective_schedules.gallery import (
    deviation_length_reduction_counterexample,
    deviation_unanimity_counterexample,
    kemeny_unanimity_counterexample,
)


class TestPrecedenceConstraints:
    def test_worked_example_constraints(self, example):
        _, profile = example
        assert pta_condorcet_constraints(profile) == (
            CondorcetConstraint("1", "2", 2),
            CondorcetConstraint("1", "3", 4),
            CondorcetConstraint("2", "3", 4),
            CondorcetConstraint("3", "2", 1),
        )

    def test_worked_example_has_no_consistent_schedule(self, example):
        # Tasks 2 and 3 constrain each other in both directions, so the
        # constraint digraph is cyclic.
        _, profile = example
        assert find_pta_condorcet_schedule(profile) is None

    def test_single_supporter_can_force_a_short_task_first(self):
        # One voter out of five wants the short task first; the length
        # weighting makes that a binding constraint.
        tasks = TaskSet.of(("a", 1), ("b", 5))
        profile = PreferenceProfile.of(tasks, (("a", "b"), 1), (("b", "a"), 4))
        assert pta_condorcet_constraints(profile) == (
            CondorcetConstraint("a", "b", 1),
        )
        assert find_pta_condorcet_schedule(profile).order == ("a", "b")
        verdict = is_pta_condorcet_consistent(Schedule.of("a", "b"), profile)
        assert verdict.holds and verdict.witness is None
        verdict = is_pta_condorcet_consistent(Schedule.of("b", "a"), profile)
        assert not verdict.holds
        assert verdict.witness == CondorcetConstraint("a", "b", 1)
        assert verdict.axiom == "pta-condorcet"

    def test_unit_lengths_reduce_to_majority(self):
        tasks = TaskSet.of(("x", 1), ("y", 1), ("z", 1))
        profile = PreferenceProfile.of(
            tasks, (("x", "y", "z"), 2), (("z", "y", "x"), 1)
        )
        constraints = {(c.before, c.after) for c in pta_condorcet_constraints(profile)}
        assert constraints == {("x", "y"), ("x", "z"), ("y", "z")}
        assert find_pta_condorcet_schedule(profile).order == ("x", "y", "z")

    def test_majority_cycle_has_no_consistent_schedule(self):
        tasks = TaskSet.of(("a", 1), ("b", 1), ("c", 1))
        profile = PreferenceProfile.of(
            tasks,
            (("a", "b", "c"), 1),
            (("b", "c", "a"), 1),
            (("c", "a", "b"), 1),
        )
        assert find_pta_condorcet_schedule(profile) is None

    def test_every_pair_is_constrained_in_some_direction(self):
        # The two thresholds of a pair sum to the voter count, so at least
        # one direction always binds.
        tasks, profile = generate(GenSpec(6, 13, "uniform", (1, 9), 29))
        constrained = {
            frozenset((c.before, c.after))
            for c in pta_condorcet_constraints(profile)
        }
        for a in tasks.ids:
            for b in tasks.ids:
                if a != b:
                    assert frozenset((a, b)) in constrained

    @pytest.mark.parametrize(
        "check", [pta_condorcet_constraints, find_pta_condorcet_schedule, unanimous_pairs]
    )
    def test_validates_the_profile_once(self, check, compile_counts, example):
        _, profile = example
        check(profile)
        assert compile_counts == {"compiles": 1}


@st.composite
def tie_prone_profiles(draw):
    """Up to 6 tasks of length 1-3, up to 4 groups of up to 5 voters.

    Short lengths and few voters make exact threshold ties, where both
    directions of a pair bind, common.
    """
    n = draw(st.integers(1, 6))
    tasks = TaskSet.of(*((f"t{i}", draw(st.integers(1, 3))) for i in range(n)))
    groups = draw(st.lists(st.tuples(st.permutations(tasks.ids), st.integers(1, 5)), min_size=1, max_size=4))
    return PreferenceProfile.of(tasks, *groups)


def _first_inverted_index(schedule, pairs):
    """Index of the first (before, after) pair the schedule runs the other way."""
    position = schedule.order.index
    return next((k for k, (a, b) in enumerate(pairs) if position(a) > position(b)), None)


@pytest.mark.parametrize("check", [is_pta_condorcet_consistent, check_unanimity])
@pytest.mark.parametrize(
    "order, error",
    [
        pytest.param(("1", "2"), MismatchedTaskSetError, id="missing"),
        pytest.param(("1", "2", "3", "4"), UnknownTaskError, id="unknown-extra"),
        pytest.param(("1", "1", "3"), MismatchedTaskSetError, id="repeated"),
    ],
)
def test_precedence_checks_reject_a_non_permutation(check, order, error, example):
    _, profile = example
    with pytest.raises(error):
        check(Schedule(order), profile)


class TestPrecedenceChecksAgainstEveryOrder:
    @settings(max_examples=150, deadline=None)
    @given(profile=tie_prone_profiles(), data=st.data())
    def test_consistent_order_and_witnesses(self, profile, data):
        constraints = pta_condorcet_constraints(profile)
        binding = [(c.before, c.after) for c in constraints]
        orders = [Schedule(order) for order in permutations(profile.tasks.ids)]
        consistent = [s for s in orders if _first_inverted_index(s, binding) is None]
        # the binding pairs form a tournament, so at most one order obeys them
        assert len(consistent) <= 1
        assert find_pta_condorcet_schedule(profile) == (consistent[0] if consistent else None)

        pairs = unanimous_pairs(profile)
        for schedule in data.draw(st.lists(st.sampled_from(orders), min_size=1, max_size=5)):
            verdict = is_pta_condorcet_consistent(schedule, profile)
            k = _first_inverted_index(schedule, binding)
            assert (verdict.holds, verdict.witness) == ((True, None) if k is None else (False, constraints[k]))
            verdict = check_unanimity(schedule, profile)
            k = _first_inverted_index(schedule, pairs)
            assert (verdict.holds, verdict.witness) == ((True, None) if k is None else (False, pairs[k]))


class TestUnanimity:
    def test_no_unanimous_pair_in_worked_example(self, example):
        # The lone (3, 2, 1) voter disagrees with every majority pair.
        _, profile = example
        assert unanimous_pairs(profile) == ()

    def test_unanimous_pairs_listed_in_declared_order(self):
        tasks = TaskSet.of(("a", 1), ("b", 1), ("c", 1))
        profile = PreferenceProfile.of(
            tasks, (("a", "b", "c"), 1), (("b", "a", "c"), 1)
        )
        assert unanimous_pairs(profile) == (("a", "c"), ("b", "c"))

    def test_deviation_optimum_can_break_a_unanimous_pair(self):
        tasks, profile, pair = deviation_unanimity_counterexample()
        report = solve_exact(tasks, profile, Objective.SUM_DEVIATION)
        assert report.optimum_count == 1
        assert report.schedule.order == ("d", "c", "e", "a", "b")
        assert pair in unanimous_pairs(profile)
        verdict = check_unanimity(report.schedule, profile)
        assert not verdict.holds
        assert verdict.witness == pair

    def test_pairwise_optimum_can_break_a_unanimous_pair(self):
        tasks, profile, pair = kemeny_unanimity_counterexample()
        report = solve_exact(tasks, profile, Objective.PTA_KENDALL_TAU)
        assert report.schedule.order == ("a", "c", "d", "e", "f", "g", "b")
        assert report.optimal_score == 850
        verdict = check_unanimity(report.schedule, profile)
        assert not verdict.holds
        assert verdict.witness == pair == ("b", "a")

    def test_holds_on_a_unanimous_profile(self):
        tasks = TaskSet.of(("a", 2), ("b", 1))
        profile = PreferenceProfile.of(tasks, (("b", "a"), 6))
        verdict = check_unanimity(Schedule.of("b", "a"), profile)
        assert verdict.holds and verdict.witness is None
        assert verdict.axiom == "unanimity"


class TestNeutralityProbe:
    def test_holds_for_equal_length_pair(self, example):
        # Tasks of equal length are interchangeable, so swapping them in
        # every ballot must swap them in the optimum set.
        tasks = TaskSet.of(("a", 2), ("b", 2), ("c", 1))
        profile = PreferenceProfile.of(
            tasks, (("a", "b", "c"), 2), (("c", "b", "a"), 1)
        )
        for objective in Objective:
            verdict = neutrality_probe(profile, "a", "b", objective)
            assert verdict.holds is True
            assert verdict.axiom == "neutrality"

    def test_witness_names_both_optimum_sets(self):
        from collective_schedules.gallery import deviation_neutrality_counterexample

        tasks, profile, pair = deviation_neutrality_counterexample()
        verdict = neutrality_probe(profile, *pair, Objective.SUM_DEVIATION)
        assert verdict.holds is False
        assert verdict.witness["pair"] == pair
        assert Schedule.of("b", "f", "a", "e", "d", "c") in verdict.witness["original_optima"]
        assert Schedule.of("e", "a", "f", "b", "d", "c") in verdict.witness["swapped_optima"]

    def test_inconclusive_when_enumeration_is_capped(self, example):
        # The pairwise objective has two optima here, so a cap of one
        # truncates the enumeration and the probe cannot decide.
        _, profile = example
        verdict = neutrality_probe(profile, "1", "3", Objective.PTA_KENDALL_TAU, cap=1)
        assert verdict.holds is None

    @pytest.mark.parametrize("cap", [0, True, 10**20])
    def test_a_bad_cap_is_named_as_passed(self, example, cap):
        # it used to surface as SolveOptions' optimum_cap, a name the caller never passed
        _, profile = example
        with pytest.raises(ValueError, match=r"^cap must be an integer from 1 to sys.maxsize"):
            neutrality_probe(profile, "1", "3", Objective.PTA_KENDALL_TAU, cap=cap)
        with pytest.raises(ValueError, match=r"^cap must be an integer from 1 to sys.maxsize"):
            reinforcement_check(profile, profile, Objective.PTA_KENDALL_TAU, cap=cap)


class TestLengthReductionProbe:
    def test_deviation_violation_instance(self):
        tasks, profile, target, reduced = deviation_length_reduction_counterexample()
        assert tasks.length(target) == 10 and reduced == 1
        verdict = lrm_probe(profile, "sum-dev", target, reduced)
        assert verdict.holds is False
        assert verdict.axiom == "length-reduction-monotonicity"
        witness = verdict.witness
        assert witness["target"] == "p"
        assert witness["start_before"] == 1
        assert witness["start_after"] == 3
        assert witness["schedule_before"].order == ("3", "p", "x", "1", "2")
        assert witness["schedule_after"].order == ("3", "2", "x", "p", "1")

    def test_holds_on_the_same_instance_for_other_rules(self):
        _, profile, target, reduced = deviation_length_reduction_counterexample()
        for rule in ("sum-tard", "pta-kemeny"):
            assert lrm_probe(profile, rule, target, reduced).holds is True

    def test_tardiness_tie_break_can_delay_while_an_optimum_does_not(self):
        # The tardiness optimum set obeys the axiom here, the resolute rule
        # does not: after the reduction three optima tie, and the
        # lexicographic tie-break picks the one that starts task 1 later.
        tasks = TaskSet.of(("0", 3), ("1", 2), ("2", 2), ("3", 2))
        profile = PreferenceProfile.of(
            tasks,
            (("0", "1", "2", "3"), 1),
            (("0", "2", "3", "1"), 1),
            (("2", "1", "3", "0"), 1),
        )
        verdict = lrm_probe(profile, "sum-tard", "1", 1)
        assert verdict.holds is False
        witness = verdict.witness
        assert (witness["start_before"], witness["start_after"]) == (2, 3)
        assert witness["schedule_before"].order == ("2", "1", "3", "0")
        assert witness["schedule_after"].order == ("0", "1", "2", "3")

        assert solve_exact(tasks, profile, Objective.SUM_TARDINESS).optimum_count == 1
        reduced = tasks.with_length("1", 1)
        after = solve_exact(reduced, PreferenceProfile(reduced, profile.groups),
                            Objective.SUM_TARDINESS, SolveOptions(enumerate_all=True))
        assert after.optimum_count == 3 and after.optima_complete
        starts = [completion_times(s, reduced)["1"] - 1 for s in after.optima]
        assert min(starts) <= witness["start_before"]

    @pytest.mark.parametrize("rule", ["sum-dev", "sum-tard", "pta-kemeny", "lmt", "lmt-ls"])
    def test_validates_the_profile_once(self, rule, compile_counts):
        # the rule reads the form the probe's own check kept, and the reduced
        # copy compiles once
        _, profile, target, reduced = deviation_length_reduction_counterexample()
        lrm_probe(profile, rule, target, reduced)
        assert compile_counts == {"compiles": 2}

    @pytest.mark.parametrize("bad", [0, -2, 10, 17, 2.5])
    def test_invalid_reductions_rejected(self, bad):
        tasks, profile, target, _ = deviation_length_reduction_counterexample()
        with pytest.raises(InvalidReductionError):
            lrm_probe(profile, "sum-dev", target, bad)


class TestReinforcement:
    def test_additivity_and_common_optimum_on_a_split(self, example):
        tasks, profile = example
        part_a = PreferenceProfile(tasks, profile.groups[:1])
        part_b = PreferenceProfile(tasks, profile.groups[1:])
        for objective in Objective:
            verdict = reinforcement_check(part_a, part_b, objective)
            assert verdict.holds is True
            assert verdict.axiom == "reinforcement"

    def test_random_split_profiles(self):
        tasks, profile = generate(GenSpec(5, 20, "uniform", (1, 6), 61))
        part_a = PreferenceProfile(tasks, profile.groups[::2])
        part_b = PreferenceProfile(tasks, profile.groups[1::2])
        for objective in Objective:
            assert reinforcement_check(part_a, part_b, objective).holds is True

    @pytest.mark.parametrize("objective", list(Objective))
    def test_compiles_each_profile_at_most_once(self, objective, compile_counts):
        # each part is compiled for its enumeration, and the union only when
        # the parts share an optimum, as under tardiness here
        tasks, profile = generate(GenSpec(8, 50, "uniform", (1, 10), 0))
        part_a = PreferenceProfile(tasks, profile.groups[::2])
        part_b = PreferenceProfile(tasks, profile.groups[1::2])
        assert reinforcement_check(part_a, part_b, objective).holds is True
        assert compile_counts == {"compiles": 3 if objective is Objective.SUM_TARDINESS else 2}

    def test_undecided_when_a_part_has_more_optima_than_the_cap(self):
        # two opposite ballots of unit tasks: both orders are optimal under every objective
        tasks = TaskSet.of(("a", 1), ("b", 1))
        tied = PreferenceProfile.of(tasks, (("a", "b"), 1), (("b", "a"), 1))
        for objective in Objective:
            assert reinforcement_check(tied, tied, objective, cap=1).holds is None

    def test_rejects_mismatched_parts(self, example):
        tasks, profile = example
        other_tasks = TaskSet.of(("1", 2), ("2", 4), ("3", 2))
        other = PreferenceProfile.of(other_tasks, (("1", "2", "3"), 1))
        with pytest.raises(MismatchedTaskSetError):
            reinforcement_check(profile, other, Objective.SUM_DEVIATION)
