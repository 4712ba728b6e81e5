"""Random instance generation: determinism, validation, and distributions."""

import operator
import sys
from functools import reduce
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collective_schedules import (
    GenSpec,
    InvalidSpecError,
    PreferenceProfile,
    canonical_model,
    generate,
    instance_to_dict,
    pairwise_counts,
    validate_profile,
)
from collective_schedules.experiments import run_audit_axioms, run_compare, run_lrm_audit
from collective_schedules.generation import _plackett_luce_rows


# (n, v, seed) triples on which each model's draw is pinned against its definition
BALLOT_DRAWS = [(1, 1, 0), (1, 5, 3), (2, 7, 1), (3, 1, 99), (6, 50, 0), (8, 50, 11), (10, 1000, 2), (16, 50, 5)]


class TestCanonicalModel:
    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("u", "uniform"),
            ("uniform", "uniform"),
            ("U", "uniform"),
            ("c", "plackett-luce"),
            ("correlated", "plackett-luce"),
            ("pl", "plackett-luce"),
            ("Plackett-Luce", "plackett-luce"),
        ],
    )
    def test_aliases(self, alias, expected):
        assert canonical_model(alias) == expected

    def test_unknown_model(self):
        with pytest.raises(InvalidSpecError):
            canonical_model("mallows")


class TestGenSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "v": 5},
            {"n": 5, "v": 0},
            {"n": 5, "v": 5, "model": "mallows"},
            {"n": 5, "v": 5, "length_range": (0, 10)},
            {"n": 5, "v": 5, "length_range": (7, 3)},
            {"n": 5, "v": 5, "utilities": (1.0,) * 5},  # uniform takes none
            {"n": 5, "v": 5, "model": "plackett-luce", "utilities": (1.0,) * 4},
            {"n": 5, "v": 5, "model": "plackett-luce", "utilities": (1.0, 1.0, 1.0, 1.0, 0.0)},
            pytest.param({"n": True, "v": 5}, id="n-bool"),
            pytest.param({"n": 5, "v": True}, id="v-bool"),
            pytest.param({"n": 5, "v": 5, "length_range": (True, 3)}, id="len-min-bool"),
            pytest.param({"n": 5, "v": 5, "length_range": (1, True)}, id="len-max-bool"),
            # None drew OS entropy, so equal specs differed; the others raised numpy's errors
            pytest.param({"n": 5, "v": 5, "seed": None}, id="seed-none"),
            pytest.param({"n": 5, "v": 5, "seed": 1.5}, id="seed-float"),
            pytest.param({"n": 5, "v": 5, "seed": "x"}, id="seed-str"),
            pytest.param({"n": 5, "v": 5, "seed": -1}, id="seed-negative"),
            pytest.param({"n": 5, "v": 5, "seed": True}, id="seed-bool"),
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(InvalidSpecError):
            GenSpec(**kwargs)

    @pytest.mark.parametrize(
        "utilities",
        [
            *((bad, 1.0, 1.0, 1.0) for bad in (float("nan"), float("inf"), float("-inf"), 0.0, -1.0)),
            (1e308,) * 4,
            (2**1023, 2**1023, 1, 1),
            (10**400, 1, 1, 1),
        ],
        ids=["nan", "inf", "-inf", "0.0", "-1.0", "total-overflows", "int-total-overflows", "int-past-float"],
    )
    def test_non_positive_or_non_finite_utility_rejected(self, utilities):
        # NaN and +inf pass a plain "u <= 0" test, and finite utilities can
        # total +inf as floats; each one used to fix every ballot to the same
        # order, and an int past the float range escaped as OverflowError
        with pytest.raises(InvalidSpecError, match="positive finite utility"):
            GenSpec(4, 5, "plackett-luce", (1, 3), 0, utilities=utilities)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": -(10**5000), "v": 5},
            {"n": 5, "v": -(10**5000)},
            {"n": 5, "v": 5, "model": 10**5000},
            {"n": 5, "v": 5, "length_range": (-(10**5000), 3)},
            {"n": 5, "v": 5, "seed": -(10**5000)},
        ],
        ids=["n", "v", "model", "length-range", "seed"],
    )
    def test_values_too_long_to_print_rejected(self, kwargs):
        # str() refuses an int of over 4,300 digits; the message describes it
        with pytest.raises(InvalidSpecError, match="too long to print"):
            GenSpec(**kwargs)

    @pytest.mark.parametrize("name, kwargs", [("n", {"n": 10**30, "v": 1}), ("v", {"n": 5, "v": 10**30})], ids=["n", "v"])
    def test_sizes_past_the_ceiling_rejected(self, name, kwargs):
        # generate raised numpy's "Maximum allowed dimension exceeded" and an OverflowError
        with pytest.raises(InvalidSpecError, match=rf"^{name} must be at most sys.maxsize \({sys.maxsize}\), got {name}={10**30}$"):
            GenSpec(**kwargs)

    def test_sizes_at_the_ceiling_accepted(self):
        assert GenSpec(sys.maxsize, sys.maxsize).n == sys.maxsize

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: canonical_model(1), "unknown ballot model 1", id="model-int"),
            pytest.param(lambda: run_compare(models=[1]), "unknown ballot model 1", id="compare-model-int"),
            pytest.param(lambda: GenSpec(3, 5, length_range=(1, 2, 3)), "bad length range (1, 2, 3)", id="range-triple"),
            pytest.param(lambda: GenSpec(3, 5, length_range=5), "bad length range 5", id="range-int"),
            pytest.param(
                lambda: run_lrm_audit(instances=1, n=3, v=3, length_range=(1, 2, 3)),
                "bad length range (1, 2, 3)",
                id="lrm-range-triple",
            ),
            pytest.param(
                lambda: run_lrm_audit(instances=1, n=3, v=3, length_range=5), "bad length range 5", id="lrm-range-int"
            ),
            pytest.param(
                lambda: run_lrm_audit(instances=1, n=3, v=3, length_range=(1, True)),
                "bad length range (1, True)",
                id="lrm-range-bool",
            ),
            pytest.param(
                # refused up front: it reached islice only on an instance with a consistent schedule
                lambda: run_audit_axioms(models=("u",), ns=(6,), instances=1, cap=10**20),
                f"cap must be at most sys.maxsize ({sys.maxsize}), got cap={10**20}",
                id="audit-cap-past-maxsize",
            ),
            pytest.param(
                lambda: GenSpec(3, 5, "plackett-luce", utilities=("a", "b", "c")),
                "need one positive finite utility per task",
                id="utilities-str",
            ),
            pytest.param(
                lambda: GenSpec(3, 5, "plackett-luce", utilities=5),
                "need one positive finite utility per task",
                id="utilities-int",
            ),
        ],
    )
    def test_malformed_python_specs_raise_invalid_spec_error(self, call, message):
        # not a stray AttributeError, TypeError or unpacking ValueError
        with pytest.raises(InvalidSpecError) as caught:
            call()
        assert type(caught.value) is InvalidSpecError and str(caught.value) == message


class TestGenerate:
    @pytest.mark.parametrize("model", ["uniform", "plackett-luce"])
    def test_output_is_a_valid_instance(self, model):
        tasks, profile = generate(GenSpec(7, 23, model, (2, 6), seed=42))
        assert tasks.n == 7
        assert all(2 <= length <= 6 for length in tasks.lengths)
        assert profile.voter_count == 23
        assert profile.tasks == tasks and validate_profile(profile).ok

    def test_task_ids_are_zero_padded(self):
        tasks, _ = generate(GenSpec(12, 3, "uniform", (1, 10), seed=0))
        assert tasks.ids[0] == "t01"
        assert tasks.ids[-1] == "t12"
        tasks, _ = generate(GenSpec(9, 3, "uniform", (1, 10), seed=0))
        assert tasks.ids == tuple(f"t{i}" for i in range(1, 10))

    @pytest.mark.parametrize("model", ["uniform", "plackett-luce"])
    def test_deterministic_per_seed(self, model):
        spec = GenSpec(6, 17, model, (1, 10), seed=2718)
        first = generate(spec)
        second = generate(spec)
        assert instance_to_dict(*first) == instance_to_dict(*second)

    def test_different_seeds_differ(self):
        a = generate(GenSpec(6, 20, "uniform", (1, 10), seed=0))
        b = generate(GenSpec(6, 20, "uniform", (1, 10), seed=1))
        assert instance_to_dict(*a) != instance_to_dict(*b)

    def test_lengths_shared_across_models_at_equal_seed(self):
        # Lengths are drawn before any ballots, so both models agree on
        # the task set for a given seed.
        uniform_tasks, _ = generate(GenSpec(6, 4, "uniform", (1, 10), seed=123))
        pl_tasks, _ = generate(GenSpec(6, 4, "plackett-luce", (1, 10), seed=123))
        assert uniform_tasks == pl_tasks

    @pytest.mark.parametrize("n, v, seed", BALLOT_DRAWS)
    def test_uniform_ballots_are_one_permutation_per_voter(self, monkeypatch, n, v, seed):
        # the one-call draw against its definition, one rng.permutation(n) per
        # voter after the lengths, and the generator left in the same state
        import numpy as np

        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
        tasks, profile = generate(GenSpec(n, v, "uniform", (1, 10), seed=seed))
        (rng,) = made
        reference = default_rng(seed)
        assert tasks.lengths == tuple(reference.integers(1, 11, size=n).tolist())
        ballots = [tuple(tasks.ids[i] for i in reference.permutation(n)) for _ in range(v)]
        assert profile == PreferenceProfile.from_orders(tasks, ballots)
        assert rng.random() == reference.random()

    def test_uniform_first_position_frequencies(self):
        tasks, profile = generate(GenSpec(5, 10000, "uniform", (1, 10), seed=7))
        first = {tid: 0 for tid in tasks.ids}
        for schedule, mult in profile.groups:
            first[schedule.order[0]] += mult
        for tid in tasks.ids:
            assert abs(first[tid] / 10000 - 0.2) < 0.02


class TestPlackettLuce:
    def test_dominant_utility_always_ranks_first(self):
        spec = GenSpec(
            5, 5000, "plackett-luce", (1, 10), seed=11,
            utilities=(1e9, 1.0, 1.0, 1.0, 1.0),
        )
        tasks, profile = generate(spec)
        assert all(schedule.order[0] == tasks.ids[0] for schedule, _ in profile.groups)

    def test_pairwise_marginal_tracks_utility_share(self):
        # With utilities 3:1 the first task precedes the second with
        # probability 3/4.
        spec = GenSpec(2, 8000, "plackett-luce", (1, 10), seed=13, utilities=(3.0, 1.0))
        tasks, profile = generate(spec)
        counts = pairwise_counts(profile)
        a, b = tasks.ids
        assert abs(counts.before(a, b) / 8000 - 0.75) < 0.02

    def test_correlation_concentrates_ballots(self):
        # Per-instance utilities make some orders far more common than the
        # uniform model's average group size would suggest.
        _, uniform_profile = generate(GenSpec(6, 300, "uniform", (1, 10), seed=3))
        _, pl_profile = generate(GenSpec(6, 300, "plackett-luce", (1, 10), seed=3))
        top_uniform = max(m for _, m in uniform_profile.groups)
        top_pl = max(m for _, m in pl_profile.groups)
        assert top_pl > top_uniform

    @pytest.mark.parametrize("n, v, seed", BALLOT_DRAWS)
    def test_plackett_luce_ballots_are_grouped_as_from_orders(self, monkeypatch, n, v, seed):
        # the grouped draw against its definition: the reference ballots drawn
        # one pick at a time after the lengths and utilities, grouped by
        # from_orders, and the generator left in the same state
        import numpy as np

        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
        tasks, profile = generate(GenSpec(n, v, "plackett-luce", (1, 10), seed=seed))
        (rng,) = made
        reference = default_rng(seed)
        assert tasks.lengths == tuple(reference.integers(1, 11, size=n).tolist())
        utilities = 1.0 - reference.random(n)
        ballots = [_parent_plackett_luce_ballot(reference, tasks.ids, utilities) for _ in range(v)]
        assert profile == PreferenceProfile.from_orders(tasks, ballots)
        assert rng.random() == reference.random()


def _parent_plackett_luce_ballot(rng, ids, utilities) -> tuple[str, ...]:
    # the ballot draw as it read on a numpy array of utilities, one voter and
    # one pick at a time, kept as the reference for the table draw; its total
    # folds left to right, as sum() did before Python 3.12 compensated it
    remaining = list(range(len(ids)))
    order: list[str] = []
    while remaining:
        weights = [utilities[i] for i in remaining]
        total = reduce(operator.add, weights)
        draw = rng.random() * total
        acc = 0.0
        chosen = len(remaining) - 1  # guard against float round-off
        for pos, w in enumerate(weights):
            acc += w
            if draw < acc:
                chosen = pos
                break
        order.append(ids[remaining.pop(chosen)])
    return tuple(order)


class TestPlackettLuceBallotOnFloats:
    @settings(max_examples=300, deadline=None)
    @given(
        utilities=st.lists(
            st.floats(min_value=1e-300, max_value=1e300, allow_subnormal=False)
            | st.sampled_from([1e-300, 1e300, 1.0, 0.5]),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
        ballots=st.integers(1, 5),
    )
    def test_table_draw_matches_the_parent_ballots(self, utilities, seed, ballots):
        import numpy as np

        array = np.asarray(utilities, dtype=float)
        ids = tuple(f"t{i + 1}" for i in range(len(utilities)))
        table_rng, parent_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = _plackett_luce_rows(table_rng.random((ballots, len(ids))), array).tolist()
        expected = [_parent_plackett_luce_ballot(parent_rng, ids, array) for _ in range(ballots)]
        assert [tuple(ids[i] for i in row) for row in rows] == expected
        assert table_rng.random() == parent_rng.random()

    @pytest.mark.parametrize(
        "utilities, expected",
        [((1e16, 1.0, 1.0), (0, 2, 1)), ((5e-324, 5e-324), (1, 0))],
        ids=["absorbed-weights", "round-off-guard"],
    )
    def test_totals_fold_left_to_right_on_every_python(self, utilities, expected):
        # sum() totals (1e16, 1.0, 1.0) as 1e16 + 2 from Python 3.12 on, and so
        # would pick the last task first; the left-to-right fold totals 1e16.
        # The subnormal total leaves no running total above the draw: the
        # round-off guard takes the highest-index remaining task each time
        import numpy as np

        uniforms = [1 - 2**-53] * len(utilities)
        ids = tuple(f"t{i + 1}" for i in range(len(utilities)))
        reference = SimpleNamespace(random=iter(uniforms).__next__)
        assert _parent_plackett_luce_ballot(reference, ids, utilities) == tuple(ids[i] for i in expected)
        assert _plackett_luce_rows(np.array([uniforms]), np.array(utilities)).tolist() == [list(expected)]
