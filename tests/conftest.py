"""Shared fixtures: the small hand-checked instance used across the suite,
and counters of the per-instance profile work."""

from collections import Counter

import pytest

from collective_schedules import metrics
from collective_schedules.gallery import three_task_example


@pytest.fixture()
def example():
    """Three tasks (lengths 2, 4, 1) and five voters in three groups."""
    return three_task_example()


@pytest.fixture()
def compile_counts(monkeypatch):
    """Compiled-profile builds, under ``"compiles"``: each one checks the
    ballots, translates them to task indices and tabulates the dues."""
    counts = Counter()
    build = metrics._compile

    def counting(profile):
        counts["compiles"] += 1
        return build(profile)

    monkeypatch.setattr(metrics, "_compile", counting)
    return counts
