"""Shared fixtures: the small hand-checked instance used across the suite,
and counters of the per-instance profile work."""

from collections import Counter

import pytest

from collective_schedules import cli, metrics
from collective_schedules import model as model_module
from collective_schedules.gallery import three_task_example


@pytest.fixture()
def example():
    """Three tasks (lengths 2, 4, 1) and five voters in three groups."""
    return three_task_example()


@pytest.fixture()
def compile_counts(monkeypatch):
    """Calls of ``validate_profile`` (wherever bound) and due-table builds."""
    counts = Counter()

    def count(module, name, key):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module in (model_module, cli):
        count(module, "validate_profile", "validate_profile")
    count(metrics, "_due_prefix_tables", "due_tables")
    return counts
