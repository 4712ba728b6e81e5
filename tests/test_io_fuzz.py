"""Property tests for the instance decoder and the ``solve`` command.

``instance_from_dict`` must turn any decoded JSON document into an instance
or into one of the documented errors: ``InstanceFormatError`` for a wrong
shape, ``DuplicateTaskError`` for a repeated id, and the ``ValueError`` the
task set raises for an empty id or a length below 1.  An instance it
returns is only a record: validating it either passes or lists defects.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collective_schedules import (
    DuplicateTaskError,
    InstanceFormatError,
    TaskSet,
    instance_from_dict,
    validate_profile,
)
from collective_schedules.cli import main

IDS = ("a", "b", "c", "d")
TASK_SET_MESSAGES = ("task id must be a non-empty string", "needs a positive integer length")

json_leaves = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def rarely(draw) -> bool:
    return draw(st.integers(0, 7)) == 7


def int_like(draw, max_digits):
    """Mostly a small positive int; rarely a bool posing as an int, a value
    below 1, or a huge value, which passes the type check untouched."""
    if not rarely(draw):
        return draw(st.integers(1, 5))
    huge = st.tuples(st.sampled_from((-1, 1)), st.integers(1, max_digits)).map(lambda sd: sd[0] * 10 ** sd[1] - 1)
    return draw(st.integers(-2, 0) | st.booleans() | huge)


@st.composite
def documents(draw, max_digits=5000):
    """Instance documents, well formed at first, then now and then broken."""
    ids = [] if rarely(draw) else draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True))
    if ids and rarely(draw):
        ids[-1] = ""
    tasks = [{"id": tid, "length": int_like(draw, max_digits)} for tid in ids]
    voters = []
    for _ in range(draw(st.integers(0, 3))):
        # a ballot is a permutation, or rarely any list of ids, empty ones included
        order = draw(st.lists(st.sampled_from(IDS), max_size=5)) if rarely(draw) else draw(st.permutations(ids))
        voters.append({"count": int_like(draw, max_digits), "order": list(order)})
    doc = {"tasks": tasks, "voters": voters}
    while rarely(draw):
        target = draw(st.sampled_from([doc, *tasks, *voters]))
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(json_trees)
        if key in ("tasks", "voters"):
            break  # its entries are no longer in the document
    return doc


def decode(doc):
    """``instance_from_dict(doc)``, or ``None`` for a documented rejection."""
    try:
        return instance_from_dict(doc)
    except (InstanceFormatError, DuplicateTaskError):
        return None
    except ValueError as err:
        assert type(err) is ValueError and any(m in str(err) for m in TASK_SET_MESSAGES), err
        return None


class TestInstanceFromDictFuzz:
    @settings(max_examples=300, deadline=None)
    @given(doc=documents() | json_trees)
    def test_decodes_or_raises_a_documented_error(self, doc):
        instance = decode(doc)
        if instance is None:
            return
        tasks, profile = instance
        report = validate_profile(profile)
        assert report.ok == (not report.defects)
        assert report.task_count == tasks.n >= 1

    @settings(max_examples=30, deadline=None)
    @given(doc=documents(max_digits=18), rule=st.sampled_from(("sum-dev", "pta-kemeny", "lmt-ls")))
    def test_solve_exits_0_or_2(self, doc, rule):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "instance.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["solve", "--rule", rule, "--input", str(path)])
        assert code in (0, 2)
        if code == 0:
            ok = decode(doc)
            assert ok is not None and validate_profile(ok[1]).ok
        else:
            assert err.getvalue().startswith(("error:", "invalid instance:"))


class TestHugeIntMessages:
    """``str`` refuses an int of more than 4,300 digits, so the model layer
    describes such a value in its messages instead of printing it."""

    def test_task_set_rejects_a_huge_negative_length(self):
        with pytest.raises(ValueError, match="needs a positive integer length, got <int too long to print>"):
            TaskSet.of(("a", -(10**5000)))

    def test_validation_reports_a_huge_negative_count(self):
        doc = {"tasks": [{"id": "a", "length": 1}], "voters": [{"count": -(10**5000), "order": ["a"]}]}
        report = validate_profile(instance_from_dict(doc)[1])
        assert [d.code for d in report.defects] == ["bad-multiplicity"]
        assert report.defects[0].message == "multiplicity must be a positive integer, got <int too long to print>"
