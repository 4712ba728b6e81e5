"""Instance file format: a JSON document describing tasks and ballots.

Shape::

    {
      "tasks":  [{"id": "t1", "length": 3}, ...],
      "voters": [{"count": 2, "order": ["t2", "t1", ...]}, ...]
    }

Task order, voter-group order, and multiplicities are preserved exactly,
so parse(serialize(instance)) returns an equal instance.  Structural
problems raise :class:`InstanceFormatError`; semantic ones (duplicate
ids, non-permutation ballots) surface through the model layer or through
``validate_profile``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import InstanceFormatError
from .model import PreferenceProfile, Schedule, TaskSet, _is_int

Instance = tuple[TaskSet, PreferenceProfile]


def instance_to_dict(tasks: TaskSet, profile: PreferenceProfile) -> dict[str, Any]:
    return {
        "tasks": [{"id": tid, "length": length} for tid, length in tasks.tasks],
        "voters": [{"count": mult, "order": list(s.order)} for s, mult in profile.groups],
    }


def instance_from_dict(doc: Any) -> Instance:
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    raw_tasks = _field(doc, "tasks", list)
    raw_voters = _field(doc, "voters", list)
    pairs = []
    for k, entry in enumerate(raw_tasks):
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"tasks[{k}] must be an object")
        tid = _field(entry, "id", str, f"tasks[{k}]")
        length = _field(entry, "length", int, f"tasks[{k}]")
        pairs.append((tid, length))
    if not pairs:
        raise InstanceFormatError("instance needs at least one task")
    tasks = TaskSet(tuple(pairs))
    groups = []
    for k, entry in enumerate(raw_voters):
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"voters[{k}] must be an object")
        count = _field(entry, "count", int, f"voters[{k}]")
        order = _field(entry, "order", list, f"voters[{k}]")
        if not all(isinstance(tid, str) for tid in order):
            raise InstanceFormatError(f"voters[{k}].order must list task ids")
        groups.append((Schedule(tuple(order)), count))
    return tasks, PreferenceProfile(tasks, tuple(groups))


def dumps_instance(tasks: TaskSet, profile: PreferenceProfile) -> str:
    return json.dumps(instance_to_dict(tasks, profile), indent=2) + "\n"


def loads_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:  # malformed text, an overlong int, or nesting too deep
        raise InstanceFormatError(f"not valid JSON: {err}") from err
    return instance_from_dict(doc)


def read_instance(path: str | Path) -> Instance:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")  # JSON exchanged between systems is UTF-8 (RFC 8259)
    except UnicodeDecodeError as err:
        raise InstanceFormatError(f"not UTF-8 text: {err}") from err
    return loads_instance(text)


def write_instance(path: str | Path, tasks: TaskSet, profile: PreferenceProfile) -> None:
    Path(path).write_text(dumps_instance(tasks, profile))


def _field(obj: dict, name: str, kind: type, where: str = "instance") -> Any:
    if name not in obj:
        raise InstanceFormatError(f"{where} is missing the {name!r} field")
    value = obj[name]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise InstanceFormatError(f"{where}.{name} must be {kind.__name__}")
    return value
