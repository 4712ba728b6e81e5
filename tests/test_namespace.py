"""The package namespace: ``__all__``, the public names the package binds, their lazy lookup, and
the one integer rule of its source."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import collective_schedules


def test_every_name_in_all_resolves():
    missing = [name for name in collective_schedules.__all__ if not hasattr(collective_schedules, name)]
    assert missing == []
    assert len(set(collective_schedules.__all__)) == len(collective_schedules.__all__)


def test_every_public_binding_is_in_all():
    # submodules and the ``from __future__ import annotations`` feature are
    # bound by the imports, not exported
    bound = {
        name
        for name, value in vars(collective_schedules).items()
        if not name.startswith("_") and not isinstance(value, ModuleType) and name != "annotations"
    }
    assert bound - set(collective_schedules.__all__) == set()


def test_star_import_binds_each_name_from_the_module_that_defines_it():
    namespace: dict = {}
    exec("from collective_schedules import *", namespace)
    for name in collective_schedules.__all__:
        module = importlib.import_module(f"collective_schedules.{collective_schedules._OWNER[name]}")
        assert namespace[name] is getattr(module, name), name
        assert getattr(namespace[name], "__module__", module.__name__) == module.__name__, name
    # names are looked up on each read, never cached in the package
    assert set(collective_schedules.__all__).isdisjoint(vars(collective_schedules))


def test_dir_lists_every_exported_name():
    assert set(collective_schedules.__all__) <= set(dir(collective_schedules))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'collective_schedules' has no attribute 'no_such_name'$"):
        collective_schedules.no_such_name


def _bool_checks(tree: ast.AST) -> list[int]:
    # lines of every isinstance(...) call whose class argument names bool
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2
        and any(getattr(name, "id", None) == "bool" for name in ast.walk(node.args[1]))
    ]


def test_the_integer_rule_is_stated_once():
    # every "is this an integer" check in the package asks model._is_int
    found, allowed = [], []
    for path in sorted(Path(collective_schedules.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line}" for line in _bool_checks(tree)]
        if path.name == "model.py":
            rule = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_is_int"]
            allowed += [f"model.py:{line}" for node in rule for line in _bool_checks(node)]
    assert found == allowed
    assert len(allowed) == 1


def test_the_solver_never_branches_on_the_objective():
    # the fill picks its lead loop from the tables themselves, so the solver names no member of Objective
    path = Path(collective_schedules.__file__).parent / "solver.py"
    members = {"SUM_DEVIATION", "SUM_TARDINESS", "PTA_KENDALL_TAU"}
    named = [
        f"solver.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if getattr(node, "attr", None) in members or getattr(node, "id", None) in members
    ]
    assert named == []
