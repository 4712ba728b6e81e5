"""The package namespace: ``__all__``, the public names the package binds, and their lazy lookup."""

import importlib
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
