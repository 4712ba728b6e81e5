"""The package namespace: ``__all__`` and the public names the package binds agree."""

from types import ModuleType

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
