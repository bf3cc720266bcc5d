"""Every public name a simcert module exports resolves."""

import importlib
import pkgutil

import pytest

import simcert

MODULES = ["simcert"] + [f"simcert.{info.name}" for info in pkgutil.iter_modules(simcert.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names {missing} that the module does not define"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_every_library_module_declares_its_exports():
    undeclared = [
        name for name in MODULES
        if name not in ("simcert", "simcert.cli")
        and not hasattr(importlib.import_module(name), "__all__")
    ]
    assert undeclared == []
