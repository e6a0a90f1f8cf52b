from __future__ import annotations

import importlib
import inspect

import pytest

MODULES = ["network", "game", "dynamics", "sim", "privacy", "config", "output"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"privroute.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    defined = {
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert not defined - set(module.__all__), f"{name}.__all__ leaves out public definitions"
