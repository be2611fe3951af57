"""Every name a gammapower module exports resolves, so no export outlives its definition."""

import importlib
import pkgutil

import pytest

import gammapower

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(gammapower.__path__))


def test_every_submodule_is_listed():
    assert SUBMODULES == ["certify", "cli", "critical", "families", "specfun"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"gammapower.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    # `from gammapower.<name> import *` binds each of them
    namespace: dict = {}
    exec(f"from gammapower.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
