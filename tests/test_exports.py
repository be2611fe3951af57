"""Every name a gammapower module exports resolves, so no export outlives its definition,
and every name a submodule imports is used, so no import outlives its last use."""

import ast
import importlib
import pathlib
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


@pytest.mark.parametrize("name", SUBMODULES)
def test_no_unused_import(name):
    # the package __init__ imports to re-export, so it is not among the submodules
    module = importlib.import_module(f"gammapower.{name}")
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(module.__all__)) == []
