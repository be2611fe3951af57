"""Every name a gammapower module exports resolves, so no export outlives its definition,
and the package binds it to the same object, so a public name is listed once, in its
module's `__all__`; every name a submodule imports is used, so no import outlives its
last use; every private module-level helper is referenced, so no helper outlives its
last caller; only families divides a log_gamma call, so log Gamma(x+a)/x has one owner;
only specfun calls both digamma and polygamma in one function, so psi's orders have
one; every _near_zero call sits behind its a in (1.0, 2.0) gate; only families._total
flattens x or restores a caller's shape; and specfun's column table is opened only by
certify._check, which closes it in a finally."""

import ast
import collections
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


# the modules the package re-exports with `from .<module> import *`
LAYERS = ["specfun", "families", "critical", "certify"]


@pytest.mark.parametrize("name", LAYERS)
def test_package_exports_every_public_name(name):
    module = importlib.import_module(f"gammapower.{name}")
    assert [n for n in module.__all__ if getattr(gammapower, n, None) is not getattr(module, n)] == []


def test_no_name_in_two_layers():
    # so no star import shadows another
    names = collections.Counter(n for name in LAYERS
                                for n in importlib.import_module(f"gammapower.{name}").__all__)
    assert [n for n, k in names.items() if k > 1] == []


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


def _references(node: ast.AST) -> collections.Counter:
    """Names read (x) and attributes taken (m.x) anywhere under node."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute))


def test_no_dead_private_helper():
    # a private function, class or constant is read somewhere in the package
    # outside its own definition
    trees = [ast.parse(path.read_text())
             for path in sorted(pathlib.Path(gammapower.__file__).parent.glob("*.py"))]
    everywhere = sum(map(_references, trees), collections.Counter())
    dead = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = _references(node)
            dead += [n for n in names if n.startswith("_") and not n.startswith("__")
                     and everywhere[n] == own[n]]
    assert dead == []


def _divides_log_gamma(node: ast.AST) -> bool:
    """node is a / b whose a is a log_gamma(...) call, negated or not."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
        return False
    left = node.left.operand if isinstance(node.left, ast.UnaryOp) else node.left
    return isinstance(left, ast.Call) and "log_gamma" in (
        getattr(left.func, "id", None), getattr(left.func, "attr", None))


def test_log_gamma_quotients_have_one_owner():
    # L(x) = log Gamma(x+a)/x cancels near 0 at a in {1, 2}, where families
    # alone takes its series: no other module divides a log_gamma call
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(gammapower.__file__).parent.glob("*.py"))
             if path.stem != "families"
             for node in ast.walk(ast.parse(path.read_text())) if _divides_log_gamma(node)]
    assert found == []


def _called(node: ast.AST) -> set:
    """Names of the functions called anywhere under node, as f(...) or m.f(...)."""
    return {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            for n in ast.walk(node) if isinstance(n, ast.Call)}


def test_psi_orders_have_one_owner():
    # specfun._psi_orders gives psi, psi' and psi'' from one pass, bit for bit
    # the per-order calls: outside specfun no function or lambda calls both
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(gammapower.__file__).parent.glob("*.py"))
             if path.stem != "specfun"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.Lambda))
             and {"digamma", "polygamma"} <= _called(node)]
    assert found == []


def _window_gate(node: ast.AST) -> bool:
    """node is the test a in (1.0, 2.0)."""
    return isinstance(node, ast.Compare) and ast.unparse(node) == "a in (1.0, 2.0)"


def test_near_zero_is_called_behind_its_gate():
    # each caller of families._near_zero builds its series formula as a lambda:
    # only in the true branch of an `a in (1.0, 2.0)` test (an IfExp's body, or
    # a later operand of an `and`), so a call at any other a builds none
    trees = [ast.parse(path.read_text())
             for path in sorted(pathlib.Path(gammapower.__file__).parent.glob("*.py"))]
    calls = {n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)
             and "_near_zero" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))}
    gated = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.IfExp) and _window_gate(node.test):
            branches = [node.body]
        elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            first = next((i for i, v in enumerate(node.values) if _window_gate(v)), len(node.values))
            branches = node.values[first + 1:]
        else:
            continue
        gated |= {n for branch in branches for n in ast.walk(branch)}
    assert calls
    assert sorted(n.lineno for n in calls - gated) == []


def _flattens_or_reshapes(node: ast.AST) -> bool:
    """node is a .ravel() call, or a reshape whose arguments name a .shape."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    return node.func.attr == "ravel" or node.func.attr == "reshape" and any(
        ".shape" in ast.unparse(arg) for arg in node.args)


def test_only_total_flattens_x():
    # past families._total every helper gets a float or a flat float64 row:
    # _total alone ravels x and gives a value x's shape, so no other function
    # keeps a round trip that no caller reaches
    tree = ast.parse((pathlib.Path(gammapower.__file__).parent / "families.py").read_text())
    total = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_total")
    inside = set(ast.walk(total))
    assert sum(map(_flattens_or_reshapes, inside)) == 2
    assert [n.lineno for n in ast.walk(tree) if n not in inside and _flattens_or_reshapes(n)] == []


def _uses_of_table(node: ast.AST, method: str | None = None) -> list:
    """The references to specfun._TABLE_OPEN under node, or its calls of `method`."""
    refs = [n for n in ast.walk(node) if "_TABLE_OPEN" in (getattr(n, "id", None),
                                                            getattr(n, "attr", None))]
    if method is None:
        return refs
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == method
            and n.func.value in refs]


def test_column_table_is_opened_only_by_check():
    # specfun's column table is open only while certify._check evaluates one
    # claim: _check alone sets its ContextVar, just before the try whose finally
    # resets it with that token, and outside specfun nothing else touches it
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(pathlib.Path(gammapower.__file__).parent.glob("*.py"))}
    assert [stem for stem, tree in trees.items() if _uses_of_table(tree, "set")] == ["certify"]
    check = next(n for n in trees["certify"].body
                 if isinstance(n, ast.FunctionDef) and n.name == "_check")
    [opened] = [i for i, stmt in enumerate(check.body) if _uses_of_table(stmt, "set")]
    token, guarded = check.body[opened], check.body[opened + 1]
    assert isinstance(token, ast.Assign) and isinstance(guarded, ast.Try)
    [reset] = [n for stmt in guarded.finalbody for n in _uses_of_table(stmt, "reset")]
    assert [ast.unparse(n) for n in reset.args] == [ast.unparse(n) for n in token.targets]
    # certify refers to it in that set and that reset only; no other module at all
    outside = {stem: len(_uses_of_table(tree)) for stem, tree in trees.items() if stem != "specfun"}
    assert outside == {stem: 2 if stem == "certify" else 0 for stem in outside}


def test_only_four_families_functions_call_the_column_table():
    # a families row reaches specfun's table through _total (every public
    # function), _lg_over (L, which certify's chains read directly),
    # _near_zero (the window series) and _margin_orders (the LCM blocks), one
    # call each: a new helper cannot keep a row out of the table or wrap a
    # row in a second column
    tree = ast.parse((pathlib.Path(gammapower.__file__).parent / "families.py").read_text())
    callers = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for n in ast.walk(fn) if isinstance(n, ast.Call) and ast.unparse(n.func) == "_column"]
    assert sorted(callers) == ["_lg_over", "_margin_orders", "_near_zero", "_total"]
    uses = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "_column"]
    assert len(uses) == len(callers)
