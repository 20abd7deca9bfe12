"""The package's modules import one another in one direction only.

Every module of ``src/confalg`` is parsed with :mod:`ast`.  Imports of the
package sit at module level, never inside a function or class body, and
each module imports only modules earlier in :data:`ORDER`, so the module
graph has no cycle.  Every name a module-level import binds is used in the
module or listed in its ``__all__``, and every private module-level name is
used somewhere in the package outside its own definition.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "confalg"

#: the modules from the bottom of the kernel up; ``__init__`` is the package
#: itself (``cli`` reads its version from it) and ``__main__`` runs the CLI
ORDER = (
    "polyring", "confcore", "operators", "derived", "cohomology", "dsl", "__init__", "cli",
    "__main__",
)

#: modules that any module may import
ANYWHERE = frozenset({"errors"})

MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _package_imports(tree: ast.Module):
    """``(node, imported module, nested)`` for each import of the package in ``tree``.

    ``nested`` is true for an import inside a function or class body.
    """
    bodies = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            inner = nested or isinstance(child, bodies)
            if isinstance(child, ast.ImportFrom):
                yield from ((child, target, nested) for target in _targets(child))
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name.split(".")[0] == "confalg":
                        yield child, _module(alias.name.split(".")[1:2]), nested
            yield from visit(child, inner)

    return list(visit(tree, False))


def _module(parts) -> str:
    return parts[0] if parts else "__init__"


def _targets(node: ast.ImportFrom):
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "confalg":
            return []
        parts = parts[1:]
    else:
        parts = node.module.split(".") if node.module else []
    if parts:
        return [_module(parts)]
    # ``from . import name``: a submodule of the package, or a name of ``__init__``
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


def test_every_module_has_a_place_in_the_order():
    assert set(MODULES) == set(ORDER) | ANYWHERE


@pytest.mark.parametrize("module", MODULES)
def test_imports_run_one_way_at_module_level(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    allowed = set(ANYWHERE) | (set(ORDER[: ORDER.index(module)]) if module in ORDER else set())
    for node, target, nested in _package_imports(tree):
        where = f"{module}.py:{node.lineno} imports {target}"
        assert not nested, f"{where} inside a function or class body"
        assert target in allowed, f"{where}, which is not below it in {ORDER}"


def _exported(tree: ast.Module) -> set:
    """The names a module's ``__all__`` lists, if it assigns one at module level."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module):
    """``(node, bound name)`` for each name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node, alias.asname or alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used_or_exported(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    for node, name in _imported(tree):
        assert name in used, f"{module}.py:{node.lineno} imports {name}, which it never uses"


def _calls(tree: ast.Module, name: str):
    """``(enclosing function, line)`` for each call of ``name`` in ``tree``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append((owner, child.lineno))
            functions = (ast.FunctionDef, ast.AsyncFunctionDef)
            visit(child, child.name if isinstance(child, functions) else owner)

    visit(tree, None)
    return found


def test_every_residual_is_scanned_by_one_function():
    # confcore.scan forms the residual families of every identity and is the
    # one caller of residual_scan, so a new checker cannot grow its own scan
    calls = [
        (module, owner)
        for module in MODULES
        for owner, _ in _calls(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")),
                               "residual_scan")
    ]
    assert calls == [("confcore", "scan")]


def _private_definitions(tree: ast.Module):
    """``(name, node)`` for each module-level name starting with ``_``, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found = [(node.name, node)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [(name.id, node) for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        yield from ((name, node) for name, node in found
                    if name.startswith("_") and not name.endswith("__"))


def test_every_private_module_level_name_is_used():
    # a helper that a refactor leaves without callers cannot stay behind: each
    # private name needs a use, as a name or an attribute, outside the statement
    # that defines it (a recursive call does not count)
    trees = {module: ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
             for module in MODULES}
    uses: dict = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses.setdefault(name, []).append(node)
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in uses.get(name, [])):
                unused.append(f"{module}.py:{definition.lineno} {name}")
    assert not unused, f"private names used nowhere else in the package: {unused}"
