"""Package layering: occball modules import each other only at module level,
and only through public names.

An import of an occball module inside a function body hides a dependency
from the module header and is how import cycles get papered over; this test
keeps every such import at the top of its module.  An underscore name is
private to its module, so no other occball module may import it: a helper
two modules need is public, or lives where both can reach it.
"""

import ast
from pathlib import Path

import pytest

import occball

MODULES = sorted(Path(occball.__file__).parent.glob("*.py"))


def _is_occball_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "occball"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "occball" for alias in node.names)
    return False


def _function_body_imports(tree):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if _is_occball_import(node):
                    yield func.name, node.lineno


def _private_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_occball_import(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield alias.name, node.lineno


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_occball_import_inside_functions(path):
    found = list(_function_body_imports(ast.parse(path.read_text())))
    assert not found, f"{path.name}: occball imports inside functions at {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    found = list(_private_imports(ast.parse(path.read_text())))
    assert not found, f"{path.name}: imports private occball names {found}"
