"""Every name a module of the package imports is used in that module,
no module imports another module's underscore names, and no library
check is an ``assert``, which ``python -O`` removes.

``__init__.py`` resolves its names lazily and imports none of them, and
``from __future__`` imports are directives, so neither is checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rankcov"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module):
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def private_imports(tree: ast.Module):
    """(line, name) of every underscore name imported from a module."""
    return sorted((node.lineno, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name.startswith("_"))


def test_the_package_modules_are_found():
    assert {"codes", "matlin", "gfield"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == []


def test_an_unused_import_is_reported():
    tree = ast.parse("import os\nfrom .matlin import Mat, kernel\n"
                     "print(os.sep, Mat)\n")
    assert unused_imports(tree) == [(2, "kernel")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert private_imports(tree) == []


def test_a_private_import_is_reported():
    tree = ast.parse("from .matlin import Mat, _rref_rows\n"
                     "from . import _x as y\n")
    assert private_imports(tree) == [(1, "_rref_rows"), (2, "_x")]


def assert_statements(tree: ast.Module):
    """The line of every assert, which ``python -O`` strips."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_library_check_is_an_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert assert_statements(tree) == []


def test_an_assert_statement_is_reported():
    tree = ast.parse("x = 1\nif x:\n    assert x > 0, 'positive'\n")
    assert assert_statements(tree) == [3]
