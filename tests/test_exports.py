"""compdepth.__all__ is exactly the public names that __init__.py imports."""

import ast
from pathlib import Path

import compdepth


def imported_public_names() -> list[str]:
    tree = ast.parse(Path(compdepth.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    return [name for name in names if not name.startswith("_")]


def test_all_has_no_duplicates():
    assert len(compdepth.__all__) == len(set(compdepth.__all__))


def test_all_names_resolve():
    assert [name for name in compdepth.__all__ if not hasattr(compdepth, name)] == []


def test_all_equals_imported_public_names():
    imported = imported_public_names()
    assert len(imported) == len(set(imported))
    assert set(compdepth.__all__) == set(imported)
