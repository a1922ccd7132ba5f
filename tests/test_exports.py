"""compdepth.__all__ is exactly the public names that __init__.py imports,
every exception type in compdepth.errors is raised somewhere, and every
exception the package raises is a ValueError or an AssertionError."""

import ast
import inspect
import re
from pathlib import Path

import compdepth
from compdepth import errors


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


def test_every_error_type_is_raised():
    sources = "".join(path.read_text()
                      for path in Path(compdepth.__file__).parent.glob("*.py"))
    types = [cls.__name__ for cls in vars(errors).values()
             if inspect.isclass(cls) and issubclass(cls, errors.CompdepthError)
             and cls is not errors.CompdepthError]
    assert types
    assert [name for name in types if not re.search(rf"raise {name}\(", sources)] == []
    # The CLI's `except (OSError, ValueError)` sees every input error; an
    # AssertionError marks a broken invariant and stays a traceback.
    assert issubclass(errors.CompdepthError, ValueError)
    raised = set(re.findall(r"\braise (\w+)", sources))
    assert raised - {"ValueError", "AssertionError", *types} == set()
