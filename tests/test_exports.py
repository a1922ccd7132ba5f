"""compdepth.__all__ is exactly the public names that __init__.py imports,
every public function has a caller outside the tests and none takes a
singularity guard, every exception type in compdepth.errors is raised
somewhere, every exception the package raises is a ValueError or an
AssertionError, the reports and curves share one CSV writer and one
indented JSON dump, and fusion and the lab sum rows in one helper."""

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


def called_names(tree: ast.AST) -> set[str]:
    """Names of the functions that tree calls, as `f(...)` or `obj.f(...)`,
    except a function's calls of itself inside its own def."""
    found: set[str] = set()

    def visit(node: ast.AST, inside: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = (*inside, node.name)
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is not None and name not in inside:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, ())
    return found


def test_every_public_function_has_a_caller_outside_tests():
    """No API that only tests call: every function in __all__ is called by
    the package, a demo, the benchmark or the README's python examples."""
    root = Path(__file__).resolve().parent.parent
    sources = [path.read_text() for folder in ("src/compdepth", "demos", "bench")
               for path in sorted((root / folder).rglob("*.py"))]
    sources += [block.split("```", 1)[0]
                for block in (root / "README.md").read_text().split("```python\n")[1:]]
    called = set().union(*(called_names(ast.parse(source)) for source in sources))
    functions = [name for name in compdepth.__all__
                 if inspect.isfunction(getattr(compdepth, name))]
    assert functions
    assert [name for name in functions if name not in called] == []


def test_no_public_function_takes_a_guard():
    """The singularity guard is the constant DEFAULT_EPS_DEN, not a parameter."""
    functions = [getattr(compdepth, name) for name in compdepth.__all__
                 if inspect.isfunction(getattr(compdepth, name))]
    assert functions
    assert [f.__name__ for f in functions
            if "eps" in inspect.signature(f).parameters] == []


def test_one_csv_writer_and_one_indented_json_dump():
    """The eval and plane reports and the sweep curves go through one
    csv.writer call and one json.dumps(..., indent=...) call, so per-writer
    plumbing cannot grow back."""
    calls = [(ast.unparse(node.func), {k.arg for k in node.keywords})
             for path in sorted(Path(compdepth.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)]
    assert sum(func == "csv.writer" for func, _ in calls) == 1
    assert sum(func == "json.dumps" and "indent" in keywords for func, keywords in calls) == 1


def test_one_row_sum_kernel():
    """fusion.py and lab.py call .sum(axis=1) only in fusion.row_sums, so no
    per-row sum loop creeps back into fusion or the sweeps."""
    sums = []
    for name in ("fusion.py", "lab.py"):
        tree = ast.parse((Path(compdepth.__file__).parent / name).read_text())
        helper = {id(node) for function in tree.body
                  if isinstance(function, ast.FunctionDef) and function.name == "row_sums"
                  for node in ast.walk(function)}
        sums += [(name, "row_sums" if id(node) in helper else ast.unparse(node))
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "sum"
                 and any(k.arg == "axis" and ast.unparse(k.value) in ("1", "-1")
                         for k in node.keywords)]
    assert sums == [("fusion.py", "row_sums")]
