"""compdepth.__all__ is exactly the public names that __init__.py imports,
every public function has a caller outside the tests and none takes a
singularity guard, the package has one exception class of its own and
raises only it, ValueError and AssertionError, no module imports a name it
does not use, the reports and curves share one CSV writer and one indented
JSON dump, fusion and the lab sum rows in one helper, one function
builds the text of a prediction error, no code reaches LAPACK or BLAS, and
the geometry modules signal undefined geometry with NaN, never None."""

import ast
import inspect
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import compdepth
from compdepth import cli, errors


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


def raised_names(tree: ast.AST) -> set[str]:
    """Names of the exceptions that tree raises, as `raise E(...)` or
    `raise E`; a bare `raise` re-raises and names none."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.add(ast.unparse(exc))
    return found


def test_one_input_error_class():
    """compdepth.errors defines CompdepthError(ValueError) and nothing else,
    and the package raises only it, ValueError and AssertionError. The CLI's
    `except (OSError, ValueError)` sees every input error; an AssertionError
    marks a broken invariant and stays a traceback."""
    classes = [cls for cls in vars(errors).values() if inspect.isclass(cls)]
    assert classes == [errors.CompdepthError]
    assert errors.CompdepthError.__bases__ == (ValueError,)
    raised = set().union(*(raised_names(ast.parse(path.read_text()))
                           for path in Path(compdepth.__file__).parent.glob("*.py")))
    assert raised == {"ValueError", "AssertionError", "CompdepthError"}


def test_malformed_or_unjoined_input_raises_compdepth_error(tmp_path):
    """A bad label line, prediction record or calibration text, and a
    prediction key without a label row, each raise CompdepthError. Bad PGM
    bytes still raise a plain ValueError, whose type name the benchmark's
    read-back check pins."""
    bad = [(compdepth.parse_labels, "Car 1 2 3\n"),
           (compdepth.read_predictions, '{"frame":"0","index":-1}\n'),
           (compdepth.parse_calib, "P2: 1 2 3\n"),
           (compdepth.parse_calib, "P2: 0 0 600 0 0 700 170 0 0 0 1 0")]
    for parse, data in bad:
        with pytest.raises(errors.CompdepthError):
            parse(data)
    with pytest.raises(ValueError) as exc:
        compdepth.heatmap_from_pgm(b"P5 2 2 255\n\x00")
    assert type(exc.value) is ValueError
    predictions = tmp_path / "predictions.jsonl"
    (tmp_path / "000001.txt").write_text("")  # a label file, but none for frame 000000
    predictions.write_text('{"frame":"000000","index":0,"branches":[{"name":"a","z":1.0}]}\n')
    with pytest.raises(errors.CompdepthError, match=r"^unmatched prediction keys: \(000000, 0\)$"):
        cli._cmd_eval(SimpleNamespace(predictions=predictions, label_dir=tmp_path))


def string_annotations(tree: ast.AST) -> list[str]:
    """The annotations in tree written as strings, such as "EnsembleTable"."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return [a.value for a in annotations
            if isinstance(a, ast.Constant) and isinstance(a.value, str)]


def test_no_unused_imports():
    """Every name a module of the package imports is read in it, or, in
    __init__.py, exported through __all__, so a dropped use cannot leave its
    import behind."""
    unused = []
    for path in sorted(Path(compdepth.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {node.id for annotation in string_annotations(tree)
                 for node in ast.walk(ast.parse(annotation, mode="eval"))
                 if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(compdepth.__all__)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in read]
    assert unused == []


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


def test_one_prediction_validator():
    """Exactly one function builds the "line N: field 'F': ..." text of a
    prediction error, so a second, field-by-field re-check of the records
    cannot grow back next to the reader's one pass."""
    builders = set()
    for path in sorted(Path(compdepth.__file__).parent.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef):
                builders |= {f"{path.stem}.{function.name}" for node in ast.walk(function)
                             if isinstance(node, ast.JoinedStr)
                             and re.search(r"line \{[^}]*\}: field '", ast.unparse(node))}
    assert len(builders) == 1, builders



#: numpy names whose calls go to LAPACK or BLAS, or to numpy code built on them.
BLAS_NAMES = {"linalg", "polyfit", "polynomial", "dot", "vdot", "inner", "matmul",
              "tensordot", "einsum"}


def names_used(tree: ast.AST):
    """(line, name) of every attribute and every imported name or module
    part in tree, and (line, "@") of every matrix product. A local variable
    is not counted: it reaches numpy only through one of these."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            dotted = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            yield from ((node.lineno, part) for name in dotted for part in name.split("."))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"


def test_no_lapack_or_blas_call():
    """No module of the package names np.linalg, polyfit, a BLAS product
    (dot, vdot, inner, matmul, tensordot, einsum) or the @ operator. Their
    last bits depend on the kernel OpenBLAS picks for the CPU, so the bytes
    of oracle and plane output would too; the plane and line fits are
    closed forms in elementwise numpy instead."""
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(Path(compdepth.__file__).parent.glob("*.py"))
             for line, name in names_used(ast.parse(path.read_text()))
             if name in BLAS_NAMES or name == "@"]
    assert found == []


def test_geometry_has_no_none():
    """camera.py, depth_branches.py and ground_plane.py have no `return
    None`, no bare `return` and no return annotation naming None, so NaN
    stays the one sign of undefined geometry, a missing plane included."""
    found = []
    for name in ("camera.py", "depth_branches.py", "ground_plane.py"):
        tree = ast.parse((Path(compdepth.__file__).parent / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Return) and (
                    node.value is None
                    or isinstance(node.value, ast.Constant) and node.value.value is None):
                found.append(f"{name}:{node.lineno}: return")
            elif (isinstance(node, ast.FunctionDef) and node.returns is not None
                  and re.search(r"\bNone\b|Optional", ast.unparse(node.returns))):
                found.append(f"{name}:{node.lineno}: {node.name} -> "
                             f"{ast.unparse(node.returns)}")
    assert found == []
