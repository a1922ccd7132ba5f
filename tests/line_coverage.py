"""List the function-body lines of src/compdepth that the tier-1 suite never runs.

Runs the suite under tests/ in this process with a sys.settrace tracer that
records the lines executed in the package's files, then writes each
function-body line that never ran to tests/uncovered_lines.txt, one
"file:line: source" per line, in file and line order. Only the standard
library and pytest are used. Code that runs only in a child process (a CLI
run under a memory cap, the fuzzers' children) counts as not run.

    PYTHONPATH=src python3 tests/line_coverage.py

Exits with the suite's status and leaves the list untouched when a test
fails. The suite runs without tests/test_line_coverage.py, which checks
the list against the source and so fails until this writes it again.
"""

from __future__ import annotations

import ast
import dis
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "compdepth"
OUT = ROOT / "tests" / "uncovered_lines.txt"


def body_lines(path: Path) -> set[int]:
    """The lines of a module on which a statement inside a function starts
    and which carry bytecode, so that a run of that statement traces them."""
    source = path.read_text()
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]  # the docstring
            for top in body:
                starts.update(sub.lineno for sub in ast.walk(top) if isinstance(sub, ast.stmt))
                if isinstance(top, ast.expr):  # a lambda's body
                    starts.add(top.lineno)
    with_code = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        with_code.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return starts & with_code


def main() -> int:
    import compdepth

    here = Path(compdepth.__file__).parent  # as imported, as its code objects name it
    if here.resolve() != PACKAGE:
        print(f"compdepth imports from {here}, not {PACKAGE}; run with PYTHONPATH=src",
              file=sys.stderr)
        return 2
    files = {str(here / path.name): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: defaultdict[str, set[int]] = defaultdict(set)

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in files else None

    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                              "--ignore", str(ROOT / "tests" / "test_line_coverage.py")])
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"the suite failed (status {status}); {OUT.name} left as it was",
              file=sys.stderr)
        return int(status)
    lines = []
    for name, path in files.items():
        source = path.read_text().splitlines()
        for line in sorted(body_lines(path) - ran[name]):
            lines.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}\n")
    OUT.write_text("".join(lines))
    print(f"{len(lines)} function-body lines never ran; listed in {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
