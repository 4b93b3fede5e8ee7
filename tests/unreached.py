"""List the statements of src/gbmixed that a pytest run never executes.

    python tests/unreached.py [pytest args]

Run it from the root of a checkout; gbmixed comes from that checkout's src/.
It runs pytest in this process under a sys.settrace / threading.settrace
hook that records the lines executed in src/gbmixed frames only, with
GBMIXED_THREADS=1 so that replications run in this process and are seen.
Then it prints "path:line" for every statement inside a function body that
never ran, and exits 1 if it printed any, else 0. Pytest's own report comes
first; a failing test does not change the exit status.

A simple statement ran when any line it spans raised a line event. An if,
while, for or with statement is judged by its header alone (the test, the
iterable, the context managers), since its body's statements are judged one
by one; try headers, nested definitions (judged as functions of their own),
docstrings and other constant expressions, and global and nonlocal
declarations compile to no code of their own and are not listed. Module and
class bodies run at import and are not judged. Code run in worker processes
(a test that sets GBMIXED_THREADS above 1) is not seen.

It needs only the standard library and pytest. Pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gbmixed"

_SILENT = (ast.Try, ast.Global, ast.Nonlocal)


def _header(node: ast.stmt) -> tuple[int, int]:
    """The lines of node's own code: all of a simple statement, a compound one's header."""
    if isinstance(node, (ast.If, ast.While)):
        return node.lineno, node.test.end_lineno
    if isinstance(node, ast.For):
        return node.lineno, node.iter.end_lineno
    if isinstance(node, ast.With):
        return node.lineno, node.items[-1].context_expr.end_lineno
    return node.lineno, node.end_lineno


def _body_statements(func) -> list[ast.stmt]:
    """The statements of func's body and of every block nested in it, nested
    definitions excluded (ast.walk reaches those as functions of their own)."""
    found, todo = [], list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        found.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                todo.append(child)
            elif isinstance(child, ast.excepthandler):
                todo.extend(child.body)
    return found


def statements(path: Path) -> list[tuple[int, int]]:
    """(first, last) line of the code of every judged statement in path's function bodies."""
    spans = []
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in _body_statements(func):
            constant = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            if not (constant or isinstance(node, _SILENT)):
                spans.append(_header(node))
    return sorted(spans)


def main(argv: list[str]) -> int:
    os.environ["GBMIXED_THREADS"] = "1"
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    # parsed before the run, so the lines listed are the lines that ran
    files = {str(p): (p, statements(p)) for p in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = [
        f"{path.relative_to(ROOT)}:{first}"
        for name, (path, spans) in files.items()
        for first, last in spans
        if hits[name].isdisjoint(range(first, last + 1))
    ]
    print("\n".join(missed) if missed else "every statement in a function body ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
