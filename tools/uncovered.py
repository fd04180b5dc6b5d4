"""List the statements of src/kellylab that no test executes.

    python tools/uncovered.py [pytest argument]...

A line tracer (sys.settrace) starts before kellylab is imported, then pytest
runs in this process with the given arguments. Only frames of files under
src/kellylab are followed. Each statement that no traced frame reached is
printed as path:line: source, then the count of such statements per module
and in total. A statement counts as run when the tracer saw one of its own
lines: any line of a simple statement, the header of a compound one (an if
test, a for target and iterable, ...) up to its body. Docstrings, def and
class statements and imports are not counted: they run when the module is
imported. Code run in a child process, as by a test that starts
`python -m kellylab.cli`, is not traced. The exit status is pytest's.
"""

import ast
import os
import pathlib
import sys
from collections import defaultdict

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "kellylab"
_NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> dict:
    """{first line: its own lines} of each counted statement of a module."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if (not isinstance(node, ast.stmt) or isinstance(node, _NOT_COUNTED)
                or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        out[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return out


def start_tracing(root: pathlib.Path) -> dict:
    """Trace the lines run in the files under root, from now on in this
    thread; the result is the {real file path: set of lines run} it fills."""
    prefix = str(root.resolve()) + os.sep
    seen = defaultdict(set)
    inside = {}

    def line(frame, event, arg):
        if event == "line":
            seen[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = os.path.realpath(name)
            inside[name] = path if path.startswith(prefix) else None
        return line if inside[name] else None

    sys.settrace(call)
    return seen


def unrun(path: pathlib.Path, seen: dict) -> list:
    """(line, source) of each counted statement of the file at path that
    the tracer did not see run."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    ran = seen.get(os.path.realpath(path), set())
    return [(n, lines[n - 1].strip()) for n, own in sorted(statements(source).items())
            if ran.isdisjoint(own)]


def main(argv) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    seen = start_tracing(PACKAGE)
    import pytest
    try:
        code = pytest.main(argv[1:])
    finally:
        sys.settrace(None)
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unrun(path, seen)
        for n, text in missed:
            print(f"{os.path.relpath(path)}:{n}: {text}")
        counts[path.name] = len(missed)
    for name, n in [*counts.items(), ("total", sum(counts.values()))]:
        print(f"{name:<16}{n:>6}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
