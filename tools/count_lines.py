"""Count the total and code lines of each module of src/kellylab.

A code line holds a token that is not a comment, a docstring or a blank:
the lines of module, class and function docstrings (found with ast) and
the lines that hold only comments, layout tokens or nothing do not count.
Total lines are physical lines, as wc -l counts them.

    python tools/count_lines.py [package directory [second package directory]]

The default directory is the repository's src/kellylab. Given two
directories, each module's counts in the first (before) and the second
(after) are printed side by side with the net change; a module missing from
one side counts 0 there.
"""

import ast
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree) -> set:
    """Line numbers covered by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> tuple:
    """(total lines, code lines) of one Python file."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(source.splitlines()), len(code)


def tree(root: pathlib.Path) -> dict:
    """{module file name: (total lines, code lines)} of one package directory."""
    return {path.name: count(path) for path in sorted(root.glob("*.py"))}


def main(argv) -> int:
    roots = [pathlib.Path(arg) for arg in argv[1:]] or [
        pathlib.Path(__file__).resolve().parent.parent / "src" / "kellylab"]
    if len(roots) > 2:
        print("usage: count_lines.py [package directory [second package directory]]",
              file=sys.stderr)
        return 2
    trees = [tree(root) for root in roots]
    rows = [(name, [t.get(name, (0, 0)) for t in trees])
            for name in sorted(set().union(*trees))]
    rows.append(("total", [tuple(map(sum, zip((0, 0), *t.values()))) for t in trees]))
    for name, counts in rows:
        line = f"{name:<16}" + " ->".join(f" {t:>6} {c:>6}" for t, c in counts)
        if len(counts) == 2:
            (t0, c0), (t1, c1) = counts
            line += f"   net {t1 - t0:>+5} {c1 - c0:>+5}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
