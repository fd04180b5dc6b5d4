"""Count the total and code lines of each module of src/kellylab.

A code line holds a token that is not a comment, a docstring or a blank:
the lines of module, class and function docstrings (found with ast) and
the lines that hold only comments, layout tokens or nothing do not count.
Total lines are physical lines, as wc -l counts them.

    python tools/count_lines.py [package directory]

The default directory is the repository's src/kellylab.
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


def main(argv) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else (
        pathlib.Path(__file__).resolve().parent.parent / "src" / "kellylab")
    total = code = 0
    for path in sorted(root.glob("*.py")):
        t, c = count(path)
        total, code = total + t, code + c
        print(f"{path.name:<16} {t:>6} {c:>6}")
    print(f"{'total':<16} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
