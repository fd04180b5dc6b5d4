"""Prose that names code: every name it cites must exist in the package,
and the README's library quick start runs as written."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import kellylab
from kellylab import drawdown
from kellylab.gamble import GambleModel

ROOT = Path(__file__).parents[1]
MODULES = {path.stem for path in (ROOT / "src" / "kellylab").glob("*.py")} - {"__init__"}


def has(obj, name) -> bool:
    """True iff obj has the attribute, or the dataclass field, name."""
    return hasattr(obj, name) or (dataclasses.is_dataclass(obj)
                                  and name in {f.name for f in dataclasses.fields(obj)})


def resolves(dotted: str) -> bool:
    """True iff every part of `module.name`, `kellylab.module.name` or
    `ExportedName.attribute` exists."""
    parts = dotted.split(".")
    obj = kellylab
    for name in parts[1:] if parts[0] == "kellylab" else parts:
        if obj is kellylab and name in MODULES:
            obj = importlib.import_module(f"kellylab.{name}")
        elif has(obj, name):
            obj = getattr(obj, name, None)
        else:
            return False
    return True


def readme_names() -> list:
    """The dotted names at the start of README's backquoted spans whose first
    part is kellylab, one of its modules or one of its exports."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = {m.group(1) for span in re.findall(r"`([^`\n]+)`", text)
             if (m := re.match(r"(([A-Za-z_]\w*)(?:\.[A-Za-z_]\w*)+)", span))
             and (m.group(2) in MODULES | {"kellylab"} or hasattr(kellylab, m.group(2)))}
    return sorted(names)


def test_readme_names_exist():
    names = readme_names()
    # The scan sees the module table and the attributes the notes cite.
    assert {"kellylab.drawdown", "ConstraintSpec.slack", "GrowthResult.gap"} <= set(names)
    assert [name for name in names if not resolves(name)] == []


def drawdown_doc_names() -> list:
    """The underscored names the drawdown module docstring cites."""
    return sorted(set(re.findall(r"\b[A-Za-z_][\w.]*_[\w.]*\w|\b_\w+", drawdown.__doc__)))


# Names of the prose that are parameters of drawdown's functions or
# attributes of a model, not attributes of the module.
PARAMETERS = {name for _, fn in inspect.getmembers(drawdown, inspect.isfunction)
              for name in inspect.signature(fn).parameters} | set(dir(GambleModel))


def test_drawdown_docstring_names_exist():
    names = drawdown_doc_names()
    assert {"_ray_best", "REFINE_TOL", "SCREEN_MARGIN", "gamble._checked_factors"} <= set(names)
    assert [name for name in names
            if not (has(drawdown, name) or name in PARAMETERS or resolves(name))] == []


def test_pointers_name_docstring_paragraphs():
    # README "Numerical notes" and the helpers of drawdown point to the
    # module docstring's paragraphs by their first words, in quotes.
    headings = {para.split(".")[0] for para in drawdown.__doc__.split("\n\n")[1:]}
    notes = (ROOT / "README.md").read_text(encoding="utf-8").split("## Numerical notes")[1]
    source = (ROOT / "src" / "kellylab" / "drawdown.py").read_text(encoding="utf-8")
    helpers = source.split('"""', 2)[2]
    for text in (notes, helpers):
        cited = set(re.findall(r'"([A-Z][a-z][\w ]*)"', " ".join(text.split())))
        assert cited and cited <= headings, cited - headings


def test_readme_quick_start_runs_as_written():
    # Statements run in order; a bare expression's value is what the block
    # shows beside it. Each "~ value" comment, in order, is the value the
    # block computes, rounded to the digits it gives.
    text = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start")[1]
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    namespace, shown = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    best, safe = namespace["best"], namespace["safe"]
    assert isinstance(namespace["est"], float) and isinstance(namespace["se"], float)
    constraint = shown[1]
    assert constraint is safe.constraint and not constraint.exact
    computed = [best.k_star[0], best.g_star, shown[0], safe.k_star[0], *constraint]
    cited = re.findall(r"~ (\d+\.\d+)", block)
    assert len(cited) == len(computed) == 6
    for digits, value in zip(cited, computed):
        assert round(value, len(digits.split(".")[1])) == float(digits)
