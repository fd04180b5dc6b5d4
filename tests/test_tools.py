"""Repository tools: tools/count_lines.py, tools/uncovered.py,
tools/compare_answers.py and tools/compare_cpu.py."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
COUNT_LINES = ROOT / "tools" / "count_lines.py"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def count_lines(*dirs) -> list:
    done = subprocess.run([sys.executable, str(COUNT_LINES), *map(str, dirs)],
                          capture_output=True, text=True, timeout=60, check=True)
    return [line.split() for line in done.stdout.splitlines()]


def test_a_tree_compared_with_itself_nets_zero():
    package = ROOT / "src" / "kellylab"
    alone = count_lines(package)
    rows = count_lines(package, package)
    assert [row[0] for row in rows] == [row[0] for row in alone]
    for row, counts in zip(rows, alone):
        # name, before, ->, after, net, total change, code change
        assert row[1:3] == row[4:6] == counts[1:3]
        assert row[6:] == ["net", "+0", "+0"]


def test_net_change_counts_each_module(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir()
    after.mkdir()
    (before / "a.py").write_text('"""Doc."""\n\nx = 1\n# note\ny = 2\n', encoding="utf-8")
    (after / "a.py").write_text('"""Doc."""\nx = 1\n', encoding="utf-8")
    (after / "b.py").write_text("z = 3\n", encoding="utf-8")
    assert count_lines(before, after) == [
        ["a.py", "5", "2", "->", "2", "1", "net", "-3", "-1"],
        ["b.py", "0", "0", "->", "1", "1", "net", "+1", "+1"],
        ["total", "5", "2", "->", "3", "2", "net", "-2", "+0"],
    ]


# Line numbers follow the layout below: 5 LIMIT, 10 if, 11 return, ...
SYNTHETIC = '''"""Doc."""

import math

LIMIT = 3


def f(x):
    """Doc."""
    if x > LIMIT:
        return "big"
    try:
        y = math.sqrt(x)
    except ValueError:
        y = None
    while True:
        break
    for _ in range(2):
        pass
    total = (x
             + 1)
    if x < -10:
        raise ValueError(
            "tiny")
    elif x < 0:
        y = 0
    else:
        pass
    return y, total


class C:
    a: int = 1

    def g(self):
        return [
            1,
        ]
'''


def test_uncovered_lists_each_statement_no_traced_frame_ran(tmp_path):
    tool = load_tool("uncovered")
    # Docstrings, the import, def and class lines are not statements to run;
    # a compound statement owns its header, a simple one all of its lines.
    listed = tool.statements(SYNTHETIC)
    assert sorted(listed) == [5, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 22, 23, 25, 26, 28,
                              29, 33, 36]
    assert (list(listed[20]), list(listed[23]), list(listed[36])) == ([20, 21], [23, 24],
                                                                      [36, 37, 38])
    path = tmp_path / "mod.py"
    path.write_text(SYNTHETIC, encoding="utf-8")
    outer = sys.gettrace()
    seen = tool.start_tracing(tmp_path)
    try:
        namespace = {}
        exec(compile(SYNTHETIC, str(path), "exec"), namespace)
        namespace["f"](1)
    finally:
        sys.settrace(outer)
    assert tool.unrun(path, seen) == [(11, 'return "big"'), (15, "y = None"),
                                      (23, "raise ValueError("), (26, "y = 0"), (36, "return [")]


def reference(digests, known_failures):
    return {"digests": digests, "known_failures": known_failures}


def test_compare_answers_names_each_drifted_op_and_changed_failure(monkeypatch, capsys):
    tool = load_tool("compare_answers")
    before = reference({"mc": {"a": "01", "b": "02", "c": "03"}, "ex": {"x": "0a"}},
                       {"mc": {"c": "not finite"}, "ex": {"x": "no convergence"}})
    after = reference({"mc": {"a": "01", "b": "ff", "d": "04"}, "ex": {"x": "0a"}},
                      {"mc": {"c": "not finite", "d": "not finite"}, "ex": {}})
    summary, differences = tool.compare(before, after)
    assert summary == ["ex: 1 ops, 0 digests differ, known failures 1 -> 0",
                       "mc: 4 ops, 3 digests differ, known failures 1 -> 2"]
    assert differences == ["ex x: known failure 'no convergence' -> None",
                           "mc b: digest 02 -> ff", "mc c: digest 03 -> None",
                           "mc d: digest None -> 04",
                           "mc d: known failure None -> 'not finite'"]
    assert tool.compare(before, before) == (
        ["ex: 1 ops, 0 digests differ, known failures 1 -> 1",
         "mc: 3 ops, 0 digests differ, known failures 1 -> 1"], [])

    # main records each tree in turn (stood in for here) and exits 1 on a difference.
    recorded = iter([before, after, before, before])
    monkeypatch.setattr(tool, "record", lambda tree, scratch: next(recorded))
    assert tool.main(["before", "after"]) == 1
    assert capsys.readouterr().out.splitlines()[2:] == summary + differences
    assert tool.main(["before", "before"]) == 0
    assert tool.main(["before"]) == 2


def test_compare_cpu_of_a_tree_with_itself_reports_each_op_kind():
    # One round of constrained_search holds two c1 ops of each kind, one
    # c2-expected and one c2-surrogate; a tree agrees with itself on every
    # digest, so the tool exits 0.
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "compare_cpu.py"), str(ROOT),
                           str(ROOT), "--workload", "constrained_search", "--rounds", "1",
                           "--repeat", "1"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header.startswith("constrained_search: 6 ops in 1 rounds of seed 0")
    assert [line.split(":")[0] for line in lines] == [
        "c1-expected", "c1-probabilistic", "c2-expected", "c2-surrogate"]
    assert all(line.endswith(", 0 digests differ") for line in lines)


def test_compare_cpu_names_op_kinds_and_differing_digests():
    tool = load_tool("compare_cpu")
    assert [tool.op_kind(key) for key in ("r012-c1-expected-143", "r003-dd5000-2",
                                          "r049-3-ingest", "r000-probe")] == [
        "c1-expected", "dd5000", "ingest", "probe"]
    keys = ["r000-c2-expected", "r001-c2-expected", "r000-probe"]
    before = {"r000-c2-expected": (0.2, "a"), "r001-c2-expected": (0.4, "b"),
              "r000-probe": (0.1, "c")}
    after = {"r000-c2-expected": (0.1, "a"), "r001-c2-expected": (0.1, "x"),
             "r000-probe": (0.1, "c")}
    lines, differing = tool.report(keys, before, after)
    assert lines == ["c2-expected: 2 ops, median ratio 0.375 (quartiles 0.312-0.438), "
                     "CPU 0.600 s -> 0.200 s, 1 digests differ",
                     "probe: 1 ops, median ratio 1.000 (quartiles 1.000-1.000), "
                     "CPU 0.100 s -> 0.100 s, 0 digests differ"]
    assert differing == ["r001-c2-expected"]
