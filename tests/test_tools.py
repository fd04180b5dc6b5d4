"""Repository tools: tools/count_lines.py, tools/uncovered.py,
tools/compare_cpu.py and tools/peak_memory.py."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_compare_cpu_names_each_op_whose_digest_or_failure_differs(monkeypatch, capsys):
    tool = load_tool("compare_cpu")
    before = {"r000-dd1000-0": (0.1, "01", None), "r000-dd5000-0": (0.2, "02", None),
              "r000-adaptive": (0.3, "03", "not finite"), "r000-probe": (0.4, "0a", "no grid")}
    after = {"r000-dd1000-0": (0.1, "01", None), "r000-dd5000-0": (0.2, "ff", "exit code 1"),
             "r000-adaptive": (0.3, "03", "exit code 1"), "r000-probe": (0.4, "0a", None),
             "r001-adaptive": (0.5, "04", None)}
    lines, differences = tool.report(before, after)
    assert [line.split(",")[0] for line in lines] == [
        "adaptive: 2 ops", "dd1000: 1 ops", "dd5000: 1 ops", "probe: 1 ops"]
    assert lines[0].endswith("CPU 0.300 s -> 0.800 s, 1 digests differ")
    # An op one tree does not plan, a failure that changes its reason, a
    # digest that differs with a failure that appears, a failure that goes.
    assert differences == ["r000-adaptive: known failure 'not finite' -> 'exit code 1'",
                           "r001-adaptive: digest not planned -> 04",
                           "r000-dd5000-0: digest 02 -> ff",
                           "r000-dd5000-0: known failure None -> 'exit code 1'",
                           "r000-probe: known failure 'no grid' -> None"]
    assert tool.report(before, before)[1] == []

    # main measures each workload in turn (stood in for here) and exits 1 on
    # any difference, 0 when both trees agree.
    monkeypatch.setattr(tool, "measure", lambda trees, *rest: [before, after])
    assert tool.main(["before", "after", "--workload", "mc_sweep"]) == 1
    header, *rest = capsys.readouterr().out.splitlines()
    assert header.startswith("mc_sweep: 5 ops in all rounds of seed 0")
    assert ", failures 2 -> 2, before -> after" in header
    assert rest == lines + differences
    monkeypatch.setattr(tool, "measure", lambda trees, *rest: [before, before])
    assert tool.main(["before", "before"]) == 0
    monkeypatch.setattr(tool, "measure", lambda trees, *rest: None)
    assert tool.main(["before", "after"]) == 2
    with pytest.raises(SystemExit, match="2"):
        tool.main(["before"])


def test_compare_cpu_without_rounds_plans_every_op_of_the_pool(monkeypatch):
    tool = load_tool("compare_cpu")
    assert tool.parse_args(["before", "after"]).rounds is None
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # perfbench/ is only read
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    for workload in workloads.WORKLOADS:
        keys = [op.key for op in tool.planned(workloads, workload, 0, None)]
        assert sorted(keys) == sorted(op.key for ops in workloads.pool(workload) for op in ops)


def test_compare_cpu_of_a_tree_with_itself_reports_each_op_kind():
    # One round of each workload: constrained_search holds two c1 ops of each
    # kind, one c2-expected and one c2-surrogate, and mc_sweep an adaptive op,
    # the kind that can fail its answer check. A tree agrees with itself on
    # every digest and failure, so the tool exits 0.
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "compare_cpu.py"), str(ROOT),
                           str(ROOT), "--rounds", "1", "--repeat", "1"],
                          capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    headers = re.findall(r"^(\w+): (\d+) ops in 1 rounds of seed 0, .* failures (\d+) -> \3, ",
                         done.stdout, re.M)
    assert [(name, ops) for name, ops, _ in headers] == [
        ("mc_sweep", "10"), ("constrained_search", "6"), ("exact_portfolio", "25")]
    assert re.findall(r"^(c\d-\w+): .*, 0 digests differ$", done.stdout, re.M) == [
        "c1-expected", "c1-probabilistic", "c2-expected", "c2-surrogate"]


def test_compare_cpu_names_op_kinds_and_differing_digests():
    tool = load_tool("compare_cpu")
    assert [tool.op_kind(key) for key in ("r012-c1-expected-143", "r003-dd5000-2",
                                          "r049-3-ingest", "r000-probe")] == [
        "c1-expected", "dd5000", "ingest", "probe"]
    before = {"r000-c2-expected": (0.2, "a", None), "r001-c2-expected": (0.4, "b", None),
              "r000-probe": (0.1, "c", None)}
    after = {"r000-c2-expected": (0.1, "a", None), "r001-c2-expected": (0.1, "x", None),
             "r000-probe": (0.1, "c", None)}
    lines, differences = tool.report(before, after)
    assert lines == ["c2-expected: 2 ops, median ratio 0.375 (quartiles 0.312-0.438), "
                     "CPU 0.600 s -> 0.200 s, 1 digests differ",
                     "probe: 1 ops, median ratio 1.000 (quartiles 1.000-1.000), "
                     "CPU 0.100 s -> 0.100 s, 0 digests differ"]
    assert differences == ["r001-c2-expected: digest b -> x"]
    assert tool.report({}, {"r000-probe": (0.1, "c", None)})[0] == [
        "probe: 1 ops, median ratio nan (quartiles nan-nan), CPU 0.000 s -> 0.100 s, "
        "1 digests differ"]


def test_peak_memory_times_the_command_apart_from_the_start():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "peak_memory.py"), "--repeat",
                           "1", "--", "optimize", "--coin", "1,-1,0.6"],
                          capture_output=True, text=True, timeout=120, check=True)
    cpu, cmd_cpu = map(float, re.search(r"cpu_s (\S+)  cmd_cpu_s (\S+)", done.stdout).groups())
    assert 0.0 <= cmd_cpu <= cpu
    assert re.search(r"median .* cmd_cpu_s ", done.stdout)
