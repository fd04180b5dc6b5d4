"""Repository tools: tools/count_lines.py."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
COUNT_LINES = ROOT / "tools" / "count_lines.py"


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
