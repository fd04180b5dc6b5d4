"""Byte-identity of seeded CLI outputs.

Each case runs one small fixed-seed `kellylab` command and compares the
sha256 of its stdout and of every file it writes under --out with digests
recorded before the drawdown layer was rebuilt around one batched kernel.
A change to the sampler, the recursion, the order in which fractions are
evaluated or the tie-break of a search shows here as a changed digest.

To re-record after an intended change of output, run this file as a script:
    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from kellylab.cli import main

OUT = "{out}"   # placeholder for the temporary output directory

CASES = {
    "drawdown-even": (
        "drawdown", "--coin", "1,-1,0.97", "--n", "252", "--paths", "1000",
        "--seed", "5", "--eps", "0.4", "--delta", "0.2", "--out", f"{OUT}/dd"),
    "drawdown-skewed": (
        "drawdown", "--coin", "0.6,-0.45,0.62", "--n", "120", "--paths", "777",
        "--seed", "17", "--k-grid", "13", "--eps", "0.25", "--out", f"{OUT}/dd"),
    "drawdown-exact": (
        "drawdown", "--coin", "0.15,-0.95,0.95", "--n", "12", "--paths", "600",
        "--seed", "2", "--exact", "--out", f"{OUT}/dd"),
    "drawdown-exact-even": (
        "drawdown", "--coin", "1,-1,0.9", "--n", "10", "--paths", "300",
        "--seed", "8", "--k-grid", "11", "--exact", "--out", f"{OUT}/dd"),
    "probe-expected": (
        "probe-convexity", "--coin", "1,-1,0.7", "--coin2", "0.5,-0.4,0.6",
        "--kind", "expected", "--eps", "0.3", "--n", "30", "--paths", "400",
        "--seed", "4", "--pairs", "30", "--out", f"{OUT}/probe"),
    "probe-probabilistic": (
        "probe-convexity", "--coin", "1,-1,0.8", "--coin2", "1,-1,0.75",
        "--kind", "probabilistic", "--eps", "0.35", "--delta", "0.2", "--n", "25",
        "--paths", "300", "--seed", "6", "--grid-resolution", "21", "--out", f"{OUT}/probe"),
    "constrained-1d-expected": (
        "constrained", "--coin", "0.15,-0.95,0.95", "--kind", "expected",
        "--eps", "0.2", "--n", "100", "--paths", "500", "--seed", "3"),
    "constrained-1d-probabilistic": (
        "constrained", "--coin", "1,-1,0.9", "--kind", "probabilistic",
        "--eps", "0.5", "--delta", "0.1", "--n", "60", "--paths", "1000", "--seed", "1"),
    "constrained-2d-scan": (
        "constrained", "--coin", "1,-1,0.9", "--coin2", "1,-1,0.9", "--kind", "expected",
        "--eps", "0.1", "--n", "40", "--paths", "300", "--seed", "7"),
    "constrained-2d-scan-probabilistic": (
        "constrained", "--coin", "1,-1,0.8", "--coin2", "0.5,-0.4,0.6",
        "--kind", "probabilistic", "--eps", "0.3", "--delta", "0.15", "--n", "30",
        "--paths", "250", "--seed", "9"),
    "constrained-2d-surrogate": (
        "constrained", "--coin", "1,-1,0.9", "--coin2", "0.5,-0.4,0.6", "--kind", "surrogate",
        "--eps", "0.2", "--n", "12", "--paths", "300", "--seed", "11"),
}

# (exit code, sha256 of stdout, {output file name: sha256}), recorded at the
# commit before the batched drawdown kernel.
EXPECTED = {
    "constrained-1d-expected": (
        0, "fa4102950fa36e562c84d6917cc4c188c7658f4b15eb68b7d85a14a6747906c5", {}),
    "constrained-1d-probabilistic": (
        0, "6dc7838513efd331d6d24b1798a1f9dedc2aa70425f015f2dfe2dbb99ba4fcc1", {}),
    "constrained-2d-scan": (
        0, "19a72a46135a17940f0d2b073f6087d491bf6c14253cf2072dde74dc686e560e", {}),
    "constrained-2d-scan-probabilistic": (
        0, "f9ed6bb13517abce441c2b72137416d7d68c6bb27e4baa09852a8111ed2a3b69", {}),
    "constrained-2d-surrogate": (
        0, "6124ece6dc3b9ab65b8eb9500e2eb53c7ae975e9c909bcb4d62b2c73d80b1c69", {}),
    "drawdown-even": (
        0, "622ed799ef51a37715bd46dd98f15ddf81935f17cd61416712220886178bfb1d",
        {"dd.expected.csv": "af06a53775b5e0140dce867b2ac65b6f923b86bd92b0716a5f70b58ae0a9277f",
         "dd.prob.csv": "c165b1948f2b31296d90fe66e7247a5781ffd594977362f66b38e60480966394"}),
    "drawdown-exact": (
        0, "09e4ae2bfa46e270df5888b053b6a01e57d0e01307b164380d7ffb5d9d79dcf0",
        {"dd.expected.csv": "c840254addc5df91ec8c3787de3b6816f76f18532c85650e4ddc5dd982234065",
         "dd.prob.csv": "3ee357b0f159b0b585ca3e9cf822d1c6131c7b07ab2990e0b9d4b91b25d72cc1"}),
    "drawdown-exact-even": (
        0, "3a21c6fd2f6a1de2b4abdbd20f2cf2ae1e3b535470686d85b02862e29233b181",
        {"dd.expected.csv": "34bd78a447d413d580ee6c4efbf33a36161c49fb358981f79ff7e88bdcb3e35e",
         "dd.prob.csv": "ae5a0b7923057952f77702036b1aada4598d2d3c8106218f1c30cee92bcc789b"}),
    "drawdown-skewed": (
        0, "a268e9f6ed8733e1b059ce546c20c91347602dc185ccf50f4f6faa215cf03ac8",
        {"dd.expected.csv": "d97ff2839243d4e40ee9ff968970de62a71fd9700259c1951651d03eae2699f0",
         "dd.prob.csv": "a89462b4509fc19d310f49ebdceacc58fab06a7f9461264c8c3c636975d17f32"}),
    "probe-expected": (
        0, "330595319f5022b6e74e12eb4f850daf6dbdeffd5723bb39a382ecf65297bbba",
        {"probe.grid.csv": "91da8b1039d7eb9643132e9e7f09a4e99df7a91e1125d12aeda74c4b2c32a8c2"}),
    "probe-probabilistic": (
        0, "ab38155ef69bb307307505ffdcf7978c6eaf7bd1d7ea95aeaef13236771e101a",
        {"probe.grid.csv": "4793f5fc7016c819f335043428236a759a0f54e412f2bc04860d04591f82341a"}),
}


def run_case(argv) -> tuple:
    """(exit code, stdout digest, {file: digest}) of one CLI run.

    The temporary directory is replaced by OUT in stdout before hashing, so
    the digests do not depend on where the files were written.
    """
    with tempfile.TemporaryDirectory() as tmp:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([a.replace(OUT, tmp) for a in argv])
        stdout = buf.getvalue().replace(tmp, OUT)
        files = {name: hashlib.sha256(open(os.path.join(tmp, name), "rb").read()).hexdigest()
                 for name in sorted(os.listdir(tmp))}
    return code, hashlib.sha256(stdout.encode()).hexdigest(), files


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_is_byte_identical(name):
    assert run_case(CASES[name]) == EXPECTED[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {run_case(CASES[case])!r},")
