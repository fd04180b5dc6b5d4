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

# Input files written into the output directory before each case runs; they
# are not part of a case's digests.
INPUTS = {
    # Row 3 has a blank BBB cell, so ingest drops it and reports it.
    "prices.csv": "date,AAA,BBB\n" + "".join(
        f"2013-01-{d:02d},{100.0 + (3 * d) % 7 - d / 4!r},{50.0 + (5 * d) % 11 + d / 3!r}\n"
        if d != 4 else f"2013-01-{d:02d},{100.0 + d!r},\n"
        for d in range(1, 16)),
    "model.json": '{"atoms": [{"x": [0.5, -0.2], "p": 0.3}, {"x": [-0.3, 0.4], "p": 0.25},'
                  ' {"x": [0.1, 0.1], "p": 0.25}, {"x": [-0.2, -0.1], "p": 0.2}]}\n',
}

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
    "constrained-1d-surrogate": (
        "constrained", "--coin", "1,-1,0.9", "--kind", "surrogate", "--eps", "0.3",
        "--n", "10"),
    "constrained-1d-surrogate-mc": (
        "constrained", "--coin", "0.15,-0.95,0.95", "--kind", "surrogate", "--eps", "0.2",
        "--n", "40", "--paths", "300", "--seed", "2"),
    "constrained-2d-surrogate-exact": (
        "constrained", "--coin", "1,-1,0.9", "--coin2", "0.5,-0.4,0.6", "--kind", "surrogate",
        "--eps", "0.2", "--n", "6"),
    "adaptive-traces": (
        "adaptive", "--p-true", "0.6", "--n", "300", "--window", "40", "--runs", "2",
        "--seed", "3", "--out", f"{OUT}/adapt"),
    "optimize-two-coins-json": (
        "optimize", "--coin", "0.15,-0.95,0.95", "--coin2", "1,-1,0.6",
        "--out", f"{OUT}/opt.json"),
    "optimize-model-csv": (
        "optimize", "--model", f"{OUT}/model.json", "--format", "csv",
        "--out", f"{OUT}/opt.csv"),
    "ingest-blank-cell": (
        "ingest", "--data", f"{OUT}/prices.csv", "--out", f"{OUT}/ingested.json"),
    "constrained-1d-unconstrained-feasible": (
        "constrained", "--coin", "0.15,-0.95,0.95", "--kind", "expected", "--eps", "0.99",
        "--n", "20", "--paths", "300"),
    "constrained-1d-surrogate-mc-unconstrained-feasible": (
        "constrained", "--coin", "0.15,-0.95,0.95", "--kind", "surrogate", "--eps", "0.99",
        "--n", "40", "--paths", "300"),
    "constrained-2d-surrogate-exact-unconstrained-feasible": (
        "constrained", "--coin", "1,-1,0.7", "--coin2", "1,-1,0.6", "--kind", "surrogate",
        "--eps", "0.99", "--n", "6"),
}

# (exit code, sha256 of stdout, {output file name: sha256}). The drawdown,
# probe and first five constrained cases were recorded before the batched
# drawdown kernel; the surrogate, adaptive and optimize cases before the
# boundary rule moved onto ConstraintSpec.slack; the ingest, optimize-model
# and unconstrained-feasible cases before the constrained searches shared one
# constraint evaluator.
EXPECTED = {
    "adaptive-traces": (
        0, "786b777616f66bf92cf5d380b54a3d8c1004c1063c1119941858ff6d479a1cab",
        {"adapt.run0.csv": "d59ce1dd57015007c8fd62be1ac6a0d403b4901aa6ce9e3cf1edcb29819130c4",
         "adapt.run1.csv": "45e5cf416a9d1c7e9f24f1d39f7eaea106db3c690775396b2be6f2375a14fb87"}),
    "constrained-1d-expected": (
        0, "fa4102950fa36e562c84d6917cc4c188c7658f4b15eb68b7d85a14a6747906c5", {}),
    "constrained-1d-probabilistic": (
        0, "6dc7838513efd331d6d24b1798a1f9dedc2aa70425f015f2dfe2dbb99ba4fcc1", {}),
    "constrained-1d-surrogate": (
        0, "80e0540a8ab32680f3f594394fb022e4f949a4afe986bbd5a413f8e1652865dc", {}),
    "constrained-1d-surrogate-mc": (
        0, "7ce9765db30445ebeca351569dbce05462df9e47a75f11bbff9c056de53dab8a", {}),
    "constrained-1d-surrogate-mc-unconstrained-feasible": (
        0, "dae0f48c61e5c0cc8dbf5aa349914ff2a5b392e3759c117763576c92f2cbf0ad", {}),
    "constrained-1d-unconstrained-feasible": (
        0, "cd4c8ea02074d8380173b7f0fb66c3c2a0344671b9521dd346c90ed11073c6d0", {}),
    "constrained-2d-scan": (
        0, "19a72a46135a17940f0d2b073f6087d491bf6c14253cf2072dde74dc686e560e", {}),
    "constrained-2d-scan-probabilistic": (
        0, "f9ed6bb13517abce441c2b72137416d7d68c6bb27e4baa09852a8111ed2a3b69", {}),
    "constrained-2d-surrogate": (
        0, "6124ece6dc3b9ab65b8eb9500e2eb53c7ae975e9c909bcb4d62b2c73d80b1c69", {}),
    "constrained-2d-surrogate-exact": (
        0, "b559e2958781a07e1d2c47593768e0aa534bd5620fb37a2407bc2497075d40fd", {}),
    "constrained-2d-surrogate-exact-unconstrained-feasible": (
        0, "87737e66a357b2ddca1beed36ec8ae7baac1ad1dbd014239ee480fbd3c8659cf", {}),
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
    "ingest-blank-cell": (
        0, "ae190274ab2e9299e73ac37beb852d135a82d48c5c1d3f1bfc2cb677a715e40a",
        {"ingested.json": "4471bc3d918d2cfdc3a9cfe919521c79510a5abf89fbdaa6d97ec2c5ce0409a6"}),
    "optimize-model-csv": (
        0, "0068918be5d0a18b950964ace6c069d331c90411a0dc6ec36ebcec3ba7846ec5",
        {"opt.csv": "28ab670ceddec15e6ac8e2cf4c4d15a6e9d5b01ebe127e1ba53f335a7243afc9"}),
    "optimize-two-coins-json": (
        0, "44f388f7481e98912b08f1dc14ceca3f9254e051a6eeaeaa3f7bf34e00c14d99",
        {"opt.json": "9ba1cfe637aeaac5622723acfff9991beb0432d6c649b88b73b8664ea961a409"}),
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
        for name, text in INPUTS.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([a.replace(OUT, tmp) for a in argv])
        stdout = buf.getvalue().replace(tmp, OUT)
        files = {name: hashlib.sha256(open(os.path.join(tmp, name), "rb").read()).hexdigest()
                 for name in sorted(os.listdir(tmp)) if name not in INPUTS}
    return code, hashlib.sha256(stdout.encode()).hexdigest(), files


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_is_byte_identical(name):
    assert run_case(CASES[name]) == EXPECTED[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {run_case(CASES[case])!r},")
