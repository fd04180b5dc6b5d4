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
import subprocess
import sys
import tempfile

import pytest

import kellylab
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
    "model3.json": '{"atoms": [{"x": [0.4], "p": 0.45}, {"x": [-0.25], "p": 0.35},'
                   ' {"x": [-0.6], "p": 0.2}]}\n',
    # The independent join of the coins (1, -1, 0.6), (0.5, -0.4, 0.6) and
    # (0.3, -0.3, 0.58), whose unconstrained optimum bets on all three.
    "three-assets.json": '{"atoms": [' + ", ".join(
        f'{{"x": [{a}, {b}, {c}], "p": {p}}}' for a, b, c, p in (
            (1.0, 0.5, 0.3, 0.2088), (1.0, 0.5, -0.3, 0.1512), (1.0, -0.4, 0.3, 0.1392),
            (1.0, -0.4, -0.3, 0.1008), (-1.0, 0.5, 0.3, 0.1392), (-1.0, 0.5, -0.3, 0.1008),
            (-1.0, -0.4, 0.3, 0.0928), (-1.0, -0.4, -0.3, 0.0672))) + "]}\n",
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
    "drawdown-exact-n16": (
        "drawdown", "--coin", "0.6,-0.45,0.62", "--n", "16", "--paths", "400",
        "--seed", "12", "--k-grid", "9", "--exact", "--out", f"{OUT}/dd"),
    # 21 fractions at 2^13 sequences span several enumeration chunks and
    # end in a partial one.
    "drawdown-exact-chunks": (
        "drawdown", "--coin", "0.6,-0.45,0.62", "--n", "13", "--paths", "300",
        "--seed", "15", "--k-grid", "21", "--exact", "--out", f"{OUT}/dd"),
    "drawdown-exact-three-atoms": (
        "drawdown", "--model", f"{OUT}/model3.json", "--n", "9", "--paths", "500",
        "--seed", "13", "--k-grid", "11", "--exact", "--out", f"{OUT}/dd"),
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
    # A 252-step probabilistic bisection and a 50-step 2-asset scan, on
    # 1000 paths: most grid points break the constraint well before step N.
    "constrained-1d-probabilistic-n252": (
        "constrained", "--coin", "0.6,-0.45,0.62", "--kind", "probabilistic",
        "--eps", "0.2", "--delta", "0.1", "--n", "252", "--paths", "1000", "--seed", "21"),
    "constrained-2d-scan-n50": (
        "constrained", "--coin", "1,-1,0.8", "--coin2", "0.5,-0.4,0.6", "--kind", "expected",
        "--eps", "0.2", "--n", "50", "--paths", "1000", "--seed", "23"),
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
    # An enumerable surrogate bisection at the largest N of the benchmark.
    "constrained-1d-surrogate-n15": (
        "constrained", "--coin", "0.8,-0.5,0.6", "--kind", "surrogate", "--eps", "0.15",
        "--n", "15"),
    "constrained-1d-surrogate-mc": (
        "constrained", "--coin", "0.15,-0.95,0.95", "--kind", "surrogate", "--eps", "0.2",
        "--n", "40", "--paths", "300", "--seed", "2"),
    "constrained-2d-surrogate-exact": (
        "constrained", "--coin", "1,-1,0.9", "--coin2", "0.5,-0.4,0.6", "--kind", "surrogate",
        "--eps", "0.2", "--n", "6"),
    # 4^7 sequences: a level of a fan's 9 rays is enumerated in chunks of 4 rows.
    "constrained-2d-surrogate-exact-n7": (
        "constrained", "--coin", "1,-1,0.9", "--coin2", "0.5,-0.4,0.6", "--kind", "surrogate",
        "--eps", "0.2", "--n", "7"),
    # 4^50 sequences: the Monte Carlo fallback, one kernel call per level of each fan.
    "constrained-2d-surrogate-mc-n50": (
        "constrained", "--coin", "1,-1,0.8", "--coin2", "0.5,-0.4,0.6", "--kind", "surrogate",
        "--eps", "0.2", "--n", "50", "--paths", "1000", "--seed", "14"),
    # Two identical coins: g is symmetric in (k1, k2), so grid points can
    # tie exactly and the tie rule of the scan decides the answer.
    "constrained-2d-scan-symmetric": (
        "constrained", "--coin", "1,-1,0.9", "--coin2", "1,-1,0.9", "--kind", "expected",
        "--eps", "0.1", "--n", "50", "--paths", "1000", "--seed", "31"),
    "constrained-2d-scan-probabilistic-n50": (
        "constrained", "--coin", "1,-1,0.9", "--coin2", "0.5,-0.4,0.6",
        "--kind", "probabilistic", "--eps", "0.25", "--delta", "0.1", "--n", "50",
        "--paths", "1000", "--seed", "33"),
    # 4^40 sequences: the Monte Carlo fallback, at a smaller eps.
    "constrained-2d-surrogate-mc-n40": (
        "constrained", "--coin", "1,-1,0.9", "--coin2", "0.5,-0.4,0.6", "--kind", "surrogate",
        "--eps", "0.15", "--n", "40", "--paths", "800", "--seed", "35"),
    # Three assets: the expected-drawdown search is the fan of rays.
    "constrained-3d-expected": (
        "constrained", "--model", f"{OUT}/three-assets.json", "--kind", "expected",
        "--eps", "0.15", "--n", "20", "--paths", "300", "--seed", "19"),
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
    "ingest-reordered-symbols": (
        "ingest", "--data", f"{OUT}/prices.csv", "--symbols", "BBB,AAA",
        "--out", f"{OUT}/ingested.json"),
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
# constraint evaluator; the reordered-symbols ingest case before a price file
# was read into one validated table; the N=16 and three-atom exact drawdown
# cases before enumeration forked its states step by step; the N=50 Monte
# Carlo surrogate case before the surrogate ascent checked its step sizes in
# one batch; the N=13 chunked exact drawdown, N=15 surrogate bisection and
# N=7 surrogate ascent cases before enumeration wrote each atom's children
# into a strided slice and ran a batch of allocations per call; the N=252
# probabilistic refine and N=50 expected scan cases before Monte Carlo
# evaluations stopped at the first chunk of steps that proves a row infeasible;
# the symmetric and N=50 probabilistic scans and the N=40 Monte Carlo surrogate
# before the searches checked their grid points by falling growth and the
# ascent's ladder from its last accepted step; the 1-asset expected and
# probabilistic cases and every 2-asset scan case when the searches bisected
# one ray, and the Monte Carlo surrogate cases when `constrained` began to
# print their standard error; the five 2-asset surrogate cases that are not
# unconstrained-feasible when the surrogate search became a fan of rays; the
# five exact drawdown cases when the exact statistics stopped summing through a
# BLAS dot, and again when they began to sum pairwise; the optimize-model case when the optimizer stopped at its
# first iterate whose projected gradient and last step are both within OPT_TOL;
# the --out files of both optimize cases when the optimizer began to stop on
# its Frank-Wolfe gap and to take the Newton step whenever it rises. The
# three-asset expected case was recorded while the expected and probabilistic
# searches still refused three or more assets, as exit 2 with an empty stdout
# (digest e3b0c442...b855), and re-recorded when the fan of rays began to
# serve them.
EXPECTED = {
    "adaptive-traces": (
        0, "786b777616f66bf92cf5d380b54a3d8c1004c1063c1119941858ff6d479a1cab",
        {"adapt.run0.csv": "d59ce1dd57015007c8fd62be1ac6a0d403b4901aa6ce9e3cf1edcb29819130c4",
         "adapt.run1.csv": "45e5cf416a9d1c7e9f24f1d39f7eaea106db3c690775396b2be6f2375a14fb87"}),
    "constrained-1d-expected": (
        0, "2db26cc1cc7afcf0708a720d05bc4dc6bd4ef0e383cbfe7771d9100e1f372710", {}),
    "constrained-1d-probabilistic": (
        0, "168f151620276b6041437615ff58c14cc9be67dd266c9f8d5c8e309c5f51c054", {}),
    "constrained-1d-probabilistic-n252": (
        0, "855a2413fab75e5fdc496b425de043ea6bf54656d9d0593ab1a121d0e6757f7f", {}),
    "constrained-1d-surrogate": (
        0, "b813811fb93273030a282fe4d26afe73a628c5f4c2678819f84b93128b4c55ec", {}),
    "constrained-1d-surrogate-n15": (
        0, "6ad9ebcd8f20e10d3544aaa22a204a8824872d8d092e99967724647da97a97f9", {}),
    "constrained-1d-surrogate-mc": (
        0, "929a6fa79a224b863a2e0305cf669fc4c917c98fbb793eecc208560aa7df23f6", {}),
    "constrained-1d-surrogate-mc-unconstrained-feasible": (
        0, "535a179635b246dc8bfbd5f4d1c3b6140a4307c93c8b245516dac6e514a4d44f", {}),
    "constrained-1d-unconstrained-feasible": (
        0, "cd4c8ea02074d8380173b7f0fb66c3c2a0344671b9521dd346c90ed11073c6d0", {}),
    "constrained-2d-scan": (
        0, "ca9d2e643679ead9f6473b4aa17b63f3671b89f8ea31ae40b477ce7e5fcc7e17", {}),
    "constrained-2d-scan-n50": (
        0, "738591948d8052f85f115f1eed9394d55dd2bdb797f5c8a16f2b79cd294cd9a8", {}),
    "constrained-2d-scan-probabilistic-n50": (
        0, "fe37f7f7c62638aa8b63f7067b93de51b9d4604b457fc8db73323d88bacca639", {}),
    "constrained-2d-scan-symmetric": (
        0, "939991f97b6e404cc8559d19992449deeaadae65d6dea4fdb46acd1f7d7033a7", {}),
    "constrained-2d-scan-probabilistic": (
        0, "0f479dc51a99cb90009fc7cc5ab3cfbd26f982fe31dd08a33cc6a8c9a89fee2e", {}),
    "constrained-2d-surrogate": (
        0, "b797679c65289cb6e7202ae6f518879d88f75f7c138e15f5ce0dc094e45986b8", {}),
    "constrained-2d-surrogate-exact": (
        0, "c938d093b00716415b9f8ed141420d1c1c63b94f26e077518ff49b803f4ab110", {}),
    "constrained-2d-surrogate-exact-n7": (
        0, "b7f6f332df93994b1da2a759cc9a12d64784becfc6285262b65d0a29b92fdc83", {}),
    "constrained-2d-surrogate-exact-unconstrained-feasible": (
        0, "87737e66a357b2ddca1beed36ec8ae7baac1ad1dbd014239ee480fbd3c8659cf", {}),
    "constrained-2d-surrogate-mc-n40": (
        0, "bbeb50896cfc7767567aadaa18ea9f16d43bdc43d049e1845267c725d3dcef1d", {}),
    "constrained-2d-surrogate-mc-n50": (
        0, "a5e758d0057af4834632181bd008f85e0ecad0cd22389440f126e153c50955cf", {}),
    "constrained-3d-expected": (
        0, "d5a537c04b4118fe24c6d96ad9b08e172efaf104fe160e119bbd6c99e22eb3ef", {}),
    "drawdown-even": (
        0, "622ed799ef51a37715bd46dd98f15ddf81935f17cd61416712220886178bfb1d",
        {"dd.expected.csv": "af06a53775b5e0140dce867b2ac65b6f923b86bd92b0716a5f70b58ae0a9277f",
         "dd.prob.csv": "c165b1948f2b31296d90fe66e7247a5781ffd594977362f66b38e60480966394"}),
    "drawdown-exact": (
        0, "09e4ae2bfa46e270df5888b053b6a01e57d0e01307b164380d7ffb5d9d79dcf0",
        {"dd.expected.csv": "21d5ad096916a9796795db4974d7d02cdfc559f1cb13a8e82c05a8ace8fb0522",
         "dd.prob.csv": "3ee357b0f159b0b585ca3e9cf822d1c6131c7b07ab2990e0b9d4b91b25d72cc1"}),
    "drawdown-exact-chunks": (
        0, "910a9a9c600ffde1243821c57d37ecd94e8ed66fea370683bcf95b15c67b9251",
        {"dd.expected.csv": "4fe7dfaf44462e345fa59ef6d963c1eb59c4f10cdec8b4eafaab069adce31e24",
         "dd.prob.csv": "4a94678e4ef305f20f60ee22805d78b93bc81a4145a2aaeffb6ab4c7466490fb"}),
    "drawdown-exact-even": (
        0, "3a21c6fd2f6a1de2b4abdbd20f2cf2ae1e3b535470686d85b02862e29233b181",
        {"dd.expected.csv": "c31711eef85f804eace50bd0e89a8a0c8541052a85d28024f2ccde91dc0bd913",
         "dd.prob.csv": "ae5a0b7923057952f77702036b1aada4598d2d3c8106218f1c30cee92bcc789b"}),
    "drawdown-exact-n16": (
        0, "fe5d2540fae40c06d13d83833ce670804514080aadea9a2f9ed749d6c5fff585",
        {"dd.expected.csv": "176d3ed187f69d78a0d6fa8a156dee24cfe4429ecdfd32aafde67b031e25230c",
         "dd.prob.csv": "7199dd1f3c6528bb6d7ead17724800ce486d09d6782a7f799148d70914d32d8a"}),
    "drawdown-exact-three-atoms": (
        0, "ee2abde241dd149c9a63a52c56e2875aad82b33a426280fb9631d175e19c1083",
        {"dd.expected.csv": "53a86f43d2d0af1a7cd5607bf2e7423da340ea48675e6301401290c1d0e9c212",
         "dd.prob.csv": "fcfa1920561aa33750e159db4c95c89f70ec82b922101394d6839bdd176609ef"}),
    "drawdown-skewed": (
        0, "a268e9f6ed8733e1b059ce546c20c91347602dc185ccf50f4f6faa215cf03ac8",
        {"dd.expected.csv": "d97ff2839243d4e40ee9ff968970de62a71fd9700259c1951651d03eae2699f0",
         "dd.prob.csv": "a89462b4509fc19d310f49ebdceacc58fab06a7f9461264c8c3c636975d17f32"}),
    "ingest-blank-cell": (
        0, "ae190274ab2e9299e73ac37beb852d135a82d48c5c1d3f1bfc2cb677a715e40a",
        {"ingested.json": "4471bc3d918d2cfdc3a9cfe919521c79510a5abf89fbdaa6d97ec2c5ce0409a6"}),
    "ingest-reordered-symbols": (
        0, "26bac0ef26e42da43f22e33b0e0f7a9aea841ba7009c872de61b630e655fe2da",
        {"ingested.json": "4ac8f946b1fb8d9977b405d437880ed148cdcf44d05d0ea8abb77a3376e6dcf4"}),
    "optimize-model-csv": (
        0, "0068918be5d0a18b950964ace6c069d331c90411a0dc6ec36ebcec3ba7846ec5",
        {"opt.csv": "496f7b122d3a1004a016b53b33be88f97fdb8b9d13b0436c57c9722e248a2f7d"}),
    "optimize-two-coins-json": (
        0, "44f388f7481e98912b08f1dc14ceca3f9254e051a6eeaeaa3f7bf34e00c14d99",
        {"opt.json": "3fb76eafb45e315ff39bb9e0778105064616eed6b8257057362e45a386780249"}),
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


def test_repeated_constrained_run_prints_the_same_bytes():
    argv = CASES["constrained-2d-surrogate-mc-n50"]
    assert run_case(argv) == run_case(argv)


def test_exact_digests_do_not_depend_on_the_blas_thread_count():
    # The N=16 case sums 2^16 sequence probabilities per fraction; a BLAS dot
    # of more than 10^4 terms splits its sum across threads, so its last
    # digit would follow OPENBLAS_NUM_THREADS.
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import test_golden as t; "
            "print(t.run_case(t.CASES['drawdown-exact-n16']))")
    paths = [os.path.dirname(os.path.dirname(kellylab.__file__)), os.path.dirname(__file__)]
    outs = [subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True,
                           check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1] == f"{EXPECTED['drawdown-exact-n16']}\n"


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {run_case(CASES[case])!r},")
