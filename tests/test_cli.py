import argparse
import json
import math
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

from jchlab import parse_metric, pointwise_distance, read_points
from jchlab.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_turan_command(capsys):
    code, out = run(capsys, "turan", "--z", "4")
    assert code == 0
    assert "24/125" in out
    assert "provenance=formula" in out


def test_factors_command(capsys):
    code, out = run(capsys, "factors", "--p", "1", "--delta", "1",
                    "--alpha", "0.6321")
    assert code == 0
    assert "zeta1=1.73" in out and "zeta2=3.94" in out


def test_factors_exact_fraction_alpha(capsys):
    code, out = run(capsys, "factors", "--p", "1", "--delta", "2",
                    "--alpha", "7/8", "--format", "json-lines")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs[1]["zeta1"] == "9/8" and recs[1]["zeta2"] == "11/8"


def test_factors_empirical_p(capsys):
    code, out = run(capsys, "factors", "--p", "4", "--delta", "1",
                    "--alpha", "0.5", "--q", "4", "--format", "json-lines")
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    assert rec["provenance"] == "empirical-exhaustive"
    assert rec["gamma"] >= 3 / 4 ** 0.25 - 1e-9


def test_gen_solve_roundtrip(tmp_path, capsys):
    path = tmp_path / "inst.jc"
    code, _ = run(capsys, "gen-jc", "--kind", "complete", "--n", "4", "--z", "3",
                  "--y", "2", "--k", "2", "-o", str(path))
    assert code == 0
    assert path.read_text().splitlines()[0] == "jc 4 3 2 2"
    code, out = run(capsys, "solve-jc", "-i", str(path), "--alg", "brute")
    assert code == 0 and "complete=True" in out
    code, out = run(capsys, "solve-jc", "-i", str(path), "--alg", "fpt")
    assert code == 0 and "full_cover=True" in out


def test_verify_embed(capsys):
    code, out = run(capsys, "verify-embed", "--metric", "l1", "--q", "5",
                    "--t", "3", "--s", "2")
    assert code == 0
    assert "certified_ratio=3" in out


def test_verify_embed_restricted(tmp_path, capsys):
    inst = tmp_path / "sub.jc"
    run(capsys, "gen-jc", "--kind", "random", "--n", "5", "--z", "3", "--y", "2",
        "--k", "2", "--m", "3", "--seed", "1", "-o", str(inst))
    code, out = run(capsys, "verify-embed", "--metric", "l1", "--q", "5",
                    "--t", "3", "--s", "2", "--restrict", str(inst))
    assert code == 0


def test_reduce_cost_brute(tmp_path, capsys):
    inst = tmp_path / "inst.jc"
    pts = tmp_path / "pts.txt"
    run(capsys, "gen-jc", "--kind", "complete", "--n", "4", "--z", "3", "--y", "2",
        "--k", "2", "-o", str(inst))
    code, out = run(capsys, "reduce", "-i", str(inst), "--mode", "discrete",
                    "--metric", "l1", "--q", "5", "--eta", "1", "-o", str(pts))
    assert code == 0 and "base_distance=5" in out
    code, out = run(capsys, "cost", "-i", str(pts), "--centers", "1,2", "3,4")
    assert code == 0 and "total=20" in out
    code, out = run(capsys, "brute-opt", "-i", str(pts), "--mode", "discrete")
    assert code == 0 and "cost=20" in out


def test_reduce_continuous(tmp_path, capsys):
    inst = tmp_path / "inst.jc"
    pts = tmp_path / "cont.txt"
    run(capsys, "gen-jc", "--kind", "complete", "--n", "4", "--z", "3", "--y", "2",
        "--k", "2", "-o", str(inst))
    run(capsys, "reduce", "-i", str(inst), "--mode", "continuous",
        "--metric", "l2", "-o", str(pts))
    code, out = run(capsys, "brute-opt", "-i", str(pts), "--mode", "continuous")
    assert code == 0 and "cost=2.0" in out


def test_reduce_continuous_l0_default_exponent(tmp_path, capsys):
    # without --exponent a continuous l0 instance takes 1, the exponent its center rule needs
    inst, pts = tmp_path / "inst.jc", tmp_path / "l0.pts"
    run(capsys, "gen-jc", "--kind", "complete", "--n", "4", "--z", "3", "--y", "2",
        "--k", "2", "-o", str(inst))
    assert run(capsys, "reduce", "-i", str(inst), "--mode", "continuous",
               "--metric", "l0", "-o", str(pts))[0] == 0
    assert pts.read_text().split("\n")[0] == "ptsc indicator l0 1 2 4 4"
    assert run(capsys, "brute-opt", "-i", str(pts), "--mode", "continuous")[0] == 0


def test_brute_opt_continuous_repeated_row(tmp_path, capsys):
    # Weiszfeld stops at the repeated row of the one-block partition instead of cycling
    pts = tmp_path / "rep.pts"
    pts.write_text("pts 5 l2 1 2\n1,2 1 1 1 0 1\n1,3 1 1 1 0 1\n1,4 1 0 0 0 0\n1,5 0 0 0 1 1\n")
    code, out = run(capsys, "brute-opt", "-i", str(pts), "--mode", "continuous",
                    "--format", "json-lines")
    assert code == 0
    assert abs(json.loads(out.splitlines()[1])["cost"] - math.sqrt(3)) <= 1e-9


def test_brute_opt_continuous_median_at_row(tmp_path, capsys):
    # the median is row 1, which no Weiszfeld iterate reaches: each row is tested first
    pts = tmp_path / "w.pts"
    pts.write_text("pts 2 l2 1 1\n1 0 0\n2 10 0\n3 -41 71\n")
    code, out = run(capsys, "brute-opt", "-i", str(pts), "--mode", "continuous")
    assert code == 0 and "record=optimum cost=91.98780397107853 witness=[[0,1,2]] " in out


FLOAT_ROWS = ("1 0.5 1.25 -0.75\n2 2.0 -1.5 0.3\n3 -1.1 0.7 2.4\n4 3.3 2.2 -0.9\n"
              "5 0.1 -2.6 1.8\n6 -2.7 1.9 0.45\n7 1.6 0.05 -2.2\n")


@pytest.mark.parametrize("header, cost", [("pts 3 l2 1 2", "13.803831187606828"),
                                          ("pts 3 l1 2 2", "67.40375017702583")],
                         ids=["l2-weiszfeld", "l1-squared"])
def test_brute_opt_continuous_float_costs_pinned(tmp_path, capsys, header, cost):
    # the float center rules sum by math.fsum, so every Python version prints these bytes
    pts = tmp_path / "f.pts"
    pts.write_text(f"{header}\n{FLOAT_ROWS}")
    code, out = run(capsys, "brute-opt", "-i", str(pts), "--mode", "continuous")
    assert code == 0
    assert f"record=optimum cost={cost} witness=[[0,1,3,6],[2,4,5]] " in out


def test_brute_opt_continuous_l1_large_ints(tmp_path, capsys):
    # coordinates near +-2^62: a difference passes the int64 range, so block costs are
    # summed as Python ints; each block cost is a float in the total, as for any float rule
    rng = random.Random(7)
    rows = [[rng.choice((-1, 1)) * (2 ** 62 - rng.randrange(2 ** 20)) for _ in range(5)]
            for _ in range(7)]
    pts = tmp_path / "big.pts"
    pts.write_text("pts 5 l1 1 2\n" + "".join(
        f"1,{i + 2} {' '.join(map(str, row))}\n" for i, row in enumerate(rows)))

    def block_cost(block):
        center = [sorted(col)[(len(block) - 1) // 2] for col in zip(*(rows[i] for i in block))]
        return sum(abs(a - b) for i in block for a, b in zip(rows[i], center))

    # the partitions of the 7 rows into at most 2 blocks, row 0 in the first
    partitions = [[[0, *(i for i in range(1, 7) if not mask >> i & 1)],
                   [i for i in range(1, 7) if mask >> i & 1]] for mask in range(0, 128, 2)]
    best = min(partitions, key=lambda part: sum(block_cost(b) for b in part if b))
    want = sum(float(block_cost(b)) for b in best if b)
    witness = json.dumps([b for b in best if b], separators=(",", ":"))
    code, out = run(capsys, "brute-opt", "-i", str(pts), "--mode", "continuous")
    assert code == 0 and f"record=optimum cost={want!r} witness={witness} " in out


POINTS_N4 = ["1,2,3", "1,2,4", "1,3,4", "2,3,4"]
CENTERS_N4 = ["1,2", "1,3", "1,4", "2,3", "2,4", "3,4"]


def construction(header, rows=(*POINTS_N4, *CENTERS_N4)):
    return "\n".join((header, *rows)) + "\n"


GOOD = "ptsc composed l1 1 2 4 5 1 indicator 3 2 4 6"
BAD_CONSTRUCTIONS = {
    "bare-ptsc": construction("ptsc", ()),
    "short-header": construction(GOOD.rsplit(" ", 1)[0]),
    "long-header": construction(GOOD + " 0"),
    "unknown-construction": construction(GOOD.replace("composed", "blocks")),
    "unknown-kind": construction(GOOD.replace("indicator", "sparse")),
    "kind-of-another-metric": construction(GOOD.replace("indicator", "scaled")),
    "halfshift-needs-s-of-t-1": construction(
        "ptsc composed lp3 1 2 4 5 1 halfshift 3 1 4 4", (*POINTS_N4, "1", "2", "3", "4")),
    "bad-metric": construction(GOOD.replace("l1", "lq")),
    "word-field": construction(GOOD.replace(" 6", " six")),
    "negative-field": construction(GOOD.replace("l1 1 2", "l1 -1 2")),
    "zero-exponent": construction(GOOD.replace("l1 1 2", "l1 0 2")),
    "zero-k": construction(GOOD.replace("l1 1 2", "l1 1 0")),
    "short-label": construction(GOOD, ("1,2", *POINTS_N4[1:], *CENTERS_N4)),
    "label-out-of-range": construction(GOOD, ("1,2,5", *POINTS_N4[1:], *CENTERS_N4)),
    "label-not-ascending": construction(GOOD, ("2,1,3", *POINTS_N4[1:], *CENTERS_N4)),
    "center-label-size": construction(GOOD, (*POINTS_N4, "1,2,3", *CENTERS_N4[1:])),
    "duplicate-labels": construction(GOOD, ("1,2,3", *POINTS_N4[:-1], *CENTERS_N4)),
    "word-label": construction(GOOD, ("1,2,x", *POINTS_N4[1:], *CENTERS_N4)),
    "dense-row": construction(GOOD, ("1,2,3 0 1", *POINTS_N4[1:], *CENTERS_N4)),
    "more-rows": construction(GOOD, (*POINTS_N4, *CENTERS_N4, "1,2")),
    "fewer-rows": construction(GOOD, (*POINTS_N4, *CENTERS_N4[1:])),
    "non-prime-q": construction(GOOD.replace(" 5 1 ", " 6 1 ")),
    "q-eta-below-n": construction(GOOD.replace(" 2 4 5 ", " 2 6 5 ")),
    "no-point-rows": construction(GOOD.replace(" 4 6", " 0 6"), CENTERS_N4),
    "no-center-rows": construction(GOOD.replace(" 4 6", " 4 0"), POINTS_N4),
    "indicator-no-rows": construction("ptsc indicator l2 2 2 4 0", ()),
    "indicator-mixed-sizes": construction("ptsc indicator l2 2 2 4 5", (*POINTS_N4, "1,2")),
    "indicator-lp": construction("ptsc indicator lp3 1 2 4 4", POINTS_N4),
    "indicator-no-center-rule": construction("ptsc indicator l0 2 2 4 4", POINTS_N4),
}


@pytest.mark.parametrize("name", list(BAD_CONSTRUCTIONS))
@pytest.mark.parametrize("command", [["cost", "--centers", "1,2"],
                                     ["brute-opt", "--mode", "discrete"]],
                         ids=["cost", "brute-opt"])
def test_bad_construction_file_exits_2(tmp_path, capsys, name, command):
    path = tmp_path / "bad.pts"
    path.write_text(BAD_CONSTRUCTIONS[name])
    assert main([*command, "-i", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_construction_file_too_large_to_rebuild_exits_3(tmp_path, capsys):
    # 10 rows of 8191^2 coordinates, or 4 of 2^24: refused where rows are built, before
    # any is; scoring by class and by column counts builds none
    path = tmp_path / "big.pts"
    path.write_text(construction(GOOD.replace(" 5 1 ", " 8191 1 ")))
    assert main(["cost", "--center-coords", "0", "-i", str(path)]) == 3
    assert capsys.readouterr().err == \
        "budget exceeded: 670924810 coordinates exceed budget 33554432\n"
    assert main(["brute-opt", "--mode", "discrete", "-i", str(path)]) == 0
    assert "cost=32764 " in capsys.readouterr().out
    # the supports themselves, 1398107 blocks of 3 or 2 symbols per row, are refused at read
    path.write_text(construction(GOOD.replace(" 5 1 ", " 1398107 1 ")))
    assert main(["brute-opt", "--mode", "discrete", "-i", str(path)]) == 3
    assert capsys.readouterr().err == \
        "budget exceeded: 33554568 support coordinates exceed budget 33554432\n"
    path.write_text(construction("ptsc indicator l2 1 2 16777216 4", POINTS_N4))
    assert main(["brute-opt", "--mode", "continuous", "-i", str(path)]) == 3
    assert capsys.readouterr().err == \
        "budget exceeded: 67108864 coordinates exceed budget 33554432\n"
    path.write_text(construction("ptsc indicator l2 2 2 16777216 4", POINTS_N4))
    assert main(["brute-opt", "--mode", "continuous", "-i", str(path)]) == 0
    assert "cost=2.0 " in capsys.readouterr().out
    path.write_text(construction(GOOD))
    assert main(["brute-opt", "--mode", "discrete", "-i", str(path)]) == 0


def test_sdp_gap_command(capsys):
    code, out = run(capsys, "sdp-gap", "--n", "6", "--t", "5",
                    "--extra-centers", "0.0")
    assert code == 0
    assert "asymptotic_gap=149/125" in out
    assert "finite_size_deviation=True" in out


def test_sdp_gap_certifies_n100(capsys):
    code, out = run(capsys, "sdp-gap", "--n", "100", "--extra-centers")
    assert code == 0
    assert "points=3921225" in out and "sdp_objective=7842450" in out


def test_hvc_and_densify(tmp_path, capsys):
    pcp = tmp_path / "toy.pcp"
    pcp.write_text("pcp 2\nlayer 1 1 a\nlayer 2 1 b\nedge 1 2 a b 0\n")
    assign = tmp_path / "assign.txt"
    assign.write_text("1 a 0\n2 b 0\n")
    whg = tmp_path / "toy.whg3"
    code, out = run(capsys, "hvc-build", "-i", str(pcp), "--delta", "0",
                    "--assignment", str(assign), "-o", str(whg))
    assert code == 0
    assert "edge_weight_total=1" in out and "cover_weight=1/2" in out
    hg3 = tmp_path / "toy.hg3"
    code, out = run(capsys, "densify", "-i", str(whg), "--b", "8", "--c", "181",
                    "--seed", "1", "-o", str(hg3))
    assert code == 0 and "meets_bound=True" in out


def test_exit_code_usage(capsys):
    code = main(["sdp-gap", "--n", "4"])
    capsys.readouterr()
    assert code == 2


def test_exit_code_budget(tmp_path, capsys):
    inst = tmp_path / "inst.jc"
    run(capsys, "gen-jc", "--kind", "complete", "--n", "6", "--z", "3", "--y", "2",
        "--k", "3", "-o", str(inst))
    code = main(["solve-jc", "-i", str(inst), "--alg", "brute", "--budget", "2"])
    capsys.readouterr()
    assert code == 3


def test_exit_code_certification(capsys):
    # residuals around 1e-16 cannot meet an absurd 1e-30 tolerance
    code = main(["sdp-gap", "--n", "6", "--tol", "1e-30"])
    capsys.readouterr()
    assert code == 1


def test_byte_identical_reports(capsys):
    args = ["verify-embed", "--metric", "l2", "--q", "5", "--t", "3", "--s", "2",
            "--format", "json-lines"]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_json_lines_parse(capsys):
    code, out = run(capsys, "sdp-gap", "--n", "6", "--format", "json-lines",
                    "--extra-centers", "0.0")
    assert code == 0
    for line in out.splitlines():
        rec = json.loads(line)
        assert "record" in rec


def run_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


# the demo's two-symbol identity system
TOY_PCP = "pcp 2\nlayer 1 2 u\nlayer 2 2 v\nedge 1 2 u v 0 1\n"
# two points in the plane, one candidate center
PTS = "pts 2 l1 1 1\n1,2 0 1\n1,3 1 0\n1 0 0\n"
# finite coordinates 2e200 apart: the l2 distance fits a double, its square does not
BIG_PTS = "pts 2 l2 2 1\n1,2 1e200 0.5\n1 -1e200 0\n"
# a cost exponent below 1 names no clustering objective
NEG_EXPONENT_PTS = ("pts 25 l1 -3 2\n1,2,3 " + " ".join("0" * 25) + "\n1,2 "
                    + " ".join("1" * 25) + "\n")
# lp needs a finite p >= 1
BAD_LP_TOKENS = ["lp0", "lpnan", "lpinf", "lp0.5", "lp-1"]


def disjoint_pairs(k):
    # the edges (1,2), (3,4), ...: a full cover needs all k branching levels
    return f"jc {2 * k} 2 1 {k}\n" + "".join(f"{2 * i + 1} {2 * i + 2}\n" for i in range(k))


@pytest.mark.parametrize("files, argv", [
    ({}, ["verify-embed", "--metric", "l1", "--q", "5", "--t", "3"]),
    ({}, ["factors", "--p", "1", "--delta", "1", "--alpha", "1/0"]),
    ({"inst.jc": "jc 4 3 2 2\n1 2 3\n1 2 4\n"},
     ["reduce", "-i", "inst.jc", "--mode", "continuous", "--metric", "lp",
      "-o", "out.pts"]),
    ({"bad.pcp": "pcp 2\nlayer 1 2 u\nlayer 3 2 v\n"},
     ["hvc-build", "-i", "bad.pcp", "-o", "out.whg3"]),
    ({"bad.pcp": "pcp 2\nlayer 1 2 u\nlayer 2 2 x\nlayer 0 2 v\nedge 1 2 u v 0 1\n"},
     ["hvc-build", "-i", "bad.pcp", "-o", "out.whg3"]),
    # a header naming 10^11 layers: refused after the last line, nothing allocated per layer
    ({"bad.pcp": "pcp 99999999999\n"}, ["hvc-build", "-i", "bad.pcp", "-o", "out.whg3"]),
    *[({"inst.jc": "jc 4 3 2 2\n1 2 3\n1 2 4\n"},
       ["reduce", "-i", "inst.jc", "--mode", mode, "--metric", "l1", "--q", "5",
        "--eta", "1", "--exponent", exponent, "-o", "out.pts"])
      for mode in ("discrete", "continuous") for exponent in ("0", "-3")],
    ({"inst.jc": "jc 4 3 2 2\n1 2 3\n1 2 4\n"},
     ["reduce", "-i", "inst.jc", "--mode", "continuous", "--metric", "l0",
      "--exponent", "2", "-o", "out.pts"]),
    ({"neg.pts": NEG_EXPONENT_PTS}, ["brute-opt", "-i", "neg.pts", "--mode", "discrete"]),
    ({"toy.pcp": TOY_PCP}, ["hvc-build", "-i", "toy.pcp", "--delta", "1/0", "-o", "out.whg3"]),
    ({"toy.pcp": TOY_PCP}, ["hvc-build", "-i", "toy.pcp", "--mode", "montecarlo",
                            "--samples", "-5", "-o", "out.whg3"]),
    ({"pts.txt": PTS}, ["cost", "-i", "pts.txt", "--center-coords", "0,nan"]),
    ({"pts.txt": PTS}, ["cost", "-i", "pts.txt", "--center-coords", "inf,0"]),
    ({"pts.txt": PTS}, ["cost", "-i", "pts.txt", "--center-coords", "0,0,0"]),
    ({"pts.txt": PTS}, ["cost", "-i", "pts.txt", "--center-coords", "0"]),
    *[({"pts.txt": PTS.replace("l1", token, 1)}, ["cost", "-i", "pts.txt", "--centers", "1"])
      for token in BAD_LP_TOKENS],
    ({}, ["factors", "--p", "inf", "--delta", "1", "--alpha", "0.5", "--q", "4"]),
    ({}, ["factors", "--p", "nan", "--delta", "1", "--alpha", "0.5", "--q", "4"]),
    ({}, ["factors", "--p", "3", "--delta", "1", "--alpha", "2", "--q", "6"]),
    ({}, ["factors", "--p", "3", "--delta", "1", "--alpha", "nan", "--q", "6"]),
    ({"empty.pts": "pts 2 l1 1 1\n"}, ["cost", "-i", "empty.pts", "--center-coords", "0,0"]),
    ({"dup.pts": "pts 2 l1 1 1\n1,2 0 1\n1,2 0 1\n1 0 0\n"},
     ["brute-opt", "-i", "dup.pts", "--mode", "discrete"]),
    ({"zero-dim.pts": "pts 0 l1 1 1\n1,2\n1\n"},
     ["brute-opt", "-i", "zero-dim.pts", "--mode", "discrete"]),
    *[({"zero.jc": "jc 6 3 2 2\n"},
       ["reduce", "-i", "zero.jc", "--mode", mode, "--metric", "l1", "--q", "7", "-o", "out.pts"])
      for mode in ("discrete", "continuous")],
    ({"inst.jc": "jc 4 3 2 2\n1 2 3\n1 2 4\n"},
     ["reduce", "-i", "inst.jc", "--mode", "discrete", "--q", "7", "--eta", "0", "-o", "out.pts"]),
    ({"inst.jc": "jc 4 3 2 2\n1 2 3\n1 2 4\n"},
     ["reduce", "-i", "inst.jc", "--mode", "discrete", "--relaxed", "--eta", "3",
      "-o", "out.pts"]),
    ({"inst.jc": "jc 6 3 2 2\n1 2 6\n"},
     ["reduce", "-i", "inst.jc", "--mode", "discrete", "--q", "5", "--eta", "1", "-o", "out.pts"]),
    *[({"toy.pcp": TOY_PCP}, ["hvc-build", "-i", "toy.pcp", f"--delta={delta}", "-o", "out.whg3"])
      for delta in ("inf", "-inf", "1e400")],
    *[({}, ["sdp-gap", "--n", "6", "--tol", tol]) for tol in ("nan", "inf", "-1")],
    # the explicit SDP solution is feasible only at t = 5: refused before the certificate runs
    *[({}, ["sdp-gap", "--n", "6", "--t", t]) for t in ("4", "6")],
    ({}, ["sdp-gap", "--n", "6", "--extra-centers", "0", "inf"]),
    # below -1 the sweep's k' is negative: refused before the certificate runs
    ({}, ["sdp-gap", "--n", "6", "--extra-centers", "0", "-5"]),
    # a distance or cost past the double range is refused, not printed as inf
    ({"big.pts": BIG_PTS}, ["cost", "-i", "big.pts", "--centers", "1"]),
    ({"big.pts": BIG_PTS}, ["brute-opt", "-i", "big.pts", "--mode", "discrete"]),
    ({"big.pts": BIG_PTS.replace("l2 2", "lp2.5 1")}, ["cost", "-i", "big.pts", "--centers", "1"]),
    ({"big.pts": PTS}, ["cost", "-i", "big.pts", "--center-coords", "1e308,1e308"]),
    ({"big.pts": BIG_PTS.replace("\n1 ", "\n1,3 ")},
     ["brute-opt", "-i", "big.pts", "--mode", "continuous"]),
    # C(2,2) - 1 = 0 parts; from z = 796 a fraction can pass 4300 digits
    *[({}, ["turan", "--z", z]) for z in ("2", "796", "100000")],
    # a third label size is neither the points' nor the candidate centers'
    *[({"sizes.pts": "pts 1 l1 1 1\n1 0\n1,2 1\n1,2,3 2\n"},
       ["brute-opt", "-i", "sizes.pts", "--mode", mode]) for mode in ("continuous", "discrete")],
], ids=["verify-embed-no-s", "alpha-zero-denominator", "continuous-lp",
        "pcp-layer-above-ell", "pcp-layer-zero", "pcp-huge-ell",
        *[f"reduce-{mode}-exponent-{exponent}" for mode in ("discrete", "continuous")
          for exponent in ("0", "-3")], "reduce-continuous-l0-exponent-2",
        "points-exponent-negative",
        "delta-zero-denominator", "montecarlo-negative-samples", "center-coords-nan", "center-coords-inf",
        "center-coords-too-long", "center-coords-too-short",
        *[f"points-{token}" for token in BAD_LP_TOKENS], "factors-p-inf", "factors-p-nan",
        "factors-p3-alpha-2", "factors-p3-alpha-nan", "points-header-only",
        "points-duplicate-label", "points-zero-dim",
        "reduce-discrete-no-edges", "reduce-continuous-no-edges", "reduce-eta-0",
        "reduce-eta-without-q", "reduce-q-eta-below-n",
        "delta-inf", "delta-minus-inf", "delta-1e400", "sdp-tol-nan", "sdp-tol-inf",
        "sdp-tol-negative", "sdp-t-4", "sdp-t-6", "sdp-extra-centers-inf", "sdp-extra-centers-below-minus-1",
        "overflow-cost-l2", "overflow-brute-opt-discrete", "overflow-cost-lp2.5",
        "overflow-center-coords", "overflow-brute-opt-continuous", "turan-z-2", "turan-z-796",
        "turan-z-100000", "points-three-label-sizes-continuous",
        "points-three-label-sizes-discrete"])
def test_bad_input_exits_2(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, err = run_err(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    # the message names what it refuses: the sdp-gap value or the duplicate label
    assert argv[0] != "sdp-gap" or argv[-1] in err
    assert "dup.pts" not in files or "duplicate row label 1,2" in err
    assert "big.pts" not in files or "past the double range" in err
    assert argv[0] != "turan" or "need 3 <= z <= 795" in err
    assert "sizes.pts" not in files or "3 label sizes" in err
    # reduce and densify check every rule before they open their output: a refusal
    # leaves no file
    assert argv[0] not in ("reduce", "densify") \
        or not (tmp_path / argv[argv.index("-o") + 1]).exists()


def test_duplicate_jc_edge_exits_2(tmp_path, capsys):
    # one edge written twice, in two orders
    (tmp_path / "dup.jc").write_text("jc 4 3 2 1\n1 2 3\n3 2 1\n")
    code, err = run_err(capsys, "solve-jc", "-i", str(tmp_path / "dup.jc"), "--alg", "brute")
    assert (code, err) == (2, "error: duplicate edges in instance\n")


# each input format: the command that reads the file "in.<format>"
READERS = {
    "jc": ["reduce", "-i", "in.jc", "--mode", "continuous", "-o", "out.pts"],
    "pcp": ["hvc-build", "-i", "in.pcp", "-o", "out.whg3"],
    "whg3": ["densify", "-i", "in.whg3", "--b", "8", "--c", "10", "-o", "out.hg3"],
    "pts": ["brute-opt", "-i", "in.pts", "--mode", "discrete"],
    "ptsc": ["brute-opt", "-i", "in.ptsc", "--mode", "continuous"],
    "asg": ["hvc-build", "-i", "toy.pcp", "--assignment", "in.asg", "-o", "out.whg3"],
}
PCP_TAIL = "layer 2 2 v\nedge 1 2 u v 0 1\n"
PTSC_HEADER = "ptsc indicator l1 2 1 4 2\n"


# (format, file text, the malformed line)
@pytest.mark.parametrize("fmt, text, line", [
    ("jc", "jc 4 3 2 2\n1 2 3\n1 2 y\n", "1 2 y"),
    ("jc", "jc 4 3 2 2\n1 2 3\n1 2\n", "1 2"),
    ("jc", "jc 4 3 2 x\n1 2 3\n", "jc 4 3 2 x"),
    ("pcp", "pcp 2\nlayer 1 x u\n" + PCP_TAIL, "layer 1 x u"),
    ("pcp", "pcp 2\nlayer 1\n" + PCP_TAIL, "layer 1"),
    ("pcp", "pcp 2\nlayer 1 2 u\nlayer 2 2 v\nedge 1 2 u\n", "edge 1 2 u"),
    ("pcp", "pcp x\nlayer 1 2 u\n" + PCP_TAIL, "pcp x"),
    # a second line for layer 1 would drop vertex u
    ("pcp", "pcp 2\nlayer 1 2 u\nlayer 1 2 w\nlayer 2 2 v\nedge 1 2 w v 0 1\n",
     "layer 1 2 w"),
    ("whg3", "whg3\n1/2 1:a:+x\n", "1/2 1:a:+x"),
    ("whg3", "whg3\n1/0 1:a:+ 1:b:+\n", "1/0 1:a:+ 1:b:+"),
    ("whg3", "whg3\n-1/2 1:a:+ 1:b:+ 1:c:+\n", "-1/2 1:a:+ 1:b:+ 1:c:+"),
    ("whg3", "whg3\n1/2 1:a\n", "1/2 1:a"),
    ("whg3", "whg4\n1/2 1:a:+\n", "whg4"),
    ("pts", "pts 2 l1 1 1\n1,2 0 z\n1 0 0\n", "1,2 0 z"),
    ("pts", "pts 2 l1 1 1\n1,2\n1,3 1 0\n1 0 0\n", "1,2"),
    ("pts", "pts 2 l1 1 x\n1,2 0 1\n1 0 0\n", "pts 2 l1 1 x"),
    # one 2-set under two labels, and a label below 1
    ("pts", "pts 2 l1 1 1\n1,2 0 1\n2,1 0 1\n1 0 0\n", "2,1 0 1"),
    ("pts", "pts 2 l1 1 1\n0,-3 0 1\n1,3 0 1\n1 0 0\n", "0,-3 0 1"),
    ("ptsc", PTSC_HEADER + "1,2,3\n1,x,4\n", "1,x,4"),
    ("ptsc", PTSC_HEADER + "1,2,3\n1,\n", "1,"),
    ("ptsc", "ptsc indicator l1 2 1 4 x\n1,2,3\n1,2,4\n", "ptsc indicator l1 2 1 4 x"),
    ("ptsc", PTSC_HEADER + "1,2,3\n1,3,2\n", "1,3,2"),
    ("asg", "1 u x\n2 v 1\n", "1 u x"),
    ("asg", "1 u 1\n2 v\n", "2 v"),
    # a second symbol for vertex u of layer 1
    ("asg", "1 u 0\n1 u 1\n2 v 1\n", "1 u 1"),
], ids=["jc-bad-token", "jc-short-line", "jc-bad-header", "pcp-bad-token",
        "pcp-short-layer-line", "pcp-short-edge-line", "pcp-bad-header", "pcp-repeated-layer",
        "whg3-bad-cube-token", "whg3-zero-denominator", "whg3-negative-weight",
        "whg3-short-vertex-token", "whg3-bad-header", "pts-bad-token", "pts-label-only-row",
        "pts-bad-header", "pts-descending-label", "pts-nonpositive-label", "ptsc-bad-token",
        "ptsc-short-line", "ptsc-bad-header", "ptsc-descending-label", "asg-bad-token",
        "asg-short-line", "asg-repeated-vertex"])
def test_malformed_line_exits_2_quoting_it(tmp_path, monkeypatch, capsys, fmt, text, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.pcp").write_text(TOY_PCP)
    (tmp_path / f"in.{fmt}").write_text(text)
    argv = READERS[fmt]
    code, err = run_err(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert repr(line) in err
    # every line is read before the output opens: a refusal leaves no file
    assert "-o" not in argv or not (tmp_path / argv[argv.index("-o") + 1]).exists()


@pytest.mark.parametrize("files, argv", [
    ({}, ["factors", "--p", "3", "--delta", "1", "--alpha", "0.5", "--q", "12",
          "--budget", "10"]),
    ({"toy.pcp": TOY_PCP}, ["hvc-build", "-i", "toy.pcp", "--budget", "1", "-o", "out.whg3"]),
    # C(40,20)*C(40,10) pairs: refused before any t-set is built
    ({}, ["verify-embed", "--metric", "l1", "--q", "40", "--t", "20", "--s", "10"]),
    # 1200 disjoint pairs: the fpt tree bound 2^1200, refused before any branching
    ({"pairs.jc": disjoint_pairs(1200)}, ["solve-jc", "-i", "pairs.jc", "--alg", "fpt"]),
    # a bound whose decimal form is past the int-to-str digit limit
    ({"pairs.jc": disjoint_pairs(20000)}, ["solve-jc", "-i", "pairs.jc", "--alg", "fpt"]),
    # C(30,15) + C(30,2) lines, refused before the file is opened
    ({}, ["embed", "--metric", "l1", "--q", "30", "--t", "15", "--s", "2", "-o", "out.txt"]),
    # 10^11 / 2 replicas of each edge, refused before any is drawn or the file is opened
    ({"toy.whg3": "whg3\n1/2 1:u:+ 2:v:+ 2:v:-\n1/2 1:u:- 2:v:+\n"},
     ["densify", "-i", "toy.whg3", "--b", "8", "--c", str(10 ** 11), "-o", "out.hg3"]),
], ids=["factors", "hvc-build", "verify-embed", "fpt", "fpt-huge-bound", "embed-output",
        "densify"])
def test_budget_refusal_exits_3(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, err = run_err(capsys, *argv)
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("budget exceeded: ")
    assert "-o" not in argv or not (tmp_path / argv[argv.index("-o") + 1]).exists()


@pytest.mark.parametrize("files, argv", [
    # C(100000, 2) candidate pairs, two at a time
    ({"big.jc": "jc 100000 3 2 2\n1 2 3\n"}, ["solve-jc", "-i", "big.jc"]),
    ({"big.jc": "jc 3000 3 2 1\n1 2 3\n"}, ["solve-jc", "-i", "big.jc", "--budget", "10"]),
    # one collection (k = 0, k >= C(n, y)) of too many candidates
    ({"big.jc": "jc 4000 3 2 0\n1 2 3\n"}, ["solve-jc", "-i", "big.jc"]),
    ({"big.jc": "jc 10 3 2 45\n1 2 3\n"}, ["solve-jc", "-i", "big.jc", "--budget", "10"]),
    # 1 + C(4000, 2) label lines
    ({"big.jc": "jc 4000 3 2 1\n1 2 3\n"},
     ["reduce", "-i", "big.jc", "--mode", "discrete", "--q", "11", "--eta", "4",
      "-o", "out.pts"]),
    ({}, ["gen-jc", "--kind", "complete", "--n", "60", "--z", "6", "--y", "2", "--k", "1",
          "-o", "out.jc"]),
    ({}, ["gen-jc", "--kind", "random", "--n", "100", "--z", "50", "--y", "2", "--k", "1",
          "--m", "6000000", "-o", "out.jc"]),
], ids=["brute-collections", "brute-collections-budget-10", "brute-candidates-k0",
        "brute-candidates-k-above", "reduce-lines", "gen-jc-complete", "gen-jc-random"])
def test_count_refusal_exits_3_in_small_memory(tmp_path, monkeypatch, capsys, files, argv):
    # refused from counts alone, before any candidate, label or edge is built
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    tracemalloc.start()
    try:
        code, err = run_err(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 2 ** 20
    assert len(err.splitlines()) == 1 and err.startswith("budget exceeded: ")
    assert "-o" not in argv or not (tmp_path / argv[argv.index("-o") + 1]).exists()


def test_random_instance_needs_fewer_than_2_63_subsets(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["gen-jc", "--kind", "random", "--z", "33", "--y", "2", "--k", "1", "--m", "3"]
    # C(66, 33) < 2^63 <= C(67, 33)
    code, _ = run(capsys, *argv, "--n", "66", "-o", "ok.jc")
    assert code == 0 and len((tmp_path / "ok.jc").read_text().splitlines()) == 4
    code, err = run_err(capsys, *argv, "--n", "67", "-o", "out.jc")
    assert code == 2 and "2^63" in err and not (tmp_path / "out.jc").exists()


def test_fpt_runs_every_branching_level(tmp_path, monkeypatch, capsys):
    # a budget of the tree bound 2^1200 lets all 1200 levels run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.jc").write_text(disjoint_pairs(1200))
    code, out = run(capsys, "solve-jc", "-i", "pairs.jc", "--alg", "fpt",
                    "--budget", str(2 ** 1200))
    assert code == 0 and "full_cover=True" in out


# commands that enumerate nothing take no --budget
@pytest.mark.parametrize("argv", [
    ["gen-jc", "--kind", "complete", "--n", "4", "--z", "3", "--y", "2", "--k", "2",
     "-o", "out.jc"],
    ["embed", "--metric", "l1", "--q", "5", "--t", "3", "--s", "2"],
    ["reduce", "-i", "inst.jc", "--mode", "continuous", "-o", "out.pts"],
    ["cost", "-i", "pts.txt", "--centers", "1"],
    ["densify", "-i", "toy.whg3", "--b", "2", "--c", "3", "-o", "out.hg3"],
    ["turan", "--z", "4"],
], ids=["gen-jc", "embed", "reduce", "cost", "densify", "turan"])
def test_budget_option_rejected(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 10" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e20"])
@pytest.mark.parametrize("command", [
    ["brute-opt", "--mode", "discrete"], ["cost", "--centers", "1"]],
    ids=["brute-opt", "cost"])
def test_unloadable_coordinates_exit_2(tmp_path, capsys, token, command):
    pts = tmp_path / "bad.pts"
    pts.write_text(f"pts 2 l1 1 1\n1,2 0 {token}\n1 0 0\n")
    code, err = run_err(capsys, command[0], "-i", str(pts), *command[1:])
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("point, center, distance", [
    (9007199254740993, 9007199254740992, 1),     # 2^53 + 1 is no double
    (2 ** 63 - 1, 0, 2 ** 63 - 1), (-2 ** 63, 2 ** 63 - 1, 2 ** 64 - 1)])
def test_dense_integer_tokens_read_exactly(tmp_path, capsys, point, center, distance):
    # an integer token is its exact int, and the int64 check applies to that int
    pts = tmp_path / "int.pts"
    pts.write_text(f"pts 1 l1 1 1\n1,2 {point}\n1 {center}\n")
    code, out = run(capsys, "cost", "-i", str(pts), "--centers", "1")
    assert code == 0
    assert f"record=assignment point=[1,2] center_index=0 distance={distance}" in out
    for token in (2 ** 63, -2 ** 63 - 1):
        pts.write_text(f"pts 1 l1 1 1\n1,2 {token}\n1 {center}\n")
        code, err = run_err(capsys, "cost", "-i", str(pts), "--centers", "1")
        assert code == 2 and err == "error: integral coordinates exceed the int64 range\n"


def readme_lines():
    readme = (ROOT / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("jchlab ")]
    assert lines[0].startswith("jchlab gen-jc") and lines[-1] == "jchlab turan --z 4"
    return lines


def test_readme_command_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.pcp").write_text(TOY_PCP)
    for line in readme_lines():
        code, err = run_err(capsys, *shlex.split(line)[1:])
        assert code == 0, f"{line}: {err}"


# the config record of each README command, byte for byte
README_CONFIGS = [
    "record=config command=gen-jc kind=complete n=6 z=3 y=2 k=3 m=None seed=0 dense=False "
    "output=inst.jc",
    "record=config command=solve-jc input=inst.jc alg=brute budget=5000000",
    "record=config command=solve-jc input=inst.jc alg=fpt budget=5000000",
    "record=config command=embed metric=l1 q=5 t=3 s=2 p=None output=realization.txt",
    "record=config command=verify-embed metric=l2 q=5 t=3 s=2 p=None restrict=None "
    "budget=5000000",
    "record=config command=reduce input=inst.jc mode=discrete metric=l1 p=None q=7 eta=1 "
    "eps=0.55 relaxed=False centers_from_edges=False exponent=None output=pts.txt",
    'record=config command=cost input=pts.txt centers=["1,2","3,4"] center_coords=None',
    "record=config command=brute-opt input=pts.txt mode=discrete budget=5000000",
    "record=config command=sdp-gap n=[6,8] t=5 tol=1e-08 budget=5000000 "
    "extra_centers=[0.0,0.1,0.2]",
    "record=config command=hvc-build input=toy.pcp delta=1/8 mode=exact samples=None seed=0 "
    "assignment=None budget=5000000 output=toy.whg3",
    "record=config command=densify input=toy.whg3 b=8 c=181 seed=1 output=toy.hg3",
    "record=config command=factors p=1.0 delta=1 alpha=0.6321 q=None t=None budget=5000000",
    "record=config command=turan z=4",
]


def test_config_record(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.pcp").write_text(TOY_PCP)
    (tmp_path / "toy.asg").write_text("1 u 0\n2 v 0\n")
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    seen = set()
    for line, want in zip(readme_lines(), README_CONFIGS, strict=True):
        argv = shlex.split(line)[1:]
        code, out = run(capsys, *argv)
        assert code == 0 and out.splitlines()[0] == want
        code, out = run(capsys, *argv, "--format", "json-lines")
        config = json.loads(out.splitlines()[0])
        declared = [a.dest for a in sub.choices[argv[0]]._actions
                    if a.dest not in ("help", "format")]
        assert code == 0 and sorted(config) == sorted(["record", "command", *declared])
        seen.add(argv[0])
    assert seen == set(sub.choices)
    code, out = run(capsys, "hvc-build", "-i", "toy.pcp", "--delta", "1/8",
                    "--assignment", "toy.asg", "-o", "toy.whg3")
    assert code == 0 and out.splitlines()[0] == (
        "record=config command=hvc-build input=toy.pcp delta=1/8 mode=exact samples=None "
        "seed=0 assignment=toy.asg budget=5000000 output=toy.whg3")


def test_reduce_discrete_exponent(tmp_path, monkeypatch, capsys):
    # the discrete l1 k-means instance: --exponent 2 reaches the file and the optimum
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen-jc", "--kind", "complete", "--n", "6", "--z", "3", "--y", "2",
        "--k", "2", "-o", "inst.jc")
    reduce = ["reduce", "-i", "inst.jc", "--mode", "discrete", "--metric", "l1",
              "--q", "7", "--eta", "1"]
    assert run(capsys, *reduce, "-o", "median.pts")[0] == 0
    assert run(capsys, *reduce, "--exponent", "2", "-o", "means.pts")[0] == 0
    assert Path("median.pts").read_text().split("\n")[0] == \
        "ptsc composed l1 1 2 6 7 1 indicator 3 2 20 15"
    assert Path("means.pts").read_text().split("\n")[0] == \
        "ptsc composed l1 2 2 6 7 1 indicator 3 2 20 15"
    code, out = run(capsys, "brute-opt", "-i", "means.pts", "--mode", "discrete",
                    "--format", "json-lines")
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    with open("means.pts") as fh:
        ci = read_points(fh).dense()
    l1 = parse_metric("l1")
    best = min(sum(min(pointwise_distance(pt, ci.centers[i], l1) for i in idx) ** 2
                   for pt in ci.points)
               for idx in combinations(range(len(ci.centers)), ci.k))
    assert rec["cost"] == best and type(rec["cost"]) is int


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_closed_stdout_exits_141_quietly(tmp_path, monkeypatch, capsys):
    # 2024 assignment lines, more than a pipe buffers, so the command is still
    # writing when its reader closes the pipe after the first line
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen-jc", "--kind", "complete", "--n", "24", "--z", "3", "--y", "2", "--k", "2",
        "-o", "big.jc")
    run(capsys, "reduce", "-i", "big.jc", "--mode", "discrete", "--q", "5", "--eta", "2",
        "-o", "big.pts")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    with subprocess.Popen([sys.executable, "-m", "jchlab.cli", "cost", "-i", "big.pts",
                           "--centers", "1,2"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"record=config command=cost ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""
