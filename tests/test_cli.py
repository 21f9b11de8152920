import json
import shlex
from pathlib import Path

import pytest

from jchlab.cli import main


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


def test_sdp_gap_command(capsys):
    code, out = run(capsys, "sdp-gap", "--n", "6", "--t", "5",
                    "--extra-centers", "0.0")
    assert code == 0
    assert "asymptotic_gap=149/125" in out
    assert "finite_size_deviation=True" in out


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
    ({"bad.pcp": "pcp 2\nlayer 1\nlayer 2 2 v\n"},
     ["hvc-build", "-i", "bad.pcp", "-o", "out.whg3"]),
    ({"bad.pcp": "pcp 2\nlayer 1 2 u\nlayer 2 2 v\nedge 1 2 u\n"},
     ["hvc-build", "-i", "bad.pcp", "-o", "out.whg3"]),
    ({"toy.pcp": TOY_PCP, "assign.txt": "1 u 1\n2 v\n"},
     ["hvc-build", "-i", "toy.pcp", "--assignment", "assign.txt", "-o", "out.whg3"]),
    ({"toy.pcp": TOY_PCP}, ["hvc-build", "-i", "toy.pcp", "--delta", "1/0", "-o", "out.whg3"]),
], ids=["verify-embed-no-s", "alpha-zero-denominator", "continuous-lp",
        "pcp-layer-above-ell", "pcp-layer-zero", "pcp-short-layer-line",
        "pcp-short-edge-line", "short-assignment-line",
        "delta-zero-denominator"])
def test_bad_input_exits_2(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, err = run_err(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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


def test_readme_command_block(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("jchlab ")]
    assert lines[0].startswith("jchlab gen-jc") and lines[-1] == "jchlab turan --z 4"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.pcp").write_text(TOY_PCP)
    for line in lines:
        code, err = run_err(capsys, *shlex.split(line)[1:])
        assert code == 0, f"{line}: {err}"
