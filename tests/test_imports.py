"""Start-up guard: each README command loads only the jchlab layers it runs,
no command loads numpy, no layer loads dataclasses or inspect, a command
loads json only when a record holds a list or a dict, and the package's lazy
exports resolve to the objects of their defining modules.  The probes block
numpy before they import jchlab, so any numpy import fails the run: cost and
brute-opt on construction and dense files, cost --center-coords and
continuous brute-opt under every center rule run without it.

Each check runs in a fresh interpreter, since this test process has long
since imported every layer.
"""

import argparse
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from jchlab import embeddings
from jchlab.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]

# the public names of the package, and the submodules it resolves by name
NAMES = """
JohnsonInstance CoverageReport FactorTable cov coverage_fraction
brute_force_max_coverage fpt_cover_decide gen_instance turan_random_uncovered
inapprox_factors read_instance write_instance
RsCode rs_encode verify_relative_distance pick_code_params message_for_element
is_prime next_prime
GapRealization GapReport embed_l0 embed_l1 embed_l2_scaled embed_lp_halfshift
embed_indicator_lp verify_gap_realization realized_distance empirical_gamma
export_realization
kmeans_partition_cost kmeans_partition_cost_centroid best_center_continuous
weiszfeld_geometric_median coordinate_median separation_center_bound_check
l1sq_pairwise_lower_bound pointwise_distance
Metric parse_metric
ClusteringInstance CostBreakdown build_discrete_instance
build_continuous_indicator_instance clustering_cost brute_force_optimal_cost
centers_by_labels soundness_floor meets_soundness_floor read_points write_points
SupportRows SupportInstance composed_supports indicator_supports write_construction
CliqueGapInstance SdpSolution build_clique_gap_instance build_sdp_solution
verify_sdp_solution lp_fractional_value integral_min_uncovered gap_report
reiher_uncovered_fraction asymptotic_gap
LayeredPcp WeightedHypergraph3 SimpleHypergraph layer_pair_distribution
layer_marginal build_weighted_hypergraph completeness_cover_check densify
retained_count_bound cover_transfers read_pcp write_pcp read_weighted_hypergraph
write_weighted_hypergraph write_simple_hypergraph
BudgetExceededError CertificationError ConvergenceError
""".split()
LAYERS = ("coverage", "codes", "embeddings", "metric", "geometry", "reduction",
          "relaxations", "hypergraph", "errors")

TOY_PCP = "pcp 2\nlayer 1 2 u\nlayer 2 2 v\nedge 1 2 u v 0 1\n"
# an edge of three vertices and one of two
TOY_WHG3 = "whg3\n1/4 1:u:++ 2:v:+- 2:v:--\n3/4 1:u:-+ 2:v:++\n"

# construction files: name -> the instance and metric `reduce --mode discrete` is given;
# lp with y = 1 < z - 1 takes indicator vectors, with y = z - 1 half-shift ones, and l2
# scaled ones
DISCRETE = {"l0": ("inst.jc", "l0"), "l1": ("inst.jc", "l1"), "lp3": ("star.jc", "lp", "--p", "3"),
            "l2": ("inst.jc", "l2"), "lp3-halfshift": ("inst.jc", "lp", "--p", "3")}
CENTERS = {"l0": ["1,2", "3,4"], "l1": ["1,2", "3,4"], "lp3": ["1", "2"], "l2": ["1,2", "3,4"],
           "lp3-halfshift": ["1,2", "3,4"]}
# indicator files of every center rule: name -> `reduce --mode continuous` options
CONTINUOUS = {"means": ["--metric", "l2"], "medians": ["--metric", "l1", "--exponent", "1"],
              "l0-medians": ["--metric", "l0"], "weiszfeld": ["--metric", "l2", "--exponent", "1"],
              "l1sq": ["--metric", "l1", "--exponent", "2"]}
# dense files of rows that are not 0/1, one per element type and center rule: the 3-sets
# are points and the 2-sets candidate centers
DENSE_ROWS = {"int": "1,2,3 0 2 5\n1,2,4 -1 3 0\n1,3,5 4 4 1\n2,4,5 3 -2 2\n1,2 0 1 0\n3,4 2 2 2\n",
              "float": "1,2,3 0.5 2 5\n1,2,4 -1 3.25 0\n1,3,5 4 4 1e-3\n2,4,5 3 -2 2\n"
                       "1,2 0 1 0.5\n3,4 2 2 2\n"}
DENSE = {f"{kind}-{token}-{exponent}": f"pts 3 {token} {exponent} 2\n{rows}"
         for kind, rows in DENSE_ROWS.items()
         for token, exponent in (("l1", 1), ("l1", 2), ("l2", 1), ("l2", 2))}

# block numpy, then run one command: a numpy import anywhere fails the run
PROBE = ("import sys; sys.modules['numpy'] = None; from jchlab.cli import main; "
         "sys.exit(main(sys.argv[1:]))")

# the standard modules the start-up floor leaves out: dataclasses and the inspect it
# loads, and json, which a command needs only to print a list or a dict
FLOOR = "dataclasses inspect json"
FLOOR_LOADED = "print(' '.join(m for m in FLOOR.split() if m in sys.modules))"

# block numpy, run one command, then print the jchlab modules loaded and, as the
# last line, which of FLOOR are
LAYERS_PROBE = ("import sys; sys.modules['numpy'] = None; from jchlab.cli import main; "
                "code = main(sys.argv[1:]); "
                "print(' '.join(sorted(m[7:] for m in sys.modules if m.startswith('jchlab.')))); "
                f"FLOOR = {FLOOR!r}; {FLOOR_LOADED}; sys.exit(code)")
# README command -> the jchlab modules it loads: cli, errors and the layers it runs
README_MODULES = {
    "gen-jc": "cli coverage errors",
    "solve-jc": "cli coverage errors",
    "embed": "cli embeddings errors metric",
    "verify-embed": "cli embeddings errors metric",
    "reduce": "cli codes coverage embeddings errors metric reduction",
    "cost": "cli codes embeddings errors metric reduction",
    "brute-opt": "cli codes embeddings errors metric reduction",
    "sdp-gap": "cli coverage errors relaxations",
    "hvc-build": "cli errors hypergraph",
    "densify": "cli errors hypergraph",
    "factors": "cli coverage errors",
    "turan": "cli coverage errors",
}


def fresh_python(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("numpy-free")
    (path / "inst.jc").write_text("jc 5 3 2 2\n1 2 3\n1 2 4\n1 3 5\n2 4 5\n")
    (path / "toy.pcp").write_text(TOY_PCP)
    (path / "assign.txt").write_text("1 u 1\n2 v 1\n")
    (path / "toy.whg3").write_text(TOY_WHG3)
    (path / "star.jc").write_text("jc 5 3 1 2\n1 2 3\n1 2 4\n1 3 5\n2 4 5\n")
    for name, (jc, *metric) in DISCRETE.items():
        assert main(["reduce", "-i", str(path / jc), "--mode", "discrete", "--metric", *metric,
                     "--q", "5", "-o", str(path / f"{name}.pts")]) == 0
    for name, options in CONTINUOUS.items():
        assert main(["reduce", "-i", str(path / "inst.jc"), "--mode", "continuous", *options,
                     "-o", str(path / f"{name}.pts")]) == 0
    for name, text in DENSE.items():
        (path / f"{name}.pts").write_text(text)
    return path


@pytest.mark.parametrize("argv", [
    ["gen-jc", "--kind", "complete", "--n", "5", "--z", "3", "--y", "2", "--k", "2",
     "-o", "gen.jc"],
    ["solve-jc", "-i", "inst.jc", "--alg", "brute"],
    ["solve-jc", "-i", "inst.jc", "--alg", "fpt"],
    ["embed", "--metric", "l1", "--q", "5", "--t", "3", "--s", "2", "-o", "real.txt"],
    ["verify-embed", "--metric", "l0", "--q", "5", "--t", "3", "--s", "2"],
    ["verify-embed", "--metric", "l1", "--q", "5", "--t", "3", "--s", "2"],
    ["verify-embed", "--metric", "l2", "--q", "5", "--t", "3", "--s", "2"],
    ["verify-embed", "--metric", "lp", "--q", "5", "--t", "3", "--p", "3"],
    ["factors", "--p", "1", "--delta", "1", "--alpha", "0.6321"],
    ["factors", "--p", "3", "--delta", "1", "--alpha", "0.5", "--q", "5"],
    ["turan", "--z", "4"],
    *[["reduce", "-i", "inst.jc", "--mode", "discrete", "--q", "5", *metric, "-o", "reduced.pts"]
      for metric in (["--metric", "l1"], ["--metric", "l2"], ["--metric", "lp", "--p", "3"])],
    ["reduce", "-i", "inst.jc", "--mode", "continuous", "-o", "reduced.pts"],
    ["hvc-build", "-i", "toy.pcp", "--delta", "1/8", "-o", "exact.whg3"],
    ["hvc-build", "-i", "toy.pcp", "--mode", "montecarlo", "--samples", "200",
     "-o", "mc.whg3"],
    ["hvc-build", "-i", "toy.pcp", "--assignment", "assign.txt", "-o", "cover.whg3"],
    ["densify", "-i", "toy.whg3", "--b", "8", "--c", "181", "--seed", "1", "-o", "toy.hg3"],
    ["sdp-gap", "--n", "6"],
    *[["cost", "-i", f"{name}.pts", "--centers", *CENTERS[name]] for name in DISCRETE],
    *[["brute-opt", "-i", f"{name}.pts", "--mode", "discrete"] for name in DISCRETE],
    *[["brute-opt", "-i", f"{name}.pts", "--mode", "continuous"] for name in CONTINUOUS],
    # the filled rows of a construction file, and the lists of dense files
    ["cost", "-i", "l1.pts", "--center-coords", ",".join(["0.5"] * 25)],
    *[["cost", "-i", f"{kind}-l1-1.pts", "--center-coords", "0.5,1,2"] for kind in DENSE_ROWS],
    *[["brute-opt", "-i", f"{kind}-l2-2.pts", "--mode", "discrete"] for kind in DENSE_ROWS],
    *[["brute-opt", "-i", f"{name}.pts", "--mode", "continuous"] for name in DENSE],
], ids=" ".join)
def test_command_runs_without_numpy(workdir, argv):
    proc = fresh_python(workdir, "-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("record=config "), proc.stdout


def test_undersized_code_refused_without_numpy(workdir):
    # the README's q^eta = 5 < n = 6
    gen = ["gen-jc", "--kind", "complete", "--n", "6", "--z", "3", "--y", "2", "--k", "3",
           "-o", "six.jc"]
    assert fresh_python(workdir, "-c", PROBE, *gen).returncode == 0
    proc = fresh_python(workdir, "-c", PROBE, "reduce", "-i", "six.jc", "--mode", "discrete",
                        "--metric", "l1", "--q", "5", "--eta", "1", "-o", "pts.txt")
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not (workdir / "pts.txt").exists()


def test_rebuild_free_file_runs_without_numpy(workdir, capsys):
    # the complete (4, 3, 2) instance at q = 2917: 10 rows of 2917^2 coordinates, never built
    assert main(["gen-jc", "--kind", "complete", "--n", "4", "--z", "3", "--y", "2", "--k", "2",
                 "-o", str(workdir / "four.jc")]) == 0
    assert main(["reduce", "-i", str(workdir / "four.jc"), "--mode", "discrete", "--metric", "l1",
                 "--q", "2917", "--eta", "1", "-o", str(workdir / "q2917.pts")]) == 0
    assert (workdir / "q2917.pts").stat().st_size == 96
    proc = fresh_python(workdir, "-c", PROBE, "brute-opt", "-i", "q2917.pts", "--mode", "discrete")
    assert proc.returncode == 0, proc.stderr
    assert "record=optimum cost=11668 " in proc.stdout
    capsys.readouterr()
    assert main(["cost", "-i", str(workdir / "q2917.pts"), "--center-coords", "0"]) == 3
    assert capsys.readouterr().err == \
        "budget exceeded: 85088890 coordinates exceed budget 33554432\n"


def test_lazy_exports_resolve_to_defining_modules(tmp_path):
    check = (
        "import importlib, sys, jchlab\n"
        "assert 'numpy' not in sys.modules\n"
        "names, layers = sys.argv[1].split(','), sys.argv[2].split(',')\n"
        "for name in layers:\n"
        "    assert getattr(jchlab, name) is importlib.import_module('jchlab.' + name), name\n"
        "for name in names:\n"
        "    obj = getattr(jchlab, name)\n"
        "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
        "    assert name in dir(jchlab), name\n"
        "print('ok')\n")
    proc = fresh_python(tmp_path, "-c", check, ",".join(NAMES), ",".join(LAYERS))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_readme_commands_load_only_their_layers(tmp_path):
    # the README block in order, each command in a fresh interpreter
    (tmp_path / "toy.pcp").write_text(TOY_PCP)
    readme = (ROOT / "README.md").read_text().splitlines()
    lines = [shlex.split(line)[1:] for line in readme if line.startswith("jchlab ")]
    assert {argv[0] for argv in lines} == set(README_MODULES)
    for argv in lines:
        proc = fresh_python(tmp_path, "-c", LAYERS_PROBE, *argv)
        assert proc.returncode == 0, proc.stderr
        *records, modules, floor = proc.stdout.splitlines()
        assert modules == README_MODULES[argv[0]], argv
        assert "dataclasses" not in floor and "inspect" not in floor, argv
        # json prints a text record's list or dict value, and nothing else
        holds_list = any("=[" in rec or "={" in rec for rec in records)
        assert ("json" in floor.split()) == holds_list, argv


def test_layers_load_no_dataclasses(tmp_path):
    check = ("import importlib, sys\n"
             "for name in sys.argv[1:]:\n"
             "    importlib.import_module('jchlab.' + name)\n"
             f"FLOOR = 'dataclasses inspect'\n{FLOOR_LOADED}\n")
    proc = fresh_python(tmp_path, "-c", check, *LAYERS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_metric_choices_are_the_realizations():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("embed", "verify-embed", "reduce"):
        metric = next(a for a in sub.choices[command]._actions if a.dest == "metric")
        assert metric.choices == tuple(embeddings.REALIZATIONS), command
