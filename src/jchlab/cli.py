"""Command-line entry point.

Every run echoes its full configuration (seed included) as the first record,
so reports are reproducible byte for byte from their own output.  Numeric
claims carry a provenance tag (formula / brute-force / exhaustive / sampled /
heuristic).  Exit status: 0 success or certified, 1 certification failure,
2 usage or validation error, 3 search-space budget exceeded.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import coverage, codes, embeddings, hypergraph, reduction, relaxations
from .errors import BudgetExceededError, CertificationError, ConvergenceError


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (tuple, list, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _text_value(value):
    v = _jsonable(value)
    if isinstance(v, (list, dict)):
        return json.dumps(v, separators=(",", ":"))
    return str(v)


def emit(records, fmt, out=None):
    out = out if out is not None else sys.stdout
    if fmt == "json-lines":
        for rec in records:
            out.write(json.dumps(_jsonable(rec), sort_keys=True) + "\n")
    else:
        for rec in records:
            parts = [f"{k}={_text_value(v)}" for k, v in rec.items()]
            out.write(" ".join(parts) + "\n")


def _config_record(args, command, keys):
    rec = {"record": "config", "command": command}
    for k in keys:
        rec[k] = getattr(args, k.replace("-", "_"), None)
    return rec


def _fraction(text):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_alpha(text):
    if "/" in text:
        return _fraction(text)
    return float(text)


def _metric_args(args):
    metric = args.metric
    if metric in ("l0", "l1", "l2") and args.s is None:
        raise ValueError(f"--metric {metric} needs --s")
    if metric in ("l0", "l1"):
        return embeddings.embed_l0(args.q, args.t, args.s) if metric == "l0" \
            else embeddings.embed_l1(args.q, args.t, args.s)
    if metric == "l2":
        return embeddings.embed_l2_scaled(args.q, args.t, args.s)
    if metric == "lp":
        if args.p is None:
            raise ValueError("--metric lp needs --p")
        if args.s is not None and args.s != args.t - 1:
            return embeddings.embed_indicator_lp(args.q, args.t, args.s, args.p)
        return embeddings.embed_lp_halfshift(args.q, args.t, args.p)
    raise ValueError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_jc(args):
    inst = coverage.gen_instance(args.kind, args.n, args.z, args.y, args.k,
                                 m=args.m, seed=args.seed, dense=args.dense)
    with open(args.output, "w") as fh:
        coverage.write_instance(inst, fh)
    return [
        _config_record(args, "gen-jc", ["kind", "n", "z", "y", "k", "m", "seed",
                                        "dense", "output"]),
        {"record": "instance", "edges": inst.num_edges, "path": args.output,
         "provenance": "generator"},
    ]


def cmd_solve_jc(args):
    with open(args.input) as fh:
        inst = coverage.read_instance(fh)
    recs = [_config_record(args, "solve-jc", ["input", "alg", "budget"])]
    if args.alg == "brute":
        best, rep = coverage.brute_force_max_coverage(inst, budget=args.budget)
        recs.append({"record": "solution", "covered": rep.covered,
                     "total": rep.total, "fraction": rep.fraction,
                     "complete": rep.is_complete, "witness": best,
                     "provenance": "brute-force"})
    else:
        decision, witness = coverage.fpt_cover_decide(inst)
        recs.append({"record": "decision", "full_cover": decision,
                     "witness": witness, "provenance": "branching"})
    return recs


def cmd_embed(args):
    real = _metric_args(args)
    recs = [_config_record(args, "embed", ["metric", "q", "t", "s", "p", "output"])]
    if args.output:
        with open(args.output, "w") as fh:
            embeddings.export_realization(real, fh)
    recs.append({"record": "realization", "kind": real.kind, "dim": real.dim,
                 "beta": real.beta, "lambda_claimed": real.lambda_claimed,
                 "provenance": "formula"})
    return recs


def cmd_verify_embed(args):
    real = _metric_args(args)
    edge_subset = None
    if args.restrict:
        with open(args.restrict) as fh:
            sub = coverage.read_instance(fh)
        if sub.z != real.t or sub.n > real.q:
            raise ValueError("restriction instance must carry t-sets over the ground set")
        edge_subset = [tuple(x - 1 for x in t) for t in sub.edges]
    report = embeddings.verify_gap_realization(real, edge_subset=edge_subset,
                                               budget=args.budget)
    return [
        _config_record(args, "verify-embed",
                       ["metric", "q", "t", "s", "p", "restrict", "budget"]),
        {"record": "certification", "beta": report.edge_distance,
         "lambda_claimed": real.lambda_claimed,
         "certified_ratio": report.min_nonedge_over_edge,
         "pairs_checked": report.pairs_checked,
         "edge_pairs": report.edge_pairs, "nonedge_pairs": report.nonedge_pairs,
         "worst_pair": report.worst_pair, "provenance": "exhaustive"},
    ]


def cmd_reduce(args):
    with open(args.input) as fh:
        inst = coverage.read_instance(fh)
    recs = [_config_record(args, "reduce",
                           ["input", "mode", "metric", "p", "q", "eta", "eps",
                            "relaxed", "centers_from_edges", "exponent", "output"])]
    if args.mode == "discrete":
        if args.q:
            code = codes.RsCode(args.q, args.eta or 1)
        else:
            if not args.relaxed:
                raise ValueError(
                    "strict code parameters are astronomically large; pass "
                    "--relaxed or an explicit --q/--eta for a desk-scale build")
            code = codes.pick_code_params(inst.n, inst.z, inst.y,
                                          args.eps, relaxed=args.relaxed)
        args.t, args.s = inst.z, inst.y
        args.q = code.q
        real = _metric_args(args)
        ci = reduction.build_discrete_instance(
            inst, code, real, centers_from_edges=args.centers_from_edges)
        recs.append({"record": "code", "q": code.q, "eta": code.eta,
                     "relative_distance": code.relative_distance,
                     "provenance": "formula"})
    else:
        ci = reduction.build_continuous_indicator_instance(
            inst, metric=args.metric, exponent=args.exponent or 2)
    with open(args.output, "w") as fh:
        reduction.write_points(ci, fh)
    recs.append({"record": "pointset", "points": len(ci.point_labels),
                 "centers": 0 if ci.centers is None else len(ci.center_labels),
                 "dim": ci.dim, "base_distance": ci.meta.get("base_distance"),
                 "path": args.output, "provenance": "construction"})
    return recs


def _load_points(path):
    with open(path) as fh:
        return reduction.read_points(fh)


def cmd_cost(args):
    ci = _load_points(args.input)
    chosen = []
    if args.centers:
        labels = [tuple(int(x) for x in item.split(",")) for item in args.centers]
        chosen.extend(reduction.centers_by_labels(ci, labels))
    for item in args.center_coords or []:
        chosen.append(np.array([float(x) for x in item.split(",")]))
    bd = reduction.clustering_cost(ci, chosen)
    recs = [_config_record(args, "cost", ["input", "centers", "center_coords"])]
    recs.append({"record": "cost", "total": bd.total, "at_base": bd.at_base,
                 "provenance": "evaluation"})
    for label, ci_idx, d in bd.per_point:
        recs.append({"record": "assignment", "point": label,
                     "center_index": ci_idx, "distance": d})
    return recs


def cmd_brute_opt(args):
    ci = _load_points(args.input)
    witness, cost = reduction.brute_force_optimal_cost(ci, args.mode,
                                                       budget=args.budget)
    return [
        _config_record(args, "brute-opt", ["input", "mode", "budget"]),
        {"record": "optimum", "cost": cost, "witness": witness,
         "provenance": "brute-force"},
    ]


def cmd_sdp_gap(args):
    report = relaxations.gap_report(args.n, t=args.t, exact_budget=args.budget,
                                    tol=args.tol,
                                    extra_center_fractions=tuple(args.extra_centers))
    recs = [_config_record(args, "sdp-gap", ["n", "t", "tol", "budget",
                                             "extra_centers"])]
    recs.append({"record": "asymptotics", "t": report["t"],
                 "reiher_uncovered_fraction": report["reiher_uncovered_fraction"],
                 "asymptotic_gap": report["asymptotic_gap"],
                 "provenance": "formula"})
    for row in report["rows"]:
        base = {"record": "instance", **{k: row[k] for k in
                ("n", "k", "fractional_budget", "points", "centers",
                 "sdp_max_residual", "sdp_objective", "lp_objective",
                 "lp_open_total")}}
        base["provenance"] = "residual-check"
        recs.append(base)
        for sweep in row["integral_sweeps"]:
            recs.append({"record": "integral", "n": row["n"], **sweep,
                         "provenance": sweep["method"]})
    return recs


def cmd_hvc_build(args):
    with open(args.input) as fh:
        pcp = hypergraph.read_pcp(fh)
    delta = _fraction(args.delta) if "/" in args.delta else Fraction(float(args.delta))
    hg = hypergraph.build_weighted_hypergraph(
        pcp, delta, mode=args.mode, samples=args.samples, seed=args.seed)
    with open(args.output, "w") as fh:
        hypergraph.write_weighted_hypergraph(hg, fh)
    recs = [_config_record(args, "hvc-build",
                           ["input", "delta", "mode", "samples", "seed",
                            "assignment", "output"])]
    recs.append({"record": "hypergraph", "edges": len(hg.edges),
                 "edge_weight_total": hg.edge_weight_total(),
                 "vertex_weight_total": hg.vertex_weight_total(),
                 "path": args.output,
                 "provenance": "exact" if args.mode == "exact" else "sampled"})
    if args.assignment:
        assignment = {}
        with open(args.assignment) as fh:
            for line in fh:
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 3:
                    raise ValueError(f"assignment line {line.strip()!r} is not "
                                     "'layer vertex symbol'")
                assignment[(int(parts[0]), parts[1])] = int(parts[2])
        chk = hypergraph.completeness_cover_check(pcp, hg, assignment)
        recs.append({"record": "cover-check", "all_hit": chk.all_hit,
                     "cover_weight": chk.weight,
                     "witness": None if chk.witness is None else sorted(chk.witness, key=repr),
                     "provenance": "exhaustive"})
    return recs


def cmd_densify(args):
    with open(args.input) as fh:
        hg = hypergraph.read_weighted_hypergraph(fh)
    dense = hypergraph.densify(hg, args.b, args.c, seed=args.seed)
    with open(args.output, "w") as fh:
        hypergraph.write_simple_hypergraph(dense, fh)
    bound = hypergraph.retained_count_bound(args.c, dense.source_edges, args.b)
    return [
        _config_record(args, "densify", ["input", "b", "c", "seed", "output"]),
        {"record": "densified", "replicas": dense.replicas,
         "kept": len(dense.edges), "deleted": dense.deleted,
         "retained_bound": bound, "meets_bound": len(dense.edges) >= bound,
         "path": args.output, "provenance": "seeded-replication"},
    ]


def cmd_factors(args):
    alpha = _parse_alpha(args.alpha)
    recs = [_config_record(args, "factors", ["p", "delta", "alpha", "q", "t"])]
    if args.p in (1, 2):
        table = coverage.inapprox_factors(int(args.p), args.delta, alpha)
        recs.append({"record": "factors", "gamma": table.gamma_lower,
                     "gamma_sq": table.gamma_sq, "zeta1": table.zeta1,
                     "zeta2": table.zeta2, "provenance": "formula"})
    else:
        if args.q is None:
            raise ValueError("p outside {1,2} needs --q (empirical gap check)")
        ratio, real, report = embeddings.empirical_gamma(args.p, args.delta,
                                                         args.q, t=args.t)
        zeta1 = 1 + (1 - alpha) * (ratio - 1)
        zeta2 = 1 + (1 - alpha) * (ratio ** 2 - 1)
        recs.append({"record": "factors", "gamma": ratio,
                     "gamma_sq": ratio ** 2, "zeta1": zeta1, "zeta2": zeta2,
                     "kind": real.kind, "pairs_checked": report.pairs_checked,
                     "provenance": "empirical-exhaustive"})
    return recs


def cmd_turan(args):
    value = coverage.turan_random_uncovered(args.z)
    return [
        _config_record(args, "turan", ["z"]),
        {"record": "turan", "uncovered_fraction": value,
         "float": float(value), "provenance": "formula"},
    ]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="jchlab",
        description="coverage gadgets, gap embeddings, clustering reductions, "
                    "and relaxation-gap certification")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json-lines"), default="text")
    common.add_argument("--budget", type=int, default=None,
                        help="search-space cap; exceeding it is exit status 3")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-jc", parents=[common], help="generate an instance file")
    p.add_argument("--kind", choices=("complete", "random"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dense", action="store_true",
                   help="require |E| > k*n^(z-y-1); no hardness claim attached")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_jc)

    p = sub.add_parser("solve-jc", parents=[common], help="exact solvers")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--alg", choices=("brute", "fpt"), default="brute")
    p.set_defaults(func=cmd_solve_jc)

    for name, fn in (("embed", cmd_embed), ("verify-embed", cmd_verify_embed)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--metric", choices=("l0", "l1", "l2", "lp"), required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--s", type=int, default=None)
        p.add_argument("--p", type=int, default=None)
        if name == "embed":
            p.add_argument("-o", "--output", default=None)
        else:
            p.add_argument("--restrict", default=None,
                           help="instance file of t-sets to restrict the points side")
        p.set_defaults(func=fn)

    p = sub.add_parser("reduce", parents=[common], help="coverage-to-clustering")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--mode", choices=("discrete", "continuous"), required=True)
    p.add_argument("--metric", choices=("l0", "l1", "l2", "lp"), default="l1")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None, help="explicit code field size")
    p.add_argument("--eta", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.55)
    p.add_argument("--relaxed", action="store_true",
                   help="desk-scale code parameters, distance re-verified")
    p.add_argument("--centers-from-edges", action="store_true")
    p.add_argument("--exponent", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("cost", parents=[common], help="evaluate a center set")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--centers", nargs="*", default=None,
                   help="candidate-center labels like 1,2")
    p.add_argument("--center-coords", nargs="*", default=None,
                   help="explicit center vectors like 0.5,0.5,1")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("brute-opt", parents=[common], help="exact optimum")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--mode", choices=("discrete", "continuous"), required=True)
    p.set_defaults(func=cmd_brute_opt)

    p = sub.add_parser("sdp-gap", parents=[common], help="clique gap certification")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--t", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--extra-centers", type=float, nargs="*", default=[0.0, 0.1, 0.2],
                   help="sweep fractions of extra integral centers")
    p.set_defaults(func=cmd_sdp_gap)

    p = sub.add_parser("hvc-build", parents=[common], help="layered system to hypergraph")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--delta", default="0")
    p.add_argument("--mode", choices=("exact", "montecarlo"), default="exact")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assignment", default=None,
                   help="file of 'layer vertex symbol' lines for the cover check")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_hvc_build)

    p = sub.add_parser("densify", parents=[common], help="replicate and simplify")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_densify)

    p = sub.add_parser("factors", parents=[common], help="inapproximability factors")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--alpha", required=True, help="float or fraction like 7/8")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.set_defaults(func=cmd_factors)

    p = sub.add_parser("turan", parents=[common], help="random-extremal uncovered fraction")
    p.add_argument("--z", type=int, required=True)
    p.set_defaults(func=cmd_turan)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", None) is None:
        args.budget = coverage.DEFAULT_BUDGET
    try:
        records = args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"certification failure: {exc} (witness: {exc.witness})", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(records, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
