"""Command-line entry point.

Every run echoes its full configuration (seed included) as the first record,
so reports are reproducible byte for byte from their own output: main()
builds it from the parsed options, every option of the command except
--format, in declaration order.  Numeric claims carry a provenance tag
(formula / brute-force / exhaustive / sampled / heuristic).  Exit status:
0 success or certified, 1 certification failure, 2 usage or validation
error (a result past the double range included), 3 search-space budget
exceeded (errors.check_budget, before any search runs), 141 stdout closed
by its reader (128 + SIGPIPE, as a shell reports a process that signal
ended).

Each command loads only its own layers: the module imports only `errors`
(which holds DEFAULT_BUDGET, the default --budget and the writers' line
cap) at top level, and each cmd_* imports the layers it calls, so building
the parser and running `turan` load no embedding, code or hypergraph module.
No layer loads dataclasses, and json loads only for --format json-lines or a
text record that holds a list or a dict.
"""

import argparse
import math
import os
import sys
from fractions import Fraction

from . import errors
from .errors import (DEFAULT_BUDGET, BudgetExceededError, CertificationError, ConvergenceError,
                     check_budget)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _text_value(value):
    v = _jsonable(value)
    if isinstance(v, (list, dict)):
        import json         # loaded only by a record that holds a list or a dict
        return json.dumps(v, separators=(",", ":"))
    return str(v)


def emit(records, fmt, out=None):
    out = out if out is not None else sys.stdout
    if fmt == "json-lines":
        import json
        for rec in records:
            out.write(json.dumps(_jsonable(rec), sort_keys=True) + "\n")
    else:
        for rec in records:
            parts = [f"{k}={_text_value(v)}" for k, v in rec.items()]
            out.write(" ".join(parts) + "\n")


def _fraction(value):
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    except OverflowError:       # an infinite float has no ratio
        raise ValueError(f"{value} is not finite") from None


def _parse_alpha(text):
    if "/" in text:
        return _fraction(text)
    return float(text)


# ---------------------------------------------------------------------------
# commands: each returns the records that follow the config record
# ---------------------------------------------------------------------------

def cmd_gen_jc(args):
    from . import coverage
    # one line per edge: refused like a search, before any edge is built or the file opens
    if args.kind == "complete":
        errors.check_comb_budget(args.n, args.z, DEFAULT_BUDGET, "lines")
    elif args.m is not None:
        check_budget(args.m, DEFAULT_BUDGET, "lines")
    inst = coverage.gen_instance(args.kind, args.n, args.z, args.y, args.k,
                                 m=args.m, seed=args.seed, dense=args.dense)
    with open(args.output, "w") as fh:
        coverage.write_instance(inst, fh)
    return [{"record": "instance", "edges": inst.num_edges, "path": args.output,
             "provenance": "generator"}]


def cmd_solve_jc(args):
    from . import coverage
    with open(args.input) as fh:
        inst = coverage.read_instance(fh)
    if args.alg == "brute":
        best, rep = coverage.brute_force_max_coverage(inst, budget=args.budget)
        return [{"record": "solution", "covered": rep.covered,
                 "total": rep.total, "fraction": rep.fraction,
                 "complete": rep.is_complete, "witness": best,
                 "provenance": "brute-force"}]
    decision, witness = coverage.fpt_cover_decide(inst, budget=args.budget)
    return [{"record": "decision", "full_cover": decision,
             "witness": witness, "provenance": "branching"}]


def cmd_embed(args):
    from . import embeddings
    real = embeddings.realize(args.metric, args.q, args.t, args.s, args.p)
    if args.output:
        # one line per t-set and s-set: refused like a search, before the file opens
        check_budget(math.comb(real.q, real.t) + math.comb(real.q, real.s),
                     DEFAULT_BUDGET, "lines")
        with open(args.output, "w") as fh:
            embeddings.export_realization(real, fh)
    return [{"record": "realization", "kind": real.kind, "dim": real.dim,
             "beta": real.beta, "lambda_claimed": real.lambda_claimed,
             "provenance": "formula"}]


def cmd_verify_embed(args):
    from . import embeddings
    real = embeddings.realize(args.metric, args.q, args.t, args.s, args.p)
    edge_subset = None
    if args.restrict:
        from . import coverage
        with open(args.restrict) as fh:
            sub = coverage.read_instance(fh)
        if sub.z != real.t or sub.n > real.q:
            raise ValueError("restriction instance must carry t-sets over the ground set")
        edge_subset = [tuple(x - 1 for x in t) for t in sub.edges]
    report = embeddings.verify_gap_realization(real, edge_subset=edge_subset,
                                               budget=args.budget)
    return [{"record": "certification", "beta": report.edge_distance,
             "lambda_claimed": real.lambda_claimed,
             "certified_ratio": report.min_nonedge_over_edge,
             "pairs_checked": report.pairs_checked,
             "edge_pairs": report.edge_pairs, "nonedge_pairs": report.nonedge_pairs,
             "worst_pair": report.worst_pair, "provenance": "exhaustive"}]


def cmd_reduce(args):
    if args.eta is not None and args.q is None:
        raise ValueError("--eta needs --q")
    from . import coverage
    with open(args.input) as fh:
        inst = coverage.read_instance(fh)
    recs = []
    if args.mode == "discrete":
        from . import codes, embeddings
        if args.q is not None:
            code = codes.RsCode(args.q, 1 if args.eta is None else args.eta)
        else:
            if not args.relaxed:
                raise ValueError(
                    "strict code parameters are astronomically large; pass "
                    "--relaxed or an explicit --q/--eta for a desk-scale build")
            code = codes.pick_code_params(inst.n, inst.z, inst.y,
                                          args.eps, relaxed=args.relaxed)
        real = embeddings.realize(args.metric, code.q, inst.z, inst.y, args.p)
        codes.message_for_element(code, inst.n)    # q^eta >= n, checked before reduction loads
        if not args.centers_from_edges:
            # one line per point and per candidate center, counted before any label is built
            check_budget(inst.num_edges + math.comb(inst.n, inst.y), DEFAULT_BUDGET, "lines")
        from . import reduction
        si = reduction.composed_supports(
            inst, code, real, centers_from_edges=args.centers_from_edges,
            exponent=args.exponent)
        recs.append({"record": "code", "q": code.q, "eta": code.eta,
                     "relative_distance": code.relative_distance,
                     "provenance": "formula"})
    else:
        from . import reduction
        from .metric import METRICS, lp_metric
        si = reduction.indicator_supports(
            inst, METRICS.get(args.metric) or lp_metric(args.p), exponent=args.exponent)
    check_budget(sum(len(rows.labels) for rows in si.groups), DEFAULT_BUDGET, "lines")
    # every refusal is raised above: the file opens only for a valid instance
    with open(args.output, "w") as fh:
        reduction.write_construction(si, fh)
    recs.append({"record": "pointset", "points": len(si.points.labels),
                 "centers": 0 if si.centers is None else len(si.centers.labels),
                 "dim": si.dim, "base_distance": si.meta.get("base_distance"),
                 "path": args.output, "provenance": "construction"})
    return recs


def cmd_cost(args):
    from . import reduction
    with open(args.input) as fh:
        ci = reduction.read_points(fh)
    if args.center_coords:      # explicit vectors are scored against the filled rows
        ci = ci.dense()
    chosen = []
    if args.centers:
        labels = [tuple(int(x) for x in item.split(",")) for item in args.centers]
        chosen.extend(reduction.centers_by_labels(ci, labels))
    for item in args.center_coords or []:
        center = [float(x) for x in item.split(",")]
        if len(center) != ci.dim or not all(map(math.isfinite, center)):
            raise ValueError(f"center {item!r} needs {ci.dim} finite coordinates")
        chosen.append(center)
    bd = reduction.clustering_cost(ci, chosen)
    return [{"record": "cost", "total": bd.total, "at_base": bd.at_base,
             "provenance": "evaluation"},
            *({"record": "assignment", "point": label, "center_index": ci_idx,
               "distance": d} for label, ci_idx, d in bd.per_point)]


def cmd_brute_opt(args):
    from . import reduction
    with open(args.input) as fh:
        ci = reduction.read_points(fh)
    witness, cost = reduction.brute_force_optimal_cost(ci, args.mode,
                                                       budget=args.budget)
    return [{"record": "optimum", "cost": cost, "witness": witness,
             "provenance": "brute-force"}]


def cmd_sdp_gap(args):
    from . import relaxations
    report = relaxations.gap_report(args.n, t=args.t, exact_budget=args.budget,
                                    tol=args.tol,
                                    extra_center_fractions=tuple(args.extra_centers))
    recs = [{"record": "asymptotics", "t": report["t"],
             "reiher_uncovered_fraction": report["reiher_uncovered_fraction"],
             "asymptotic_gap": report["asymptotic_gap"],
             "provenance": "formula"}]
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


def _read_assignment(fh):
    # (layer, vertex) -> symbol, one line each
    assignment = {}

    def parse(fields):
        if len(fields) != 3:
            raise ValueError("expected 'layer vertex symbol'")
        key = int(fields[0]), fields[1]
        if key in assignment:
            raise ValueError(f"second line for layer {key[0]} vertex {key[1]}")
        assignment[key] = int(fields[2])

    errors.parse_lines(fh, "assignment", parse)
    return assignment


def cmd_hvc_build(args):
    from . import hypergraph
    with open(args.input) as fh:
        pcp = hypergraph.read_pcp(fh)
    if args.assignment:
        with open(args.assignment) as fh:
            assignment = _read_assignment(fh)
    delta = _fraction(args.delta if "/" in args.delta else float(args.delta))
    hg = hypergraph.build_weighted_hypergraph(
        pcp, delta, mode=args.mode, samples=args.samples, seed=args.seed,
        budget=args.budget)
    with open(args.output, "w") as fh:
        hypergraph.write_weighted_hypergraph(hg, fh)
    recs = [{"record": "hypergraph", "edges": len(hg.edges),
             "edge_weight_total": hg.edge_weight_total(),
             "vertex_weight_total": hypergraph.vertex_weight_total(pcp),
             "path": args.output,
             "provenance": "exact" if args.mode == "exact" else "sampled"}]
    if args.assignment:
        chk = hypergraph.completeness_cover_check(pcp, hg, assignment)
        recs.append({"record": "cover-check", "all_hit": chk.all_hit,
                     "cover_weight": chk.weight,
                     "witness": None if chk.witness is None else sorted(chk.witness, key=repr),
                     "provenance": "exhaustive"})
    return recs


def cmd_densify(args):
    from . import hypergraph
    with open(args.input) as fh:
        hg = hypergraph.read_weighted_hypergraph(fh)
    dense = hypergraph.densify(hg, args.b, args.c, seed=args.seed)
    with open(args.output, "w") as fh:
        hypergraph.write_simple_hypergraph(dense, fh)
    bound = hypergraph.retained_count_bound(args.c, dense.source_edges, args.b)
    return [{"record": "densified", "replicas": dense.replicas,
             "kept": len(dense.edges), "deleted": dense.deleted,
             "retained_bound": bound, "meets_bound": len(dense.edges) >= bound,
             "path": args.output, "provenance": "seeded-replication"}]


def cmd_factors(args):
    alpha = _parse_alpha(args.alpha)
    if not 0 <= alpha <= 1:
        raise ValueError("need 0 <= alpha <= 1")
    if args.p in (1, 2):
        from . import coverage
        table = coverage.inapprox_factors(int(args.p), args.delta, alpha)
        return [{"record": "factors", "gamma": table.gamma_lower,
                 "gamma_sq": table.gamma_sq, "zeta1": table.zeta1,
                 "zeta2": table.zeta2, "provenance": "formula"}]
    if args.q is None:
        raise ValueError("p outside {1,2} needs --q (empirical gap check)")
    from . import embeddings
    ratio, real, report = embeddings.empirical_gamma(args.p, args.delta, args.q,
                                                     t=args.t, budget=args.budget)
    zeta1 = 1 + (1 - alpha) * (ratio - 1)
    zeta2 = 1 + (1 - alpha) * (ratio ** 2 - 1)
    return [{"record": "factors", "gamma": ratio,
             "gamma_sq": ratio ** 2, "zeta1": zeta1, "zeta2": zeta2,
             "kind": real.kind, "pairs_checked": report.pairs_checked,
             "provenance": "empirical-exhaustive"}]


def cmd_turan(args):
    from . import coverage
    value = coverage.turan_random_uncovered(args.z)
    return [{"record": "turan", "uncovered_fraction": value,
             "float": float(value), "provenance": "formula"}]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# the keys of embeddings.REALIZATIONS, spelled out so that building the parser loads no layer
METRIC_FAMILIES = ("l0", "l1", "l2", "lp")


def _add_budget(p):
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="search-space cap; exceeding it is exit status 3")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jchlab",
        description="coverage gadgets, gap embeddings, clustering reductions, "
                    "and relaxation-gap certification")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json-lines"), default="text")
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
    _add_budget(p)
    p.set_defaults(func=cmd_solve_jc)

    for name, fn in (("embed", cmd_embed), ("verify-embed", cmd_verify_embed)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--metric", choices=METRIC_FAMILIES, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--s", type=int, default=None)
        p.add_argument("--p", type=int, default=None)
        if name == "embed":
            p.add_argument("-o", "--output", default=None)
        else:
            p.add_argument("--restrict", default=None,
                           help="instance file of t-sets to restrict the points side")
            _add_budget(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("reduce", parents=[common], help="coverage-to-clustering")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--mode", choices=("discrete", "continuous"), required=True)
    p.add_argument("--metric", choices=METRIC_FAMILIES, default="l1")
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
    _add_budget(p)
    p.set_defaults(func=cmd_brute_opt)

    p = sub.add_parser("sdp-gap", parents=[common], help="clique gap certification")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--t", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_budget(p)
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
    _add_budget(p)
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
    _add_budget(p)
    p.set_defaults(func=cmd_factors)

    p = sub.add_parser("turan", parents=[common], help="random-extremal uncovered fraction")
    p.add_argument("--z", type=int, required=True)
    p.set_defaults(func=cmd_turan)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # the namespace holds "command", then the command's options in declaration order
    config = {"record": "config", **{k: v for k, v in vars(args).items()
                                      if k not in ("format", "func")}}
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
    except OverflowError as exc:   # finite inputs, a result no double holds
        print(f"error: past the double range: {exc}", file=sys.stderr)
        return 2
    try:
        emit([config, *records], args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # write nothing more: what is still buffered goes to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
