"""Run one jchlab command with its library calls recorded as spans.

    python3 perfbench/shim.py SPANS.json JOB_ID -- <jchlab arguments>

The shim imports `jchlab.cli`, timing the import, then replaces each function
in WRAPPED with a wrapper everywhere the name is looked up: the defining
module and every jchlab module that imported the name (so
`reduction.pointwise_distance` and `reduction.rs_encode` are caught as well
as the `cli -> module` attribute calls).  A wrapper records one span (name,
start, end, parent, job id, counts) in memory; the spans are written as
JSON when the command returns.  Nothing inside `src/` changes.
"""

import json
import math
import sys
import time

# layer -> functions wrapped in it
WRAPPED = {
    "coverage": ("brute_force_max_coverage", "fpt_cover_decide", "read_instance",
                 "write_instance"),
    "codes": ("rs_encode",),
    "embeddings": ("verify_gap_realization", "export_realization", "empirical_gamma"),
    "reduction": ("build_discrete_instance", "build_continuous_indicator_instance",
                  "write_points", "read_points", "brute_force_optimal_cost",
                  "clustering_cost"),
    "geometry": ("pointwise_distance", "best_center_continuous"),
    "relaxations": ("build_sdp_solution", "verify_sdp_solution", "integral_min_uncovered",
                    "gap_report"),
    "hypergraph": ("build_weighted_hypergraph", "completeness_cover_check", "densify",
                   "read_pcp", "write_pcp", "read_weighted_hypergraph",
                   "write_weighted_hypergraph", "write_simple_hypergraph"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bytes_written(args, kwargs, result):
    return {"bytes": _arg(args, kwargs, 1, "fh").tell()}


def _collections(args, kwargs, result):
    inst = _arg(args, kwargs, 0, "inst")
    cands = math.comb(inst.n, inst.y)
    return {"collections": math.comb(cands, min(inst.k, cands))}


def _pairs(args, kwargs, result):
    real = _arg(args, kwargs, 0, "real")
    if real.kind == "indicator":
        path = "int" if real.exact else "float"
    elif real.kind == "halfshift":
        path = "fraction" if real.exact else "float"
    else:
        path = "float"
    return {"pairs": result.pairs_checked, "path": path}


def _coords(args, kwargs, result):
    rows = len(result.points) + (0 if result.centers is None else len(result.centers))
    return {"coords": rows * result.points.shape[1]}


def _subsets(args, kwargs, result):
    ci, mode = _arg(args, kwargs, 0, "ci"), _arg(args, kwargs, 1, "mode")
    if mode == "discrete":
        mc = len(ci.center_labels)
        return {"subsets": math.comb(mc, min(ci.k, mc))}
    return {"subsets": _partition_count(len(ci.points), ci.k)}


def _partition_count(m, kmax):
    # set partitions of m items into at most kmax blocks (Stirling numbers)
    row = [1] + [0] * kmax
    for _ in range(m):
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, kmax + 1)]
    return sum(row[1:])


def _sdp_bytes(args, kwargs, result):
    return {"bytes": result.v0.nbytes + result.u.nbytes + result.v.nbytes}


def _integral(args, kwargs, result):
    inst, k_prime = _arg(args, kwargs, 0, "inst"), _arg(args, kwargs, 1, "k_prime")
    m = len(inst.center_labels)
    exact = result.method == "exact"
    return {"subsets": math.comb(m, min(k_prime, m)) if exact else 0}


def _sweeps(args, kwargs, result):
    sweeps = [s for row in result["rows"] for s in row["integral_sweeps"]]
    return {"sweeps": len(sweeps),
            "certified": sum(1 for s in sweeps if s["method"] == "exact")}


def _hypergraph(args, kwargs, result):
    pcp = _arg(args, kwargs, 0, "pcp")
    out = {"mode": result.mode, "edges": len(result.edges)}
    if result.mode == "exact":
        out["outcomes"] = sum(2 ** (pcp.alphabets[i - 1] + 2 * pcp.alphabets[j - 1])
                              for i, j, *_ in pcp.edges)
    else:
        out["samples"] = _arg(args, kwargs, 3, "samples")
    return out


def _densified(args, kwargs, result):
    return {"replicas": result.replicas, "kept": len(result.edges)}


# qualified name -> counts(args, kwargs, result), read after the call returns
COUNTS = {
    "coverage.brute_force_max_coverage": _collections,
    "coverage.write_instance": _bytes_written,
    "embeddings.verify_gap_realization": _pairs,
    "reduction.build_discrete_instance": _coords,
    "reduction.build_continuous_indicator_instance": _coords,
    "reduction.write_points": _bytes_written,
    "reduction.brute_force_optimal_cost": _subsets,
    "relaxations.build_sdp_solution": _sdp_bytes,
    "relaxations.integral_min_uncovered": _integral,
    "relaxations.gap_report": _sweeps,
    "hypergraph.build_weighted_hypergraph": _hypergraph,
    "hypergraph.densify": _densified,
    "hypergraph.write_weighted_hypergraph": _bytes_written,
    "hypergraph.write_simple_hypergraph": _bytes_written,
}


class Tracer:
    def __init__(self, job):
        self.job = job
        self.spans = []       # [id, name, start, end, parent, job, counts, error]
        self.stack = []

    def wrap(self, name, fn):
        counts = COUNTS.get(name)

        def wrapper(*args, **kwargs):
            span = [len(self.spans), name, time.perf_counter(), None,
                    self.stack[-1] if self.stack else None, self.job, None, None]
            self.spans.append(span)
            self.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[7] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                span[6] = counts(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules):
        originals = {}
        for layer, names in WRAPPED.items():
            for fname in names:
                fn = getattr(modules[layer], fname)
                originals[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, attr, originals[id(value)])


def main(argv):
    spans_path, job, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: shim.py SPANS.json JOB_ID -- <jchlab arguments>")
    start = time.perf_counter()
    import jchlab
    from jchlab import cli
    import_s = time.perf_counter() - start
    modules = {name: getattr(jchlab, name) for name in WRAPPED}
    modules.update(cli=cli, jchlab=jchlab)
    tracer = Tracer(job)
    tracer.install(modules)
    main_fn = tracer.wrap("cli.main", cli.main)
    try:
        code = main_fn(args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"job": job, "import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
