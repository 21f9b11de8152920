"""Per-layer metrics from the spans of one traced pass.

Times are seconds summed over the pass.  A named span's time is inclusive
(brute_force_optimal_cost includes the clustering_cost calls it makes);
`cli.main_self_s` is self time: the main span minus the part of its
interval that its child spans cover.  Counts come from the span counts the
shim reads off arguments and results, so they repeat exactly for one seed.
"""

from collections import defaultdict

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "cli.import_s": "s", "cli.main_self_s": "s",
    "coverage.brute_s": "s", "coverage.collections": "count",
    "coverage.ns_per_collection": "ns", "coverage.fpt_s": "s", "coverage.io_s": "s",
    "coverage.refusals": "count",
    "codes.encode_s": "s", "codes.encode_calls": "count",
    "embeddings.verify_s": "s", "embeddings.pairs": "count",
    "embeddings.us_per_pair_int": "us", "embeddings.us_per_pair_float": "us",
    "embeddings.us_per_pair_fraction": "us", "embeddings.export_s": "s",
    "reduction.build_s": "s", "reduction.coords": "count", "reduction.write_s": "s",
    "reduction.read_s": "s", "reduction.file_bytes": "bytes", "reduction.oracle_s": "s",
    "reduction.subsets": "count", "reduction.us_per_subset": "us", "reduction.cost_s": "s",
    "reduction.cost_calls": "count",
    "geometry.distance_s": "s", "geometry.distance_calls": "count",
    "geometry.center_s": "s", "geometry.center_calls": "count",
    "relaxations.sdp_build_s": "s", "relaxations.sdp_verify_s": "s",
    "relaxations.sdp_bytes": "bytes", "relaxations.integral_s": "s",
    "relaxations.integral_subsets": "count", "relaxations.ns_per_subset": "ns",
    "relaxations.rows_certified_frac": "frac",
    "hypergraph.exact_s": "s", "hypergraph.exact_outcomes": "count",
    "hypergraph.edges": "count", "hypergraph.mc_s": "s", "hypergraph.samples": "count",
    "hypergraph.us_per_sample": "us", "hypergraph.densify_s": "s",
    "hypergraph.replicas": "count", "hypergraph.kept_frac": "frac",
    "hypergraph.ns_per_replica": "ns", "hypergraph.io_s": "s",
    "hypergraph.file_bytes": "bytes",
    "trace.overhead_frac": "frac",
}

IO = {
    "coverage": ("coverage.read_instance", "coverage.write_instance"),
    "hypergraph": ("hypergraph.read_pcp", "hypergraph.write_pcp",
                   "hypergraph.read_weighted_hypergraph",
                   "hypergraph.write_weighted_hypergraph",
                   "hypergraph.write_simple_hypergraph"),
}


def _ratio(num, den, scale):
    return num / den * scale if den else 0.0


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals.

    Children of one span never overlap (one thread, one stack), so the
    union is their summed duration.
    """
    child = defaultdict(float)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    return {sid: (end - start) - child[sid] for sid, _, start, end, *_ in spans}


def pass_metrics(records):
    """Metrics of one traced pass from the shim's span files, one per job."""
    t = defaultdict(float)      # span name -> inclusive seconds
    n = defaultdict(int)        # span name -> calls
    c = defaultdict(int)        # count key -> total
    import_s = main_self = 0.0
    for rec in records:
        import_s += rec["import_s"]
        selfs = self_times(rec["spans"])
        for sid, name, start, end, parent, job, counts, error in rec["spans"]:
            t[name] += end - start
            n[name] += 1
            if name == "cli.main":
                main_self += selfs[sid]
            if error == "BudgetExceededError" and name.startswith("coverage."):
                c["coverage.refusals"] += 1
            if not counts:
                continue
            if name == "embeddings.verify_gap_realization":
                c["pairs"] += counts["pairs"]
                c["pairs_" + counts["path"]] += counts["pairs"]
                t["verify_" + counts["path"]] += end - start
            elif name == "hypergraph.build_weighted_hypergraph":
                c["hg_edges"] += counts["edges"]
                if counts["mode"] == "exact":
                    c["outcomes"] += counts["outcomes"]
                    t["hg_exact"] += end - start
                else:
                    c["samples"] += counts["samples"]
                    t["hg_mc"] += end - start
            else:
                for key, value in counts.items():
                    c[f"{name}.{key}"] += value

    def total(*names):
        return sum(t[x] for x in names)

    brute, oracle = t["coverage.brute_force_max_coverage"], t["reduction.brute_force_optimal_cost"]
    integral, densify = t["relaxations.integral_min_uncovered"], t["hypergraph.densify"]
    collections = c["coverage.brute_force_max_coverage.collections"]
    subsets = c["reduction.brute_force_optimal_cost.subsets"]
    int_subsets = c["relaxations.integral_min_uncovered.subsets"]
    replicas = c["hypergraph.densify.replicas"]
    sweeps = c["relaxations.gap_report.sweeps"]
    return {
        "cli.import_s": import_s,
        "cli.main_self_s": main_self,
        "coverage.brute_s": brute,
        "coverage.collections": collections,
        "coverage.ns_per_collection": _ratio(brute, collections, 1e9),
        "coverage.fpt_s": t["coverage.fpt_cover_decide"],
        "coverage.io_s": total(*IO["coverage"]),
        "coverage.refusals": c["coverage.refusals"],
        "codes.encode_s": t["codes.rs_encode"],
        "codes.encode_calls": n["codes.rs_encode"],
        "embeddings.verify_s": t["embeddings.verify_gap_realization"],
        "embeddings.pairs": c["pairs"],
        "embeddings.us_per_pair_int": _ratio(t["verify_int"], c["pairs_int"], 1e6),
        "embeddings.us_per_pair_float": _ratio(t["verify_float"], c["pairs_float"], 1e6),
        "embeddings.us_per_pair_fraction": _ratio(t["verify_fraction"],
                                                  c["pairs_fraction"], 1e6),
        "embeddings.export_s": t["embeddings.export_realization"],
        "reduction.build_s": total("reduction.build_discrete_instance",
                                   "reduction.build_continuous_indicator_instance"),
        "reduction.coords": c["reduction.build_discrete_instance.coords"]
        + c["reduction.build_continuous_indicator_instance.coords"],
        "reduction.write_s": t["reduction.write_points"],
        "reduction.read_s": t["reduction.read_points"],
        "reduction.file_bytes": c["reduction.write_points.bytes"],
        "reduction.oracle_s": oracle,
        "reduction.subsets": subsets,
        "reduction.us_per_subset": _ratio(oracle, subsets, 1e6),
        "reduction.cost_s": t["reduction.clustering_cost"],
        "reduction.cost_calls": n["reduction.clustering_cost"],
        "geometry.distance_s": t["geometry.pointwise_distance"],
        "geometry.distance_calls": n["geometry.pointwise_distance"],
        "geometry.center_s": t["geometry.best_center_continuous"],
        "geometry.center_calls": n["geometry.best_center_continuous"],
        "relaxations.sdp_build_s": t["relaxations.build_sdp_solution"],
        "relaxations.sdp_verify_s": t["relaxations.verify_sdp_solution"],
        "relaxations.sdp_bytes": c["relaxations.build_sdp_solution.bytes"],
        "relaxations.integral_s": integral,
        "relaxations.integral_subsets": int_subsets,
        "relaxations.ns_per_subset": _ratio(integral, int_subsets, 1e9),
        "relaxations.rows_certified_frac": _ratio(
            c["relaxations.gap_report.certified"], sweeps, 1.0),
        "hypergraph.exact_s": t["hg_exact"],
        "hypergraph.exact_outcomes": c["outcomes"],
        "hypergraph.edges": c["hg_edges"],
        "hypergraph.mc_s": t["hg_mc"],
        "hypergraph.samples": c["samples"],
        "hypergraph.us_per_sample": _ratio(t["hg_mc"], c["samples"], 1e6),
        "hypergraph.densify_s": densify,
        "hypergraph.replicas": replicas,
        "hypergraph.kept_frac": _ratio(c["hypergraph.densify.kept"], replicas, 1.0),
        "hypergraph.ns_per_replica": _ratio(densify, replicas, 1e9),
        "hypergraph.io_s": total(*IO["hypergraph"]),
        "hypergraph.file_bytes": c["hypergraph.write_weighted_hypergraph.bytes"]
        + c["hypergraph.write_simple_hypergraph.bytes"],
    }
