"""jchlab: coverage gadgets, metric gap embeddings, clustering reductions,
and relaxation-gap certification, all backed by exhaustive desk-scale oracles.

Layers load on first use (PEP 562), so `import jchlab` loads none of them.
"""

import importlib

# layer submodule -> the public names it defines
_LAYERS = {
    "coverage": """JohnsonInstance CoverageReport FactorTable cov coverage_fraction
        brute_force_max_coverage fpt_cover_decide gen_instance turan_random_uncovered
        inapprox_factors read_instance write_instance""",
    "codes": """RsCode rs_encode verify_relative_distance pick_code_params
        message_for_element is_prime next_prime""",
    "embeddings": """GapRealization GapReport embed_l0 embed_l1 embed_l2_scaled
        embed_lp_halfshift embed_indicator_lp verify_gap_realization realized_distance
        empirical_gamma export_realization""",
    "metric": "Metric parse_metric",
    "geometry": """kmeans_partition_cost kmeans_partition_cost_centroid
        best_center_continuous weiszfeld_geometric_median coordinate_median
        separation_center_bound_check l1sq_pairwise_lower_bound pointwise_distance""",
    "reduction": """ClusteringInstance CostBreakdown build_discrete_instance
        build_continuous_indicator_instance clustering_cost brute_force_optimal_cost
        centers_by_labels soundness_floor meets_soundness_floor read_points write_points
        SupportRows SupportInstance composed_supports indicator_supports write_construction""",
    "relaxations": """CliqueGapInstance SdpSolution build_clique_gap_instance
        build_sdp_solution verify_sdp_solution lp_fractional_value integral_min_uncovered
        gap_report reiher_uncovered_fraction asymptotic_gap""",
    "hypergraph": """LayeredPcp WeightedHypergraph3 SimpleHypergraph layer_pair_distribution
        layer_marginal build_weighted_hypergraph completeness_cover_check densify
        retained_count_bound cover_transfers read_pcp write_pcp read_weighted_hypergraph
        write_weighted_hypergraph write_simple_hypergraph""",
    "errors": "BudgetExceededError CertificationError ConvergenceError",
}
_OWNER = {name: layer for layer, names in _LAYERS.items() for name in names.split()}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYERS, *_OWNER})
