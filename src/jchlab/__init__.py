"""jchlab: coverage gadgets, metric gap embeddings, clustering reductions,
and relaxation-gap certification, all backed by exhaustive desk-scale oracles.
"""

from .coverage import (
    JohnsonInstance, CoverageReport, FactorTable,
    cov, coverage_fraction, brute_force_max_coverage, fpt_cover_decide,
    gen_instance, turan_random_uncovered, inapprox_factors,
    read_instance, write_instance,
)
from .codes import (
    RsCode, rs_encode, verify_relative_distance, pick_code_params,
    message_for_element, is_prime, next_prime,
)
from .embeddings import (
    GapRealization, GapReport,
    embed_l0, embed_l1, embed_l2_scaled, embed_lp_halfshift, embed_indicator_lp,
    verify_gap_realization, realized_distance, empirical_gamma,
    export_realization,
)
from .geometry import (
    kmeans_partition_cost, kmeans_partition_cost_centroid,
    best_center_continuous, weiszfeld_geometric_median, coordinate_median,
    min_enclosing_ball, separation_center_bound_check,
    l1sq_pairwise_lower_bound, pointwise_distance, Metric, parse_metric,
)
from .reduction import (
    ClusteringInstance, CostBreakdown,
    build_discrete_instance, build_continuous_indicator_instance,
    clustering_cost, brute_force_optimal_cost, centers_by_labels,
    soundness_floor, meets_soundness_floor, read_points, write_points,
)
from .relaxations import (
    CliqueGapInstance, SdpSolution,
    build_clique_gap_instance, build_sdp_solution, verify_sdp_solution,
    lp_fractional_value, integral_min_uncovered, gap_report,
    reiher_uncovered_fraction, asymptotic_gap,
)
from .hypergraph import (
    LayeredPcp, WeightedHypergraph3, SimpleHypergraph,
    layer_pair_distribution, layer_marginal, build_weighted_hypergraph,
    densification_schedule,
    completeness_cover_check, densify, retained_count_bound, cover_transfers,
    read_pcp, write_pcp, read_weighted_hypergraph, write_weighted_hypergraph,
    write_simple_hypergraph,
)
from .errors import BudgetExceededError, CertificationError, ConvergenceError

__version__ = "0.1.0"
