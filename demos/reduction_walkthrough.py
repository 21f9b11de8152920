"""From coverage to clustering, with exact distance accounting
==============================================================

The discrete route composes a Reed-Solomon code with a gap realization:
points encode edges, candidate centers encode y-subsets, and coverage
becomes a clean two-level distance structure.  The continuous route drops
the candidate centers and lets exact center oracles do the work.
"""

import math

from jchlab import (
    RsCode, gen_instance, embed_l1,
    build_discrete_instance, build_continuous_indicator_instance, composed_supports,
    clustering_cost, centers_by_labels, brute_force_optimal_cost,
    soundness_floor, meets_soundness_floor,
    best_center_continuous, kmeans_partition_cost,
    separation_center_bound_check, parse_metric,
)

inst = gen_instance("complete", n=4, z=3, y=2, k=2)
print(f"instance: all {inst.num_edges} triples of [4], budget k=2")

# Small field: every codeword is constant, so blocks repeat one pattern.
code = RsCode(5, 1)
ci = build_discrete_instance(inst, code, embed_l1(5, 3, 2))
print(f"composed instance: {len(ci.point_labels)} points, "
      f"{len(ci.center_labels)} candidate centers, dim {ci.dim}, "
      f"base distance {ci.meta['base_distance']}")

witness = centers_by_labels(ci, [(1, 2), (3, 4)])
bd = clustering_cost(ci, witness)
print(f"covering witness: total cost {bd.total}, "
      f"{bd.at_base}/{len(bd.per_point)} points at the base distance")

opt_witness, opt_cost = brute_force_optimal_cost(ci, "discrete")
print(f"exhaustive optimum: {opt_witness} at cost {opt_cost}")

# A large field makes the uncovered floor exceed the base distance, so a bad
# center set provably pays more.  q = 2917 is the smallest prime that works.
# Its rows have 2917^2 coordinates; held as supports, none is built.
big = composed_supports(inst, RsCode(2917, 1), embed_l1(2917, 3, 2))
bad = centers_by_labels(big, [(1, 2), (1, 3)])
bd = clustering_cost(big, bad)
print(f"\nq=2917: base {big.meta['base_distance']}, "
      f"uncovered floor {soundness_floor(big):.2f}")
for label, _, d in bd.per_point:
    state = "uncovered" if meets_soundness_floor(big, d) else "covered"
    print(f"  point {label}: distance {d}  [{state}]")

# Continuous side: indicator vectors, centers free in space.
cont = build_continuous_indicator_instance(inst)
partition, cost = brute_force_optimal_cost(cont, "continuous")
print(f"\ncontinuous optimum (squared l2, k=2): cost {cost} "
      f"with parts {partition}")
print("pairwise-form cost of that partition:",
      kmeans_partition_cost(cont.points, partition))

# Exact center oracles at work.
tri = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
c, geo = best_center_continuous(tri, parse_metric("l2"), 1)
print(f"\ngeometric median of the unit triangle: cost {geo:.6f} "
      f"(= sqrt(3) = {math.sqrt(3):.6f})")

# Pairwise-separated points admit no center close to all of them.
print("separated basis vectors forced radius >= 0.9:",
      separation_center_bound_check(
          [[float(i == j) for j in range(50)] for i in range(50)], 0.1))
