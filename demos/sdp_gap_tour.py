"""The 4-clique relaxation gap, certified end to end
====================================================

Points are 4-cliques of a complete graph, candidate centers are edges.  An
explicit feasible SDP solution connects every point at distance 2 while
opening a fifth of each center; every constraint holds exactly, with
rational residual 0, and a float cross-check sits beside it.  Integrally, a
guaranteed fraction of the cliques escapes any comparable budget, and the
two sides meet at 149/125.
"""

import math

from jchlab import (
    build_clique_gap_instance, build_sdp_solution, verify_sdp_solution,
    lp_fractional_value, integral_min_uncovered, gap_report,
)

inst = build_clique_gap_instance(6)
print(f"n=6: {len(inst.point_labels)} 4-cliques, "
      f"{len(inst.center_labels)} edges, integral budget k={inst.k}, "
      f"fractional budget {inst.fractional_budget}")

sol = build_sdp_solution(inst, t=5)
chk = verify_sdp_solution(sol)
print("constraint residuals (exact, then the float cross-check):")
for fam, r in chk.residuals.items():
    print(f"  {fam:>17}: {chk.exact_residuals[fam]}  {r:.2e}")
print(f"SDP objective: {chk.objective_exact} "
      f"(numeric cross-check {chk.objective_float:.12f})")
print("LP value:", lp_fractional_value(inst).objective,
      "opening total", lp_fractional_value(inst).open_total)

# The integral side, exactly.
for kp in (1, 2, 3):
    r = integral_min_uncovered(inst, kp)
    print(f"k'={kp}: min uncovered 4-cliques = {r.uncovered} "
          f"(witness {r.witness})")

print("\nfull report over n in {6, 8}:")
rep = gap_report([6, 8], t=5, extra_center_fractions=(0.0, 0.2))
print("asymptotic uncovered fraction:", rep["reiher_uncovered_fraction"])
print("asymptotic gap:", rep["asymptotic_gap"],
      f"= {float(rep['asymptotic_gap']):.4f}")
for row in rep["rows"]:
    print(f"  n={row['n']}: SDP {row['sdp_objective']}, "
          f"residual {row['sdp_max_residual']:.1e}")
    for sweep in row["integral_sweeps"]:
        lb = sweep.get("integral_cost_lb")
        flag = "  <- finite-size deviation" if sweep.get("finite_size_deviation") else ""
        print(f"    +{int(sweep['delta'] * 100):>3}% centers (k'={sweep['k_prime']}): "
              f"uncovered {sweep['uncovered']}, integral cost >= {lb}{flag}")
