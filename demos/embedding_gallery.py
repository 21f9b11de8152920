"""A gallery of certified gap embeddings
========================================

Each construction maps the t-subsets and s-subsets of {0..q-1} into a metric
space so that containment pairs share one distance and everything else is
separated by a certified factor.  The verifier re-derives every claim
exhaustively: it checks every realized vector, takes |T cap S| of every
(t-set, s-set) pair, and computes one distance per intersection class.
"""

import io
import math

from jchlab import (
    embed_l1, embed_l2_scaled, embed_lp_halfshift,
    verify_gap_realization, export_realization,
)

print("characteristic vectors in l1 (gap (t-s+2)/(t-s)):")
for q, t, s in ((4, 3, 2), (5, 3, 1), (6, 4, 2)):
    rep = verify_gap_realization(embed_l1(q, t, s))
    print(f"  q={q} t={t} s={s}: edges at {rep.edge_distance}, "
          f"non-edges at >= {rep.min_nonedge_distance}, "
          f"ratio {rep.min_nonedge_over_edge} "
          f"({rep.pairs_checked} pairs)")

print("\nscaled vectors in l2 (beats the square root of the l1 gap):")
for q, t, s in ((5, 3, 2), (6, 4, 1), (7, 4, 3)):
    real = embed_l2_scaled(q, t, s)
    rep = verify_gap_realization(real)
    l1_route = math.sqrt((t - s + 2) / (t - s))
    print(f"  q={q} t={t} s={s}: claimed {real.lambda_claimed:.4f}, "
          f"certified {rep.certified_ratio:.4f}, "
          f"sqrt of l1 gap {l1_route:.4f}")

print("\nhalf-shifted vectors in lp (ratio 3/q^(1/p) -> 3 as p grows):")
for p in (2, 4, 8, 16, 32):
    real = embed_lp_halfshift(4, 3, p)
    rep = verify_gap_realization(real)
    print(f"  p={p:>2}: claimed {real.lambda_claimed:.4f}, "
          f"certified {rep.certified_ratio:.4f} (ceiling 3)")

# Realizations restrict to any edge subset without losing the gap.
real = embed_l1(5, 3, 2)
full = verify_gap_realization(real)
sub = verify_gap_realization(real, edge_subset=[(0, 1, 2), (2, 3, 4)])
print(f"\nhereditary restriction: full ratio {float(full.certified_ratio)}, "
      f"two-edge restriction {float(sub.certified_ratio)}")

# Export: one labeled row per vertex.
buf = io.StringIO()
export_realization(embed_l1(4, 3, 2), buf)
print("\nexported rows (first three):")
for line in buf.getvalue().splitlines()[:3]:
    print(" ", line)
