"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from jchlab import (
    RsCode,
    gen_instance, brute_force_max_coverage, fpt_cover_decide,
    turan_random_uncovered, inapprox_factors,
    verify_relative_distance,
    embed_l1, embed_l2_scaled, embed_lp_halfshift, verify_gap_realization,
    composed_supports, clustering_cost, centers_by_labels,
    soundness_floor, meets_soundness_floor,
    build_clique_gap_instance, build_sdp_solution, verify_sdp_solution,
    lp_fractional_value, integral_min_uncovered, gap_report,
    reiher_uncovered_fraction, asymptotic_gap,
    kmeans_partition_cost, kmeans_partition_cost_centroid,
    weiszfeld_geometric_median, best_center_continuous,
    separation_center_bound_check, parse_metric,
    LayeredPcp, WeightedHypergraph3, layer_marginal,
    build_weighted_hypergraph, completeness_cover_check, densify,
    retained_count_bound, cover_transfers,
)
from jchlab.codes import distance_bound_ok


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  criterion {num}: {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_l1_gap_realizations():
    start = time.time()
    checked = 0
    for q in range(2, 8):
        for t in range(2, q + 1):
            for s in range(1, t):
                rep = verify_gap_realization(embed_l1(q, t, s))
                assert rep.edge_distance == t - s
                if t < q:
                    assert rep.min_nonedge_distance == t - s + 2
                    assert rep.min_nonedge_over_edge == Fraction(t - s + 2, t - s)
                else:
                    assert rep.nonedge_pairs == 0
                checked += 1
    elapsed = time.time() - start
    report(1, "l1 realizations exact over q <= 7", elapsed < 10,
           f"({checked} parameter triples, {elapsed:.2f}s)")


def test_criterion_2_l2_scaled_realizations():
    start = time.time()
    checked = 0
    for q in range(2, 8):
        for t in range(2, q + 1):
            for s in range(1, t):
                real = embed_l2_scaled(q, t, s)
                rep = verify_gap_realization(real)
                want_beta = math.sqrt(2) * math.sqrt(t - math.sqrt(t * s))
                assert abs(real.beta - want_beta) <= 1e-9
                claim = math.sqrt(1 + 1 / (math.sqrt(t * s) - s))
                assert rep.certified_ratio >= claim - 1e-9
                assert rep.certified_ratio > math.sqrt((t - s + 2) / (t - s))
                checked += 1
    elapsed = time.time() - start
    report(2, "l2 scaled realizations certified over q <= 7", elapsed < 30,
           f"({checked} parameter triples, {elapsed:.2f}s)")


def test_criterion_3_lp_halfshift():
    real = embed_lp_halfshift(4, 3, 2)
    rep = verify_gap_realization(real)
    assert real.beta == 1.0
    assert real.lambda_claimed == 1.5
    assert rep.min_nonedge_distance >= 1.5          # guaranteed floor, exact
    assert abs(rep.min_nonedge_distance - math.sqrt(3)) <= 1e-9
    for q in range(2, 6):
        for t in range(2, q + 1):
            for p in (4, 8, 16):
                rep = verify_gap_realization(embed_lp_halfshift(q, t, p))
                assert rep.certified_ratio >= 3 / q ** (1 / p) - 1e-9
                if rep.nonedge_pairs:
                    assert rep.certified_ratio <= 3 + 1e-9
    report(3, "lp half-shift floors and ceiling", True,
           "(q=4,p=2 floor 3/2 exact; p in {4,8,16} certified)")


def test_criterion_4_factor_table():
    e = math.e
    t = inapprox_factors(1, 1, 1 - 1 / e)
    assert abs(t.zeta1 - (1 + 2 / e)) <= 1e-12
    assert abs(t.zeta2 - (1 + 8 / e)) <= 1e-12
    t = inapprox_factors(2, 1, 1 - 1 / e)
    assert 1.26 <= t.zeta1 <= 1.28
    assert 1.73 <= t.zeta2 <= 1.74
    t = inapprox_factors(1, 2, Fraction(7, 8))
    assert t.zeta1 == Fraction(9, 8) and t.zeta2 == Fraction(11, 8)
    report(4, "factor table constants", True,
           "(1+2/e, 1+8/e, [1.26,1.28], [1.73,1.74], 9/8, 11/8)")


def test_criterion_5_discrete_reduction_exactness():
    # q = 2917: the smallest prime with 18*z*y/sqrt(q) < 2, so the uncovered
    # floor strictly exceeds the covered base distance
    q = 2917
    code = RsCode(q, 1)
    assert distance_bound_ok(code) and code.relative_distance == 1
    assert verify_relative_distance(code, "sampled", seed=0, samples=500) == 1
    inst = gen_instance("complete", 4, 3, 2, 2)
    ci = composed_supports(inst, code, embed_l1(q, 3, 2))
    base = ci.meta["base_distance"]
    assert base == q  # beta * ell with beta = 1, ell = q

    witness = centers_by_labels(ci, [(1, 2), (3, 4)])
    bd = clustering_cost(ci, witness)
    assert all(d == base for _, _, d in bd.per_point)
    assert bd.at_base == 4

    bad = centers_by_labels(ci, [(1, 2), (1, 3)])   # leaves (2,3,4) uncovered
    bd_bad = clustering_cost(ci, bad)
    uncovered = [(lab, d) for lab, _, d in bd_bad.per_point if lab == (2, 3, 4)]
    assert len(uncovered) == 1
    d = uncovered[0][1]
    assert meets_soundness_floor(ci, d)
    # exact integer form of floor > base: (2*q - 3*q + d)... spelled out:
    assert (2 * q) ** 2 > (18 * 3 * 2) ** 2 * q    # floor - base > 0
    assert not meets_soundness_floor(ci, base)     # covered points sit below it
    report(5, "discrete reduction completeness/soundness at q=2917", True,
           f"(base {base}, uncovered point at {d}, floor {soundness_floor(ci):.3f})")


def test_criterion_6_oracle_agreement():
    agreements = 0
    for trial in range(100):
        rng = random.Random(1000 + trial)
        n = rng.randint(5, 8)
        k = rng.randint(1, 4)
        m = rng.randint(1, min(math.comb(n, 3), 18))
        inst = gen_instance("random", n, 3, 2, k=k, m=m, seed=rng.randint(0, 10**6))
        decision, _ = fpt_cover_decide(inst)
        _, rep = brute_force_max_coverage(inst)
        assert decision == rep.is_complete, (n, k, m, trial)
        agreements += 1
    report(6, "branching vs brute force on 100 seeded instances",
           agreements == 100, f"({agreements}/100 agree)")


def test_criterion_7_sdp_gap():
    start = time.time()
    for n in (6, 8, 10):
        inst = build_clique_gap_instance(n)
        sol = build_sdp_solution(inst, t=5)
        chk = verify_sdp_solution(sol, tol=1e-8)
        assert chk.max_residual <= 1e-8
        assert chk.objective_exact == 2 * math.comb(n, 4)
        assert lp_fractional_value(inst).objective == chk.objective_exact
    assert asymptotic_gap(5) == Fraction(149, 125)
    assert reiher_uncovered_fraction(5) == Fraction(24, 125)
    rep = gap_report([6], t=5, extra_center_fractions=(0.0,))
    sweep = rep["rows"][0]["integral_sweeps"][0]
    assert sweep["uncovered"] == 0 and sweep["method"] == "exact"
    assert sweep["finite_size_deviation"] is True
    elapsed = time.time() - start
    report(7, "SDP certificate, LP value, 149/125 gap", elapsed < 60,
           f"({elapsed:.2f}s)")


def test_criterion_8_turan_product():
    assert turan_random_uncovered(4) == Fraction(24, 125)
    assert abs(float(turan_random_uncovered(50)) - 1 / math.e) <= 0.01
    report(8, "random-extremal uncovered fractions", True,
           f"(z=4 exact, z=50 -> {float(turan_random_uncovered(50)):.4f})")


def test_criterion_9_continuous_oracles():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 12))
        d = int(rng.integers(1, 6))
        pts = rng.normal(size=(m, d)) * rng.uniform(0.5, 4.0)
        parts = [tuple(range(0, m // 2 or 1)), tuple(range(m // 2 or 1, m))]
        parts = [p for p in parts if p]
        a = kmeans_partition_cost(pts.tolist(), parts)
        b = kmeans_partition_cost_centroid(pts.tolist(), parts)
        worst = max(worst, abs(a - b))
    assert worst <= 1e-9

    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    _, wcost = weiszfeld_geometric_median(tri.tolist())
    assert abs(wcost - math.sqrt(3)) <= 1e-4
    xs = np.arange(0.0, 1.0, 1e-3)
    ys = np.arange(0.0, 0.9, 1e-3)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    total = np.zeros(len(grid))
    for p in tri:
        total += np.sqrt(((grid - p) ** 2).sum(axis=1))
    assert wcost <= float(total.min()) + 1e-4

    pts01 = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1]])
    _, med_cost = best_center_continuous(pts01.tolist(), parse_metric("l1"), 1)
    assert med_cost == 3

    assert separation_center_bound_check(np.eye(50).tolist(), 0.1)
    report(9, "continuous center oracles", True,
           f"(pairwise-vs-centroid worst {worst:.2e}, Weiszfeld {wcost:.6f})")


def test_criterion_10_hvc_pipeline():
    assert layer_marginal(3) == (Fraction(4, 5), Fraction(1, 5), 0)

    pcp = LayeredPcp(layers=(("u",), ("v",)), alphabets=(2, 2),
                     edges=((1, 2, "u", "v", (0, 1)),))
    hg = build_weighted_hypergraph(pcp, Fraction(1, 8))
    assert hg.edge_weight_total() == 1
    chk = completeness_cover_check(pcp, hg, {(1, "u"): 0, (2, "v"): 0})
    assert chk.all_hit and chk.weight == Fraction(1, 2)

    triples = [("a", "b", "c"), ("a", "d", "e"), ("b", "d", "f"), ("c", "e", "f")]
    toy = WeightedHypergraph3(
        edges={frozenset((1, v, (1,)) for v in t): Fraction(1, 4) for t in triples},
        mode="exact")
    cover = {(1, "a", (1,)), (1, "f", (1,))}
    bound = retained_count_bound(181, 4, 8)
    met = 0
    for seed in range(20):
        dense = densify(toy, b=8, c=181, seed=seed)
        rows = dense.edges
        assert all(x < y for x, y in zip(rows, rows[1:]))   # simple
        assert cover_transfers(cover, dense)
        if len(dense.edges) >= bound:
            met += 1
    assert met >= 18
    report(10, "layered-system hypergraph pipeline", True,
           f"(cover weight 1/2, retained bound met {met}/20 runs)")
