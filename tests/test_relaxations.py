import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from jchlab import (
    BudgetExceededError, CertificationError, brute_force_max_coverage, gen_instance,
    build_clique_gap_instance, build_sdp_solution, verify_sdp_solution,
    lp_fractional_value, integral_min_uncovered, gap_report,
    reiher_uncovered_fraction, asymptotic_gap,
)
from jchlab.coverage import DEFAULT_BUDGET
from jchlab.relaxations import IntegralResult


def indicators(labels, n):
    """0/1 rows over the vertices [n], one per label."""
    return np.array([[int(v in label) for v in range(1, n + 1)] for label in labels])


def test_instance_shapes():
    for n, pts, cts, k in ((5, 5, 10, 2), (6, 15, 15, 3)):
        inst = build_clique_gap_instance(n)
        assert len(inst.point_labels) == pts
        assert len(inst.center_labels) == cts
        assert inst.k == k
    with pytest.raises(ValueError):
        build_clique_gap_instance(4)


def test_each_point_covered_by_six_centers():
    inst = build_clique_gap_instance(6)
    centers = indicators(inst.center_labels, inst.n)
    for row in indicators(inst.point_labels, inst.n):
        d = np.abs(centers - row).sum(axis=1)
        assert (d == 2).sum() == 6
        assert set(np.unique(d)) <= {2, 4, 6}


def test_well_separated():
    # all pairwise distances among points and centers at least the base 2
    for n in (6, 7, 8):
        inst = build_clique_gap_instance(n)
        allv = indicators(inst.point_labels + inst.center_labels, n)
        for i in range(len(allv)):
            d = np.abs(allv[i + 1:] - allv[i]).sum(axis=1)
            assert (d >= 2).all()


def test_sdp_norms():
    inst = build_clique_gap_instance(6)
    sol = build_sdp_solution(inst, t=5)
    assert (sol.u ** 2).sum(axis=1) == pytest.approx(np.full(15, 1 / 5), abs=1e-12)
    vn = (sol.v ** 2).sum(axis=2)
    assert vn == pytest.approx(np.full(vn.shape, 1 / 6), abs=1e-12)
    sums = sol.v.sum(axis=1)
    assert np.allclose(sums, np.tile(sol.v0, (len(inst.point_labels), 1)), atol=1e-12)


def test_sdp_residuals_tiny():
    for n in (5, 6, 8):
        sol = build_sdp_solution(build_clique_gap_instance(n), t=5)
        chk = verify_sdp_solution(sol)
        assert chk.max_residual <= 1e-12
        assert chk.objective_exact == 2 * math.comb(n, 4)
        assert chk.objective_float == pytest.approx(float(chk.objective_exact), abs=1e-9)


def test_sdp_perturbation_fails_open_constraint():
    sol = build_sdp_solution(build_clique_gap_instance(6), t=5)
    sol.u[2, 2 + 2 * 2] += 1e-3   # w'_e coordinate of u_2
    with pytest.raises(CertificationError) as err:
        verify_sdp_solution(sol)
    assert err.value.witness == "open_v0"


def test_lp_values():
    inst = build_clique_gap_instance(6)
    rep = lp_fractional_value(inst)
    assert rep.open_total == Fraction(5, 2)
    assert rep.objective == 30
    assert rep.feasibility_residual == 0
    assert lp_fractional_value(build_clique_gap_instance(5)).objective == 10


def test_integral_min_uncovered_exact():
    inst6 = build_clique_gap_instance(6)
    r = integral_min_uncovered(inst6, 3)
    assert r.uncovered == 0 and r.method == "exact"
    inst5 = build_clique_gap_instance(5)
    assert integral_min_uncovered(inst5, 2).uncovered == 0
    # the full edge set trivially covers everything
    assert integral_min_uncovered(inst6, len(inst6.center_labels)).uncovered == 0


def test_integral_monotone_in_budget():
    inst = build_clique_gap_instance(6)
    values = [integral_min_uncovered(inst, kp).uncovered for kp in (1, 2, 3, 4)]
    assert values == sorted(values, reverse=True)


def integral_reference(inst, k_prime):
    """Plain enumeration of edge subsets in lexicographic order."""
    npoints = len(inst.point_labels)
    masks = [sum(1 << j for j, p in enumerate(inst.point_labels) if set(e) <= set(p))
             for e in inst.center_labels]
    best = None
    for idx in combinations(range(len(masks)), k_prime):
        union = 0
        for i in idx:
            union |= masks[i]
        unc = npoints - union.bit_count()
        if best is None or unc < best[0]:
            best = (unc, idx)
            if unc == 0:
                break
    witness = tuple(inst.center_labels[i] for i in best[1])
    return IntegralResult(uncovered=best[0], witness=witness, method="exact")


def test_integral_matches_enumeration():
    for n in range(5, 9):
        inst = build_clique_gap_instance(n)
        for kp in range(0, 8):
            got = integral_min_uncovered(inst, kp)
            assert got == integral_reference(inst, kp), (n, kp)
            assert got.nodes_visited >= 1


def test_integral_matches_johnson_coverage():
    # the integral side is Max k'-Coverage on the complete Johnson instance (n, 4, 2)
    for n in range(5, 10):
        inst = build_clique_gap_instance(n)
        for kp in range(0, 8):
            if math.comb(len(inst.center_labels), kp) > DEFAULT_BUDGET:
                continue
            got = integral_min_uncovered(inst, kp)
            best, rep = brute_force_max_coverage(gen_instance("complete", n, 4, 2, kp))
            assert (got.uncovered, got.witness) == (rep.total - rep.covered, best), (n, kp)
            assert (got.nodes_visited, got.nodes_pruned) == \
                (rep.nodes_visited, rep.nodes_pruned), (n, kp)


def test_integral_budget():
    inst = build_clique_gap_instance(8)
    with pytest.raises(BudgetExceededError):
        integral_min_uncovered(inst, 5, budget=10)
    exact = integral_min_uncovered(inst, 5)
    assert integral_min_uncovered(inst, 5, budget=None) == exact   # no cap


def test_reiher_and_gap_values():
    assert reiher_uncovered_fraction(5) == Fraction(24, 125)
    assert asymptotic_gap(5) == Fraction(149, 125)
    assert float(asymptotic_gap(5)) == pytest.approx(1.192)


def test_gap_report_rows():
    rep = gap_report([6], t=5, extra_center_fractions=(0.0, 0.2))
    assert rep["asymptotic_gap"] == Fraction(149, 125)
    row = rep["rows"][0]
    assert row["sdp_objective"] == 30
    assert row["lp_objective"] == 30
    assert row["sdp_max_residual"] <= 1e-8
    sweep0 = row["integral_sweeps"][0]
    assert sweep0["uncovered"] == 0 and sweep0["finite_size_deviation"]
    assert sweep0["integral_cost_lb"] == 30
    # opening 20% more centers can only help
    assert row["integral_sweeps"][1]["uncovered"] <= sweep0["uncovered"]


def test_sdp_residuals_full_range():
    for n in range(5, 11):
        chk = verify_sdp_solution(build_sdp_solution(build_clique_gap_instance(n)))
        assert chk.max_residual <= 1e-8


def test_sdp_geometry_needs_t5():
    # the assignment vectors of a 4-clique only sum to v0 when t = 5
    inst = build_clique_gap_instance(6)
    with pytest.raises(CertificationError) as err:
        verify_sdp_solution(build_sdp_solution(inst, t=4))
    assert err.value.witness in ("assign_v0", "open_v0", "assign_open",
                                 "assignment_total")
