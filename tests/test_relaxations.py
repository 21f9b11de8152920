import math
import time
import tracemalloc
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
from jchlab import relaxations
from jchlab.cli import main
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


def dense_oracle(inst, t=5):
    """The dense (C(n,4), 6, 1+2*C(n,2)) construction the class storage replaced."""
    m = len(inst.center_labels)
    dim = 1 + 2 * m
    edge_index = {e: i for i, e in enumerate(inst.center_labels)}
    v0 = np.zeros(dim)
    v0[0] = 1.0
    u = np.zeros((m, dim))
    u[:, 0] = 1.0 / t
    for i in range(m):
        u[i, 1 + 2 * i] = (t - 1) * math.sqrt(t + 1) / t ** 2
        u[i, 2 + 2 * i] = math.sqrt(t - 1) / t ** 2
    cover_edges = []
    v = np.zeros((len(inst.point_labels), 6, dim))
    on = t / (t + 1) ** 1.5
    off = 1.0 / (t + 1) ** 1.5
    for pi, p in enumerate(inst.point_labels):
        edges = tuple(edge_index[e] for e in combinations(p, 2))
        cover_edges.append(edges)
        for slot, ei in enumerate(edges):
            v[pi, slot, 0] = 1.0 / (t + 1)
            v[pi, slot, 1 + 2 * ei] = on
            for fj in edges:
                if fj != ei:
                    v[pi, slot, 1 + 2 * fj] -= off
    return v0, u, v, tuple(cover_edges)


def dense_residuals(inst, v0, u, v, cover_edges):
    """The float residuals of the dense arrays, family by family."""
    vnorms = (v * v).sum(axis=2)
    unorms = (u * u).sum(axis=1)
    uv = max(abs(float(v[pi, slot] @ u[ei]) - float(vnorms[pi, slot]))
             for pi, edges in enumerate(cover_edges) for slot, ei in enumerate(edges))
    sums = v.sum(axis=1) - v0
    return {"v0_unit": abs(float(v0 @ v0) - 1.0),
            "assign_v0": float(np.abs(v[:, :, 0] - vnorms).max()),
            "open_v0": float(np.abs(u[:, 0] - unorms).max()),
            "assign_open": uv,
            "assignment_total": float((sums * sums).sum(axis=1).max()),
            "budget": max(0.0, float(unorms.sum()) - float(inst.fractional_budget))}


def expand(sol):
    """The dense arrays the class coefficients stand for; each point takes the
    six edges inside it."""
    inst = sol.inst
    m = len(inst.center_labels)
    edge_index = {e: i for i, e in enumerate(inst.center_labels)}
    dim = 1 + 2 * m
    v0 = np.zeros(dim)
    v0[0] = sol.v0[0]
    u = np.zeros((m, dim))
    u[:, 0] = sol.u[0]
    u[np.arange(m), 1 + 2 * np.arange(m)] = sol.u[1]
    u[np.arange(m), 2 + 2 * np.arange(m)] = sol.u[2]
    v = np.zeros((len(inst.point_labels), 6, dim))
    v[:, :, 0] = sol.v[0]
    for pi, p in enumerate(inst.point_labels):
        edges = [edge_index[e] for e in combinations(p, 2)]
        for slot, ei in enumerate(edges):
            v[pi, slot, [1 + 2 * fj for fj in edges]] = sol.v[2]
            v[pi, slot, 1 + 2 * ei] = sol.v[1]
    return v0, u, v


def test_sparse_expands_to_dense_oracle():
    for n in range(5, 11):
        inst = build_clique_gap_instance(n)
        sol = build_sdp_solution(inst, t=5)
        *oracle, _ = dense_oracle(inst, t=5)
        for got, want in zip(expand(sol), oracle):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), n


def test_float_cross_check_matches_dense_residuals():
    for n in range(5, 11):
        inst = build_clique_gap_instance(n)
        chk = verify_sdp_solution(build_sdp_solution(inst, t=5))
        assert chk.residuals == dense_residuals(inst, *dense_oracle(inst, t=5)), n
        assert chk.max_residual == 2.0 ** -54


def test_sdp_norms():
    sol = build_sdp_solution(build_clique_gap_instance(6), t=5)
    radicands = (1, 6, 4)                       # coordinate 0, w, w'
    (one,), (ua, ub, uw), (vc, von, voff) = sol.v0_exact, sol.u_exact, sol.v_exact
    assert one == 1
    assert sum(r * r * k for r, k in zip((ua, ub, uw), radicands)) == Fraction(1, 5)
    assert vc ** 2 + (von ** 2 + 5 * voff ** 2) * 6 == Fraction(1, 6)
    # the six slots of a point add up to v0: coordinate 0 and every w_f
    assert 6 * vc == one and von + 5 * voff == 0
    chk = verify_sdp_solution(sol)
    assert set(chk.exact_residuals.values()) == {0}
    assert chk.objective_exact == 30


def test_sdp_residuals_tiny():
    for n in (5, 6, 8):
        sol = build_sdp_solution(build_clique_gap_instance(n), t=5)
        chk = verify_sdp_solution(sol)
        assert chk.max_residual <= 1e-12
        assert chk.objective_exact == 2 * math.comb(n, 4)
        assert chk.objective_float == pytest.approx(float(chk.objective_exact), abs=1e-9)


def test_sdp_perturbation_fails_open_constraint():
    sol = build_sdp_solution(build_clique_gap_instance(6), t=5)
    ua, ub, uw = sol.u_exact
    exact = sol._replace(u_exact=(ua, ub, uw + Fraction(1, 1000)))
    with pytest.raises(CertificationError) as err:
        verify_sdp_solution(exact)
    assert err.value.witness == "open_v0"
    sol.u[2] += 1e-3                            # the float w'_e coefficient only
    with pytest.raises(CertificationError) as err:
        verify_sdp_solution(sol)
    assert err.value.witness == "open_v0"


@pytest.mark.parametrize("n", [30, 100])
def test_sdp_certifies_in_small_memory(n):
    # nothing in the certificate grows with n: no label, no per-point index
    tracemalloc.start()
    try:
        chk = verify_sdp_solution(build_sdp_solution(build_clique_gap_instance(n)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chk.objective_exact == 2 * math.comb(n, 4)
    assert chk.max_residual == 2.0 ** -54
    assert peak < 64 * 2 ** 10


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


def test_sdp_gap_refuses_large_n_without_the_subset_count(capsys):
    # C(C(2000, 2), 399800) has about 1.44 million bits; building it took 10 s
    start = time.perf_counter()
    assert main(["sdp-gap", "--n", "2000", "--extra-centers", "0"]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.splitlines()[-1] == (
        "record=integral n=2000 delta=0.0 k_prime=399800 uncovered=None "
        "method=skipped(budget) provenance=skipped(budget)")


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


def test_gap_report_searches_each_k_prime_once(monkeypatch):
    calls = []

    def counted(inst, k_prime, budget):
        calls.append((inst.n, k_prime))
        return integral_min_uncovered(inst, k_prime, budget=budget)

    monkeypatch.setattr(relaxations, "integral_min_uncovered", counted)
    rep = gap_report([6, 8], t=5, extra_center_fractions=(0.0, 0.1, 0.2))
    # k = 3 at n = 6 and 5 at n = 8: k' = 3, 3, 3 and 5, 5, 6
    assert calls == [(6, 3), (8, 5), (8, 6)]
    for row in rep["rows"]:
        inst = build_clique_gap_instance(row["n"])
        for sweep in row["integral_sweeps"]:
            res = integral_min_uncovered(inst, sweep["k_prime"])
            assert (sweep["uncovered"], sweep["method"]) == (res.uncovered, res.method)
    assert [[s["k_prime"] for s in row["integral_sweeps"]] for row in rep["rows"]] == \
        [[3, 3, 3], [5, 5, 6]]


def test_sdp_residuals_full_range():
    for n in range(5, 11):
        chk = verify_sdp_solution(build_sdp_solution(build_clique_gap_instance(n)))
        assert chk.max_residual <= 1e-8


def test_sdp_geometry_needs_t5():
    # the assignment vectors of a 4-clique only sum to v0 when t = 5
    inst = build_clique_gap_instance(6)
    for t, worst in ((4, "7.500e-01"), (6, "3.790e-02")):
        with pytest.raises(CertificationError) as err:
            verify_sdp_solution(build_sdp_solution(inst, t=t))
        assert err.value.witness == "assign_v0"
        assert str(err.value).startswith(f"SDP residual up to {worst}, ")
