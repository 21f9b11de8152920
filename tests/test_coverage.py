import io
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from jchlab import (
    JohnsonInstance, BudgetExceededError, CoverageReport,
    cov, coverage_fraction, brute_force_max_coverage, fpt_cover_decide,
    gen_instance, turan_random_uncovered, inapprox_factors,
    read_instance, write_instance,
)
from jchlab.coverage import max_union_search
from jchlab.errors import check_budget, check_comb_budget

COMPLETE_432 = gen_instance("complete", 4, 3, 2, 2)


def test_cov_complete_pair():
    assert cov((1, 2), COMPLETE_432) == ((1, 2, 3), (1, 2, 4))


def test_cov_empty_edges():
    inst = JohnsonInstance(4, 3, 2, (), 2)
    assert cov((1, 2), inst) == ()


def test_cov_single_element():
    # oracle: enumerate all C(5,3)=10 triples and filter by membership
    inst = gen_instance("complete", 5, 3, 1, 1)
    expect = tuple(t for t in inst.edges if 3 in t)
    assert len(expect) == 6
    assert cov((3,), inst) == expect


def test_cov_validates():
    with pytest.raises(ValueError):
        cov((1, 2, 3), COMPLETE_432)
    with pytest.raises(ValueError):
        cov((0, 2), COMPLETE_432)


def test_coverage_fraction_examples():
    assert coverage_fraction([(1, 2), (3, 4)], COMPLETE_432).fraction == 1
    assert coverage_fraction([(1, 2)], COMPLETE_432).fraction == Fraction(2, 4)
    assert coverage_fraction([], COMPLETE_432).fraction == 0


def test_coverage_fraction_budget():
    with pytest.raises(ValueError):
        coverage_fraction([(1, 2), (1, 3), (1, 4)], COMPLETE_432)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coverage_monotone_under_additions(data):
    n = data.draw(st.integers(4, 7))
    m = data.draw(st.integers(0, math.comb(n, 3)))
    seed = data.draw(st.integers(0, 10**6))
    inst = gen_instance("random", n, 3, 2, k=10, m=m, seed=seed)
    pairs = [tuple(sorted(p)) for p in
             data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                                .filter(lambda p: p[0] != p[1]),
                                min_size=0, max_size=4))]
    pairs = sorted(set(pairs))
    extra = data.draw(st.tuples(st.integers(1, n), st.integers(1, n))
                      .filter(lambda p: p[0] != p[1] and tuple(sorted(p)) not in pairs))
    before = coverage_fraction(pairs, inst).covered
    after = coverage_fraction(pairs + [tuple(sorted(extra))], inst).covered
    assert after >= before


def test_brute_force_frozen_values():
    inst1 = JohnsonInstance(4, 3, 2, COMPLETE_432.edges, 1)
    best, rep = brute_force_max_coverage(inst1)
    assert rep.covered == 2 and best == ((1, 2),)
    best, rep = brute_force_max_coverage(COMPLETE_432)
    assert rep.covered == 4 and best == ((1, 2), (3, 4))
    inst3 = gen_instance("complete", 5, 3, 1, 1)
    best, rep = brute_force_max_coverage(inst3)
    assert rep.covered == 6


def test_brute_force_budget_error():
    with pytest.raises(BudgetExceededError):
        brute_force_max_coverage(COMPLETE_432, budget=3)


def test_fpt_budget():
    # the tree bound is z^min(k, |E|): 3^2 here, 3^4 once k exceeds the 4 edges
    assert fpt_cover_decide(COMPLETE_432, budget=9)[0]
    with pytest.raises(BudgetExceededError) as err:
        fpt_cover_decide(COMPLETE_432, budget=8)
    assert err.value.required == 9 and str(err.value) == "9 branches exceed budget 8"
    wide = JohnsonInstance(4, 3, 2, COMPLETE_432.edges, 5)
    with pytest.raises(BudgetExceededError) as err:
        fpt_cover_decide(wide, budget=80)
    assert err.value.required == 81
    assert fpt_cover_decide(wide, budget=None)[0]


def test_refusal_counts_of_64_bits_or_more_show_a_power_of_two():
    with pytest.raises(BudgetExceededError) as err:
        check_budget(2 ** 63 - 1, 10, "branches")
    assert str(err.value) == "9223372036854775807 branches exceed budget 10"
    for required, shown in [(2 ** 63, "2^63"), (2 ** 64 - 1, "2^63"), (2 ** 1200, "2^1200"),
                            (3 ** 1200, "2^1901")]:
        with pytest.raises(BudgetExceededError) as err:
            check_budget(required, 10, "branches")
        assert str(err.value) == f"at least {shown} branches exceed budget 10"
        assert err.value.required == required


def refusal(check, *args):
    """The message of the BudgetExceededError check(*args) raises, or None."""
    try:
        check(*args)
    except BudgetExceededError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n, r", [(0, 0), (5, 7), (10, 0), (10, 3), (10, 7), (36, 7), (78, 4),
                                  (100, 50), (300, 150), (1225, 245), (2 ** 70, 1),
                                  (2 ** 64, 1), (2 ** 64 - 1, 1), (2 ** 32, 2), (2 ** 32 + 1, 2),
                                  (2 ** 40 + 3, 3)])
@pytest.mark.parametrize("budget", [None, 0, 1, 10, 5_000_000, 2 ** 64, 2 ** 100])
def test_comb_budget_refuses_as_the_exact_product_does(n, r, budget):
    # C(2^32 + 1, 2) = 2^63 + 2^31 and C(2^32, 2) < 2^63 sit at the 64-bit edge
    want = refusal(check_budget, math.comb(n, r), budget, "subsets")
    assert refusal(check_comb_budget, n, r, budget, "subsets") == want
    if want is None:
        assert check_comb_budget(n, r, budget, "subsets") == math.comb(n, r)


def test_comb_budget_matches_the_exact_product_on_a_grid():
    for n in range(0, 400, 9):
        for r in range(0, n + 2, 4):
            for budget in (7, 5_000_000, 2 ** 70):
                assert refusal(check_comb_budget, n, r, budget, "subsets") == \
                    refusal(check_budget, math.comb(n, r), budget, "subsets"), (n, r, budget)


def test_comb_budget_names_huge_counts_by_bit_length():
    # C(1999000, 399800), the sdp-gap n = 2000 count, is never multiplied out
    bits = (math.lgamma(1999001) - math.lgamma(399801) - math.lgamma(1599201)) / math.log(2)
    with pytest.raises(BudgetExceededError) as err:
        check_comb_budget(1999000, 399800, 5_000_000, "edge subsets")
    assert str(err.value) == f"at least 2^{math.floor(bits)} edge subsets exceed budget 5000000"
    assert err.value.required is None and 1_000_000 < bits < 2_000_000


def test_fpt_deep_tree_needs_no_recursion():
    # 1200 disjoint pairs: a full cover takes all 1200 branching levels
    pairs = tuple((2 * i + 1, 2 * i + 2) for i in range(1200))
    decision, witness = fpt_cover_decide(JohnsonInstance(2400, 2, 1, pairs, 1200), budget=None)
    assert decision and witness == tuple((2 * i + 1,) for i in range(1200))


def scan_reference(masks, r, target):
    """The full lexicographic scan: first strict maximum, stop at target."""
    best_count, best_idx = -1, None
    for idx in combinations(range(len(masks)), r):
        union = 0
        for i in idx:
            union |= masks[i]
        if union.bit_count() > best_count:
            best_count, best_idx = union.bit_count(), idx
            if best_count >= target:
                break
    return best_count, best_idx


def brute_reference(inst):
    cands = list(combinations(range(1, inst.n + 1), inst.y))
    masks = [sum(1 << j for j, t in enumerate(inst.edges) if set(s) <= set(t))
             for s in cands]
    _, idx = scan_reference(masks, min(inst.k, len(cands)), inst.num_edges)
    best = tuple(cands[i] for i in idx)
    return best, coverage_fraction(best, inst)


def fpt_reference(inst):
    """The list-based branching: first remaining edge, its subsets in order."""
    def branch(remaining, k, chosen):
        if not remaining:
            return tuple(chosen)
        if k == 0:
            return None
        for s in combinations(remaining[0], inst.z - 1):
            rest = [e for e in remaining if not set(s) <= set(e)]
            got = branch(rest, k - 1, chosen + [s])
            if got is not None:
                return got
        return None

    witness = branch(list(inst.edges), inst.k, [])
    return (False, None) if witness is None else (True, tuple(sorted(witness)))


def test_max_union_search_matches_scan():
    # random masks of every density, with zero and single-bit entries: many
    # ties, and a bound that over-cuts by one shows up within a few cases
    rng = random.Random(21)
    for trial in range(300):
        n = rng.randint(0, 16)
        bits = rng.randint(1, 20)
        density = rng.random()
        masks = [sum(1 << b for b in range(bits) if rng.random() < density)
                 if rng.random() < 0.8 else rng.choice((0, 1 << rng.randrange(bits)))
                 for _ in range(n)]
        r = rng.choice((rng.randint(0, min(n, 6)), n))
        target = rng.choice((bits, rng.randint(0, bits), bits + 1))
        count, idx, visited, _ = max_union_search(masks, r, target)
        assert (count, idx) == scan_reference(masks, r, target), (masks, r, target)
        assert visited >= 1


def test_brute_force_matches_scan():
    rng = random.Random(17)
    cases = []
    for trial in range(150):
        n = rng.randint(4, 9)
        z = rng.randint(2, 4)
        y = rng.randint(1, z - 1)
        m = rng.randint(0, min(math.comb(n, z), 24))
        k = rng.randint(0, 5)
        while math.comb(math.comb(n, y), k) > 20_000:
            k -= 1
        cases.append(gen_instance("random", n, z, y, k=k, m=m,
                                  seed=rng.randint(0, 10**6)))
    cases += [
        gen_instance("random", 7, 3, 2, k=0, m=12, seed=11),          # k = 0
        gen_instance("random", 5, 3, 2, k=12, m=6, seed=2),           # k >= #candidates
        gen_instance("random", 6, 3, 1, k=2, m=9, seed=4),            # y = 1
        JohnsonInstance(8, 3, 2, ((1, 2, 3), (1, 2, 4)), 3),          # zero-coverage candidates
        gen_instance("complete", 6, 3, 2, 4),                         # ties everywhere
        JohnsonInstance(9, 3, 2, ((1, 2, 9), (3, 4, 9), (5, 6, 9)), 3),  # early full cover
    ]
    for inst in cases:
        best, rep = brute_force_max_coverage(inst)
        assert (best, rep) == brute_reference(inst), inst


def test_brute_force_search_counters():
    # the 1.4M-collection instance: 50 random triples of [13], k = 4
    edges = random.Random(1).sample(list(combinations(range(1, 14), 3)), 50)
    inst = JohnsonInstance(13, 3, 2, tuple(edges), 4)
    assert math.comb(math.comb(13, 2), 4) == 1_426_425
    _, rep = brute_force_max_coverage(inst)
    assert rep.covered == 16
    assert rep.nodes_visited < 10_000 and rep.nodes_pruned > 0


def test_fpt_examples():
    assert fpt_cover_decide(COMPLETE_432) == (True, ((1, 2), (3, 4)))
    inst1 = JohnsonInstance(4, 3, 2, COMPLETE_432.edges, 1)
    assert fpt_cover_decide(inst1) == (False, None)
    empty = JohnsonInstance(4, 3, 2, (), 0)
    assert fpt_cover_decide(empty) == (True, ())


def test_fpt_requires_y_is_z_minus_1():
    inst = gen_instance("complete", 5, 3, 1, 2)
    with pytest.raises(ValueError):
        fpt_cover_decide(inst)


def test_fpt_witness_covers():
    decision, witness = fpt_cover_decide(COMPLETE_432)
    assert decision
    assert coverage_fraction(witness, COMPLETE_432).is_complete


def test_fpt_agrees_with_brute_small():
    # every instance with C(n, y) <= 20 candidates and k <= 4
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randint(4, 6)
        m = rng.randint(0, math.comb(n, 3))
        k = rng.randint(0, 4)
        inst = gen_instance("random", n, 3, 2, k=k, m=m, seed=rng.randint(0, 10**6))
        assert math.comb(n, 2) <= 20
        decision, _ = fpt_cover_decide(inst)
        _, rep = brute_force_max_coverage(inst)
        assert decision == rep.is_complete


def test_fpt_matches_list_branching():
    rng = random.Random(29)
    for trial in range(200):
        n = rng.randint(4, 9)
        z = rng.choice((3, 4))
        m = rng.randint(0, min(math.comb(n, z), 14))
        k = rng.randint(0, 4)
        inst = gen_instance("random", n, z, z - 1, k=k, m=m, seed=rng.randint(0, 10**6))
        assert fpt_cover_decide(inst) == fpt_reference(inst), inst


def test_gen_complete_counts():
    assert gen_instance("complete", 4, 3, 2, 1).num_edges == 4
    assert gen_instance("complete", 6, 4, 3, 1).num_edges == 15


def test_gen_random_deterministic():
    a = gen_instance("random", 10, 3, 2, 4, m=20, seed=7)
    b = gen_instance("random", 10, 3, 2, 4, m=20, seed=7)
    assert a.edges == b.edges and a.num_edges == 20
    c = gen_instance("random", 10, 3, 2, 4, m=20, seed=8)
    assert c.edges != a.edges


def test_gen_random_m_too_big():
    with pytest.raises(ValueError):
        gen_instance("random", 5, 3, 2, 1, m=11, seed=0)


def test_gen_dense_flag():
    with pytest.raises(ValueError):
        gen_instance("random", 6, 3, 2, 5, m=4, seed=0, dense=True)
    inst = gen_instance("random", 6, 3, 2, 1, m=10, seed=0, dense=True)
    assert inst.num_edges == 10


def test_complete_cover_degree():
    # on the complete instance each (z-1)-subset covers exactly n-z+1 edges
    for n, z in ((5, 3), (6, 4), (7, 3)):
        inst = gen_instance("complete", n, z, z - 1, 1)
        from itertools import combinations
        for s in combinations(range(1, n + 1), z - 1):
            assert len(cov(s, inst)) == n - z + 1


def test_instance_validation():
    with pytest.raises(ValueError):
        JohnsonInstance(4, 3, 3, (), 1)
    with pytest.raises(ValueError):
        JohnsonInstance(4, 3, 2, ((1, 2, 3), (1, 2, 3)), 1)
    with pytest.raises(ValueError):
        JohnsonInstance(4, 3, 2, ((1, 2, 5),), 1)


def test_instance_file_roundtrip():
    inst = gen_instance("random", 8, 3, 2, 3, m=14, seed=3)
    buf = io.StringIO()
    write_instance(inst, buf)
    buf.seek(0)
    assert read_instance(buf) == inst


def test_read_instance_sorts_and_refuses_duplicates():
    inst = read_instance(io.StringIO("jc 5 3 2 2\n3 2 1\n5 1 4\n1 2 4\n"))
    assert inst.edges == ((1, 2, 3), (1, 2, 4), (1, 4, 5))
    with pytest.raises(ValueError, match="^duplicate edges in instance$"):
        read_instance(io.StringIO("jc 4 3 2 1\n1 2 3\n3 2 1\n"))


def test_report_value_leaves_out_node_counts():
    rep = CoverageReport(3, 4, Fraction(3, 4))
    counted = CoverageReport(3, 4, Fraction(3, 4), nodes_visited=9, nodes_pruned=2)
    assert rep == counted and not rep != counted and hash(rep) == hash(counted)
    assert rep != CoverageReport(2, 4, Fraction(1, 2))
    assert rep != (3, 4, Fraction(3, 4), 0, 0)


def test_turan_values():
    assert turan_random_uncovered(4) == Fraction(24, 125)
    assert turan_random_uncovered(3) == 0
    assert abs(float(turan_random_uncovered(50)) - 1 / math.e) <= 0.01
    with pytest.raises(ValueError):
        turan_random_uncovered(1)


def test_turan_limit_behavior():
    for z in (10, 20, 50):
        v = turan_random_uncovered(z)
        assert 0 < v < 1
        assert abs(math.log(v) + 1) <= 1.2 / z


def test_inapprox_factors_values():
    e = math.e
    t = inapprox_factors(1, 1, 1 - 1 / e)
    assert abs(t.zeta1 - (1 + 2 / e)) < 1e-12
    assert abs(t.zeta2 - (1 + 8 / e)) < 1e-12
    t = inapprox_factors(2, 1, 1 - 1 / e)
    assert 1.26 <= t.zeta1 <= 1.28
    assert 1.73 <= t.zeta2 <= 1.74
    t = inapprox_factors(1, 2, Fraction(7, 8))
    assert t.zeta1 == Fraction(9, 8) and t.zeta2 == Fraction(11, 8)


def test_inapprox_factor_ordering():
    for p in (1, 2):
        for delta in (1, 2, 3):
            for alpha in (0.0, 0.3, 0.875):
                t = inapprox_factors(p, delta, alpha)
                assert t.zeta2 > t.zeta1 > 1


def test_inapprox_factors_rejects():
    with pytest.raises(ValueError):
        inapprox_factors(3, 1, 0.5)
    with pytest.raises(ValueError):
        inapprox_factors(1, 0, 0.5)
    with pytest.raises(ValueError):
        inapprox_factors(1, 1, 1.5)
