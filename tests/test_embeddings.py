import io
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from jchlab import (
    BudgetExceededError, CertificationError, GapRealization,
    embed_l0, embed_l1, embed_l2_scaled, embed_lp_halfshift, embed_indicator_lp,
    verify_gap_realization, realized_distance, empirical_gamma,
    export_realization, parse_metric,
)


def test_l1_basic_gap():
    rep = verify_gap_realization(embed_l1(4, 3, 2))
    assert rep.edge_distance == 1
    assert rep.min_nonedge_distance == 3
    assert rep.min_nonedge_over_edge == 3
    assert rep.pairs_checked == math.comb(4, 3) * math.comb(4, 2) == 24


def test_l1_general_s():
    rep = verify_gap_realization(embed_l1(5, 3, 1))
    assert rep.edge_distance == 2
    assert rep.min_nonedge_distance == 4
    assert rep.min_nonedge_over_edge == 2


def test_l1_smallest():
    rep = verify_gap_realization(embed_l1(3, 2, 1))
    assert rep.pairs_checked == 9
    assert rep.min_nonedge_over_edge == 3


def test_l0_matches_l1_on_binary():
    r0, r1 = embed_l0(5, 3, 2), embed_l1(5, 3, 2)
    for a in combinations(range(5), 3):
        for b in combinations(range(5), 2):
            assert realized_distance(r0, a, b) == realized_distance(r1, a, b)


def test_l2_scaled_examples():
    real = embed_l2_scaled(6, 4, 1)
    assert abs(real.beta - 2.0) < 1e-12
    assert abs(real.lambda_claimed - math.sqrt(2)) < 1e-12
    rep = verify_gap_realization(real)
    assert abs(rep.min_nonedge_distance - 2 * math.sqrt(2)) < 1e-9

    real = embed_l2_scaled(3, 2, 1)
    rep = verify_gap_realization(real)
    assert abs(real.lambda_claimed - math.sqrt(1 + 1 / (math.sqrt(2) - 1))) < 1e-12
    assert rep.certified_ratio >= real.lambda_claimed - 1e-9


def test_l2_beats_l1_induced_bound():
    # claimed^2 - (t-s+2)/(t-s) = (sqrt(t)-sqrt(s))^2 / ((sqrt(ts)-s)(t-s)) > 0
    for q, t, s in ((5, 3, 2), (6, 4, 2), (7, 5, 1), (7, 4, 3)):
        real = embed_l2_scaled(q, t, s)
        gap = real.lambda_claimed**2 - (t - s + 2) / (t - s)
        expect = (math.sqrt(t) - math.sqrt(s)) ** 2 / ((math.sqrt(t * s) - s) * (t - s))
        assert gap > 0
        assert abs(gap - expect) < 1e-9
        rep = verify_gap_realization(real)
        assert rep.certified_ratio >= math.sqrt((t - s + 2) / (t - s))


def test_lp_halfshift_q4_p2():
    real = embed_lp_halfshift(4, 3, 2)
    assert real.beta == 1.0 and real.lambda_claimed == 1.5
    rep = verify_gap_realization(real)
    # guaranteed floor is 3/2 exactly; the observed minimum is sqrt(3)
    assert abs(rep.min_nonedge_distance - math.sqrt(3)) < 1e-9
    assert rep.min_nonedge_distance >= 1.5


def test_lp_halfshift_growing_p():
    real = embed_lp_halfshift(4, 2, 10)
    assert abs(real.lambda_claimed - 3 / 4 ** 0.1) < 1e-12
    assert real.lambda_claimed > 3 - 0.5


def test_lp_halfshift_degenerate_p1():
    real = embed_lp_halfshift(3, 2, 1)
    assert real.lambda_claimed == 1.0
    rep = verify_gap_realization(real)  # still a valid >= 1 realization
    assert rep.certified_ratio >= 1.0


def test_ceiling_at_cofactor_one():
    # s = t-1 keeps every certified ratio at or below 3
    for q in range(3, 7):
        for t in range(2, q):
            for real in (embed_l1(q, t, t - 1), embed_l2_scaled(q, t, t - 1),
                         embed_lp_halfshift(q, t, 3)):
                rep = verify_gap_realization(real)
                assert rep.certified_ratio <= 3 + 1e-9


def test_no_nonedges_when_t_equals_q():
    rep = verify_gap_realization(embed_l1(3, 3, 2))
    assert rep.nonedge_pairs == 0
    assert rep.min_nonedge_over_edge is None
    assert rep.certified_ratio == math.inf


def test_edge_subset_restriction_never_lowers():
    real = embed_l1(5, 3, 2)
    full = verify_gap_realization(real).certified_ratio
    tsets = list(combinations(range(5), 3))
    rng = random.Random(42)
    for _ in range(50):
        size = rng.randint(1, len(tsets))
        subset = rng.sample(tsets, size)
        sub = verify_gap_realization(real, edge_subset=subset)
        assert sub.certified_ratio >= full - 1e-12
    single = verify_gap_realization(real, edge_subset=[(1, 2, 3)])
    assert single.certified_ratio >= 3


def test_restriction_rejects_bad_sets():
    real = embed_l1(5, 3, 2)
    with pytest.raises(ValueError):
        verify_gap_realization(real, edge_subset=[(1, 2)])
    with pytest.raises(ValueError):
        verify_gap_realization(real, edge_subset=[(1, 2, 3), (1, 2, 3)])


def test_inflated_claim_fails_certification():
    honest = embed_l1(4, 3, 2)
    inflated = GapRealization(metric=parse_metric("l1"), q=4, t=3, s=2, beta=1,
                              lambda_claimed=Fraction(7, 2), beta_pow=1,
                              floor_pow=Fraction(7, 2), kind="indicator")
    verify_gap_realization(honest)
    with pytest.raises(CertificationError) as err:
        verify_gap_realization(inflated)
    assert err.value.witness is not None


def test_budget_error():
    with pytest.raises(BudgetExceededError):
        verify_gap_realization(embed_l1(7, 3, 2), budget=10)


def test_edge_distances_uniform():
    # exact equality on the integer paths, 1e-9 on l2
    real = embed_l1(6, 3, 2)
    for a in combinations(range(6), 3):
        for b in combinations(a, 2):
            assert realized_distance(real, a, b) == 1
    real = embed_l2_scaled(6, 3, 2)
    ds = [realized_distance(real, a, b)
          for a in combinations(range(6), 3) for b in combinations(a, 2)]
    assert max(ds) - min(ds) <= 1e-9


def test_empirical_gamma_p_outside_closed_forms():
    ratio, real, rep = empirical_gamma(3, 1, 4)
    assert ratio >= 3 / 4 ** (1 / 3) - 1e-9
    ratio2, real2, _ = empirical_gamma(4, 2, 5)
    assert real2.kind == "indicator"
    assert ratio2 >= (2.0) ** (1 / 4) - 1e-9   # ((delta+2)/delta)^(1/p)


def test_export_format():
    real = embed_l1(4, 3, 2)
    buf = io.StringIO()
    export_realization(real, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == math.comb(4, 3) + math.comb(4, 2)
    label, *coords = lines[0].split()
    assert len(coords) == 4 and label == "0,1,2"
