import io
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from jchlab import (
    BudgetExceededError, CertificationError, GapRealization,
    embed_l0, embed_l1, embed_l2_scaled, embed_lp_halfshift, embed_indicator_lp,
    verify_gap_realization, realized_distance, empirical_gamma,
    export_realization, parse_metric,
)
from jchlab.embeddings import TOL, GapReport, _close_pow


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
    for q in range(3, 10):
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


# ---------------------------------------------------------------------------
# the per-pair loop as the oracle of the intersection-class verifier
# ---------------------------------------------------------------------------

def loop_verify(real, edge_subset=None, tol=TOL):
    """verify_gap_realization by one pair_pow per (t-set, s-set) pair."""
    q, t, s = real.q, real.t, real.s
    if edge_subset is None:
        tsets = list(combinations(range(q), t))
    else:
        tsets = sorted(tuple(sorted(x)) for x in edge_subset)
    ssets = list(combinations(range(q), s))
    vt = {x: real.vector(x) for x in tsets}
    vs = {x: real.vector(x) for x in ssets}
    metric = real.metric
    beta_pow, floor_pow = real.beta_pow, real.floor_pow

    edge_pairs = nonedge_pairs = 0
    min_nonedge = worst = None
    for tset in tsets:
        for sset in ssets:
            d = metric.pair_pow(vt[tset], vs[sset])
            if set(tset).issuperset(sset):
                edge_pairs += 1
                if not _close_pow(d, beta_pow, real, tol):
                    raise CertificationError(
                        f"containment pair {tset}/{sset} at distance^p {d}, "
                        f"expected beta^p = {beta_pow}", witness=(tset, sset))
            else:
                nonedge_pairs += 1
                if min_nonedge is None or d < min_nonedge:
                    min_nonedge, worst = d, (tset, sset)

    ratio = min_nonedge_dist = None
    if min_nonedge is not None:
        slack = 0 if real.exact else tol * max(1.0, float(floor_pow))
        if min_nonedge < floor_pow - slack:
            raise CertificationError(
                f"non-containment pair {worst} at distance^p {min_nonedge}, "
                f"below claimed floor {floor_pow}", witness=worst)
        if real.exact and isinstance(min_nonedge, (int, Fraction)) \
                and isinstance(beta_pow, (int, Fraction)) and metric.root == 1:
            ratio = Fraction(min_nonedge, beta_pow)
        else:
            ratio = metric.take_root(float(min_nonedge) / float(beta_pow))
        min_nonedge_dist = metric.take_root(min_nonedge)
        if s == t - 1 and float(ratio) > 3.0 + tol:
            raise CertificationError(
                f"observed ratio {float(ratio)} exceeds the ceiling 3", witness=worst)
    return GapReport(min_nonedge_over_edge=ratio, pairs_checked=len(tsets) * len(ssets),
                     worst_pair=worst, edge_distance=real.beta,
                     min_nonedge_distance=min_nonedge_dist,
                     edge_pairs=edge_pairs, nonedge_pairs=nonedge_pairs)


def outcome(verify, real, edge_subset=None):
    try:
        return verify(real, edge_subset)
    except CertificationError as exc:
        return str(exc), exc.witness


def assert_same_as_loop(real, edge_subset=None):
    got = outcome(verify_gap_realization, real, edge_subset)
    assert got == outcome(loop_verify, real, edge_subset)
    return got


def triples(qmax):
    return [(q, t, s) for q in range(2, qmax + 1) for t in range(2, q + 1) for s in range(1, t)]


REALIZATIONS = {
    "l0": lambda q, t, s: embed_l0(q, t, s),
    "l1": lambda q, t, s: embed_l1(q, t, s),
    "lp3-indicator": lambda q, t, s: embed_indicator_lp(q, t, s, 3),
    "lp2.5-indicator": lambda q, t, s: embed_indicator_lp(q, t, s, 2.5),
    "l2-scaled": lambda q, t, s: embed_l2_scaled(q, t, s),
}
HALFSHIFT_P = (1, 3, 4, 2.5)


@pytest.mark.parametrize("name", REALIZATIONS)
def test_class_verifier_matches_loop_indicator_and_scaled(name):
    for q, t, s in triples(9):
        assert isinstance(assert_same_as_loop(REALIZATIONS[name](q, t, s)), GapReport)


@pytest.mark.parametrize("p", HALFSHIFT_P)
def test_class_verifier_matches_loop_halfshift(p):
    # q <= 7 for every t, and the widest q = 9 rows at the first and last t
    cases = [(q, t) for q in range(2, 8) for t in range(2, q + 1)] + [(9, 2), (9, 8)]
    for q, t in cases:
        assert isinstance(assert_same_as_loop(embed_lp_halfshift(q, t, p)), GapReport)


def test_class_verifier_matches_loop_on_random_edge_subsets():
    rng = random.Random(9)
    reals = [embed_l1(7, 3, 2), embed_l0(6, 4, 1), embed_l2_scaled(7, 4, 2),
             embed_indicator_lp(6, 3, 1, 2.5), embed_lp_halfshift(6, 3, 3),
             embed_lp_halfshift(6, 4, 2.5)]
    for real in reals:
        tsets = list(combinations(range(real.q), real.t))
        for _ in range(25):
            subset = rng.sample(tsets, rng.randint(1, len(tsets)))
            assert isinstance(assert_same_as_loop(real, subset), GapReport)


def test_class_verifier_matches_loop_on_false_claims():
    # an inflated floor fails on the worst pair, a wrong beta on the first
    # containment pair; both verifiers name the same pair in the same words
    rng = random.Random(11)
    failed = 0
    for q, t, s in triples(7):
        for realize in REALIZATIONS.values():
            real = realize(q, t, s)
            for field, factor in (("floor_pow", 2), ("floor_pow", 1 + 1e-6),
                                  ("beta_pow", Fraction(3, 2)), ("beta_pow", 1 - 1e-6)):
                if real.exact and isinstance(factor, float):
                    continue
                bad = real._replace(**{field: getattr(real, field) * factor})
                subset = None
                if rng.random() < 0.5:
                    tsets = list(combinations(range(q), t))
                    subset = rng.sample(tsets, rng.randint(1, len(tsets)))
                failed += not isinstance(assert_same_as_loop(bad, subset), GapReport)
    for q, t, p in ((5, 3, 3), (6, 4, 2.5), (5, 2, 1)):
        real = embed_lp_halfshift(q, t, p)
        for field in ("floor_pow", "beta_pow"):
            bad = real._replace(**{field: getattr(real, field) * 3})
            failed += not isinstance(assert_same_as_loop(bad), GapReport)
    assert failed > 500


@pytest.mark.parametrize("real", [embed_l2_scaled(8, 4, 3), embed_l2_scaled(9, 5, 2),
                                  embed_indicator_lp(8, 4, 2, 2.5),
                                  embed_lp_halfshift(8, 4, 2.5)],
                         ids=["l2-8-4-3", "l2-9-5-2", "lp2.5-indicator", "lp2.5-halfshift"])
def test_float_pair_pow_bit_identical_within_class(real):
    by_class = {}
    for a in combinations(range(real.q), real.t):
        va = real.vector(a)
        for b in combinations(range(real.q), real.s):
            d = real.metric.pair_pow(va, real.vector(b))
            by_class.setdefault(len(set(a) & set(b)), set()).add(float(d).hex())
    assert len(by_class) > 1
    assert all(len(ds) == 1 for ds in by_class.values())


class Tampered(GapRealization):
    """A realization with one coordinate of one vector overwritten."""

    def vector(self, x):
        vec = list(super().vector(x))
        for coord, value in self._tamper.get(tuple(sorted(x)), {}).items():
            vec[coord] = value
        return tuple(vec)


def tampered(real, changes):
    bad = Tampered(*real)
    object.__setattr__(bad, "_tamper", changes)
    return bad


@pytest.mark.parametrize("real, label, changes", [
    (embed_l1(5, 3, 2), (0, 1, 2), {4: 2}),                  # a third value
    (embed_l1(5, 3, 2), (1, 3), {0: 1, 1: 0}),               # support off its label
    (embed_l2_scaled(5, 3, 1), (2,), {2: 1.0}),              # the other side's on entry
    (embed_lp_halfshift(5, 3, 3), (0, 1), {3: math.nan}),
    (embed_lp_halfshift(5, 3, 3), (1, 2, 4), {0: Fraction(1, 2)}),
], ids=["third-value", "support-off-label", "wrong-side-entry", "nan", "halfshift-third-value"])
def test_tampered_vector_raises(real, label, changes):
    verify_gap_realization(real)
    with pytest.raises(CertificationError) as err:
        verify_gap_realization(tampered(real, {label: changes}))
    assert err.value.witness == label


def test_budget_checked_before_any_tset_is_built():
    required = math.comb(40, 20) * math.comb(40, 10)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            verify_gap_realization(embed_l1(40, 20, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.required == required
    assert peak < 1 << 20


def test_l1_headroom_q16():
    # 4.48M pairs, under the default budget
    rep = verify_gap_realization(embed_l1(16, 6, 3))
    assert rep.pairs_checked == math.comb(16, 6) * math.comb(16, 3) == 4_484_480
    assert rep.min_nonedge_over_edge == Fraction(5, 3)
    assert rep.worst_pair == ((0, 1, 2, 3, 4, 5), (0, 1, 6))
    assert rep.edge_pairs == math.comb(16, 6) * math.comb(6, 3)


def test_halfshift_headroom_q14():
    q, t, p = 14, 5, 3
    rep = verify_gap_realization(embed_lp_halfshift(q, t, p))
    assert rep.pairs_checked == math.comb(q, t) * math.comb(q, t - 1)
    # one coordinate at 3/2 instead of 1/2: ((q - 1 + 3^p) / q)^(1/p)
    assert rep.certified_ratio == pytest.approx(((q - 1 + 3 ** p) / q) ** (1 / p), rel=1e-12)
    assert rep.certified_ratio >= 3 / q ** (1 / p)
