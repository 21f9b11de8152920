import io
import math
from itertools import combinations

import numpy as np
import pytest

from jchlab import (
    BudgetExceededError, ClusteringInstance, RsCode,
    gen_instance, rs_encode, message_for_element,
    embed_l1, embed_l2_scaled, embed_lp_halfshift,
    build_discrete_instance, build_continuous_indicator_instance,
    clustering_cost, brute_force_optimal_cost, centers_by_labels,
    soundness_floor, meets_soundness_floor, read_points, write_points,
    pointwise_distance,
)

INST = gen_instance("complete", 4, 3, 2, 2)


def small_instance(metric="l1"):
    real = {"l1": embed_l1, "l2": embed_l2_scaled}[metric](5, 3, 2)
    return build_discrete_instance(INST, RsCode(5, 1), real)


def test_degenerate_code_uniform_blocks():
    # eta=1 makes every codeword constant, so all blocks repeat one pattern
    ci = small_instance()
    assert ci.dim == 25 and ci.meta["base_distance"] == 5
    for row in ci.points:
        blocks = row.reshape(5, 5)
        assert (blocks == blocks[0]).all()


def test_covered_distances_exact():
    ci = small_instance()
    witness = centers_by_labels(ci, [(1, 2), (3, 4)])
    bd = clustering_cost(ci, witness)
    assert bd.total == 4 * 5 and bd.at_base == 4
    assert all(d == 5 for _, _, d in bd.per_point)


def test_blocks_match_realization_vectors():
    code = RsCode(5, 2)
    inst = gen_instance("complete", 6, 3, 2, 2)
    for real in (embed_l1(5, 3, 2), embed_l2_scaled(5, 3, 2), embed_lp_halfshift(5, 3, 2)):
        ci = build_discrete_instance(inst, code, real)
        cw = {u: rs_encode(code, message_for_element(code, u)) for u in range(1, 7)}
        for lab, row in list(zip(ci.point_labels, ci.points))[:4]:
            for g in range(5):
                raw = {cw[u][g] for u in lab}
                padded = sorted(raw)
                for mu in range(5):
                    if len(padded) >= 3:
                        break
                    if mu not in raw:
                        padded.append(mu)
                want = [float(v) for v in real.vector(tuple(sorted(padded)))]
                assert np.allclose(row[g * 5:(g + 1) * 5].astype(float), want)


def test_covered_pairs_stay_at_base_under_collisions():
    # q=5, eta=2 over n=16 forces coordinate collisions between codewords;
    # the padding must keep every covered pair at exactly beta * ell
    inst = gen_instance("complete", 16, 3, 2, 5)
    ci = build_discrete_instance(inst, RsCode(5, 2), embed_l1(5, 3, 2),
                                 centers_from_edges=True)
    index = {lab: i for i, lab in enumerate(ci.center_labels)}
    for lab, row in zip(ci.point_labels, ci.points):
        for s in combinations(lab, 2):
            d = int(np.count_nonzero(row != ci.centers[index[s]]))
            assert d == ci.meta["base_distance"] == 5


def test_parameter_mismatch_rejected():
    with pytest.raises(ValueError):
        build_discrete_instance(INST, RsCode(7, 1), embed_l1(5, 3, 2))
    with pytest.raises(ValueError):
        build_discrete_instance(INST, RsCode(5, 1), embed_l1(5, 3, 1))
    big = gen_instance("complete", 6, 3, 2, 2)
    with pytest.raises(ValueError):
        build_discrete_instance(big, RsCode(5, 1), embed_l1(5, 3, 2))


def test_centers_from_edges_flag():
    full = small_instance()
    assert len(full.center_labels) == math.comb(4, 2)
    restricted = build_discrete_instance(INST, RsCode(5, 1), embed_l1(5, 3, 2),
                                         centers_from_edges=True)
    assert set(restricted.center_labels) <= set(full.center_labels)


def test_soundness_floor_check():
    # q = 2917 is the smallest prime where the floor exceeds the base distance
    inst = gen_instance("complete", 4, 3, 2, 2)
    ci = build_discrete_instance(inst, RsCode(2917, 1), embed_l1(2917, 3, 2))
    assert soundness_floor(ci) > ci.meta["base_distance"]
    bad = centers_by_labels(ci, [(1, 2), (1, 3)])  # leaves (2,3,4) uncovered
    bd = clustering_cost(ci, bad)
    for lab, _, d in bd.per_point:
        if lab == (2, 3, 4):
            assert d == 3 * 2917
            assert meets_soundness_floor(ci, d)
        else:
            assert d == 2917
            assert not meets_soundness_floor(ci, d)


def test_continuous_indicator_distances():
    inst = gen_instance("complete", 6, 3, 2, 3)
    ci = build_continuous_indicator_instance(inst)
    assert ci.dim == 6 and ci.centers is None
    pts = {lab: row.astype(int) for lab, row in zip(ci.point_labels, ci.points)}
    d2 = ((pts[(1, 2, 3)] - pts[(1, 2, 4)]) ** 2).sum()
    assert d2 == 2
    for a in ci.point_labels:
        for b in ci.point_labels:
            if a >= b:
                continue
            inter = len(set(a) & set(b))
            dd = int(((pts[a] - pts[b]) ** 2).sum())
            if inter == 2:       # |T ^ T'| = y
                assert dd == 2 * (3 - 2)
            elif inter < 2:
                assert dd >= 2 * (3 - 2 + 1)


def test_cost_ties_and_errors():
    ci = small_instance()
    c = centers_by_labels(ci, [(1, 2)])[0]
    bd = clustering_cost(ci, [c, c])   # duplicate center: ties to index 0
    assert all(i == 0 for _, i, _ in bd.per_point)
    with pytest.raises(ValueError):
        clustering_cost(ci, [])
    with pytest.raises(ValueError):
        clustering_cost(ci, [c, c, c])
    with pytest.raises(ValueError):
        centers_by_labels(ci, [(9, 9)])


def test_point_order_invariance():
    ci = small_instance()
    witness = centers_by_labels(ci, [(1, 2), (3, 4)])
    total = clustering_cost(ci, witness).total
    perm = np.array([2, 0, 3, 1])
    ci.points = ci.points[perm]
    ci.point_labels = tuple(ci.point_labels[i] for i in perm)
    assert clustering_cost(ci, witness).total == total


def test_discrete_brute_force_matches_completeness():
    ci = small_instance()
    witness, cost = brute_force_optimal_cost(ci, "discrete")
    assert cost == 4 * ci.meta["base_distance"]
    assert witness == ((1, 2), (3, 4))


def test_continuous_brute_force():
    inst = gen_instance("complete", 4, 3, 2, 2)
    ci = build_continuous_indicator_instance(inst)
    partition, cost = brute_force_optimal_cost(ci, "continuous")
    assert cost == pytest.approx(2.0, abs=1e-9)
    # k = number of points drives the cost to zero
    ci_all = build_continuous_indicator_instance(
        gen_instance("complete", 4, 3, 2, 4))
    _, zero = brute_force_optimal_cost(ci_all, "continuous")
    assert zero == pytest.approx(0.0, abs=1e-12)


def test_brute_force_budgets():
    ci = small_instance()
    with pytest.raises(BudgetExceededError):
        brute_force_optimal_cost(ci, "discrete", budget=2)
    cont = build_continuous_indicator_instance(INST)
    with pytest.raises(BudgetExceededError):
        brute_force_optimal_cost(cont, "continuous", budget=1)


def test_points_file_roundtrip():
    ci = small_instance()
    buf = io.StringIO()
    write_points(ci, buf)
    buf.seek(0)
    back = read_points(buf)
    assert back.dim == ci.dim and back.k == ci.k
    assert back.point_labels == ci.point_labels
    assert back.center_labels == ci.center_labels
    assert (back.points == ci.points).all()
    witness = centers_by_labels(back, [(1, 2), (3, 4)])
    assert clustering_cost(back, witness).total == 20


def test_points_file_continuous_roundtrip():
    ci = build_continuous_indicator_instance(INST)
    buf = io.StringIO()
    write_points(ci, buf)
    buf.seek(0)
    back = read_points(buf)
    assert back.centers is None and back.metric == "l2" and back.exponent == 2


def test_pointwise_distance_modes():
    a, b = np.array([0, 1, 1]), np.array([1, 1, 0])
    assert pointwise_distance(a, b, "l0") == 2
    assert pointwise_distance(a, b, "l1") == 2
    assert pointwise_distance(a, b, "l2") == pytest.approx(math.sqrt(2))
    assert pointwise_distance(a, b, "lp", 3) == pytest.approx(2 ** (1 / 3))


# ---------------------------------------------------------------------------
# reference oracle and reader: the per-subset scan and the list-based parse
# ---------------------------------------------------------------------------

def reference_cost(ci, chosen):
    """Recompute every point-center distance; ties keep the lowest index."""
    total, nearest = 0, []
    for pt in ci.points:
        best_d, best_i = None, None
        for i, c in enumerate(chosen):
            d = pointwise_distance(pt, c, ci.metric, ci.p)
            if best_d is None or d < best_d:
                best_d, best_i = d, i
        nearest.append((best_i, best_d))
        total = total + best_d ** ci.exponent
    return total, nearest


def reference_brute_force(ci):
    mc = len(ci.center_labels)
    best = None
    for idx in combinations(range(mc), min(ci.k, mc)):
        cost, _ = reference_cost(ci, [ci.centers[i] for i in idx])
        if best is None or cost < best[1]:
            best = (tuple(ci.center_labels[i] for i in idx), cost)
    return best


def reference_read_points(text):
    fh = io.StringIO(text)
    header = fh.readline().split()
    dim = int(header[1])
    rows = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        lab, rest = line.split(None, 1)
        vals = [float(x) for x in rest.split()]
        assert len(vals) == dim
        rows.append((tuple(int(x) for x in lab.split(",")), vals))
    sizes = sorted({len(lab) for lab, _ in rows})
    integral = all(v == int(v) for _, vals in rows for v in vals)
    dtype = np.int64 if integral else np.float64
    if len(sizes) == 2:
        centers = [(lab, v) for lab, v in rows if len(lab) == sizes[0]]
        points = [(lab, v) for lab, v in rows if len(lab) == sizes[1]]
    else:
        centers, points = None, rows
    pack = lambda part: (tuple(lab for lab, _ in part),
                         np.array([v for _, v in part], dtype=dtype))
    return pack(points), None if centers is None else pack(centers)


def composed(metric, seed, exponent=None):
    inst = gen_instance("random", 6, 3, 2, 3, m=6, seed=seed)
    real = {"l1": lambda: embed_l1(5, 3, 2), "l2": lambda: embed_l2_scaled(5, 3, 2),
            "lp": lambda: embed_lp_halfshift(5, 3, 3)}[metric]()
    return build_discrete_instance(inst, RsCode(5, 2), real, exponent=exponent)


ORACLE_CASES = [("l1", 1, None), ("l1", 2, None), ("l1", 3, 2), ("l2", 1, None),
                ("l2", 2, None), ("lp", 1, None), ("lp", 2, None)]


@pytest.mark.parametrize("metric, seed, exponent", ORACLE_CASES)
def test_table_oracle_matches_per_subset_scan(metric, seed, exponent):
    ci = composed(metric, seed, exponent)
    witness, cost = brute_force_optimal_cost(ci, "discrete")
    assert (witness, cost) == reference_brute_force(ci)
    assert type(cost) is (int if metric == "l1" else float)
    chosen = centers_by_labels(ci, witness)
    bd = clustering_cost(ci, chosen)
    total, nearest = reference_cost(ci, chosen)
    assert bd.total == total == cost
    assert [(i, d) for _, i, d in bd.per_point] == nearest


@pytest.mark.parametrize("metric", ["l1", "l2"])
def test_table_oracle_ties_on_duplicate_centers(metric):
    ci = composed(metric, 1)
    # every center twice, labelled by index, so the witness shows which copy won
    ci.centers = np.repeat(ci.centers, 2, axis=0)
    ci.center_labels = tuple((i,) for i in range(len(ci.centers)))
    witness, cost = brute_force_optimal_cost(ci, "discrete")
    assert (witness, cost) == reference_brute_force(ci)
    assert all(i % 2 == 0 for (i,) in witness)
    c0, c1 = (ci.centers[i] for (i,) in witness[:2])
    dup = [c0, c0, c1]
    bd = clustering_cost(ci, dup)
    assert [(i, d) for _, i, d in bd.per_point] == reference_cost(ci, dup)[1]
    assert all(i != 1 for _, i, _ in bd.per_point)


def random_float_instance():
    rng = np.random.default_rng(7)
    labels = tuple(combinations(range(1, 6), 3))
    centers = tuple(combinations(range(1, 6), 2))
    return ClusteringInstance(
        points=rng.normal(scale=1e3, size=(len(labels), 8)), point_labels=labels,
        centers=rng.normal(size=(len(centers), 8)) * 10.0 ** rng.integers(-30, 30, 8),
        center_labels=centers, k=2, metric="l2", p=2, exponent=2)


@pytest.mark.parametrize("make", [
    lambda: composed("l1", 1), lambda: composed("l2", 1), lambda: composed("lp", 2),
    lambda: build_continuous_indicator_instance(INST), random_float_instance,
], ids=["l1-ints", "l2-floats", "lp-halves", "continuous", "random-floats"])
def test_read_points_matches_list_parse(make):
    buf = io.StringIO()
    write_points(make(), buf)
    text = buf.getvalue()
    back = read_points(io.StringIO(text))
    (labels, values), centers = reference_read_points(text)
    assert back.point_labels == labels
    assert back.points.dtype == values.dtype and np.array_equal(back.points, values)
    if centers is None:
        assert back.centers is None and back.center_labels is None
    else:
        assert back.center_labels == centers[0]
        assert back.centers.dtype == centers[1].dtype
        assert np.array_equal(back.centers, centers[1])
    again = io.StringIO()
    write_points(back, again)
    assert again.getvalue() == text


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e20"])
def test_read_points_rejects_unloadable_coordinates(token):
    with pytest.raises(ValueError):
        read_points(io.StringIO(f"pts 2 l1 1 1\n1,2 0 {token}\n1 0 0\n"))
