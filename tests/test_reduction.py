import functools
import io
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from jchlab.cli import main
from jchlab import (
    BudgetExceededError, ClusteringInstance, JohnsonInstance, RsCode,
    gen_instance, rs_encode, message_for_element,
    embed_l0, embed_l1, embed_l2_scaled, embed_lp_halfshift, embed_indicator_lp,
    build_discrete_instance, build_continuous_indicator_instance,
    clustering_cost, brute_force_optimal_cost, centers_by_labels,
    soundness_floor, meets_soundness_floor, read_points, write_points,
    pointwise_distance, parse_metric, best_center_continuous,
    composed_supports, indicator_supports, write_construction, write_instance,
)
from jchlab.reduction import _count_cost, _distance_table, _partitions_upto

INST = gen_instance("complete", 4, 3, 2, 2)


def listed(rows):
    """Rows as lists of their values, whatever sequence holds them."""
    return [list(row) for row in rows]


def element_types(rows):
    return {type(v) for row in rows for v in row}


def small_instance(metric="l1"):
    real = {"l1": embed_l1, "l2": embed_l2_scaled}[metric](5, 3, 2)
    return build_discrete_instance(INST, RsCode(5, 1), real)


def test_degenerate_code_uniform_blocks():
    # eta=1 makes every codeword constant, so all blocks repeat one pattern
    ci = small_instance()
    assert ci.dim == 25 and ci.meta["base_distance"] == 5
    for row in ci.points:
        blocks = np.asarray(row).reshape(5, 5)
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
                assert np.allclose(np.asarray(row[g * 5:(g + 1) * 5], dtype=float), want)


def test_covered_pairs_stay_at_base_under_collisions():
    # q=5, eta=2 over n=16 forces coordinate collisions between codewords;
    # the padding must keep every covered pair at exactly beta * ell
    inst = gen_instance("complete", 16, 3, 2, 5)
    ci = build_discrete_instance(inst, RsCode(5, 2), embed_l1(5, 3, 2),
                                 centers_from_edges=True)
    index = {lab: i for i, lab in enumerate(ci.center_labels)}
    for lab, row in zip(ci.point_labels, ci.points):
        for s in combinations(lab, 2):
            d = sum(a != b for a, b in zip(row, ci.centers[index[s]]))
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
    ci = composed_supports(inst, RsCode(2917, 1), embed_l1(2917, 3, 2))
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
    pts = {lab: np.asarray(row, dtype=int) for lab, row in zip(ci.point_labels, ci.points)}
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
    perm = [2, 0, 3, 1]
    ci = ClusteringInstance(**{**ci._asdict(), "points": [ci.points[i] for i in perm],
                               "point_labels": tuple(ci.point_labels[i] for i in perm)})
    assert clustering_cost(ci, witness).total == total


def test_discrete_brute_force_matches_completeness():
    ci = small_instance()
    witness, cost = brute_force_optimal_cost(ci, "discrete")
    assert cost == 4 * ci.meta["base_distance"]
    assert witness == ((1, 2), (3, 4))


@pytest.mark.parametrize("token, exponent", [("l0", 1), ("l1", 2), ("l2", 2)])
def test_continuous_default_exponent_has_a_center_rule(token, exponent):
    # the largest exponent with a center rule, so brute-opt can score the file
    ci = build_continuous_indicator_instance(INST, parse_metric(token))
    assert ci.exponent == exponent and ci.metric == parse_metric(token)
    brute_force_optimal_cost(ci, "continuous")
    with pytest.raises(ValueError, match="needs l0, l1 or l2, not 'lp3'"):
        build_continuous_indicator_instance(INST, parse_metric("lp3"))


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


def test_dense_refuses_past_rebuild_budget():
    # a built instance has the cap a read one has: 4097 rows of 2^13 coordinates pass 2^25
    inst = JohnsonInstance(1 << 13, 2, 1, tuple((i, i + 1) for i in range(1, 4098)), 1)
    with pytest.raises(BudgetExceededError, match="coordinates"):
        indicator_supports(inst).dense()


def test_points_file_roundtrip():
    ci = small_instance()
    buf = io.StringIO()
    write_points(ci, buf)
    buf.seek(0)
    back = read_points(buf)
    assert back.dim == ci.dim and back.k == ci.k
    assert back.point_labels == ci.point_labels
    assert back.center_labels == ci.center_labels
    assert listed(back.points) == listed(ci.points)
    witness = centers_by_labels(back, [(1, 2), (3, 4)])
    assert clustering_cost(back, witness).total == 20


def test_points_file_continuous_roundtrip():
    ci = build_continuous_indicator_instance(INST)
    buf = io.StringIO()
    write_points(ci, buf)
    buf.seek(0)
    back = read_points(buf)
    assert back.centers is None and back.metric == parse_metric("l2") and back.exponent == 2


def test_pointwise_distance_modes():
    a, b = np.array([0, 1, 1]).tolist(), np.array([1, 1, 0]).tolist()
    assert pointwise_distance(a, b, parse_metric("l0")) == 2
    assert pointwise_distance(a, b, parse_metric("l1")) == 2
    assert pointwise_distance(a, b, parse_metric("l2")) == pytest.approx(math.sqrt(2))
    assert pointwise_distance(a, b, parse_metric("lp3")) == pytest.approx(2 ** (1 / 3))


# ---------------------------------------------------------------------------
# reference oracle and reader: the per-subset scan and the list-based parse
# ---------------------------------------------------------------------------

def reference_cost(ci, chosen):
    """Recompute every point-center distance; ties keep the lowest index.

    On l2 a pair is compared by its squared distance in rationals, which at
    exponent 2 is also its cost term, and the total is rounded once.
    """
    if ci.metric.token == "l2":
        total, nearest = 0, []
        for pt in ci.points:
            d2, i = min((rational_sq(tuple(pt), tuple(c)), i)
                        for i, c in enumerate(chosen))
            nearest.append((i, math.sqrt(d2)))
            total += d2 if ci.exponent == 2 else math.sqrt(d2) ** ci.exponent
        return (float(total) if ci.exponent == 2 else total), nearest
    total, nearest = 0, []
    for pt in ci.points:
        best_d, best_i = None, None
        for i, c in enumerate(chosen):
            d = pointwise_distance(pt, c, ci.metric)
            if best_d is None or d < best_d:
                best_d, best_i = d, i
        nearest.append((best_i, best_d))
        total = total + best_d ** ci.exponent
    return total, nearest


@functools.cache
def rational_sq(u, v):
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(u, v))


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
    number = int if integral else float
    if len(sizes) == 2:
        centers = [(lab, v) for lab, v in rows if len(lab) == sizes[0]]
        points = [(lab, v) for lab, v in rows if len(lab) == sizes[1]]
    else:
        centers, points = None, rows
    pack = lambda part: (tuple(lab for lab, _ in part),
                         [[number(x) for x in v] for _, v in part])
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
    centers = [c for c in ci.centers for _ in range(2)]
    ci = ClusteringInstance(**{**ci._asdict(), "centers": centers,
                               "center_labels": tuple((i,) for i in range(len(centers)))})
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
        points=rng.normal(scale=1e3, size=(len(labels), 8)).tolist(), point_labels=labels,
        centers=(rng.normal(size=(len(centers), 8)) * 10.0 ** rng.integers(-30, 30, 8)).tolist(),
        center_labels=centers, k=2, metric=parse_metric("l2"), exponent=2)


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
    assert typed(back.points) == typed(values)
    if centers is None:
        assert back.centers is None and back.center_labels is None
    else:
        assert back.center_labels == centers[0]
        assert typed(back.centers) == typed(centers[1])
    again = io.StringIO()
    write_points(back, again)
    assert again.getvalue() == text


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e20"])
def test_read_points_rejects_unloadable_coordinates(token):
    with pytest.raises(ValueError):
        read_points(io.StringIO(f"pts 2 l1 1 1\n1,2 0 {token}\n1 0 0\n"))


ROUNDTRIP_REALIZATIONS = {
    "l0": lambda: embed_l0(5, 3, 2), "l1": lambda: embed_l1(5, 3, 2),
    "l2": lambda: embed_l2_scaled(5, 3, 2), "lp3": lambda: embed_lp_halfshift(5, 3, 3),
    "lp2.5": lambda: embed_indicator_lp(5, 3, 2, 2.5),
}


@pytest.mark.parametrize("token", list(ROUNDTRIP_REALIZATIONS))
@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_points_roundtrip_keeps_metric(token, mode):
    ci = build_discrete_instance(INST, RsCode(5, 1), ROUNDTRIP_REALIZATIONS[token]())
    if mode == "continuous" and token in ("l0", "l1", "l2"):
        ci = build_continuous_indicator_instance(INST, metric=parse_metric(token))
    elif mode == "continuous":    # no continuous builder for lp: drop the centers
        ci = ClusteringInstance(**{**ci._asdict(), "centers": None, "center_labels": None})
    buf = io.StringIO()
    write_points(ci, buf)
    buf.seek(0)
    back = read_points(buf)
    assert back.metric == ci.metric == parse_metric(token)
    assert back.metric.token == token


def test_record_defaults_and_metric_value():
    # a metric's value is its token, root, exactness and exponent, not its functions
    lp3, again = parse_metric("lp3"), parse_metric("lp3")
    assert lp3.coord is not again.coord
    assert lp3 == again and not lp3 != again and hash(lp3) == hash(again)
    assert lp3 != parse_metric("lp4") and lp3 != tuple(lp3)
    # the default dicts are one per record
    assert lp3.centers == {} and lp3.centers is not again.centers
    ci = small_instance()
    one, two = (ClusteringInstance(ci.points, ci.point_labels, ci.centers, ci.center_labels,
                                   ci.k, ci.metric, ci.exponent) for _ in range(2))
    assert one.meta == {} and one.meta is not two.meta
    with pytest.raises(ValueError, match="one length"):
        ClusteringInstance(**{**ci._asdict(), "points": [[0]]})


def dense_rows(inst, code, real, labels, arity):
    """Reference rows: per code coordinate, real.vector of the padded symbol set."""
    cw = {u: rs_encode(code, message_for_element(code, u)) for u in range(1, inst.n + 1)}
    rows = []
    for lab in labels:
        row = []
        for g in range(code.ell):
            raw = {cw[u][g] for u in lab}
            pad = [mu for mu in range(code.q) if mu not in raw][:arity - len(raw)]
            row.extend(real.vector(sorted(raw) + pad))
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("make", [
    lambda: embed_l0(7, 4, 2), lambda: embed_l1(7, 3, 1),
    lambda: embed_indicator_lp(7, 4, 2, 3), lambda: embed_l2_scaled(7, 3, 2),
    lambda: embed_lp_halfshift(7, 3, 2),
], ids=["indicator-l0", "indicator-l1", "indicator-lp", "scaled-l2", "halfshift-lp"])
def test_composed_rows_match_dense_blocks(seed, make):
    real = make()
    z, y = real.t, real.s
    inst = gen_instance("random", 8, z, y, 2, m=8, seed=seed)
    code = RsCode(7, 2)
    ci = build_discrete_instance(inst, code, real)
    for labels, rows, arity in ((ci.point_labels, ci.points, z),
                                (ci.center_labels, ci.centers, y)):
        dense = dense_rows(inst, code, real, labels, arity)
        assert listed(rows) == [[float(v) for v in row] for row in dense]


def reference_write_points(ci):
    """The per-coordinate writer: str(int(v)) or repr(float(v)) for every value."""
    integral = all(type(v) is int for row in ci.points for v in row)

    def point_line(label, row):
        vals = " ".join(str(int(v)) if integral else repr(float(v)) for v in row)
        return f"{','.join(map(str, label))} {vals}\n"

    lines = [f"pts {ci.dim} {ci.metric.token} {ci.exponent} {ci.k}\n"]
    lines += [point_line(label, row) for label, row in zip(ci.point_labels, ci.points)]
    if ci.centers is not None:
        lines += [point_line(label, row) for label, row in zip(ci.center_labels, ci.centers)]
    return "".join(lines)


def rows_instance(points, centers=None):
    labels = tuple(combinations(range(1, 8), 3))[:len(points)]
    center_labels = None if centers is None else tuple((i,) for i in range(1, len(centers) + 1))
    return ClusteringInstance(points=points, point_labels=labels, centers=centers,
                              center_labels=center_labels, k=2, metric=parse_metric("l1"),
                              exponent=1)


@pytest.mark.parametrize("make", [
    lambda: rows_instance(np.array([[-128, 127, 0, -1, 5], [127, 127, -3, 0, 1]], np.int8).tolist(),
                          np.array([[0, -128, 127, 1, 1]], np.int8).tolist()),
    lambda: rows_instance(np.array([[-2 ** 40, 127, -5, 2 ** 62, 0]], np.int64).tolist()),
    lambda: composed("l2", 1), lambda: composed("lp", 2),
    lambda: build_continuous_indicator_instance(INST), random_float_instance,
    lambda: rows_instance(np.array([[0.0, -0.0, 0.1, -0.0, 5e-324, -1e300, 0.0]]).tolist(),
                          np.array([[-0.0, 0.0, 1.0, 0.0, 2.0, -0.0, 0.5]]).tolist()),
    lambda: rows_instance(np.array([[3], [-1], [3]], np.int64).tolist()),
    lambda: rows_instance(np.array([[0.5], [-0.0], [0.5]]).tolist(), np.array([[0.0]]).tolist()),
], ids=["int8-centers", "int64", "l2-scaled", "lp-halfshift", "continuous",
        "random-floats", "signed-zeros", "one-column-int", "one-column-float"])
def test_write_points_matches_per_value_writer(make):
    ci = make()
    buf = io.StringIO()
    write_points(ci, buf)
    assert buf.getvalue() == reference_write_points(ci)


# ---------------------------------------------------------------------------
# construction files against the dense files of the same instances
# ---------------------------------------------------------------------------

SUPPORT_REALIZATIONS = {
    "l0": lambda q: embed_l0(q, 3, 2), "l1": lambda q: embed_l1(q, 3, 2),
    "l2-scaled": lambda q: embed_l2_scaled(q, 3, 2),
    "lp-halfshift": lambda q: embed_lp_halfshift(q, 3, 3),
    "lp-indicator": lambda q: embed_indicator_lp(q, 3, 2, 3),
}


def construction_text(si):
    buf = io.StringIO()
    write_construction(si, buf)
    return buf.getvalue()


def dense_text(ci):
    buf = io.StringIO()
    write_points(ci, buf)
    return buf.getvalue()


def collisions(inst, code):
    """Blocks of the edge rows where two members share a codeword symbol."""
    cw = {u: rs_encode(code, message_for_element(code, u)) for u in range(1, inst.n + 1)}
    return sum(len({cw[u][g] for u in t}) < len(t) for t in inst.edges for g in range(code.q))


def assert_same_instance(got, want):
    """Equal in every value: labels, parameters and every coordinate."""
    assert (got.point_labels, got.center_labels, got.k, got.metric, got.exponent,
            got.meta) == (want.point_labels, want.center_labels, want.k, want.metric,
                          want.exponent, want.meta)
    assert listed(got.points) == listed(want.points)
    assert (got.centers is None) == (want.centers is None)
    if got.centers is not None:
        assert listed(got.centers) == listed(want.centers)


def cli_stdout(tmp_path, monkeypatch, capsys, name, text, argvs):
    """(exit, stdout) of each command, run on text saved as x.pts in its own directory."""
    workdir = tmp_path / name
    workdir.mkdir()
    (workdir / "x.pts").write_text(text)
    monkeypatch.chdir(workdir)
    return [(main([*argv, "-i", "x.pts"]), capsys.readouterr().out) for argv in argvs]


def assert_same_files(si, argvs, tmp_path, monkeypatch, capsys):
    """The construction file of si reads back to the dense file's instance,
    and cost and brute-opt print the same bytes on both files."""
    text, dense = construction_text(si), dense_text(si.dense())
    assert len(text.splitlines()) == 1 + sum(len(rows.labels) for rows in si.groups)
    assert_same_instance(read_points(io.StringIO(text)).dense(),
                         read_points(io.StringIO(dense)))
    got = cli_stdout(tmp_path, monkeypatch, capsys, "construction", text, argvs)
    want = cli_stdout(tmp_path, monkeypatch, capsys, "dense", dense, argvs)
    assert got == want and all(code == 0 for code, _ in got)


@pytest.mark.parametrize("seed, exponent", [(1, None), (2, None), (3, 3)])
@pytest.mark.parametrize("centers_from_edges", [False, True], ids=["all-centers", "edge-centers"])
@pytest.mark.parametrize("q, eta", [(5, 2), (7, 1), (13, 1)])
@pytest.mark.parametrize("kind", list(SUPPORT_REALIZATIONS))
def test_write_supports_matches_dense_writer(kind, q, eta, centers_from_edges, seed, exponent,
                                             tmp_path, monkeypatch, capsys):
    # the supports written as a construction file: the oracle is the dense file
    code = RsCode(q, eta)
    inst = gen_instance("random", min(9, q ** eta), 3, 2, 2, m=8, seed=seed)
    if eta == 2:
        assert collisions(inst, code) > 0      # the padded blocks are exercised
    real = SUPPORT_REALIZATIONS[kind](q)
    si = composed_supports(inst, code, real, centers_from_edges, exponent)
    assert si.exponent == (real.metric.exponent if exponent is None else exponent)
    labels = si.centers.labels
    argvs = [["cost", "--centers", *(",".join(map(str, c)) for c in (labels[0], labels[-1]))],
             ["brute-opt", "--mode", "discrete"]]
    assert_same_files(si, argvs, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("token, exponent", [("l0", None), ("l1", None), ("l1", 1),
                                             ("l2", None), ("l2", 1)])
@pytest.mark.parametrize("seed", [1, 2])
def test_write_supports_matches_dense_writer_continuous(token, exponent, seed, tmp_path,
                                                        monkeypatch, capsys):
    inst = gen_instance("random", 8, 3, 2, 2, m=6, seed=seed)
    si = indicator_supports(inst, parse_metric(token), exponent)
    argvs = [["cost", "--center-coords", ",".join(["0.5", "1", "0"] * 2 + ["0.25", "1"])],
             ["brute-opt", "--mode", "continuous"]]
    assert_same_files(si, argvs, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("make, number", [(lambda: embed_l1(7, 3, 2), int),
                                          (lambda: embed_l2_scaled(7, 4, 1), float)],
                         ids=["l1-int8", "l2-integral-floats"])
def test_construction_file_reads_back_to_the_built_arrays(make, number, tmp_path, monkeypatch,
                                                          capsys):
    # the dense file of the l2 instance, all of whose entries are whole, reads back as ints
    real, code = make(), RsCode(7, 2)
    inst = gen_instance("random", 9, real.t, real.s, 2, m=8, seed=4)
    si = composed_supports(inst, code, real, centers_from_edges=True)
    back = read_points(io.StringIO(construction_text(si))).dense()
    ci = build_discrete_instance(inst, code, real, centers_from_edges=True)
    assert element_types(back.points) == element_types(ci.points) == {number}
    assert back.meta == {}
    assert listed(back.points) == listed(ci.points) and listed(back.centers) == listed(ci.centers)
    argvs = [["cost", "--centers", *(",".join(map(str, c)) for c in si.centers.labels[:2])],
             ["brute-opt", "--mode", "discrete"]]
    assert_same_files(si, argvs, tmp_path, monkeypatch, capsys)


# every realization kind; l2 has no 0/1 one with candidate centers, so its metric
# is also put on l1's rows
TABLE_REALIZATIONS = {
    "l0": lambda: embed_l0(5, 3, 2), "l1": lambda: embed_l1(5, 3, 2),
    "lp3-indicator": lambda: embed_indicator_lp(5, 3, 2, 3),
    "lp1-indicator": lambda: embed_indicator_lp(5, 3, 2, 1),
    "l2-on-0/1": lambda: embed_l1(5, 3, 2)._replace(metric=parse_metric("l2")),
    "l2-scaled": lambda: embed_l2_scaled(5, 3, 2),
    "lp3-halfshift": lambda: embed_lp_halfshift(5, 3, 3),
}


def rational_pow(metric, u, v):
    """sum |a - b|^root over two dense rows: ints on integer rows, else Fractions
    of the floats; on l0 the count of coordinates that differ."""
    u, v = list(u), list(v)
    if metric.token == "l0":
        return sum(a != b for a, b in zip(u, v))
    exact = int if all(type(x) is int for x in u + v) else Fraction
    return sum(abs(exact(a) - exact(b)) ** metric.root for a, b in zip(u, v))


def typed(rows):
    return [[(type(v), v) for v in row] for row in rows]


@pytest.mark.parametrize("seed", [1, 2, None], ids=["random-1", "random-2", "complete-ties"])
@pytest.mark.parametrize("kind", list(TABLE_REALIZATIONS))
def test_support_table_matches_dense_rows(kind, seed):
    # the oracle: rational pow sums over the dense rows, entry by entry, type included
    code, real = RsCode(5, 2), TABLE_REALIZATIONS[kind]()
    if seed is None:
        inst = gen_instance("complete", 6, 3, 2, 2)
    else:
        inst = gen_instance("random", 9, 3, 2, 2, m=8, seed=seed)
    assert collisions(inst, code) > 0      # the padded blocks are exercised
    si = composed_supports(inst, code, real)
    ci = si.dense()
    want = [[rational_pow(ci.metric, pt, c) for c in ci.centers] for pt in ci.points]
    assert typed(_distance_table(si, si.centers)) == typed(want)
    assert typed(_distance_table(ci, ci.centers)) == typed(want)
    dists = [[pointwise_distance(pt, c, ci.metric) for c in ci.centers] for pt in ci.points]
    assert typed(dists) == typed([[ci.metric.from_pow(v) for v in row] for row in want])
    for j, center in enumerate(si.centers):
        per_point = clustering_cost(si, [center]).per_point
        assert typed([[d for _, _, d in per_point]]) == \
            typed([[ci.metric.from_pow(row[j]) for row in want]])
    chosen = [si.centers.labels[0], si.centers.labels[-1]]
    assert clustering_cost(si, centers_by_labels(si, chosen)) == \
        clustering_cost(ci, centers_by_labels(ci, chosen))
    witness, cost = want = brute_force_optimal_cost(ci, "discrete")
    got = brute_force_optimal_cost(si, "discrete")
    assert got == want and type(got[1]) is type(cost)
    if seed is None:    # several subsets reach the optimum: the first in lex order is kept
        subsets = list(combinations(range(len(ci.centers)), ci.k))
        costs = [clustering_cost(ci, [ci.centers[i] for i in idx]).total for idx in subsets]
        assert costs.count(cost) > 1
        assert witness == tuple(ci.center_labels[i] for i in subsets[costs.index(cost)])


@pytest.mark.parametrize("token, point, center", [
    ("l1", 0, 128), ("l1", -64, 64), ("lp3", 0, 32), ("lp3", -16, 16), ("lp7", 0, 2),
    ("l2", -181, 0), ("l1", 0, 2 ** 31), ("lp3", 0, 2 ** 21)])
def test_dense_int_pow_sums_hold_a_term_of_a_power_of_two(token, point, center):
    # each difference or term is at or near 2^7, 2^15, 2^31 or 2^63, one past the
    # largest value of a fixed-width signed int; the table holds it exactly, an int
    ci = read_points(io.StringIO(f"pts 1 {token} 1 1\n1,2 {point}\n1 {center}\n"))
    want = [[rational_pow(ci.metric, ci.points[0], ci.centers[0])]]
    assert want[0][0] == abs(center - point) ** ci.metric.root
    assert typed(_distance_table(ci, ci.centers)) == typed(want)
    (_, _, d), = clustering_cost(ci, [ci.centers[0]]).per_point
    assert d == ci.metric.from_pow(want[0][0]) > 0


# the benchmark's search instance of its brute-opt-l2-q13 job, before the seeded
# relabeling, under which an eta = 1 reduction's costs are invariant
SEARCH_N6 = JohnsonInstance(6, 3, 2, random.Random(3).sample(list(combinations(range(1, 7), 3)), 10),
                            3)


def test_scaled_file_keeps_the_lex_first_exact_tie():
    # five center subsets tie exactly at the optimum; floats of their sums need not
    si = read_points(io.StringIO(construction_text(
        composed_supports(SEARCH_N6, RsCode(13, 1), embed_l2_scaled(13, 3, 2)))))
    ci = si.dense()
    want = [[rational_pow(ci.metric, pt, c) for c in ci.centers] for pt in ci.points]
    subsets = list(combinations(range(len(ci.centers)), ci.k))
    costs = [sum(min(row[i] for i in idx) for row in want) for idx in subsets]
    best = min(costs)
    assert costs.count(best) == 5
    first = subsets[costs.index(best)]
    witness, cost = brute_force_optimal_cost(si, "discrete")
    assert witness == tuple(ci.center_labels[i] for i in first) and cost == float(best)
    # cost sends a point tied between centers to the lower index, one distance per class
    cols = [si.center_labels.index(c) for c in ((1, 2), (3, 4))]
    nearest = [min((row[j], i) for i, j in enumerate(cols)) for row in want]
    assert any(row[cols[0]] == row[cols[1]] for row in want)
    bd = clustering_cost(si, centers_by_labels(si, [(1, 2), (3, 4)]))
    assert [(i, d) for _, i, d in bd.per_point] == [(i, math.sqrt(d)) for d, i in nearest]
    assert bd.total == float(sum(d for d, _ in nearest))


def rational_block_cost(ci, block):
    """The block's cost about its exact center, in Fractions over the dense rows:
    the centroid on (l2, 2), the lower coordinate median on (l1, 1) and (l0, 1)."""
    rows = [[Fraction(x) for x in ci.points[i]] for i in block]
    if ci.metric.token == "l2":
        center = [sum(col) / len(rows) for col in zip(*rows)]
        return sum((x - c) ** 2 for row in rows for x, c in zip(row, center))
    center = [sorted(col)[(len(rows) - 1) // 2] for col in zip(*rows)]
    return sum(abs(x - c) for row in rows for x, c in zip(row, center))


def reference_continuous(ci):
    """The float flat scan: best_center_continuous per block, and the first
    partition whose total is lower by more than 1e-12."""
    block_cost, best = {}, None
    for partition in _partitions_upto(len(ci.points), ci.k):
        for block in partition:
            if block not in block_cost:
                block_cost[block] = float(best_center_continuous(
                    [ci.points[i] for i in block], ci.metric, ci.exponent)[1])
        cost = sum(block_cost[block] for block in partition)
        if best is None or cost < best[1] - 1e-12:
            best = (partition, cost)
    return best


@pytest.mark.parametrize("token, exponent", [("l2", 2), ("l1", 1), ("l0", 1)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_continuous_counts_match_dense_centers(token, exponent, seed):
    inst = gen_instance("random", 8, 3, 2, 3, m=7, seed=seed)
    si = indicator_supports(inst, parse_metric(token), exponent)
    ci = si.dense()
    blocks = [b for r in range(1, 8) for b in combinations(range(7), r)]
    for block_cost in (_count_cost(si), _count_cost(ci)):
        for block in blocks:
            exact = block_cost(block)
            assert exact == rational_block_cost(ci, block)
            center_cost = best_center_continuous([ci.points[i] for i in block], ci.metric,
                                                 exponent)[1]
            assert abs(float(exact) - center_cost) <= 1e-12
    partition, cost = brute_force_optimal_cost(si, "continuous")
    assert brute_force_optimal_cost(ci, "continuous") == (partition, cost)
    assert partition == reference_continuous(ci)[0]
    assert cost == float(sum(rational_block_cost(ci, block) for block in partition))


def dense_float_text(token, exponent, seed):
    """A dense file of six 3-coordinate float rows, none of them 0/1, at k = 2."""
    rng = random.Random(seed)
    labels = list(combinations(range(1, 6), 3))[:6]
    rows = [" ".join(repr(rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 6)) for _ in range(3))
            for _ in labels]
    return f"pts 3 {token} {exponent} 2\n" + "".join(
        f"{','.join(map(str, label))} {row}\n" for label, row in zip(labels, rows))


@pytest.mark.parametrize("token, exponent", [("l2", 2), ("l1", 1)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_float_continuous_optimum_is_the_rounded_exact_one(token, exponent, seed, tmp_path,
                                                                 monkeypatch, capsys):
    # the oracle: every partition's exact cost in Fractions, the first exact minimum kept
    text = dense_float_text(token, exponent, seed)
    ci = read_points(io.StringIO(text))
    costs = {p: sum(rational_block_cost(ci, block) for block in p)
             for p in _partitions_upto(len(ci.points), ci.k)}
    best = min(costs.values())
    witness = next(p for p, cost in costs.items() if cost == best)
    assert brute_force_optimal_cost(ci, "continuous") == (witness, float(best))
    (code, out), = cli_stdout(tmp_path, monkeypatch, capsys, "dense", text,
                              [["brute-opt", "--mode", "continuous"]])
    assert code == 0 and f"record=optimum cost={float(best)!r} " in out


@pytest.mark.parametrize("make, number, per_coordinate", [(embed_l1, int, 1.5),
                                                          (embed_l2_scaled, float, 8.5)],
                         ids=["int", "float"])
def test_fill_memory_stays_within_one_array_per_row(make, number, per_coordinate):
    # the 8 points and 66 candidate centers of a q = 127 file: 1,193,546 coordinates,
    # one byte each in array('b') rows and eight in array('d') ones
    inst = gen_instance("random", 12, 3, 2, 3, m=8, seed=1)
    si = composed_supports(inst, RsCode(127, 1), make(127, 3, 2))
    coords = sum(len(rows.labels) for rows in si.groups) * si.dim
    tracemalloc.start()
    try:
        ci = si.dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coords == 1_193_546 and element_types(ci.centers) == {number}
    assert peak < per_coordinate * coords


def test_write_supports_memory_stays_small(tmp_path, monkeypatch, capsys):
    # the benchmark's reduce-l1-q401 job: rows of 401^2 coordinates, none built or written
    inst = gen_instance("random", 12, 3, 2, 3, m=8, seed=1)
    tracemalloc.start()
    try:
        si = composed_supports(inst, RsCode(401, 1), embed_l1(401, 3, 2),
                               centers_from_edges=True)
        text = construction_text(si)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20 and len(text) < 1024
    monkeypatch.chdir(tmp_path)
    with open("q401.jc", "w") as fh:
        write_instance(inst, fh)
    code = main(["reduce", "-i", "q401.jc", "--mode", "discrete", "--metric", "l1",
                 "--q", "401", "--centers-from-edges", "-o", "q401.pts"])
    assert code == 0 and "dim=160801" in capsys.readouterr().out
    assert (tmp_path / "q401.pts").read_text() == text
    header = text.splitlines()[0]
    assert header == f"ptsc composed l1 1 3 12 401 1 indicator 3 2 8 {len(si.centers.labels)}"
