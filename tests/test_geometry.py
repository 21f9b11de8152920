import math
import random
from fractions import Fraction

import numpy as np
import pytest

from jchlab import (
    ConvergenceError,
    kmeans_partition_cost, kmeans_partition_cost_centroid,
    best_center_continuous, weiszfeld_geometric_median, coordinate_median,
    separation_center_bound_check, l1sq_pairwise_lower_bound, parse_metric,
)
from jchlab.geometry import _uniform_dual, l1sq_center_heuristic

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
# the rows the library takes: Python floats
TRIANGLE_ROWS = TRIANGLE.tolist()


def test_partition_cost_two_points():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert kmeans_partition_cost(pts.tolist(), [(0, 1)]) == pytest.approx(2.0)


def test_partition_cost_singletons():
    assert kmeans_partition_cost(TRIANGLE_ROWS, [(0,), (1,), (2,)]) == 0.0


def test_partition_cost_equilateral_both_forms():
    # pairwise: (1/6) * (6 ordered pairs * 1); centroid: 3 * (1/sqrt(3))^2
    pair = kmeans_partition_cost(TRIANGLE_ROWS, [(0, 1, 2)])
    cen = kmeans_partition_cost_centroid(TRIANGLE_ROWS, [(0, 1, 2)])
    assert pair == pytest.approx(1.0, abs=1e-12)
    assert abs(pair - cen) <= 1e-9


def test_partition_cost_forms_agree_random():
    rng = np.random.default_rng(123)
    for _ in range(200):
        m = rng.integers(2, 12)
        d = rng.integers(1, 6)
        pts = rng.normal(size=(m, d)) * rng.uniform(0.5, 4.0)
        cut = sorted(set(rng.integers(0, m, size=2).tolist()) - {0, m})
        parts, prev = [], 0
        for c in cut + [m]:
            if c > prev:
                parts.append(tuple(range(prev, c)))
                prev = c
        a = kmeans_partition_cost(pts.tolist(), parts)
        b = kmeans_partition_cost_centroid(pts.tolist(), parts)
        assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_partition_validation():
    with pytest.raises(ValueError):
        kmeans_partition_cost(TRIANGLE_ROWS, [(0, 1)])
    with pytest.raises(ValueError):
        kmeans_partition_cost(TRIANGLE_ROWS, [(0, 1, 2), ()])


def test_weiszfeld_equilateral_vs_grid():
    center, cost = weiszfeld_geometric_median(TRIANGLE_ROWS)
    assert cost == pytest.approx(math.sqrt(3), abs=1e-4)
    # grid oracle at 1e-3 mesh over the bounding box
    xs = np.arange(0.0, 1.0, 1e-3)
    ys = np.arange(0.0, 0.9, 1e-3)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    dist_sum = np.zeros(len(grid))
    for p in TRIANGLE:
        dist_sum += np.sqrt(((grid - p) ** 2).sum(axis=1))
    assert cost <= float(dist_sum.min()) + 1e-4


def test_weiszfeld_single_and_pair():
    c, cost = weiszfeld_geometric_median(np.array([[1.0, 2.0]]).tolist())
    assert cost == 0.0 and np.allclose(c, [1, 2])
    c, cost = weiszfeld_geometric_median(np.array([[0.0, 0.0], [4.0, 0.0]]).tolist())
    assert cost == pytest.approx(4.0, abs=1e-8)


def test_weiszfeld_step_cap_raises():
    with pytest.raises(ConvergenceError, match="in 1 steps"):
        weiszfeld_geometric_median(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]).tolist(), cap=1)


def test_weiszfeld_optimum_at_data_point():
    # star: the center point is the geometric median, a singular iterate
    star = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    c, cost = weiszfeld_geometric_median(star.tolist())
    assert np.allclose(c, [0.0, 0.0], atol=1e-6)
    assert cost == pytest.approx(4.0, abs=1e-6)


def test_weiszfeld_optimum_at_repeated_row():
    # two rows share the optimum: |sum of unit vectors| = 1.776 there, above 1 but
    # within the 2 rows at that point, so the iterate stops on it
    block = np.array([[1, 1, 1, 0, 1], [1, 1, 1, 0, 1], [1, 0, 0, 0, 0], [0, 0, 0, 1, 1]])
    c, cost = weiszfeld_geometric_median(block.tolist())
    assert np.allclose(c, block[0], rtol=0, atol=1e-9)
    assert abs(cost - (2 + math.sqrt(3))) <= 1e-9


def test_weiszfeld_optimum_at_row_never_landed_on():
    # the unit vectors from row 0 to the others sum to norm 0.99993 <= 1, so row 0 is
    # the median; the iterates approach it without landing on it
    c, cost = weiszfeld_geometric_median([[0, 0], [10, 0], [-41, 71]])
    assert c == [0.0, 0.0]
    assert cost == 10 + math.sqrt(6722) == 91.98780397107853


def test_float_centers_bit_identical_under_row_permutation():
    # every float sum is math.fsum, so no result depends on the order of the rows
    rng = random.Random(2024)
    for _ in range(60):
        m, d = rng.randint(3, 9), rng.randint(1, 6)
        rows = [[rng.uniform(-10, 10) for _ in range(d)] for _ in range(m)]
        shuffled = rng.sample(rows, m)
        for rule in (weiszfeld_geometric_median, l1sq_center_heuristic):
            (c1, cost1), (c2, cost2) = rule(rows), rule(shuffled)
            assert [x.hex() for x in (*c1, cost1)] == [x.hex() for x in (*c2, cost2)]
        assert l1sq_pairwise_lower_bound(rows).hex() == l1sq_pairwise_lower_bound(shuffled).hex()


def test_coordinate_median_examples():
    pts = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1]]).tolist()
    assert coordinate_median(pts) == [0, 0, 1]
    c, cost = best_center_continuous(pts, parse_metric("l1"), 1)
    assert cost == 3 and isinstance(cost, int)
    # even count with a 50/50 split resolves downward
    even = np.array([[0], [0], [1], [1]]).tolist()
    assert coordinate_median(even) == [0]


def test_best_center_centroid():
    c, cost = best_center_continuous(TRIANGLE_ROWS, parse_metric("l2"), 2)
    assert np.allclose(c, TRIANGLE.mean(axis=0))
    assert cost == pytest.approx(1.0, abs=1e-12)


def test_best_center_l1sq_heuristic_vs_bound():
    pts = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1]], dtype=float).tolist()
    c, cost = best_center_continuous(pts, parse_metric("l1"), 2)
    lb = l1sq_pairwise_lower_bound(pts)
    assert lb <= cost + 1e-9
    assert cost <= 3.0 + 1e-6  # coordinate median already achieves 3


def test_best_center_rejects_unknown():
    with pytest.raises(ValueError):
        best_center_continuous(TRIANGLE_ROWS, parse_metric("l2"), 3)
    with pytest.raises(ValueError, match="no center rule for metric='l0' exponent=2"):
        best_center_continuous(np.eye(3, dtype=int).tolist(), parse_metric("l0"), 2)
    with pytest.raises(ValueError):
        best_center_continuous(np.empty((0, 2)).tolist(), parse_metric("l2"), 2)


@pytest.mark.parametrize("m", [12, 50])
def test_uniform_dual_simplex_vertices(m):
    # the basis vectors' circumradius^2 is 1 - 1/m, attained at uniform weights
    assert _uniform_dual(np.eye(m).tolist()) == Fraction(m - 1, m)
    assert _uniform_dual((2 * np.eye(m)).tolist()) == Fraction(4 * (m - 1), m)


def test_uniform_dual_is_a_lower_bound():
    # enclosing radius^2 of {0, 1, 4} is 4; uniform weights give only 17/3 - 25/9
    assert _uniform_dual([[0.0], [1.0], [4.0]]) == Fraction(26, 9)


def test_uniform_dual_equals_pairwise_form():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m, d = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        rows = (rng.normal(size=(m, d)) * 3).tolist()
        exact = [[Fraction(x) for x in row] for row in rows]
        pairs = sum((a - b) ** 2 for p in exact for q in exact for a, b in zip(p, q))
        assert _uniform_dual(rows) == pairs / (2 * m * m)


def test_separation_check_passes():
    assert separation_center_bound_check(np.eye(50).tolist(), 0.1)
    assert separation_center_bound_check((2 * np.eye(50)).tolist(), 0.1)
    # 1 - eps <= 0: every center is trivially that far from some point
    assert separation_center_bound_check(np.eye(6).tolist(), 1.0)
    assert separation_center_bound_check(np.eye(4).tolist(), 2.0)


def test_separation_check_certifies_seeded_separated_sets():
    # rotated, shifted, scaled simplices: pairwise distance^2 = 2 scale^2 > 2
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(6, 30))
        d = m + int(rng.integers(0, 8))
        rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
        pts = (np.eye(m, d) * rng.uniform(1.1, 3.0)) @ rotation + rng.normal(size=d)
        eps = float(rng.uniform(4.0 / (m - 1) + 1e-3, 1.0))
        assert _uniform_dual(pts.tolist()) >= Fraction(m - 1, m)
        assert separation_center_bound_check(pts.tolist(), eps)


def test_separation_check_preconditions():
    with pytest.raises(ValueError):
        separation_center_bound_check(np.eye(10).tolist(), 0.1)   # too few points
    pts = np.eye(50) * 0.5                                         # pairwise < sqrt(2)
    with pytest.raises(ValueError):
        separation_center_bound_check(pts.tolist(), 0.1)


@pytest.mark.parametrize("eps", [0, -0.1, float("nan")])
def test_separation_check_refuses_eps_not_positive(eps):
    with pytest.raises(ValueError, match=f"eps must be positive, got {eps}"):
        separation_center_bound_check(np.eye(50).tolist(), eps)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_separation_check_refuses_non_finite_coordinates(bad):
    pts = np.eye(50)
    pts[7, 3] = bad
    with pytest.raises(ValueError, match=f"coordinates must be finite, got {bad}"):
        separation_center_bound_check(pts.tolist(), 0.1)
