"""Continuous center computations and pairwise cost identities.

Points are a nonempty sequence of rows of one length, each a sequence of
Python ints or floats.  The closed-form centers cost a block exactly, by
Metric.pow_sum of its value pairs against the center (the rule the cost
oracles score rows by), as do pointwise_distance and the separated-points
center bound.  Weiszfeld and the squared-l1 pattern search run in floats,
every sum of floats correctly rounded by math.fsum, so their results depend
on neither the row order nor the Python version.
"""

import math
import sys
from collections import Counter
from fractions import Fraction
from math import fsum
from operator import sub

from .errors import ConvergenceError
from .metric import METRICS

WEISZFELD_TOL = 1e-8
WEISZFELD_CAP = 100_000


def as_points(points):
    rows = [list(row) for row in points]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("need a nonempty sequence of rows of one length")
    return rows


def _floats(points):
    return [[float(x) for x in row] for row in as_points(points)]


def pointwise_distance(u, v, metric):
    """Distance between two rows under a Metric: from_pow of their pow sum
    (Metric.pair_pow)."""
    return metric.from_pow(metric.pair_pow(u, v))


def _pow_sum(metric, rows, center):
    # the exact pow sum of every row against center, each distinct value pair counted once
    return metric.pow_sum(Counter(pair for row in rows for pair in zip(row, center)).items())


def kmeans_partition_cost(points, partition):
    """Pairwise form of the squared-Euclidean clustering cost.

    sum_i (1 / (2|C_i|)) sum_{p,q in C_i} |p - q|_2^2 over a disjoint cover
    of the points by nonempty index lists, summed exactly and rounded once.
    """
    pts = as_points(points)
    _check_partition(partition, len(pts))
    total = 0
    for part in partition:
        block = [pts[i] for i in part]
        total += Fraction(sum(_pow_sum(METRICS["l2"], block, q) for q in block), 2 * len(part))
    return float(total)


def kmeans_partition_cost_centroid(points, partition):
    """Centroid form of the same cost; equal to the pairwise form, exactly."""
    pts = as_points(points)
    _check_partition(partition, len(pts))
    return float(sum(centroid([pts[i] for i in part])[1] for part in partition))


def _check_partition(partition, m):
    for part in partition:
        if len(part) == 0:
            raise ValueError("empty part in partition")
    flat = [i for part in partition for i in part]
    if sorted(flat) != list(range(m)):
        raise ValueError("partition must cover all points disjointly")


def coordinate_median(points):
    """Lower coordinatewise median; on 0/1 data a tie at half resolves to 0."""
    pts = as_points(points)
    return [sorted(column)[(len(pts) - 1) // 2] for column in zip(*pts)]


def _pull(pts, x):
    """At x: the distances to the rows and their sum, the sum of the unit
    vectors to the rows not at x with its norm, and the number of rows at x."""
    d = [math.sqrt(fsum(t * t for t in map(sub, p, x))) for p in pts]
    cost = fsum(d)
    if not math.isfinite(cost):
        raise OverflowError("a Weiszfeld distance overflows a double")
    r = [fsum(column) for column in zip(*([(a - b) / di for a, b in zip(p, x)]
                                          for p, di in zip(pts, d) if di >= 1e-12))]
    return d, cost, r, math.sqrt(fsum(a * a for a in r)), sum(di < 1e-12 for di in d)


def weiszfeld_geometric_median(points, tol=WEISZFELD_TOL, cap=WEISZFELD_CAP):
    """Geometric median by Weiszfeld iteration to gradient norm <= tol.

    A row is the median when the unit vectors from it to the other rows sum
    to a norm at most the number of rows at it (Vardi and Zhang 2000), so
    each distinct row is tested first, in lexicographic order, and an
    iterate that lands on a row is pushed off it.  Every sum is math.fsum,
    so the result does not depend on the row order.  An iterate whose
    distances pass the double range raises OverflowError.
    """
    pts = _floats(points)
    for row in sorted(set(map(tuple, pts))):
        _, cost, _, rnorm, anchored = _pull(pts, row)
        if rnorm <= anchored + 1e-12:
            return list(row), cost
    x = [fsum(column) / len(pts) for column in zip(*pts)]
    for _ in range(cap):
        d, cost, r, rnorm, anchored = _pull(pts, x)
        if anchored:
            x = [a + (1e-6 / rnorm) * b for a, b in zip(x, r)]  # push off the data point
            continue
        if rnorm <= tol:    # r is minus the gradient
            return x, cost
        w = [1.0 / di for di in d]
        total = fsum(w)
        x = [fsum(column) / total
             for column in zip(*([a * wi for a in p] for p, wi in zip(pts, w)))]
    raise ConvergenceError(f"Weiszfeld did not reach gradient norm {tol} in {cap} steps")


def _abs_diffs(pts, c):
    return [[abs(a - b) for a, b in zip(p, c)] for p in pts]


def _l1sq(diffs):
    # the squared-l1 cost of rows given as their |p - c| lists
    return fsum(s * s for s in map(fsum, diffs))


def l1sq_pairwise_lower_bound(points):
    """Certified lower bound on min_c sum (|p - c|_1)^2 via the pairwise relaxation.

    From |p - q|_1^2 <= 2|p - c|_1^2 + 2|q - c|_1^2 summed over ordered pairs:
    cost >= sum_{p,q} |p - q|_1^2 / (4m).
    """
    pts = _floats(points)
    return fsum(_l1sq(_abs_diffs(pts, p)) for p in pts) / (4 * len(pts))


def _pattern_search(pts, x0, step0, tol=1e-7):
    # a trial moves one coordinate, so it updates one entry of each |p - x| list
    x = list(x0)
    diffs = _abs_diffs(pts, x)
    best = _l1sq(diffs)
    step = float(step0)
    while step > tol:
        improved = False
        for j in range(len(x)):
            for delta in (step, -step):
                t = x[j] + delta
                trial = [row.copy() for row in diffs]
                for row, p in zip(trial, pts):
                    row[j] = abs(p[j] - t)
                c = _l1sq(trial)
                if c < best - 1e-15:
                    x[j], diffs, best = t, trial, c
                    improved = True
        if not improved:
            step /= 2.0
    return x, best


def l1sq_center_heuristic(points):
    """Local-search center for the squared-l1 objective (no closed form).

    Seeded at the centroid and the coordinate median; the result is a
    heuristic upper bound, to be read against l1sq_pairwise_lower_bound.
    Rows whose spread passes the double range raise OverflowError.
    """
    pts = _floats(points)
    spread = max(map(max, pts)) - min(map(min, pts))
    if not math.isfinite(spread):
        raise OverflowError("the spread of the rows overflows a double")
    seeds = ([fsum(column) / len(pts) for column in zip(*pts)], coordinate_median(pts))
    # the first seed's result on a tie
    return min((_pattern_search(pts, seed, (spread or 1.0) / 2) for seed in seeds),
               key=lambda result: result[1])


def centroid(points):
    """The mean and its exact squared-l2 cost: the exact l2 means center."""
    pts = as_points(points)
    mean = [sum(map(Fraction, column)) / len(pts) for column in zip(*pts)]
    return [float(c) for c in mean], _pow_sum(METRICS["l2"], pts, mean)


def median_center(points):
    """The lower coordinate median and its exact l1 cost: the exact l1 medians center."""
    pts = as_points(points)
    center = coordinate_median(pts)
    return center, _pow_sum(METRICS["l1"], pts, center)


def binary_median_center(points):
    """median_center on 0/1 data, where l0 and l1 agree."""
    pts = as_points(points)
    if not all(x in (0, 1) for row in pts for x in row):
        raise ValueError("l0 center requires 0/1 data")
    return median_center(pts)


def best_center_continuous(points, metric, exponent):
    """Optimal (or flagged-heuristic) single center for one cluster.

    The rule is metric.centers[exponent]: (l2, 2) centroid and (l1/l0, 1)
    lower coordinate median, exact costs (an int or a Fraction); (l2, 1)
    Weiszfeld and (l1, 2) local-search heuristic (the squared-l1 cost is not
    coordinatewise separable), float costs.  A center or a cost past the
    double range raises OverflowError rather than being returned as inf.
    """
    rule = metric.centers.get(exponent)
    if rule is None:
        raise ValueError(f"no center rule for metric={metric.token!r} exponent={exponent}")
    center, cost = rule(points)
    # false for inf and nan, and for an exact cost that no double holds
    if not all(abs(v) <= sys.float_info.max for v in (*center, cost)):
        raise OverflowError("a center or its cost overflows a double")
    return center, cost


# ---------------------------------------------------------------------------
# separated-points center bound
# ---------------------------------------------------------------------------

def _uniform_dual(rows):
    """(1/m) sum_i |p_i - mean|^2, the centroid's exact cost over m.  For any
    center c, max_i |p_i - c|^2 >= (1/m) sum_i |p_i - c|^2 >= this value, so
    it bounds the squared enclosing radius from below."""
    return Fraction(centroid(rows)[1], len(rows))


def separation_center_bound_check(points, eps):
    """For pairwise-separated points, certify that no center is close to all.

    Preconditions: eps > 0, finite coordinates, pairwise l2 distances
    >= sqrt(2) and more than 4/eps + 1 points.  Returns True when every
    center is at distance >= 1 - eps from some point, decided exactly from
    the uniform-weight dual D = (1/(2m^2)) sum_{i,j} |p_i - p_j|^2: true when
    1 - eps <= 0 or D >= (1 - eps)^2.  Under the preconditions
    D >= (m-1)/m > 1 - eps/4 >= (1 - eps)^2, so the check always certifies.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    rows = _floats(points)
    bad = next((x for row in rows for x in row if not math.isfinite(x)), None)
    if bad is not None:
        raise ValueError(f"coordinates must be finite, got {bad}")
    m = len(rows)
    if not m > 4.0 / eps + 1:
        raise ValueError(f"need more than 4/eps + 1 = {4.0 / eps + 1:.2f} points, got {m}")
    if any(fsum(t * t for t in map(sub, q, p)) < 2.0 - 1e-9
           for i, p in enumerate(rows) for q in rows[i + 1:]):
        raise ValueError("pairwise distances must be at least sqrt(2)")
    return eps >= 1 or _uniform_dual(rows) >= (1 - Fraction(eps)) ** 2
