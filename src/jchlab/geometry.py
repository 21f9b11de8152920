"""Continuous center computations and pairwise cost identities.

Everything operates on numpy arrays of shape (m, d).  Integer inputs keep
integer costs on the l1/l0 paths; the Euclidean center rules use floats.
A distance between two rows (pointwise_distance) comes from Metric.pow_sum
on their Python values, the one rule the cost oracles score rows by.  The
separated-points center bound is certified exactly, in Fractions, from the
uniform-weight dual of the enclosing-ball problem.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError

WEISZFELD_TOL = 1e-8
WEISZFELD_CAP = 100_000


def as_points(points):
    arr = np.asarray(points)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("need a nonempty (m, d) point array")
    return arr


def pointwise_distance(u, v, metric):
    """Distance between two rows under a Metric: from_pow of their pow sum,
    Metric.pow_sum over the coordinate pairs."""
    pairs = zip(np.asarray(u).tolist(), np.asarray(v).tolist())
    return metric.from_pow(metric.pow_sum((pair, 1) for pair in pairs))


def kmeans_partition_cost(points, partition):
    """Pairwise form of the squared-Euclidean clustering cost.

    sum_i (1 / (2|C_i|)) sum_{p,q in C_i} |p - q|_2^2 over a disjoint cover
    of the points by nonempty index lists.
    """
    pts = as_points(points).astype(float)
    _check_partition(partition, len(pts))
    total = 0.0
    for part in partition:
        block = pts[list(part)]
        sq = (block * block).sum(axis=1)
        gram = block @ block.T
        pair_sum = float((sq[:, None] + sq[None, :] - 2 * gram).sum())
        total += pair_sum / (2 * len(part))
    return total


def kmeans_partition_cost_centroid(points, partition):
    """Centroid form of the same cost; agrees with the pairwise form."""
    pts = as_points(points).astype(float)
    _check_partition(partition, len(pts))
    return sum(centroid(pts[list(part)])[1] for part in partition)


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
    sorted_pts = np.sort(pts, axis=0)
    return sorted_pts[(len(pts) - 1) // 2]


def weiszfeld_geometric_median(points, tol=WEISZFELD_TOL, cap=WEISZFELD_CAP):
    """Geometric median by Weiszfeld iteration to gradient norm <= tol.

    When an iterate lands on a data point the standard optimality test
    (|sum of unit vectors to the other points| <= the number of rows at that
    point) either stops there or nudges the iterate off the singularity.
    """
    pts = as_points(points).astype(float)
    m = len(pts)
    if m == 1:
        return pts[0].copy(), 0.0
    x = pts.mean(axis=0)
    for _ in range(cap):
        d = np.sqrt(((pts - x) ** 2).sum(axis=1))
        anchored = d < 1e-12
        if anchored.any():
            others = ~anchored
            r = ((pts[others] - x) / d[others, None]).sum(axis=0)
            rnorm = float(np.sqrt((r * r).sum()))
            if rnorm <= int(anchored.sum()) + 1e-12:
                return x, float(np.sqrt(((pts - x) ** 2).sum(axis=1)).sum())
            x = x + (1e-6 / rnorm) * r  # push off the data point
            continue
        w = 1.0 / d
        grad = ((x - pts) * w[:, None]).sum(axis=0)
        if float(np.sqrt((grad * grad).sum())) <= tol:
            return x, float(d.sum())
        x = (pts * w[:, None]).sum(axis=0) / w.sum()
    raise ConvergenceError(f"Weiszfeld did not reach gradient norm {tol} in {cap} steps")


def l1sq_cost(points, center):
    pts = as_points(points).astype(float)
    return float((np.abs(pts - np.asarray(center, dtype=float)).sum(axis=1) ** 2).sum())


def l1sq_pairwise_lower_bound(points):
    """Certified lower bound on min_c sum (|p - c|_1)^2 via the pairwise relaxation.

    From |p - q|_1^2 <= 2|p - c|_1^2 + 2|q - c|_1^2 summed over ordered pairs:
    cost >= sum_{p,q} |p - q|_1^2 / (4m).
    """
    pts = as_points(points).astype(float)
    return sum(l1sq_cost(pts, p) for p in pts) / (4 * len(pts))


def _pattern_search(cost, x0, step0, tol=1e-7):
    x = np.asarray(x0, dtype=float).copy()
    best = cost(x)
    step = float(step0)
    while step > tol:
        improved = False
        for j in range(len(x)):
            for delta in (step, -step):
                trial = x.copy()
                trial[j] += delta
                c = cost(trial)
                if c < best - 1e-15:
                    x, best = trial, c
                    improved = True
        if not improved:
            step /= 2.0
    return x, best


def l1sq_center_heuristic(points):
    """Local-search center for the squared-l1 objective (no closed form).

    Seeded at the centroid and the coordinate median; the result is a
    heuristic upper bound, to be read against l1sq_pairwise_lower_bound.
    """
    pts = as_points(points).astype(float)
    spread = float(np.ptp(pts)) or 1.0
    best = None
    for seed in (pts.mean(axis=0), coordinate_median(pts).astype(float)):
        x, c = _pattern_search(lambda v: l1sq_cost(pts, v), seed, spread / 2)
        if best is None or c < best[1]:
            best = (x, c)
    return best


def centroid(points):
    """The mean and its squared-l2 cost: the exact l2 means center."""
    pts = as_points(points)
    c = pts.astype(float).mean(axis=0)
    return c, float(((pts - c) ** 2).sum())


def median_center(points):
    """The lower coordinate median and its l1 cost: the exact l1 medians center.
    Integer rows are summed as Python ints, so the cost never wraps."""
    pts = as_points(points)
    c = coordinate_median(pts)
    if np.issubdtype(pts.dtype, np.integer):
        center = c.tolist()
        return c, sum(abs(a - b) for row in pts.tolist() for a, b in zip(row, center))
    return c, float(np.abs(pts - c).sum())


def binary_median_center(points):
    """median_center on 0/1 data, where l0 and l1 agree."""
    pts = as_points(points)
    if not np.isin(pts, (0, 1)).all():
        raise ValueError("l0 center requires 0/1 data")
    return median_center(pts)


def best_center_continuous(points, metric, exponent):
    """Optimal (or flagged-heuristic) single center for one cluster.

    The rule is metric.centers[exponent]: (l2, 2) centroid; (l1/l0, 1)
    coordinatewise lower median; (l2, 1) Weiszfeld; (l1, 2) local-search
    heuristic (squared-l1 cost is not coordinatewise separable, so no exact
    closed form is used).  A float step past the double range raises
    FloatingPointError rather than giving an inf center or cost.
    """
    rule = metric.centers.get(exponent)
    if rule is None:
        raise ValueError(f"no center rule for metric={metric.token!r} exponent={exponent}")
    with np.errstate(over="raise"):
        return rule(points)


# ---------------------------------------------------------------------------
# separated-points center bound
# ---------------------------------------------------------------------------

def _uniform_dual(rows):
    """(1/m) sum_i |p_i|^2 - |mean|^2 as an exact Fraction.

    For any center c, max_i |p_i - c|^2 >= (1/m) sum_i |p_i - c|^2 >= this
    value, so it bounds the squared enclosing radius from below.  Floats are
    dyadic rationals, so Fraction(x) is each coordinate exactly.
    """
    m = len(rows)
    total = Fraction(0)
    for column in zip(*rows):
        xs = [Fraction(x) for x in column]
        s = sum(xs)
        total += m * sum(x * x for x in xs) - s * s
    return total / (m * m)


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
    pts = as_points(points).astype(float)
    rows = pts.tolist()
    bad = next((x for row in rows for x in row if not math.isfinite(x)), None)
    if bad is not None:
        raise ValueError(f"coordinates must be finite, got {bad}")
    m = len(pts)
    if not m > 4.0 / eps + 1:
        raise ValueError(f"need more than 4/eps + 1 = {4.0 / eps + 1:.2f} points, got {m}")
    for i in range(m):
        d2 = ((pts[i + 1:] - pts[i]) ** 2).sum(axis=1)
        if len(d2) and float(d2.min()) < 2.0 - 1e-9:
            raise ValueError("pairwise distances must be at least sqrt(2)")
    return eps >= 1 or _uniform_dual(rows) >= (1 - Fraction(eps)) ** 2
