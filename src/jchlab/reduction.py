"""Coverage-to-clustering reductions and exact clustering cost oracles.

The discrete reduction composes a Reed-Solomon code with a gap realization:
each universe element becomes a codeword, each block of the output vector
realizes the set of codeword symbols at one coordinate (padded back to full
arity when symbols collide), and covered pairs land at the uniform base
distance beta * ell^(1/p) while uncovered pairs stay above the certified
floor.  The continuous reduction is the plain indicator embedding.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .coverage import JohnsonInstance
from .codes import message_for_element, rs_encode
from .errors import BudgetExceededError
from .geometry import best_center_continuous, pointwise_distance

DEFAULT_BUDGET = 2_000_000


@dataclass
class ClusteringInstance:
    points: np.ndarray
    point_labels: tuple
    centers: object            # np.ndarray or None (continuous case)
    center_labels: object
    k: int
    metric: str
    p: object
    exponent: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need k >= 1")
        if self.centers is not None and len(self.centers) == 0:
            raise ValueError("discrete instance needs a nonempty center list")
        if self.centers is not None and self.centers.shape[1] != self.points.shape[1]:
            raise ValueError("points and centers must share one dimension")

    @property
    def dim(self):
        return self.points.shape[1]


def _pad_to_arity(symbols, arity, q):
    """Union with the smallest field symbols outside the set, up to arity."""
    out = set(symbols)
    for mu in range(q):
        if len(out) >= arity:
            break
        out.add(mu)
    return tuple(sorted(out))


def _composed_vector(members, arity, codewords, real, out):
    # same entries as real.vector per block, written sparsely: every block is
    # the fill value except at the (padded) symbol set
    q = real.q
    is_low_side = arity == real.s
    fill, val = 0.0, 1.0
    if real.kind == "halfshift" and is_low_side:
        fill, val = 0.5, 1.5
    elif real.kind == "scaled" and is_low_side:
        val = math.sqrt(real.t / real.s)
    if fill:
        out[:] = fill
    for gamma in range(q):
        block = _pad_to_arity({codewords[u][gamma] for u in members}, arity, q)
        base = gamma * q
        for mu in block:
            out[base + mu] = val
    return out


def build_discrete_instance(inst, code, real, centers_from_edges=False,
                            exponent=None):
    """Points for edges, candidate centers for y-subsets, one block per symbol.

    The realization must match the instance arities (t=z, s=y) and the code's
    field size.  centers_from_edges restricts the candidate centers to the
    y-subsets of actual edges to keep their count polynomial in |E|.  The
    cost exponent defaults to 2 (means) for l2 and 1 (median) otherwise.
    """
    if (real.t, real.s) != (inst.z, inst.y):
        raise ValueError(f"realization is for (t={real.t}, s={real.s}); "
                         f"instance has (z={inst.z}, y={inst.y})")
    if code.q != real.q:
        raise ValueError(f"code field size {code.q} != realization ground set {real.q}")
    if inst.n > code.q ** code.eta:
        raise ValueError("message space too small for the universe")

    codewords = {u: rs_encode(code, message_for_element(code, u))
                 for u in range(1, inst.n + 1)}
    ell = code.ell
    dim = ell * real.dim
    dtype = np.int8 if real.kind == "indicator" else np.float64

    point_labels = inst.edges
    points = np.zeros((len(point_labels), dim), dtype=dtype)
    for i, t in enumerate(point_labels):
        _composed_vector(t, inst.z, codewords, real, points[i])

    if centers_from_edges:
        center_labels = tuple(sorted({s for t in inst.edges
                                      for s in combinations(t, inst.y)}))
    else:
        center_labels = tuple(combinations(range(1, inst.n + 1), inst.y))
    centers = np.zeros((len(center_labels), dim), dtype=dtype)
    for i, s in enumerate(center_labels):
        _composed_vector(s, inst.y, codewords, real, centers[i])

    p_exp = 1 if real.metric in ("l0", "l1") else real.p
    base = _base_distance(real, ell)
    meta = {"beta": real.beta, "ell": ell, "q": code.q, "z": inst.z, "y": inst.y,
            "lambda": real.lambda_claimed, "base_distance": base}
    if exponent is None:
        exponent = 2 if real.metric == "l2" else 1
    return ClusteringInstance(points=points, point_labels=point_labels,
                              centers=centers, center_labels=center_labels,
                              k=inst.k, metric=real.metric, p=p_exp,
                              exponent=exponent, meta=meta)


def _base_distance(real, ell):
    # beta * ell^(1/p); exact for l0/l1 where p = 1 and beta is an integer
    if real.metric in ("l0", "l1"):
        return real.beta * ell
    return float(real.beta) * ell ** (1.0 / real.p)


def soundness_floor(ci):
    """(lambda - 18zy/sqrt(q)) * beta * ell^(1/p) for a composed instance."""
    meta = ci.meta
    delta = 18.0 * meta["z"] * meta["y"] / math.sqrt(meta["q"])
    return (float(meta["lambda"]) - delta) * float(meta["beta"]) * \
        meta["ell"] ** (1.0 / (1 if ci.metric in ("l0", "l1") else ci.p))


def meets_soundness_floor(ci, distance):
    """Exact check of distance >= (lambda - 18zy/sqrt(q)) * base_distance.

    On the l1/l0 path everything is rational except sqrt(q), so the
    comparison squares out exactly; other metrics fall back to floats with
    the usual 1e-9 slack.
    """
    meta = ci.meta
    if ci.metric in ("l0", "l1"):
        lam = Fraction(meta["lambda"])
        full = lam * meta["beta"] * meta["ell"]       # lambda*beta*ell
        g = Fraction(18 * meta["z"] * meta["y"] * meta["beta"] * meta["ell"])
        d = Fraction(distance)
        if d >= full:
            return True
        return (full - d) ** 2 * meta["q"] <= g ** 2
    return distance >= soundness_floor(ci) - 1e-9


def build_continuous_indicator_instance(inst, metric="l2", exponent=2):
    """Indicator vectors of the edges in dimension n; no candidate centers."""
    if metric not in ("l0", "l1", "l2"):
        raise ValueError(f"continuous indicator instance needs l0, l1 or l2, not {metric!r}")
    points = np.zeros((inst.num_edges, inst.n), dtype=np.int8)
    for i, t in enumerate(inst.edges):
        for u in t:
            points[i, u - 1] = 1
    meta = {"z": inst.z, "y": inst.y, "n": inst.n}
    return ClusteringInstance(points=points, point_labels=inst.edges,
                              centers=None, center_labels=None, k=inst.k,
                              metric=metric, p={"l0": 0, "l1": 1, "l2": 2}[metric],
                              exponent=exponent, meta=meta)


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

@dataclass
class CostBreakdown:
    total: object
    per_point: tuple   # (point label, nearest center index, distance)
    at_base: int


def clustering_cost(ci, chosen):
    """Assign each point to its nearest chosen center; ties pick the lowest index.

    Total is the sum of distance^exponent; integer-exact on the l0/l1 paths.
    """
    if len(chosen) == 0:
        raise ValueError("need at least one center")
    if len(chosen) > ci.k:
        raise ValueError(f"{len(chosen)} centers exceed the budget k={ci.k}")
    total, nearest = _assign(_distance_table(ci, chosen), range(len(chosen)),
                             ci.exponent)
    per_point = tuple((label, i, d) for label, (i, d) in zip(ci.point_labels, nearest))
    base = ci.meta.get("base_distance")
    if base is None:
        base = min(d for _, d in nearest)
    at_base = sum(1 for _, d in nearest if _at_distance(d, base))
    return CostBreakdown(total=total, per_point=per_point, at_base=at_base)


def _distance_table(ci, centers):
    """Rows of Python-number distances, one row per point, one entry per center."""
    return [[pointwise_distance(pt, c, ci.metric, ci.p) for c in centers]
            for pt in ci.points]


def _assign(table, cols, exponent):
    """Nearest of the columns cols in each table row, and the total cost.

    Returns (total, [(position in cols, distance) per row]).  Ties go to the
    lowest position; the total adds distance ** exponent in row order, so
    integer distances give an exact int and float totals do not depend on
    how the table was built.
    """
    nearest = []
    total = 0
    for row in table:
        dists = [row[c] for c in cols]
        d = min(dists)
        nearest.append((dists.index(d), d))
        total = total + d ** exponent
    return total, nearest


def _at_distance(d, base):
    if isinstance(d, int) and isinstance(base, int):
        return d == base
    return abs(float(d) - float(base)) <= 1e-9


def centers_by_labels(ci, labels):
    """Rows of the candidate-center matrix selected by source-set label."""
    if ci.centers is None:
        raise ValueError("instance has no candidate centers")
    index = {lab: i for i, lab in enumerate(ci.center_labels)}
    out = []
    for lab in labels:
        lab = tuple(sorted(lab))
        if lab not in index:
            raise ValueError(f"no candidate center labelled {lab}")
        out.append(ci.centers[index[lab]])
    return out


# ---------------------------------------------------------------------------
# brute-force optima
# ---------------------------------------------------------------------------

def _partitions_upto(m, kmax):
    """All set partitions of range(m) into at most kmax nonempty blocks."""
    def rec(i, blocks):
        if i == m:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < kmax:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()
    yield from rec(0, [])


def _partition_count_upto(m, kmax):
    # Stirling numbers of the second kind, summed over 1..kmax blocks
    table = [[0] * (kmax + 1) for _ in range(m + 1)]
    table[0][0] = 1
    for i in range(1, m + 1):
        for j in range(1, kmax + 1):
            table[i][j] = table[i - 1][j - 1] + j * table[i - 1][j]
    return sum(table[m][j] for j in range(1, kmax + 1))


def brute_force_optimal_cost(ci, mode, budget=DEFAULT_BUDGET):
    """Exact optimum by full enumeration, or a loud budget error.

    Discrete mode scans all k-subsets of the candidate centers, scoring each
    from one table of point-center distances computed up front; continuous
    mode scans set partitions into at most k blocks, solving each block with
    best_center_continuous.
    """
    if mode == "discrete":
        if ci.centers is None:
            raise ValueError("discrete optimum needs candidate centers")
        mc = len(ci.center_labels)
        r = min(ci.k, mc)
        total = math.comb(mc, r)
        if budget is not None and total > budget:
            raise BudgetExceededError(f"{total} center subsets exceed budget {budget}",
                                      required=total, budget=budget)
        table = _distance_table(ci, ci.centers)
        best_idx, best_cost = None, None
        for idx in combinations(range(mc), r):
            cost, _ = _assign(table, idx, ci.exponent)
            if best_idx is None or cost < best_cost:
                best_idx, best_cost = idx, cost
        return tuple(ci.center_labels[i] for i in best_idx), best_cost
    if mode == "continuous":
        m = len(ci.points)
        count = _partition_count_upto(m, ci.k)
        if budget is not None and count > budget:
            raise BudgetExceededError(f"{count} partitions exceed budget {budget}",
                                      required=count, budget=budget)
        best = None
        for partition in _partitions_upto(m, ci.k):
            cost = 0.0
            for block in partition:
                _, c = best_center_continuous(ci.points[list(block)], ci.metric,
                                              ci.exponent)
                cost += float(c)
            if best is None or cost < best[1] - 1e-12:
                best = (partition, cost)
        return best
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# point-set files
# ---------------------------------------------------------------------------

def metric_token(metric, p):
    return f"lp{p}" if metric == "lp" else metric


def parse_metric_token(tok):
    if tok in ("l0", "l1", "l2"):
        return tok, {"l0": 0, "l1": 1, "l2": 2}[tok]
    if tok.startswith("lp"):
        raw = tok[2:]
        p = int(raw) if raw.isdigit() else float(raw)
        return "lp", p
    raise ValueError(f"unknown metric token {tok!r}")


def write_points(ci, fh):
    fh.write(f"pts {ci.dim} {metric_token(ci.metric, ci.p)} {ci.exponent} {ci.k}\n")
    integral = np.issubdtype(ci.points.dtype, np.integer)
    for label, row in zip(ci.point_labels, ci.points):
        fh.write(_point_line(label, row, integral))
    if ci.centers is not None:
        for label, row in zip(ci.center_labels, ci.centers):
            fh.write(_point_line(label, row, integral))


def _point_line(label, row, integral):
    lab = ",".join(map(str, label))
    vals = " ".join(str(int(v)) if integral else repr(float(v)) for v in row)
    return f"{lab} {vals}\n"


def read_points(fh):
    """Rebuild an instance from a points file.

    Rows are classified by label size: with two sizes present, the smaller
    labels are candidate centers (y < z always).  Coordinates must be finite;
    they load as int64 when every one is integral, else as float64.
    Construction metadata (the base distance) is not serialized.
    """
    header = fh.readline().split()
    if len(header) != 5 or header[0] != "pts":
        raise ValueError("points file must start with 'pts dim metric exponent k'")
    dim = int(header[1])
    metric, p = parse_metric_token(header[2])
    exponent, k = int(header[3]), int(header[4])
    labels, rows = [], []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        lab, rest = line.split(None, 1)
        label = tuple(int(x) for x in lab.split(","))
        vals = np.array(rest.split(), dtype=np.float64)
        if len(vals) != dim:
            raise ValueError(f"row {label} has {len(vals)} coordinates, expected {dim}")
        labels.append(label)
        rows.append(vals)
    values = np.array(rows)
    if not np.isfinite(values).all():
        raise ValueError("points file holds a non-finite coordinate")
    if (values == np.trunc(values)).all():
        if values.size and np.abs(values).max() >= 2.0 ** 63:
            raise ValueError("integral coordinates exceed the int64 range")
        values = values.astype(np.int64)
    sizes = sorted({len(lab) for lab in labels})
    if len(sizes) == 2:
        y = sizes[0]
        is_center = np.array([len(lab) == y for lab in labels])
        return ClusteringInstance(
            points=values[~is_center],
            point_labels=tuple(lab for lab in labels if len(lab) != y),
            centers=values[is_center],
            center_labels=tuple(lab for lab in labels if len(lab) == y),
            k=k, metric=metric, p=p, exponent=exponent)
    return ClusteringInstance(
        points=values, point_labels=tuple(labels),
        centers=None, center_labels=None, k=k, metric=metric, p=p,
        exponent=exponent)
