"""Coverage-to-clustering reductions and exact clustering cost oracles.

The discrete reduction composes a Reed-Solomon code with a gap realization:
each universe element becomes a codeword, each block of the output vector
realizes the set of codeword symbols at one coordinate (padded back to full
arity when symbols collide), and covered pairs land at the uniform base
distance beta * ell^(1/p) while uncovered pairs stay above the certified
floor.  The continuous reduction is the plain indicator embedding.

Both constructions first describe every row by its support, the coordinates
holding the `on` entry (SupportInstance).  Since the code, the realization
and a row's label fix the row, `reduce` writes a construction file: the
parameters and the labels, no coordinates (write_construction).  read_points
rebuilds the supports from it through the same functions.  The cost oracles
score 0/1 rows straight from their supports, with no array and no numpy; the
other realizations, continuous centers and dense files use numpy arrays.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .coverage import DEFAULT_BUDGET
from .codes import RsCode, message_for_element, rs_encode
from .embeddings import realize
from .errors import check_budget, check_comb_budget, parse_line, parse_lines
from .metric import METRICS, Metric, parse_metric


def _check_counts(points, centers, k, exponent):
    # centers is None for a continuous instance, else the candidate count
    if points == 0:
        raise ValueError("clustering instance needs at least one point")
    if k < 1:
        raise ValueError("need k >= 1")
    if exponent < 1:
        raise ValueError(f"cost exponent must be >= 1, not {exponent}")
    if centers == 0:
        raise ValueError("discrete instance needs a nonempty center list")


@dataclass
class ClusteringInstance:
    points: object             # np.ndarray of shape (m, dim)
    point_labels: tuple
    centers: object            # np.ndarray or None (continuous case)
    center_labels: object
    k: int
    metric: Metric
    exponent: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_counts(len(self.points), None if self.centers is None else len(self.centers),
                      self.k, self.exponent)
        if self.centers is not None and self.centers.shape[1] != self.points.shape[1]:
            raise ValueError("points and centers must share one dimension")

    @property
    def dim(self):
        return self.points.shape[1]

    def dense(self):
        """The instance itself: its rows are arrays already."""
        return self


@dataclass(frozen=True)
class SupportRows:
    """Rows sharing one (off, on) entry pair: row `label` is off everywhere
    except at the ascending coordinates support(label), which hold on.  As a
    sequence it holds the supports in label order."""
    labels: tuple
    entries: tuple      # (off, on)
    support: object     # label -> ascending list of coordinates

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i):
        return self.support(self.labels[i])


@dataclass
class SupportInstance:
    """A clustering instance held as row supports, before any array exists.

    construction holds what rebuilds the rows, ("composed", n, q, eta, kind,
    t, s) or ("indicator", n): write_construction writes it with the metric,
    the exponent, k and the labels.  Like a ClusteringInstance it has
    point_labels and center_labels, and its points and centers are sequences
    of rows, here supports.  dense() fills the arrays of the equal
    ClusteringInstance.
    """
    dim: int
    points: SupportRows
    centers: object     # SupportRows or None (continuous case)
    k: int
    metric: Metric
    exponent: int
    meta: dict
    construction: tuple

    def __post_init__(self):
        _check_counts(len(self.points.labels),
                      None if self.centers is None else len(self.centers.labels),
                      self.k, self.exponent)

    @property
    def groups(self):
        return (self.points,) if self.centers is None else (self.points, self.centers)

    @property
    def point_labels(self):
        return self.points.labels

    @property
    def center_labels(self):
        return None if self.centers is None else self.centers.labels

    @property
    def integral(self):
        return all(type(e) is int for rows in self.groups for e in rows.entries)

    @property
    def binary(self):
        """Every entry is the int 0 or 1."""
        return self.integral and all(rows.entries == (0, 1) for rows in self.groups)

    def fill(self, rows, supports):
        """The array of the given supports of rows (points or centers): int8
        when every entry of the instance is an int, else float64."""
        import numpy as np
        off, on = rows.entries
        out = np.full((len(supports), self.dim), off,
                      dtype=np.int8 if self.integral else np.float64)
        for i, support in enumerate(supports):
            out[i, support] = on
        return out

    def dense(self):
        centers = self.centers
        return ClusteringInstance(
            points=self.fill(self.points, self.points), point_labels=self.point_labels,
            centers=None if centers is None else self.fill(centers, centers),
            center_labels=self.center_labels,
            k=self.k, metric=self.metric, exponent=self.exponent, meta=self.meta)


def _pad_to_arity(symbols, arity, q):
    """Union with the smallest field symbols outside the set, up to arity."""
    out = set(symbols)
    for mu in range(q):
        if len(out) >= arity:
            break
        out.add(mu)
    return tuple(sorted(out))


def composed_supports(inst, code, real, centers_from_edges=False, exponent=None):
    """Points for edges, candidate centers for y-subsets, one block per symbol.

    Row supports: in block gamma (coordinates gamma*q .. gamma*q + q-1) a row
    holds the realization's on entry at its members' padded symbol set, and
    the off entry elsewhere, the same entries as real.vector per block.  The
    realization must match the instance arities (t=z, s=y) and the code's
    field size.  centers_from_edges restricts the candidate centers to the
    y-subsets of actual edges to keep their count polynomial in |E|.  The
    cost exponent defaults to 2 (means) for l2 and 1 (median) otherwise.
    """
    if (real.t, real.s) != (inst.z, inst.y):
        raise ValueError(f"realization is for (t={real.t}, s={real.s}); "
                         f"instance has (z={inst.z}, y={inst.y})")
    if code.q != real.q:
        raise ValueError(f"code field size {code.q} != realization ground set {real.q}")

    if centers_from_edges:
        center_labels = tuple(sorted({s for t in inst.edges
                                      for s in combinations(t, inst.y)}))
    else:
        center_labels = tuple(combinations(range(1, inst.n + 1), inst.y))
    ell = code.ell
    # beta * ell^(1/p), exact on l0/l1 where p = 1 and beta is an integer
    base = real.beta * real.metric.take_root(ell)
    meta = {"beta": real.beta, "ell": ell, "q": code.q, "z": inst.z, "y": inst.y,
            "lambda": real.lambda_claimed, "base_distance": base}
    return _composed(inst.n, inst.edges, center_labels, inst.k, code, real, exponent, meta)


def _composed(n, point_labels, center_labels, k, code, real, exponent, meta):
    # composed_supports from the construction-file fields
    message_for_element(code, n)        # q^eta >= n
    q = code.q
    members = {u for labels in (point_labels, center_labels) for label in labels
               for u in label}
    codewords = {u: rs_encode(code, message_for_element(code, u)) for u in members}

    def rows(labels, arity):
        def support(label):
            out = []
            for gamma, symbols in enumerate(zip(*(codewords[u] for u in label))):
                base = gamma * q
                out.extend(base + mu for mu in _pad_to_arity(symbols, arity, q))
            return out
        return SupportRows(labels, real.entries(arity), support)

    return SupportInstance(
        dim=code.ell * real.dim, points=rows(point_labels, real.t),
        centers=rows(center_labels, real.s), k=k, metric=real.metric,
        exponent=real.metric.exponent if exponent is None else exponent, meta=meta,
        construction=("composed", n, q, code.eta, real.kind, real.t, real.s))


def build_discrete_instance(inst, code, real, centers_from_edges=False,
                            exponent=None):
    """The arrays of composed_supports (same arguments)."""
    return composed_supports(inst, code, real, centers_from_edges, exponent).dense()


def soundness_floor(ci):
    """(lambda - 18zy/sqrt(q)) * beta * ell^(1/p) for a composed instance."""
    meta = ci.meta
    delta = 18.0 * meta["z"] * meta["y"] / math.sqrt(meta["q"])
    return (float(meta["lambda"]) - delta) * float(meta["beta"]) * \
        ci.metric.take_root(meta["ell"])


def meets_soundness_floor(ci, distance):
    """Exact check of distance >= (lambda - 18zy/sqrt(q)) * base_distance.

    With a rational lambda (the l1/l0 constructions) everything is rational
    except sqrt(q), so the comparison squares out exactly; other metrics fall
    back to floats with the usual 1e-9 slack.
    """
    meta = ci.meta
    if isinstance(meta["lambda"], Fraction):
        full = meta["lambda"] * meta["beta"] * meta["ell"]
        g = Fraction(18 * meta["z"] * meta["y"] * meta["beta"] * meta["ell"])
        d = Fraction(distance)
        if d >= full:
            return True
        return (full - d) ** 2 * meta["q"] <= g ** 2
    return distance >= soundness_floor(ci) - 1e-9


def indicator_supports(inst, metric=METRICS["l2"], exponent=None):
    """Indicator vectors of the edges in dimension n; no candidate centers.

    Row supports: edge t holds 1 at the coordinates u - 1 of its members.
    The cost exponent defaults to the largest one the metric has a center
    rule for: 2 on l1 and l2, 1 on l0.  An exponent without a rule is refused.
    """
    return _indicator(inst.n, inst.edges, inst.k, metric, exponent,
                      {"z": inst.z, "y": inst.y, "n": inst.n})


def _indicator(n, labels, k, metric, exponent, meta):
    # indicator_supports from the construction-file fields
    if not metric.centers:
        raise ValueError(f"continuous indicator instance needs l0, l1 or l2, "
                         f"not {metric.token!r}")
    if exponent is None:
        exponent = max(metric.centers)
    if exponent not in metric.centers:
        raise ValueError(f"no center rule for metric={metric.token!r} exponent={exponent}")
    points = SupportRows(labels, (0, 1), lambda t: [u - 1 for u in t])
    return SupportInstance(dim=n, points=points, centers=None, k=k, metric=metric,
                           exponent=exponent, meta=meta, construction=("indicator", n))


def build_continuous_indicator_instance(inst, metric=METRICS["l2"], exponent=None):
    """The arrays of indicator_supports (same arguments)."""
    return indicator_supports(inst, metric, exponent).dense()


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
    """Rows of Python-number distances, one row per point, one entry per center.

    The rows of a SupportInstance are supports.  On 0/1 rows, a point and a
    center differing in h = |S_p| + |S_c| - 2|S_p & S_c| coordinates sit at
    metric.hamming(h), the distance of their dense rows, and no array is
    built; other support rows are filled into arrays first.
    """
    points = ci.points
    if isinstance(ci, SupportInstance):
        if ci.binary:
            dist, sized = ci.metric.hamming, [(len(c), c) for c in centers]
            table = []
            for p in map(set, points):
                table.append([dist(len(p) + n - 2 * len(p.intersection(c)))
                              for n, c in sized])
            return table
        points, centers = ci.fill(points, points), ci.fill(ci.centers, centers)
    from .geometry import pointwise_distance
    return [[pointwise_distance(pt, c, ci.metric) for c in centers] for pt in points]


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
    """The candidate-center rows (supports, on a SupportInstance) of the
    given source-set labels."""
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
    mode scans set partitions into at most k blocks, solving each distinct
    block once with best_center_continuous.
    """
    if mode == "discrete":
        if ci.centers is None:
            raise ValueError("discrete optimum needs candidate centers")
        mc = len(ci.center_labels)
        r = min(ci.k, mc)
        check_comb_budget(mc, r, budget, "center subsets")
        table = _distance_table(ci, ci.centers)
        best_idx, best_cost = None, None
        for idx in combinations(range(mc), r):
            cost, _ = _assign(table, idx, ci.exponent)
            if best_idx is None or cost < best_cost:
                best_idx, best_cost = idx, cost
        return tuple(ci.center_labels[i] for i in best_idx), best_cost
    if mode == "continuous":
        from .geometry import best_center_continuous
        ci = ci.dense()
        m = len(ci.points)
        check_budget(_partition_count_upto(m, ci.k), budget, "partitions")
        block_cost = {}   # blocks recur across partitions; solve each once
        best = None
        for partition in _partitions_upto(m, ci.k):
            cost = 0.0
            for block in partition:
                if block not in block_cost:
                    block_cost[block] = float(best_center_continuous(
                        ci.points[list(block)], ci.metric, ci.exponent)[1])
                cost += block_cost[block]
            if best is None or cost < best[1] - 1e-12:
                best = (partition, cost)
        return best
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# point-set files
# ---------------------------------------------------------------------------

# construction -> header fields after 'ptsc <construction> <metric> <exponent> <k>'
CONSTRUCTIONS = {
    "composed": ("n", "q", "eta", "kind", "t", "s", "points", "centers"),
    "indicator": ("n", "points"),
}
# coordinates read_points rebuilds from one construction file at most
REBUILD_BUDGET = 1 << 25


def write_construction(si, fh):
    """Write a SupportInstance as a construction file: one header line
    'ptsc <construction> <metric> <exponent> <k> <fields>' (CONSTRUCTIONS),
    ending in the point and candidate-center counts, then one label line per
    point and per candidate center, in that order.  No coordinate is written.
    """
    construction, *fields = si.construction
    counts = [len(rows.labels) for rows in si.groups]
    fh.write(" ".join(map(str, ("ptsc", construction, si.metric.token, si.exponent,
                                si.k, *fields, *counts))) + "\n")
    for rows in si.groups:
        fh.writelines(",".join(map(str, label)) + "\n" for label in rows.labels)


def write_points(ci, fh):
    """Write the dense header 'pts dim metric exponent k', then one
    `label coordinates` line per point and per candidate center: integers as
    str(v), floats as repr(float(v)).
    """
    fh.write(f"pts {ci.dim} {ci.metric.token} {ci.exponent} {ci.k}\n")
    fmt = str if ci.points.dtype.kind in "iu" else (lambda v: repr(float(v)))
    rows = [(ci.point_labels, ci.points)]
    if ci.centers is not None:
        rows.append((ci.center_labels, ci.centers))
    for labels, block in rows:
        for label, row in zip(labels, block):
            fh.write(f"{','.join(map(str, label))} {' '.join(map(fmt, row.tolist()))}\n")


def read_points(fh):
    """Rebuild an instance from a construction file or a dense points file.

    A construction file (write_construction) states how many rows are points
    and how many candidate centers, and it reads back as the SupportInstance
    `reduce` built: its supports are rebuilt from the code, the realization
    and the labels by the same functions, and no row is filled in (dense()
    gives the arrays).  A dense file ('pts dim metric exponent k', one
    labeled vector per line) classifies rows by label size: with two sizes
    present, the smaller labels are candidate centers (y < z always).  Its
    coordinates must be finite; they load as int64 when every one is
    integral, else as float64.  Neither restores the construction metadata
    (the base distance).  Labels are strictly ascending positive integers.
    """
    header = fh.readline()
    if header.split()[:1] == ["ptsc"]:
        return _read_construction(header, fh)
    import numpy as np
    dim, metric, exponent, k = parse_line(header, "pts", _dense_header)
    rows = parse_lines(fh, "pts", lambda fields: _parse_row(fields, dim))
    labels = [label for label, _ in rows]
    # labels of different sizes differ, so this is a check per role
    _check_distinct(labels, "row")
    values = np.array([coords for _, coords in rows], dtype=np.float64)
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
            k=k, metric=metric, exponent=exponent)
    return ClusteringInstance(
        points=values, point_labels=tuple(labels),
        centers=None, center_labels=None, k=k, metric=metric, exponent=exponent)


def _dense_header(fields):
    if len(fields) != 5 or fields[0] != "pts":
        raise ValueError("points file must start with 'pts dim metric exponent k'")
    dim = int(fields[1])
    if dim < 1:
        raise ValueError(f"points file dimension must be positive, got {dim}")
    return dim, parse_metric(fields[2]), int(fields[3]), int(fields[4])


def _construction_header(fields):
    # (construction, metric, kind or None, {field name: int}) of a 'ptsc' header
    usage = ("construction file must start with 'ptsc composed metric exponent k n q eta "
             "kind t s points centers' or 'ptsc indicator metric exponent k n points'")
    names = CONSTRUCTIONS.get(fields[1]) if len(fields) > 1 else None
    if names is None or len(fields) != 5 + len(names):
        raise ValueError(usage)
    metric = parse_metric(fields[2])
    spec = dict(zip(("exponent", "k", *names), fields[3:]))
    kind = spec.pop("kind", None)
    if not all(v.isascii() and v.isdigit() for v in spec.values()):
        raise ValueError(f"{usage}; every field but metric and kind is a nonnegative integer")
    return fields[1], metric, kind, {name: int(v) for name, v in spec.items()}


def _read_construction(header, fh):
    """The SupportInstance a construction file describes, every field checked."""
    construction, metric, kind, spec = parse_line(header, "ptsc", _construction_header)
    # a construction row is a label without coordinates
    labels = [label for label, _ in parse_lines(fh, "ptsc", lambda fields: _parse_row(fields, 0))]
    n, points = spec["n"], spec["points"]
    if len(labels) != points + spec.get("centers", 0):
        raise ValueError(f"header counts {points} points and {spec.get('centers', 0)} "
                         f"candidate centers, the file holds {len(labels)} rows")
    point_labels, center_labels = tuple(labels[:points]), tuple(labels[points:])
    if construction == "indicator":
        _check_labels(point_labels, len(labels[0]) if labels else 0, n, "point")
        check_budget(len(labels) * n, REBUILD_BUDGET, "coordinates")
        return _indicator(n, point_labels, spec["k"], metric, spec["exponent"], {})
    code = RsCode(spec["q"], spec["eta"])
    # the token's first two characters name the family: l0, l1, l2 or lp
    real = realize(metric.token[:2], code.q, spec["t"], spec["s"], metric.root, kind)
    _check_labels(point_labels, real.t, n, "point")
    _check_labels(center_labels, real.s, n, "candidate-center")
    check_budget(len(labels) * code.ell * real.dim, REBUILD_BUDGET, "coordinates")
    return _composed(n, point_labels, center_labels, spec["k"], code, real,
                     spec["exponent"], {})


def _parse_row(fields, dim):
    """(label, coordinates) of a row of a label and `dim` finite float coordinates."""
    label, *tokens = fields
    if len(tokens) != dim:
        raise ValueError(f"{len(tokens)} coordinates, expected {dim}")
    coords = [float(c) for c in tokens]
    if not all(map(math.isfinite, coords)):
        raise ValueError("non-finite coordinate")
    return _parse_label(label), coords


def _parse_label(text):
    """The label tuple of a comma-joined token of strictly ascending positive integers."""
    label = tuple(map(int, text.split(",")))
    if label[0] < 1 or any(a >= b for a, b in zip(label, label[1:])):
        raise ValueError(f"label {text} is not strictly ascending positive integers")
    return label


def _check_labels(labels, size, n, role):
    # _parse_label made every label ascending and positive
    for label in labels:
        if len(label) != size or label[-1] > n:
            raise ValueError(f"{role} label {','.join(map(str, label))} is not an "
                             f"ascending {size}-subset of [1, {n}]")
    _check_distinct(labels, role)


def _check_distinct(labels, role):
    seen = set()
    for label in labels:
        if label in seen:
            raise ValueError(f"duplicate {role} label {','.join(map(str, label))}")
        seen.add(label)
