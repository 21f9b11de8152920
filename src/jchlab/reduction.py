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
score support rows without filling them in: a pair's pow sum by
Metric.pow_sum, once per intersection class of the two supports, and a
block of continuous 0/1 rows by its column counts.  Dense rows, sequences
of Python ints or floats, are scored by the same rule.
"""

import math
from array import array
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import chain, combinations

from .codes import RsCode, message_for_element, rs_encode
from .embeddings import realize
from .errors import DEFAULT_BUDGET, check_budget, check_comb_budget, parse_line, parse_lines
from .metric import METRICS, parse_metric


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


class ClusteringInstance(namedtuple("ClusteringInstance", (
        "points",           # rows, each a sequence of dim Python ints or floats
        "point_labels",
        "centers",          # rows like the points', or None (continuous case)
        "center_labels", "k", "metric", "exponent", "meta"))):
    """Filled rows under a metric; the constructor checks the counts and the
    row lengths, which _replace would skip."""
    __slots__ = ()

    def __new__(cls, points, point_labels, centers, center_labels, k, metric, exponent,
                meta=None):
        self = super().__new__(cls, points, point_labels, centers, center_labels, k, metric,
                               exponent, {} if meta is None else meta)
        _check_counts(len(points), None if centers is None else len(centers), k, exponent)
        if any(len(row) != self.dim for row in chain(points, () if centers is None else centers)):
            raise ValueError("every point and center row must have one length")
        return self

    @property
    def dim(self):
        return len(self.points[0])

    def dense(self):
        """The instance itself: its rows are filled in already."""
        return self


class SupportRows(namedtuple("SupportRows", (
        "labels",
        "entries",          # (off, on)
        "support"))):       # label -> ascending list of coordinates
    """Rows sharing one (off, on) entry pair: row `label` is off everywhere
    except at the ascending coordinates support(label), which hold on.  As a
    sequence it holds the supports in label order, not its three fields, so
    _replace and _asdict, which iterate over the fields, do not apply."""
    __slots__ = ()

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i):
        return self.support(self.labels[i])

    def __iter__(self):
        return map(self.support, self.labels)


class SupportInstance(namedtuple("SupportInstance", (
        "dim",
        "points",           # SupportRows
        "centers",          # SupportRows or None (continuous case)
        "k", "metric", "exponent", "meta", "construction"))):
    """A clustering instance held as row supports, before any array exists.

    construction holds what rebuilds the rows, ("composed", n, q, eta, kind,
    t, s) or ("indicator", n): write_construction writes it with the metric,
    the exponent, k and the labels.  Like a ClusteringInstance it has
    point_labels and center_labels, and its points and centers are sequences
    of rows, here supports.  dense() fills the rows of the equal
    ClusteringInstance, refusing more than REBUILD_BUDGET coordinates,
    whether the instance was read from a file or built.
    """
    __slots__ = ()

    def __new__(cls, dim, points, centers, k, metric, exponent, meta, construction):
        _check_counts(len(points.labels), None if centers is None else len(centers.labels),
                      k, exponent)
        return super().__new__(cls, dim, points, centers, k, metric, exponent, meta,
                               construction)

    @property
    def groups(self):
        return (self.points,) if self.centers is None else (self.points, self.centers)

    @property
    def point_labels(self):
        return self.points.labels

    @property
    def center_labels(self):
        return None if self.centers is None else self.centers.labels

    def fill(self, rows):
        """The rows (points or centers) filled in: an array('b') each when every
        entry of the instance is an int, else an array('d').  The one place a
        SupportInstance builds coordinates, so each call first checks that
        all its rows fit REBUILD_BUDGET."""
        check_budget(sum(map(len, self.groups)) * self.dim, REBUILD_BUDGET, "coordinates")
        off, on = rows.entries
        integral = all(type(e) is int for group in self.groups for e in group.entries)
        blank = array("b" if integral else "d", [off]) * self.dim
        out = [blank[:] for _ in rows]
        for row, support in zip(out, rows):
            for j in support:
                row[j] = on
        return out

    def dense(self):
        centers = self.centers
        return ClusteringInstance(
            points=self.fill(self.points), point_labels=self.point_labels,
            centers=None if centers is None else self.fill(centers),
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
    """The filled rows of composed_supports (same arguments)."""
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
    """The filled rows of indicator_supports (same arguments)."""
    return indicator_supports(inst, metric, exponent).dense()


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

class CostBreakdown(namedtuple("CostBreakdown", (
        "total",
        "per_point",        # (point label, nearest center index, distance)
        "at_base"))):
    __slots__ = ()


def _finite(total):
    # finite coordinates can add up to a float total past the double range
    if isinstance(total, float) and not math.isfinite(total):
        raise OverflowError("a cost overflows a double")
    return total


def clustering_cost(ci, chosen):
    """Assign each point to its nearest chosen center; ties pick the lowest index.

    Distances are compared exactly, by their pow sums (_distance_table).
    The total adds distance^exponent, or the pow sum itself when the
    exponent is the metric's root (_Scores).
    """
    if len(chosen) == 0:
        raise ValueError("need at least one center")
    if len(chosen) > ci.k:
        raise ValueError(f"{len(chosen)} centers exceed the budget k={ci.k}")
    scores = _Scores(_distance_table(ci, chosen), ci.metric, ci.exponent)
    total, nearest = _assign(scores.ranks, range(len(chosen)), scores.terms)
    dists = [scores.dists[r] for _, r in nearest]
    per_point = tuple((label, i, d) for label, (i, _), d in zip(ci.point_labels, nearest, dists))
    base = ci.meta.get("base_distance")
    if base is None:
        base = min(dists)
    at_base = sum(1 for d in dists if _at_distance(d, base))
    return CostBreakdown(total=scores.total(total), per_point=per_point, at_base=at_base)


def _distance_table(ci, centers):
    """Pow sums by Metric.pow_sum, one row per point, one entry per center.

    The rows of a SupportInstance are supports, each side two-valued
    (SupportRows.entries), so a pair's pow sum depends only on |S_p|, |S_c|
    and j = |S_p & S_c|: it is computed once per such class from the four
    counts of value pairs, with no row filled in.  A dense pair of rows
    (filled rows or --center-coords floats) gives its distinct value pairs,
    the same rule, so both give the same values and types.
    """
    metric, dim = ci.metric, ci.dim
    if not isinstance(ci, SupportInstance):
        return [[metric.pair_pow(p, c) for c in centers] for p in ci.points]
    (p_off, p_on), (c_off, c_on) = ci.points.entries, ci.centers.entries
    # value pairs of a coordinate on in both rows, in the point only, the center only, neither
    pairs = ((p_on, c_on), (p_on, c_off), (p_off, c_on), (p_off, c_off))
    classes, sized = {}, [(len(c), c) for c in centers]
    table = []
    for p in map(set, ci.points):
        a, row = len(p), []
        for b, c in sized:
            j = len(p.intersection(c))
            if (a, b, j) not in classes:
                classes[a, b, j] = metric.pow_sum(zip(pairs, (j, a - j, b - j, dim - a - b + j)))
            row.append(classes[a, b, j])
        table.append(row)
    return table


class _Scores:
    """A table of pow sums, ranked and costed once per distinct value.

    ranks holds the rank of each pow sum among the table's distinct values,
    so comparing ranks compares distances exactly.  dists[r] is the
    distance of rank r (Metric.from_pow) and terms[r] its cost term: the
    pow sum itself when the exponent is the metric's int root, the pow sum
    ** exponent at root 1, both exact and held as ints over their common
    denominator unit, so that totals add and compare exactly; else the
    float distance ** exponent (unit None).
    """

    def __init__(self, table, metric, exponent):
        values = sorted(set().union(*table))
        rank = {v: r for r, v in enumerate(values)}
        self.ranks = [[rank[v] for v in row] for row in table]
        self.dists = [metric.from_pow(v) for v in values]
        if isinstance(metric.root, int) and metric.root in (1, exponent):
            terms = [v if exponent == metric.root else v ** exponent for v in values]
            self.unit = math.lcm(*(Fraction(t).denominator for t in terms))
            self.terms = [int(t * self.unit) for t in terms]
        else:
            self.unit = None
            self.terms = [d ** exponent for d in self.dists]

    def total(self, total):
        """A sum of terms as printed: an int when every distance is an int,
        else a float, rounded once from the exact sum where there is one."""
        if self.unit is None or all(type(d) is int for d in self.dists):
            return _finite(total)
        return total / self.unit


def _assign(ranks, cols, terms):
    """Nearest of the columns cols in each row of ranks, and the total cost.

    Returns (total, [(position in cols, rank) per row]).  Ties go to the
    lowest position; the total adds the terms of the nearest ranks in row
    order, so float totals do not depend on how the table was built.
    """
    nearest = []
    total = 0
    for row in ranks:
        rs = [row[c] for c in cols]
        r = min(rs)
        nearest.append((rs.index(r), r))
        total = total + terms[r]
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
    from one table of point-center pow sums computed up front; continuous
    mode scans set partitions into at most k blocks, solving each distinct
    block once: from its column counts (_count_cost) where the rows are 0/1
    and the center rule has a closed form, else with best_center_continuous
    on the dense rows, exactly under a closed-form rule (_COUNT_RULES).
    Exact totals compare exactly, float ones up to 1e-12, and the first
    optimum found is kept.
    """
    if mode == "discrete":
        if ci.centers is None:
            raise ValueError("discrete optimum needs candidate centers")
        mc = len(ci.center_labels)
        r = min(ci.k, mc)
        check_comb_budget(mc, r, budget, "center subsets")
        scores = _Scores(_distance_table(ci, ci.centers), ci.metric, ci.exponent)
        best_idx, best_cost = None, None
        for idx in combinations(range(mc), r):
            cost, _ = _assign(scores.ranks, idx, scores.terms)
            if best_idx is None or cost < best_cost:
                best_idx, best_cost = idx, cost
        return tuple(ci.center_labels[i] for i in best_idx), scores.total(best_cost)
    if mode == "continuous":
        m = len(ci.point_labels)
        check_budget(_partition_count_upto(m, ci.k), budget, "partitions")
        count_cost = _count_cost(ci)
        if count_cost is None:
            from .geometry import best_center_continuous
            ci, unit = ci.dense(), 1
            solve = lambda block: best_center_continuous(
                [ci.points[i] for i in block], ci.metric, ci.exponent)[1]
        else:
            # every block cost is a multiple of 1/|B|: held as ints over lcm(1..m)
            unit = math.lcm(*range(1, m + 1))
            solve = lambda block: int(count_cost(block) * unit)
        # the float center rules (Weiszfeld, the l1^2 heuristic): near-equal totals tie
        slack = 0 if (ci.metric.token, ci.exponent) in _COUNT_RULES else 1e-12
        block_cost = {}   # blocks recur across partitions; solve each once
        best = None
        for partition in _partitions_upto(m, ci.k):
            cost = 0
            for block in partition:
                if block not in block_cost:
                    block_cost[block] = solve(block)
                cost += block_cost[block]
            if best is None or cost < best[1] - slack:
                best = (partition, cost)
        return best[0], _finite(float(best[1] / unit))
    raise ValueError(f"unknown mode {mode!r}")


def _centroid_cost(size, counts):
    return sum(counts) - Fraction(sum(c * c for c in counts), size)


def _median_cost(size, counts):
    return sum(min(c, size - c) for c in counts)


# (metric token, cost exponent) -> cost of a block of 0/1 rows from its size
# and its column counts (how many of its rows hold each coordinate): the
# centroid's squared l2 cost and the lower median's l1 (= l0) cost
_COUNT_RULES = {("l2", 2): _centroid_cost, ("l1", 1): _median_cost, ("l0", 1): _median_cost}


def _count_cost(ci):
    """block (ascending point indices) -> its exact optimal continuous cost
    (_COUNT_RULES), or None when the rows are not 0/1 or the metric and
    exponent have no such rule.  Dense 0/1 rows give their supports as the
    indices of their ones."""
    rule = _COUNT_RULES.get((ci.metric.token, ci.exponent))
    if rule is None:
        return None
    if isinstance(ci, SupportInstance):
        if ci.points.entries != (0, 1):
            return None
        supports = list(ci.points)
    else:
        if not all(x in (0, 1) for row in ci.points for x in row):
            return None
        supports = [[j for j, x in enumerate(row) if x] for row in ci.points]
    return lambda block: rule(len(block), list(Counter(
        chain.from_iterable(supports[i] for i in block)).values()))


# ---------------------------------------------------------------------------
# point-set files
# ---------------------------------------------------------------------------

# construction -> header fields after 'ptsc <construction> <metric> <exponent> <k>'
CONSTRUCTIONS = {
    "composed": ("n", "q", "eta", "kind", "t", "s", "points", "centers"),
    "indicator": ("n", "points"),
}
# coordinates SupportInstance.fill builds from one construction file at most, and
# support coordinates its rows may hold
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
    `label coordinates` line per point and per candidate center, each value
    as str(v), the repr of an int or a float.
    """
    fh.write(f"pts {ci.dim} {ci.metric.token} {ci.exponent} {ci.k}\n")
    rows = [(ci.point_labels, ci.points)]
    if ci.centers is not None:
        rows.append((ci.center_labels, ci.centers))
    for labels, block in rows:
        for label, row in zip(labels, block):
            fh.write(f"{','.join(map(str, label))} {' '.join(map(str, row))}\n")


def read_points(fh):
    """Rebuild an instance from a construction file or a dense points file.

    A construction file (write_construction) states how many rows are points
    and how many candidate centers, and it reads back as the SupportInstance
    `reduce` built: its supports are rebuilt from the code, the realization
    and the labels by the same functions, and no row is filled in (dense()
    fills them).  A dense file ('pts dim metric exponent k', one labeled
    vector per line) classifies rows by label size: with two sizes present,
    the smaller labels are candidate centers (y < z always); a third size is
    refused.  Its coordinates must be finite, and each row loads as a list:
    of ints when every coordinate of the file is integral, integer tokens
    exactly and inside the int64 range, else of floats.  Neither restores
    the construction metadata (the base distance).  Labels are strictly
    ascending positive integers.
    """
    header = fh.readline()
    if header.split()[:1] == ["ptsc"]:
        return _read_construction(header, fh)
    dim, metric, exponent, k = parse_line(header, "pts", _dense_header)
    rows = parse_lines(fh, "pts", lambda fields: _parse_row(fields, dim))
    labels = [label for label, _ in rows]
    # labels of different sizes differ, so this is a check per role
    _check_distinct(labels, "row")
    values = [coords for _, coords in rows]
    if all(type(x) is int for row in values for x in row):
        if not all(-2 ** 63 <= x < 2 ** 63 for row in values for x in row):
            raise ValueError("integral coordinates exceed the int64 range")
    else:       # one float coordinate makes every coordinate a float
        values = [[float(x) for x in row] for row in values]
    sizes = sorted({len(lab) for lab in labels})
    if len(sizes) > 2:
        raise ValueError(f"rows have {len(sizes)} label sizes, a points file holds at most "
                         "two: points and candidate centers")
    is_center = [len(sizes) == 2 and len(lab) == sizes[0] for lab in labels]
    pick = lambda items, center: [x for x, c in zip(items, is_center) if c == center]
    return ClusteringInstance(
        points=pick(values, False), point_labels=tuple(pick(labels, False)),
        centers=pick(values, True) or None, center_labels=tuple(pick(labels, True)) or None,
        k=k, metric=metric, exponent=exponent)


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
        return _indicator(n, point_labels, spec["k"], metric, spec["exponent"], {})
    code = RsCode(spec["q"], spec["eta"])
    # the token's first two characters name the family: l0, l1, l2 or lp
    real = realize(metric.token[:2], code.q, spec["t"], spec["s"], metric.root, kind)
    _check_labels(point_labels, real.t, n, "point")
    _check_labels(center_labels, real.s, n, "candidate-center")
    # a row holds its arity's symbols in each of ell blocks, never more than
    # its real.dim coordinates there, so no file that fill could build is refused
    check_budget(code.ell * (real.t * len(point_labels) + real.s * len(center_labels)),
                 REBUILD_BUDGET, "support coordinates")
    return _composed(n, point_labels, center_labels, spec["k"], code, real,
                     spec["exponent"], {})


def _parse_row(fields, dim):
    """(label, coordinates) of a row of a label and `dim` finite coordinates,
    each integral one an int (_number), any other a float."""
    label, *tokens = fields
    if len(tokens) != dim:
        raise ValueError(f"{len(tokens)} coordinates, expected {dim}")
    coords = [_number(c) for c in tokens]
    if not all(map(math.isfinite, coords)):
        raise ValueError("non-finite coordinate")
    return _parse_label(label), coords


def _number(token):
    x = float(token)
    if not x.is_integer():
        return x
    try:        # an integer literal is read exactly, not rounded to x
        return int(token)
    except ValueError:
        return int(x)


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
