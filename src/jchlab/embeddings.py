"""Gap realizations of set-containment graphs in l0/l1/l2/lp.

A realization maps the t-subsets and s-subsets of a ground set {0,...,q-1}
to vectors so that every containment pair (S subset of T) sits at one common
distance beta and every non-containment pair at distance >= lambda*beta.
The verifier certifies lambda exhaustively, over every pair's |T cap S| and
one distance per intersection class on the actual vectors, in exact
arithmetic wherever the construction allows it (l0/l1, and lp with integer p
where distances are dyadic), and elsewhere with a 1e-9 tolerance on pow sums
that are exact (l2) or rounded once (Metric.pair_pow).
"""

import math
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations

from .errors import DEFAULT_BUDGET, CertificationError, check_budget
from .metric import METRICS, lp_metric

TOL = 1e-9


# kind -> (t, s) -> entries (off, on) of the t-set side and of the s-set side:
# a realized vector holds on at the members of its set and off elsewhere
ENTRIES = {
    "indicator": lambda t, s: ((0, 1), (0, 1)),
    "scaled": lambda t, s: ((0.0, 1.0), (0.0, math.sqrt(t / s))),
    "halfshift": lambda t, s: ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(3, 2))),
}


class GapRealization(namedtuple("GapRealization", (
        "metric", "q", "t", "s",
        "beta",             # common containment distance
        "lambda_claimed",
        "beta_pow",         # beta^root, exact on exact metrics
        "floor_pow",        # (lambda_claimed * beta)^root, exact on exact metrics
        "kind"))):          # "indicator" | "scaled" | "halfshift"
    __slots__ = ()

    @property
    def dim(self):
        return self.q

    @property
    def exact(self):
        """True when pairwise distances are computed in exact arithmetic."""
        return self.metric.exact

    def entries(self, size):
        """(off, on) entries of the vectors of size-element sets."""
        high, low = ENTRIES[self.kind](self.t, self.s)
        return low if size == self.s else high

    def vector(self, x):
        """Realized vector for a t-subset or s-subset of range(q)."""
        x = _check_vertex(x, self.q, (self.t, self.s))
        off, on = self.entries(len(x))
        members = set(x)
        return tuple(on if i in members else off for i in range(self.q))


def _check_vertex(x, q, sizes):
    x = tuple(sorted(x))
    if len(set(x)) != len(x) or len(x) not in sizes:
        raise ValueError(f"vertex {x} must be a t- or s-subset (sizes {sizes})")
    if x and (x[0] < 0 or x[-1] >= q):
        raise ValueError(f"vertex {x} has elements outside range({q})")
    return x


def _indicator(metric, q, t, s, beta, lam):
    # characteristic vectors: containment pairs differ in t-s coordinates and
    # every other pair in at least t-s+2, exactly so on exact metrics
    claims = (t - s, t - s + 2) if metric.exact else _float_claims(metric, beta, lam)
    return GapRealization(metric, q, t, s, beta, lam, *claims, kind="indicator")


def _float_claims(metric, beta, lam):
    return float(beta) ** metric.root, (float(lam) * float(beta)) ** metric.root


def embed_l1(q, t, s):
    """Characteristic vectors; containment at t-s, everything else >= t-s+2."""
    _check_params(q, t, s)
    return _indicator(METRICS["l1"], q, t, s, t - s, Fraction(t - s + 2, t - s))


def embed_l0(q, t, s):
    """Same map as embed_l1; on 0/1 vectors the l0 distances coincide."""
    _check_params(q, t, s)
    return _indicator(METRICS["l0"], q, t, s, t - s, Fraction(t - s + 2, t - s))


def embed_indicator_lp(q, t, s, p):
    """Characteristic vectors read in lp; gap ((t-s+2)/(t-s))^(1/p)."""
    _check_params(q, t, s)
    return _indicator(lp_metric(p), q, t, s, (t - s) ** (1.0 / p),
                      ((t - s + 2) / (t - s)) ** (1.0 / p))


def embed_l2_scaled(q, t, s):
    """Scale s-set indicators by sqrt(t/s).

    Containment pairs land at sqrt(2)*sqrt(t - sqrt(t*s)); the certified gap
    sqrt(1 + 1/(sqrt(t*s) - s)) strictly beats the square root of the l1 gap.
    """
    _check_params(q, t, s)
    metric = METRICS["l2"]
    beta = math.sqrt(2.0) * math.sqrt(t - math.sqrt(t * s))
    lam = math.sqrt(1.0 + 1.0 / (math.sqrt(t * s) - s))
    return GapRealization(metric, q, t, s, beta, lam, *_float_claims(metric, beta, lam),
                          kind="scaled")


def embed_lp_halfshift(q, t, p):
    """Shift the (t-1)-set indicators by the all-halves vector.

    Containment pairs differ by +-1/2 everywhere (distance q^(1/p)/2) while a
    non-containment pair has a coordinate at 3/2, so lambda = 3/q^(1/p),
    which approaches the triangle-inequality ceiling 3 as p grows.
    """
    _check_params(q, t, t - 1)
    metric = lp_metric(p)
    beta = q ** (1.0 / p) / 2.0
    lam = 3.0 / q ** (1.0 / p)
    claims = (Fraction(q, 2 ** p), Fraction(3 ** p, 2 ** p)) if metric.exact \
        else _float_claims(metric, beta, lam)
    return GapRealization(metric, q, t, t - 1, beta, lam, *claims, kind="halfshift")


def _check_params(q, t, s):
    if not (q >= t > s >= 1):
        raise ValueError(f"need q >= t > s >= 1, got q={q} t={t} s={s}")


def _embed_lp(q, t, s, p, kind):
    # the half-shift map unless kind or a co-arity other than 1 asks for indicators
    if kind == "indicator" or (s is not None and s != t - 1):
        return embed_indicator_lp(q, t, s, p)
    return embed_lp_halfshift(q, t, p)


# metric family -> (realization from q, t, s, p and kind; the parameter it cannot do without)
REALIZATIONS = {
    "l0": (lambda q, t, s, p, kind: embed_l0(q, t, s), "s"),
    "l1": (lambda q, t, s, p, kind: embed_l1(q, t, s), "s"),
    "l2": (lambda q, t, s, p, kind: embed_l2_scaled(q, t, s), "s"),
    "lp": (_embed_lp, "p"),
}


def realize(metric, q, t, s, p, kind=None):
    """The realization of a metric family (l0, l1, l2 or lp) for ground set q
    and arities t > s; on lp, p is the exponent.  kind, when given, must be
    the realization's kind; without it lp takes the half-shift map when s is
    None or t-1, and characteristic vectors otherwise.
    """
    make, needed = REALIZATIONS[metric]
    if {"s": s, "p": p}[needed] is None:
        raise ValueError(f"--metric {metric} needs --{needed}")
    real = make(q, t, s, p, kind)
    if kind is not None and real.kind != kind:
        raise ValueError(f"metric {real.metric.token} at t={t} s={s} is realized by "
                         f"{real.kind} vectors, not {kind}")
    return real


def realized_distance(real, x1, x2):
    """Metric distance between the realized vectors of two subsets."""
    return real.metric.take_root(real.metric.pair_pow(real.vector(x1), real.vector(x2)))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class GapReport(namedtuple("GapReport", (
        "min_nonedge_over_edge",    # None when the graph has no non-edges
        "pairs_checked", "worst_pair", "edge_distance", "min_nonedge_distance",
        "edge_pairs", "nonedge_pairs"))):
    __slots__ = ()

    @property
    def certified_ratio(self):
        if self.min_nonedge_over_edge is None:
            return math.inf
        return float(self.min_nonedge_over_edge)


def verify_gap_realization(real, edge_subset=None, budget=DEFAULT_BUDGET):
    """Exhaustively check every (t-set, s-set) pair of the realization.

    Certifies that containment pairs share one distance beta and that every
    other pair is at least lambda_claimed * beta away (exact comparisons for
    exact realizations, relative tolerance TOL for l2 / non-integer p).
    When s = t-1 and non-edges exist, also asserts the observed ratio stays
    below the triangle-inequality ceiling 3.  Restricting to an edge subset
    can only raise the certified ratio.  Raises CertificationError with the
    worst pair on any violation.

    Each realized vector is checked to be two-valued on its set's members,
    so a pair's distance depends only on j = |T cap S|: a pair costs one
    bitmask AND and a popcount, and the distance is evaluated once per class
    j, on its first pair.  Pow sums are exact or rounded once
    (Metric.pair_pow), so the witness is still the first pair in (t-set,
    s-set) order at the smallest non-edge distance.
    """
    q, t, s = real.q, real.t, real.s
    if edge_subset is None:
        tsets, ntsets = combinations(range(q), t), math.comb(q, t)
    else:
        tsets = sorted(_check_vertex(x, q, (t,)) for x in edge_subset)
        if len(set(tsets)) != len(tsets):
            raise ValueError("duplicate t-sets in edge subset")
        ntsets = len(tsets)
    pairs = ntsets * math.comb(q, s)
    check_budget(pairs, budget, "pairs")

    # |T cap S| -> number of pairs, and ((t-index, s-index), pair) of its first
    ssets = list(combinations(range(q), s))
    smasks = [_support(real, x) for x in ssets]
    count, first = [0] * (s + 1), {}
    for i, tset in enumerate(tsets):
        js = list(map(int.bit_count, map(_support(real, tset).__and__, smasks)))
        for j, n in Counter(js).items():
            count[j] += n
            if j not in first:
                k = js.index(j)
                first[j] = ((i, k), (tset, ssets[k]))
    metric = real.metric
    dist = {j: metric.pair_pow(*map(real.vector, pair)) for j, (_, pair) in first.items()}
    beta_pow, floor_pow = real.beta_pow, real.floor_pow

    if s in dist and not _close_pow(dist[s], beta_pow, real, TOL):
        tset, sset = first[s][1]
        raise CertificationError(
            f"containment pair {tset}/{sset} at distance^p {dist[s]}, "
            f"expected beta^p = {beta_pow}", witness=(tset, sset))

    # the smallest non-edge distance, ties to the earliest first pair
    nonedge = [(d, first[j]) for j, d in dist.items() if j != s]
    ratio = min_nonedge_dist = worst = None
    if nonedge:
        min_nonedge, (_, worst) = min(nonedge)
        slack = 0 if real.exact else TOL * max(1.0, float(floor_pow))
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
        if s == t - 1 and float(ratio) > 3.0 + TOL:
            raise CertificationError(
                f"observed ratio {float(ratio)} exceeds the ceiling 3", witness=worst)

    return GapReport(min_nonedge_over_edge=ratio, pairs_checked=pairs,
                     worst_pair=worst, edge_distance=real.beta,
                     min_nonedge_distance=min_nonedge_dist,
                     edge_pairs=count[s], nonedge_pairs=pairs - count[s])


def _support(real, x):
    """Bitmask of x's members, once x's realized vector is checked to hold
    the on entry exactly there and the off entry at every other coordinate."""
    vec = real.vector(x)
    off, on = real.entries(len(x))
    mask = sum(1 << i for i, c in enumerate(vec) if c == on)
    if len(vec) != real.q or vec.count(off) != real.q - len(x) \
            or mask != sum(1 << i for i in x):
        raise CertificationError(
            f"vector of {x} is not {on} on its members and {off} elsewhere", witness=x)
    return mask


def _close_pow(d, expected, real, tol):
    if real.exact:
        return d == expected
    return abs(float(d) - float(expected)) <= tol * max(1.0, float(expected))


def empirical_gamma(p, delta, q, t=None, budget=DEFAULT_BUDGET):
    """Best certified gap ratio for lp at co-arity delta, by construction + check.

    Used for p outside {1, 2}, where no closed form is tabulated.  Tries the
    characteristic-vector map (any delta) and the half-shift map (delta = 1),
    returning (ratio, realization, report) for the larger certified ratio.
    Each check refuses (loudly) above budget pairs.
    """
    if t is None:
        t = delta + 1
    s = t - delta
    candidates = [embed_indicator_lp(q, t, s, p)]
    if delta == 1:
        candidates.append(embed_lp_halfshift(q, t, p))
    best = None
    for real in candidates:
        report = verify_gap_realization(real, budget=budget)
        ratio = report.certified_ratio
        if best is None or ratio > best[0]:
            best = (ratio, real, report)
    return best


def export_realization(real, fh):
    """One line per vertex: comma-joined subset label, then q coordinates."""
    for size in (real.t, real.s):
        for x in combinations(range(real.q), size):
            label = ",".join(map(str, x))
            coords = " ".join(_fmt(c) for c in real.vector(x))
            fh.write(f"{label} {coords}\n")


def _fmt(c):
    if isinstance(c, Fraction):
        return str(float(c)) if c.denominator > 1 else str(c.numerator)
    if isinstance(c, float):
        return repr(c)
    return str(c)
