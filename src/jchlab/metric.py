"""The l_p metrics and their tokens.  A distance is ranked and computed
from its pow sum, sum |a - b|^root over the coordinates, and Metric.pow_sum
is the one rule for it, exact on an int root and else rounded once, for
support rows, dense rows, realized vectors, the closed-form center costs
and geometry.pointwise_distance alike.
"""

import math
from collections import Counter, namedtuple
from fractions import Fraction
from importlib import import_module

from .errors import compare_first


class Metric(namedtuple("Metric", (
        "token",        # file and CLI spelling: l0, l1, l2 or lp<p>
        "root",         # 1 on l0 and l1, else p
        "exact",        # realized distances are exact: l0, l1 and lp with an int p
        "exponent",     # default cost exponent: 2 (means) on l2, 1 (medians) otherwise
        "coord",        # d -> |d|^root
        "from_pow",     # pow sum -> distance
        "centers"))):   # cost exponent -> (points) -> (center, cost); none on lp
    """One l_p metric and everything the lab decides by which metric it is.

    coord(d) is the term |d|^root of one coordinate difference d (on l0, the
    count d != 0); it is exact on ints and Fractions.  A pow sum, the sum of
    the terms over the coordinates (pow_sum), orders pairs as their
    distances do, and from_pow maps it to the distance: an int on l0, and on
    l1 when the pow sum is an int, else a float.  Two rows of Python numbers
    (dense rows, realized vectors) are compared through pair_pow, pow_sum of
    their value pairs; a cluster's continuous center comes from the rule
    centers holds for the cost exponent.  A metric's value is its first
    four fields: two metrics of one token are equal whatever functions they
    hold.
    """
    __slots__ = ()
    __eq__, __ne__, __hash__ = compare_first(4)

    def __new__(cls, token, root, exact, exponent, coord, from_pow, centers=None):
        return super().__new__(cls, token, root, exact, exponent, coord, from_pow,
                               {} if centers is None else centers)

    def take_root(self, dpow):
        """dpow^(1/root): a float, or dpow itself (int and Fraction kept) at root 1."""
        return dpow if self.root == 1 else float(dpow) ** (1.0 / self.root)

    def pair_pow(self, u, v):
        """The pow sum of two rows of Python numbers: pow_sum of their value
        pairs, each distinct pair counted once."""
        return self.pow_sum(Counter(zip(u, v)).items())

    def pow_sum(self, counts):
        """The sum of n * coord(a - b) over counted value pairs ((a, b), n).

        Every value is read as an int over one common denominator, unit (a
        float as the dyadic rational it holds).  On an int root the terms are
        summed as ints, exactly: an int when every value is an int, and on l0
        (a count), else a Fraction.  On any other root each term is coord of
        the correctly rounded difference, and their exact sum is rounded once.
        """
        counts = list(counts)
        ratios = {v: v.as_integer_ratio() for pair, _ in counts for v in pair
                  if not isinstance(v, int)}
        unit = math.lcm(*{d for _, d in ratios.values()})
        if ratios:      # every value as its numerator over unit; equal values share one
            num = {v: v * unit for pair, _ in counts for v in pair if isinstance(v, int)}
            num.update((v, x * unit // d) for v, (x, d) in ratios.items())
            counts = [((num[a], num[b]), n) for (a, b), n in counts]
        if isinstance(self.root, int):
            total = sum(n * self.coord(a - b) for (a, b), n in counts)
            # coord is multiplicative: coord(d / unit) = coord(d) * coord(1 / unit)
            return total * self.coord(Fraction(1, unit)) if ratios else total
        # the float terms, each an int over one common denominator, den
        terms = [(n, self.coord((a - b) / unit).as_integer_ratio()) for (a, b), n in counts]
        den = math.lcm(*{d for _, (_, d) in terms})
        return sum(n * x * den // d for n, (x, d) in terms) / den


def _geometry(name):
    # a center rule of jchlab.geometry, imported when it first runs
    return lambda points: getattr(import_module("jchlab.geometry"), name)(points)


def _int_or_float(dpow):
    return dpow if type(dpow) is int else float(dpow)


METRICS = {m.token: m for m in (
    Metric("l0", 1, True, 1, lambda d: d != 0, int, {1: _geometry("binary_median_center")}),
    Metric("l1", 1, True, 1, abs, _int_or_float,
           {1: _geometry("median_center"), 2: _geometry("l1sq_center_heuristic")}),
    Metric("l2", 2, False, 2, lambda d: d * d, math.sqrt,
           {1: _geometry("weiszfeld_geometric_median"), 2: _geometry("centroid")}),
)}


def lp_metric(p):
    """lp for a finite p >= 1; an int p keeps realized distances exact."""
    if p is None or not (p >= 1 and math.isfinite(p)):
        raise ValueError(f"lp needs a finite p >= 1, not {p!r}")
    return Metric(f"lp{p}", p, isinstance(p, int), 1, lambda d: abs(d) ** p,
                  lambda dpow: float(dpow) ** (1.0 / p))


def parse_metric(token):
    """The metric a token names: l0, l1, l2, or lp<p> with p an int or a float."""
    if token in METRICS:
        return METRICS[token]
    raw = token[2:] if token.startswith("lp") else ""
    try:
        p = int(raw) if raw.isdigit() else float(raw)
    except ValueError:
        raise ValueError(f"unknown metric token {token!r}") from None
    return lp_metric(p)
