"""The 4-clique integrality-gap instance and its explicit SDP certificate.

Points are the C(n,4) 4-cliques of K_n, candidate centers the C(n,2) edges,
both vertex labels derived from n; as indicator vectors a point p and a
center e sit at l1 distance |p ^ e|: 2 when e covers p, at least 4 otherwise.
An explicit feasible SDP solution connects every point only to its six
covering centers while opening 1/5 of each center, so its objective is
2*C(n,4); it is stored per coordinate class, nothing in it grows with n, and
every constraint family is verified in exact arithmetic, with a float
cross-check.  Integrally this is Max k'-Coverage on the complete Johnson
instance (n, z=4, y=2); at least a 24/125 fraction of the 4-cliques must
escape any k chosen edges asymptotically, giving the gap
(2 + 2*(24/125))/2 = 149/125.  Finite n deviates (small n even reaches
uncovered = 0) and the report says so.
"""

import math
from array import array
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .coverage import cover_masks, gen_instance, max_union_search
from .errors import (DEFAULT_BUDGET, BudgetExceededError, CertificationError, check_comb_budget,
                     compare_first)

CONSTRAINT_FAMILIES = (
    "v0_unit",              # <v0, v0> = 1
    "assign_v0",            # <v_pc, v0> = |v_pc|^2
    "open_v0",              # <u_c, v0> = |u_c|^2
    "assign_open",          # <v_pc, u_c> = |v_pc|^2
    "assignment_total",     # |sum_c v_pc - v0|^2 = 0
    "budget",               # sum_c |u_c|^2 <= fractional budget
)


class CliqueGapInstance(namedtuple("CliqueGapInstance", "n")):
    __slots__ = ()

    @property
    def k(self):            # integral budget floor(C(n,2)/5)
        return math.comb(self.n, 2) // 5

    @property
    def fractional_budget(self):
        return Fraction(math.comb(self.n, 2), 5)

    @property
    def point_labels(self):
        return tuple(combinations(range(1, self.n + 1), 4))

    @property
    def center_labels(self):
        return tuple(combinations(range(1, self.n + 1), 2))


def build_clique_gap_instance(n):
    if n < 5:
        raise ValueError("need n >= 5")
    return CliqueGapInstance(n)


class SdpSolution(namedtuple("SdpSolution", (
        "inst", "t",
        "v0",               # memoryview (1,): coordinate 0
        "u",                # memoryview (3,): coordinate 0, w_e, w'_e
        "v",                # memoryview (3,): coordinate 0, w_e, each other w_f
        "v0_exact", "u_exact", "v_exact"))):
    """Explicit vectors in dimension 1 + 2*C(n,2), stored per coordinate class.

    Coordinate 0 carries v0; edge e has two orthonormal directions w_e and
    w'_e.  Every u_e has three nonzeros: coordinate 0, w_e and w'_e.  Every
    v_pe with e in the 4-clique p has seven: coordinate 0, w_e, and w_f for
    each of the five other edges f of p; v_pe is zero when e is not in p, so
    no per-point data is stored.
    A coefficient is r*sqrt(k): the *_exact tuples hold the Fractions r, and
    k is 1 on coordinate 0, t+1 on every w and t-1 on every w'.  v0, u and v
    hold the coefficients as doubles, in memoryviews of arrays.
    """
    __slots__ = ()


def build_sdp_solution(inst, t=5):
    """u_e = v0/t + ((t-1)sqrt(t+1)/t^2) w_e + (sqrt(t-1)/t^2) w'_e, and
    v_pe = v0/(t+1) + (t/(t+1)^1.5) w_e - sum_{f in p, f != e} w_f/(t+1)^1.5.

    The norms come out |u_e|^2 = 1/t and |v_pe|^2 = 1/(t+1); the assignment
    vectors of one point sum to v0 exactly when t = 5 (one less than the six
    edges of a 4-clique).
    """
    if t < 2:
        raise ValueError("need t >= 2")
    v0 = (Fraction(1),)
    u = (Fraction(1, t), Fraction(t - 1, t ** 2), Fraction(1, t ** 2))
    v = (Fraction(1, t + 1), Fraction(t, (t + 1) ** 2), Fraction(-1, (t + 1) ** 2))
    floats = (memoryview(array("d", [r.numerator * math.sqrt(k) / r.denominator
                                     for r, k in zip(c, ks)]))
              for c, ks in ((v0, (1,)), (u, (1, t + 1, t - 1)), (v, (1, t + 1, t + 1))))
    return SdpSolution(inst, t, *floats, v0_exact=v0, u_exact=u, v_exact=v)


class SdpCheck(namedtuple("SdpCheck", (
        "max_residual",
        "residuals",            # float cross-check per family
        "objective_exact", "objective_float",
        "exact_residuals"))):   # per family; all 0 once certified
    __slots__ = ()


def _residuals(v0, u, v, kw, kw2, m, budget):
    """Each family's residual, and |v_pe|^2, from class coefficients.

    One slot stands for all: v0, u_e and v_pe on the coordinates 0, w_e, w'_e
    and the other five w_f of p, radicands 1, kw, kw2, kw (a short list is 0
    past its end).  A point's six slots minus v0 leave coordinate 0 and one
    w_f per edge of p.  Floats (radicands 1) add in coordinate order.
    """
    (one,), (ua, ub, uw), (vc, von, voff) = v0, u, v
    xu, xv = [ua, ub, uw], [vc, von, 0] + [voff] * 5
    total = [sum([vc] * 6) - one] + [sum([von] + [voff] * 5)] * 6

    def inner(x, y, ks=(1, kw, kw2) + (kw,) * 5):
        return sum(a * b * k for a, b, k in zip(x, y, ks))

    vv, uu = inner(xv, xv), inner(xu, xu)
    return {
        "v0_unit": abs(inner([one], [one]) - 1),
        "assign_v0": abs(inner(xv, [one]) - vv),
        "open_v0": abs(inner(xu, [one]) - uu),
        "assign_open": abs(inner(xv, xu) - vv),
        "assignment_total": inner(total, total, (1,) + (kw,) * 6),
        "budget": max(0, m * uu - budget),
    }, vv


def verify_sdp_solution(sol, tol=1e-8):
    """Certify the solution exactly, with a float cross-check.

    Every point p is assigned the six edges inside it, so one slot and one
    representative 4-clique stand for all.  (a) Every residual, exact from
    the class coefficients, must be 0.  (b) The float residuals from v0, u
    and v must not exceed tol.  A failure raises CertificationError naming
    the first violated family.  The objective is |v_pe|^2 times C(n,4) times
    the sum of |p ^ e| over the six edges of one 4-clique: 2*C(n,4) at t = 5.
    """
    inst = sol.inst
    m = math.comb(inst.n, 2)
    p = (1, 2, 3, 4)
    distance_total = math.comb(inst.n, 4) * sum(
        len(set(p).symmetric_difference(e)) for e in combinations(p, 2))

    exact, vv = _residuals(sol.v0_exact, sol.u_exact, sol.v_exact, sol.t + 1, sol.t - 1,
                           m, inst.fractional_budget)
    floats, vv_float = _residuals(*(map(float, a) for a in (sol.v0, sol.u, sol.v)),
                                  1, 1, m, float(inst.fractional_budget))
    res = {f: float(r) for f, r in floats.items()}
    for found, bound in ((exact, 0), (res, tol)):
        # name the first violated family in declaration order; a single fault
        # usually trips several numerically-coupled constraints at once
        named = next((f for f in CONSTRAINT_FAMILIES if found[f] > bound), None)
        if named:
            raise CertificationError(
                f"SDP residual up to {float(max(found.values())):.3e}, "
                f"first violated family {named}", witness=named)
    return SdpCheck(max_residual=max(res.values()), residuals=res,
                    objective_exact=vv * distance_total,
                    objective_float=vv_float * distance_total, exact_residuals=exact)


class LpReport(namedtuple("LpReport", "open_total objective feasibility_residual")):
    __slots__ = ()


def lp_fractional_value(inst):
    """Check the 1/6-uniform LP solution exactly.

    y_c = 1/6 everywhere, x_pc = 1/6 on the six covering pairs of each point:
    assignments sum to one, x <= y holds, the opening total is C(n,2)/6 (below
    the budget C(n,2)/5), and the objective is 2*C(n,4).
    """
    sixth = Fraction(1, 6)
    per_point = 6 * sixth
    residual = abs(per_point - 1)
    open_total = math.comb(inst.n, 2) * sixth
    objective = Fraction(2 * math.comb(inst.n, 4))
    if residual != 0 or open_total > inst.fractional_budget:
        raise CertificationError("uniform LP solution is not feasible")
    return LpReport(open_total=open_total, objective=objective,
                    feasibility_residual=residual)


class IntegralResult(namedtuple("IntegralResult", (
        "uncovered", "witness",
        "method",           # "exact"; sdp-gap prints it as the provenance
        "nodes_visited", "nodes_pruned"), defaults=(0, 0))):
    """An exact minimum; the search's node counts are not part of its value."""
    __slots__ = ()
    __eq__, __ne__, __hash__ = compare_first(3)


def integral_min_uncovered(inst, k_prime, budget=DEFAULT_BUDGET):
    """Minimum number of 4-cliques containing none of k' chosen edges.

    Max k'-Coverage on the complete Johnson instance (n, 4, 2), exact by
    coverage.max_union_search; refuses (loudly) when the C(C(n,2), k') edge
    subsets exceed the budget.
    """
    m = math.comb(inst.n, 2)
    k_prime = min(k_prime, m)
    check_comb_budget(m, k_prime, budget, "edge subsets")
    covers = cover_masks(gen_instance("complete", inst.n, 4, 2, k_prime))
    npoints, centers = math.comb(inst.n, 4), inst.center_labels
    covered, idx, visited, pruned = max_union_search(
        [covers[e] for e in centers], k_prime, npoints)
    return IntegralResult(uncovered=npoints - covered, method="exact",
                          witness=tuple(centers[i] for i in idx),
                          nodes_visited=visited, nodes_pruned=pruned)


def reiher_uncovered_fraction(t=5):
    """t(t-1)(t-2)(t-3)/t^4: the asymptotic min fraction of uncovered 4-cliques
    when a 1/t fraction of edges is chosen (24/125 at t=5)."""
    return Fraction(t * (t - 1) * (t - 2) * (t - 3), t ** 4)


def asymptotic_gap(t=5):
    """(2 + 2 * uncovered_fraction) / 2 = 149/125 at t = 5."""
    f = reiher_uncovered_fraction(t)
    return (2 + 2 * f) / 2


def gap_report(n_list, t=5, exact_budget=DEFAULT_BUDGET, tol=1e-8,
               extra_center_fractions=(0.0, 0.1, 0.2)):
    """Per-n certification rows plus the asymptotic gap arithmetic.

    For each n: verify the explicit SDP solution exactly, record its objective
    2*C(n,4), check the LP value, and where enumeration fits the budget
    compute the exact minimum uncovered count at k' = floor(k*(1+delta)) for
    each sweep fraction delta, searching each distinct k' once.  The integral
    cost lower bound is 2*covered + 4*uncovered.  Finite-size rows reaching uncovered = 0 are
    flagged as deviations from the asymptotic 24/125 bound.  A t other than
    5 (the one t the explicit SDP solution is feasible at), a negative or
    non-finite tol, or a sweep fraction below -1 or not finite, is refused
    before any check.
    """
    if t != 5:
        raise ValueError(f"the SDP solution is feasible only at t = 5, got t = {t}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"need a finite tol >= 0, got {tol}")
    for delta in extra_center_fractions:
        if not -1 <= delta < math.inf:      # below -1, k' would be negative
            raise ValueError(f"need finite sweep fractions >= -1, got {delta}")
    rows = []
    for n in n_list:
        inst = build_clique_gap_instance(n)
        sol = build_sdp_solution(inst, t=t)
        check = verify_sdp_solution(sol, tol=tol)
        lp = lp_fractional_value(inst)
        npoints = math.comb(n, 4)
        sweeps, results = [], {}
        for delta in extra_center_fractions:
            k_prime = int(math.floor(inst.k * (1 + delta)))
            if k_prime not in results:      # fractions whose k' coincide share one search
                try:
                    results[k_prime] = integral_min_uncovered(inst, k_prime,
                                                              budget=exact_budget)
                except BudgetExceededError:
                    results[k_prime] = None
            res = results[k_prime]
            if res is None:
                sweeps.append({"delta": delta, "k_prime": k_prime,
                               "uncovered": None, "method": "skipped(budget)"})
            else:
                lb = 2 * (npoints - res.uncovered) + 4 * res.uncovered
                sweeps.append({"delta": delta, "k_prime": k_prime,
                               "uncovered": res.uncovered,
                               "integral_cost_lb": lb,
                               "finite_size_deviation": res.uncovered == 0,
                               "method": res.method})
        rows.append({
            "n": n, "k": inst.k, "fractional_budget": inst.fractional_budget,
            "points": npoints, "centers": math.comb(n, 2),
            "sdp_max_residual": check.max_residual,
            "sdp_objective": check.objective_exact,
            "lp_objective": lp.objective,
            "lp_open_total": lp.open_total,
            "integral_sweeps": sweeps,
        })
    return {
        "t": t,
        "reiher_uncovered_fraction": reiher_uncovered_fraction(t),
        "asymptotic_gap": asymptotic_gap(t),
        "rows": rows,
    }
