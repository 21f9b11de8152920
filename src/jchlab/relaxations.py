"""The 4-clique integrality-gap instance and its explicit SDP certificate.

Points are the C(n,4) 4-cliques of K_n, candidate centers the C(n,2) edges,
both kept as vertex labels; as indicator vectors a point p and a center e
sit at l1 distance |p ^ e|: 2 when e covers p, at least 4 otherwise.  An
explicit feasible SDP solution connects every point only to covering centers
while opening 1/5 of each center, so its objective is 2*C(n,4).  Integrally
this is Max k'-Coverage on the complete Johnson instance (n, z=4, y=2); at
least a 24/125 fraction of the 4-cliques must escape any k chosen edges
asymptotically, giving the gap (2 + 2*(24/125))/2 = 149/125.  Finite n
deviates (small n even reaches uncovered = 0) and the report says so.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .coverage import DEFAULT_BUDGET, cover_masks, gen_instance, max_union_search
from .errors import BudgetExceededError, CertificationError

CONSTRAINT_FAMILIES = (
    "v0_unit",              # <v0, v0> = 1
    "assign_v0",            # <v_pc, v0> = |v_pc|^2
    "open_v0",              # <u_c, v0> = |u_c|^2
    "assign_open",          # <v_pc, u_c> = |v_pc|^2
    "assignment_total",     # |sum_c v_pc - v0|^2 = 0
    "budget",               # sum_c |u_c|^2 <= fractional budget
)


@dataclass(frozen=True)
class CliqueGapInstance:
    n: int
    point_labels: tuple         # 4-tuples of vertices
    center_labels: tuple        # 2-tuples of vertices
    k: int                      # integral budget floor(C(n,2)/5)

    @property
    def fractional_budget(self):
        return Fraction(math.comb(self.n, 2), 5)


def build_clique_gap_instance(n):
    if n < 5:
        raise ValueError("need n >= 5")
    return CliqueGapInstance(n=n, point_labels=tuple(combinations(range(1, n + 1), 4)),
                             center_labels=tuple(combinations(range(1, n + 1), 2)),
                             k=math.comb(n, 2) // 5)


@dataclass
class SdpSolution:
    """Explicit vectors in dimension 1 + 2*C(n,2).

    Coordinate 0 carries v0; coordinates 1 + 2i and 2 + 2i carry the two
    orthonormal directions attached to edge i.  v_pe is zero unless e lies in
    the 4-clique p; the nonzero ones are stored per point, aligned with
    cover_edges.
    """

    inst: CliqueGapInstance
    t: int
    v0: np.ndarray
    u: np.ndarray                # (m_centers, dim)
    v: np.ndarray                # (m_points, 6, dim) nonzero assignment vectors
    cover_edges: tuple           # per point: the 6 center indices with e in p

    @property
    def dim(self):
        return 1 + 2 * len(self.inst.center_labels)


def build_sdp_solution(inst, t=5):
    """u_e = v0/t + ((t-1)sqrt(t+1)/t^2) w_e + (sqrt(t-1)/t^2) w'_e, and
    v_pe = v0/(t+1) + (t/(t+1)^1.5) w_e - sum_{f in p, f != e} w_f/(t+1)^1.5.

    The norms come out |u_e|^2 = 1/t and |v_pe|^2 = 1/(t+1); the assignment
    vectors of one point sum to v0 exactly when t = 5 (one less than the six
    edges of a 4-clique).
    """
    if t < 2:
        raise ValueError("need t >= 2")
    m = len(inst.center_labels)
    dim = 1 + 2 * m
    edge_index = {e: i for i, e in enumerate(inst.center_labels)}

    v0 = np.zeros(dim)
    v0[0] = 1.0

    u = np.zeros((m, dim))
    u[:, 0] = 1.0 / t
    for i in range(m):
        u[i, 1 + 2 * i] = (t - 1) * math.sqrt(t + 1) / t ** 2
        u[i, 2 + 2 * i] = math.sqrt(t - 1) / t ** 2

    cover_edges = []
    v = np.zeros((len(inst.point_labels), 6, dim))
    on = t / (t + 1) ** 1.5
    off = 1.0 / (t + 1) ** 1.5
    for pi, p in enumerate(inst.point_labels):
        edges = tuple(edge_index[e] for e in combinations(p, 2))
        cover_edges.append(edges)
        for slot, ei in enumerate(edges):
            v[pi, slot, 0] = 1.0 / (t + 1)
            v[pi, slot, 1 + 2 * ei] = on
            for fj in edges:
                if fj != ei:
                    v[pi, slot, 1 + 2 * fj] -= off
    return SdpSolution(inst=inst, t=t, v0=v0, u=u, v=v,
                       cover_edges=tuple(cover_edges))


@dataclass
class SdpCheck:
    max_residual: float
    residuals: dict
    worst_family: str
    objective_exact: Fraction
    objective_float: float


def verify_sdp_solution(sol, tol=1e-8):
    """Residuals of all five vector-constraint families plus the budget.

    Raises CertificationError naming the worst family if any residual
    exceeds tol.  The objective is also assembled: every assignment weight
    |v_pe|^2 multiplies the point-center distance 2, and since each point
    uses exactly its six covering centers the exact value is 2*C(n,4).
    """
    inst = sol.inst
    res = {}
    res["v0_unit"] = abs(float(sol.v0 @ sol.v0) - 1.0)

    vnorms = (sol.v * sol.v).sum(axis=2)           # (P, 6)
    vdotv0 = sol.v[:, :, 0]
    res["assign_v0"] = float(np.abs(vdotv0 - vnorms).max())

    unorms = (sol.u * sol.u).sum(axis=1)
    res["open_v0"] = float(np.abs(sol.u[:, 0] - unorms).max())

    worst_uv = 0.0
    for pi, edges in enumerate(sol.cover_edges):
        for slot, ei in enumerate(edges):
            lhs = float(sol.v[pi, slot] @ sol.u[ei])
            worst_uv = max(worst_uv, abs(lhs - float(vnorms[pi, slot])))
    res["assign_open"] = worst_uv

    sums = sol.v.sum(axis=1) - sol.v0              # (P, dim)
    res["assignment_total"] = float((sums * sums).sum(axis=1).max())

    budget = float(inst.fractional_budget)
    res["budget"] = max(0.0, float(unorms.sum()) - budget)

    worst_family = max(CONSTRAINT_FAMILIES, key=lambda f: res[f])
    worst = res[worst_family]
    if worst > tol:
        # name the first violated family in declaration order; a single fault
        # usually trips several numerically-coupled constraints at once
        named = next(f for f in CONSTRAINT_FAMILIES if res[f] > tol)
        raise CertificationError(
            f"SDP residual up to {worst:.3e}, first violated family {named}",
            witness=named)

    n4 = math.comb(inst.n, 4)
    numeric = 0.0
    for pi, (p, edges) in enumerate(zip(inst.point_labels, sol.cover_edges)):
        for slot, ei in enumerate(edges):
            d = len(set(p).symmetric_difference(inst.center_labels[ei]))
            numeric += float(vnorms[pi, slot]) * d
    return SdpCheck(max_residual=worst, residuals=res, worst_family=worst_family,
                    objective_exact=Fraction(2 * n4),
                    objective_float=numeric)


@dataclass
class LpReport:
    open_total: Fraction
    objective: Fraction
    feasibility_residual: Fraction


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


@dataclass
class IntegralResult:
    uncovered: int
    witness: tuple
    method: str          # "exact"; sdp-gap prints it as the provenance
    nodes_visited: int = field(default=0, compare=False, repr=False)
    nodes_pruned: int = field(default=0, compare=False, repr=False)


def integral_min_uncovered(inst, k_prime, budget=DEFAULT_BUDGET):
    """Minimum number of 4-cliques containing none of k' chosen edges.

    Max k'-Coverage on the complete Johnson instance (n, 4, 2), exact by
    coverage.max_union_search; refuses (loudly) when the C(C(n,2), k') edge
    subsets exceed the budget.
    """
    m = len(inst.center_labels)
    k_prime = min(k_prime, m)
    total = math.comb(m, k_prime)
    if budget is not None and total > budget:
        raise BudgetExceededError(f"{total} edge subsets exceed budget {budget}",
                                  required=total, budget=budget)
    covers = cover_masks(gen_instance("complete", inst.n, 4, 2, k_prime))
    npoints = len(inst.point_labels)
    covered, idx, visited, pruned = max_union_search(
        [covers[e] for e in inst.center_labels], k_prime, npoints)
    return IntegralResult(uncovered=npoints - covered, method="exact",
                          witness=tuple(inst.center_labels[i] for i in idx),
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

    For each n: verify the explicit SDP solution, record its objective
    2*C(n,4), check the LP value, and where enumeration fits the budget
    compute the exact minimum uncovered count at k' = floor(k*(1+delta)) for
    each sweep fraction delta.  The integral cost lower bound is
    2*covered + 4*uncovered.  Finite-size rows reaching uncovered = 0 are
    flagged as deviations from the asymptotic 24/125 bound.
    """
    rows = []
    for n in n_list:
        inst = build_clique_gap_instance(n)
        sol = build_sdp_solution(inst, t=t)
        check = verify_sdp_solution(sol, tol=tol)
        lp = lp_fractional_value(inst)
        npoints = len(inst.point_labels)
        sweeps = []
        for delta in extra_center_fractions:
            k_prime = int(math.floor(inst.k * (1 + delta)))
            try:
                res = integral_min_uncovered(inst, k_prime, budget=exact_budget)
            except BudgetExceededError:
                res = None
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
            "points": npoints, "centers": len(inst.center_labels),
            "sdp_max_residual": check.max_residual,
            "sdp_objective": check.objective_exact,
            "sdp_objective_numeric": check.objective_float,
            "lp_objective": lp.objective,
            "lp_open_total": lp.open_total,
            "integral_sweeps": sweeps,
        })
    return {
        "t": t,
        "reiher_uncovered_fraction": reiher_uncovered_fraction(t),
        "asymptotic_integral_per_point": 2 + 2 * reiher_uncovered_fraction(t),
        "asymptotic_gap": asymptotic_gap(t),
        "rows": rows,
    }
