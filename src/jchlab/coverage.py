"""Johnson coverage instances and exact solvers.

An instance is a collection E of z-element subsets of [n] together with a
budget k; a solution picks at most k subsets of size y and covers every
T in E that contains one of them.  Everything here is exact: coverage
fractions are rationals, brute force searches the full space (branch and
bound) or refuses, and ties break lexicographically so witnesses are
reproducible.
"""

import bisect
import math
import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .errors import (DEFAULT_BUDGET, check_budget, check_comb_budget, compare_first,
                     parse_header, parse_lines)


def _check_subset(s, n, size, what="subset"):
    s = tuple(sorted(s))
    if len(s) != size or len(set(s)) != size:
        raise ValueError(f"{what} {s} must have exactly {size} distinct elements")
    if s and (s[0] < 1 or s[-1] > n):
        raise ValueError(f"{what} {s} has elements outside [1, {n}]")
    return s


class JohnsonInstance(namedtuple("JohnsonInstance", "n z y edges k")):
    """Universe [n], arity-z edge collection, cover arity y, budget k.

    The constructor sorts the edges and refuses duplicates; _replace would
    skip that, so a changed instance is built through the constructor."""
    __slots__ = ()

    def __new__(cls, n, z, y, edges, k):
        if not (1 <= y < z <= n):
            raise ValueError(f"need 1 <= y < z <= n, got n={n} z={z} y={y}")
        if k < 0:
            raise ValueError("budget k must be nonnegative")
        edges = tuple(edges)
        normalized = tuple(sorted(set(_check_subset(e, n, z, "edge") for e in edges)))
        if len(normalized) != len(edges):
            raise ValueError("duplicate edges in instance")
        return super().__new__(cls, n, z, y, normalized, k)

    @property
    def num_edges(self):
        return len(self.edges)


class CoverageReport(namedtuple("CoverageReport",
                                "covered total fraction nodes_visited nodes_pruned",
                                defaults=(0, 0))):
    """A coverage count; the search's node counts are not part of its value."""
    __slots__ = ()
    __eq__, __ne__, __hash__ = compare_first(3)

    @property
    def is_complete(self):
        return self.covered == self.total


def normalize_cover(sets, inst):
    """Sort/validate a collection of y-subsets; duplicates are rejected."""
    out = tuple(sorted(_check_subset(s, inst.n, inst.y, "cover set") for s in sets))
    if len(set(out)) != len(out):
        raise ValueError("duplicate sets in cover collection")
    return out


def cov(s, inst):
    """All edges of the instance containing the y-subset s, sorted."""
    s = _check_subset(s, inst.n, inst.y, "cover set")
    members = set(s)
    return tuple(t for t in inst.edges if members.issubset(t))


def coverage_fraction(cover, inst):
    """Count edges covered by the union of the collection (each edge once).

    An empty edge set counts as fully covered (fraction 1).
    """
    cover = normalize_cover(cover, inst)
    if len(cover) > inst.k:
        raise ValueError(f"cover has {len(cover)} sets, instance budget is k={inst.k}")
    sets = [set(s) for s in cover]
    covered = sum(1 for t in inst.edges if any(s.issubset(t) for s in sets))
    total = inst.num_edges
    fraction = Fraction(covered, total) if total else Fraction(1)
    return CoverageReport(covered=covered, total=total, fraction=fraction)


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def cover_masks(inst):
    """Bitmask over the edge list of the edges containing each y-subset."""
    covers = {}
    for j, t in enumerate(inst.edges):
        for s in combinations(t, inst.y):
            covers[s] = covers.get(s, 0) | 1 << j
    return covers


def _unrank_combination(rank, n_items, r):
    # lexicographic unranking of an r-subset of range(n_items)
    out = []
    x = 0
    for slot in range(r, 0, -1):
        while True:
            block = math.comb(n_items - x - 1, slot - 1)
            if rank < block:
                break
            rank -= block
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def max_union_search(masks, r, target):
    """Lexicographically first r-subset of masks whose union has the most bits.

    Depth-first branch and bound in lexicographic order that stops at the
    first union of target bits.  Coverage is submodular, so under a union U
    a mask adds at most |m & ~U|: a node is cut when |U| plus its top `left`
    gains is <= the best count so far, a child i when |U| plus gain i plus
    the top left-1 gains after i is; cutting on equality keeps the earliest
    witness.  Returns (count, index tuple, nodes visited, nodes pruned).
    """
    n = len(masks)
    best_count, best_idx = -1, None
    visited = pruned = 0
    chosen, unions, pending = [], [0], []   # pending[d]: (child, bound) for slot d
    while True:
        visited += 1
        left = r - len(chosen)
        union = unions[-1]
        count = union.bit_count()
        if left == 0:
            if count > best_count:
                best_count, best_idx = count, tuple(chosen)
                if count >= target:
                    break
        else:
            start = chosen[-1] + 1 if chosen else 0
            gains = [(m & ~union).bit_count() for m in masks[start:]]
            if count + sum(sorted(gains, reverse=True)[:left]) <= best_count:
                pruned += 1
            else:
                children, top = [], []          # top: largest left-1 gains after i
                for i in range(n - 1, start - 1, -1):
                    gain = gains[i - start]
                    if i <= n - left:
                        children.append((i, count + gain + sum(top)))
                    bisect.insort(top, gain)
                    del top[:max(0, len(top) - left + 1)]
                pending.append(reversed(children))
        while pending:
            child = next(pending[-1], None)
            if child is None:
                pending.pop()
            elif child[1] > best_count:
                break
            else:
                pruned += 1
        if not pending:
            break
        depth = len(pending) - 1
        del chosen[depth:], unions[depth + 1:]
        chosen.append(child[0])
        unions.append(unions[-1] | masks[child[0]])
    return best_count, best_idx, visited, pruned


def brute_force_max_coverage(inst, budget=DEFAULT_BUDGET):
    """Exact max coverage over all collections of min(k, #candidates) y-subsets.

    Ties break lexicographically on the collection.  Refuses (loudly) if the
    number of collections or of candidate y-subsets exceeds the budget, both
    counted before any candidate is listed; otherwise max_union_search finds
    the optimum, and the report carries its node counts.
    """
    count = math.comb(inst.n, inst.y)
    r = min(inst.k, count)
    check_comb_budget(count, r, budget, "collections")
    # with k = 0 or k >= count there is one collection, however many candidates
    check_budget(count, budget, "candidates")
    cands = list(combinations(range(1, inst.n + 1), inst.y))
    covers = cover_masks(inst)
    _, best_idx, visited, pruned = max_union_search(
        [covers.get(s, 0) for s in cands], r, inst.num_edges)
    best = tuple(cands[i] for i in best_idx)
    rep = coverage_fraction(best, inst)
    return best, rep._replace(nodes_visited=visited, nodes_pruned=pruned)


# ---------------------------------------------------------------------------
# FPT branching for full-cover decision (y = z-1)
# ---------------------------------------------------------------------------

def fpt_cover_decide(inst, budget=DEFAULT_BUDGET):
    """Decide full coverage by depth-<=k branching over the z subsets of an edge.

    Only the y = z-1 regime is supported; each uncovered edge has exactly z
    candidate (z-1)-subsets, and each branch covers at least one edge, so the
    tree has at most z^min(k, |E|) leaves; refuses (loudly) when that bound
    exceeds the budget.  Returns (decision, witness or None); the witness
    lists at most k subsets.
    """
    if inst.y != inst.z - 1:
        raise ValueError("branching decision procedure requires y = z-1")
    check_budget(inst.z ** min(inst.k, inst.num_edges), budget, "branches")
    covers = cover_masks(inst)
    # per edge: its (z-1)-subsets with their cover masks, last branch first, so
    # that a depth-first search on an explicit stack pops them in branching order
    branches = [[(s, covers[s]) for s in combinations(t, inst.y)][::-1] for t in inst.edges]
    stack = [((1 << inst.num_edges) - 1, inst.k, ())]
    while stack:
        remaining, left, chosen = stack.pop()
        if not remaining:
            return True, tuple(sorted(chosen))
        if left:
            first = (remaining & -remaining).bit_length() - 1
            for s, mask in branches[first]:
                stack.append((remaining & ~mask, left - 1, chosen + (s,)))
    return False, None


# ---------------------------------------------------------------------------
# generators and file format
# ---------------------------------------------------------------------------

def gen_instance(kind, n, z, y, k, m=None, seed=None, dense=False):
    """Build a complete instance (all z-subsets) or a seeded random one.

    Random instances draw m distinct z-subsets uniformly; runs with the same
    seed produce identical edge sets.  The `dense` flag only checks the
    density condition m > k * n^(z-y-1); it carries no hardness claim.
    """
    if kind == "complete":
        edges = tuple(combinations(range(1, n + 1), z))
    elif kind == "random":
        total = math.comb(n, z)
        if m is None or not (0 <= m <= total):
            raise ValueError(f"random instance needs 0 <= m <= C({n},{z}) = {total}")
        if total >= 2 ** 63:        # rng.sample draws from a range of at most 2^63 - 1
            raise ValueError(f"random instance needs C({n},{z}) < 2^63")
        rng = random.Random(seed)
        ranks = sorted(rng.sample(range(total), m))
        edges = tuple(tuple(x + 1 for x in _unrank_combination(rk, n, z)) for rk in ranks)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    if dense and len(edges) <= k * n ** (z - y - 1):
        raise ValueError(
            f"density check failed: |E|={len(edges)} <= k*n^(z-y-1)={k * n ** (z - y - 1)}")
    return JohnsonInstance(n=n, z=z, y=y, edges=edges, k=k)


def write_instance(inst, fh):
    fh.write(f"jc {inst.n} {inst.z} {inst.y} {inst.k}\n")
    for t in inst.edges:
        fh.write(" ".join(map(str, t)) + "\n")


def read_instance(fh):
    n, z, y, k = parse_header(fh.readline(), "jc n z y k")
    JohnsonInstance(n, z, y, (), k)     # the header is refused before any edge line
    edges = parse_lines(fh, "jc", lambda fields: _check_subset(map(int, fields), n, z, "edge"))
    return JohnsonInstance(n, z, y, edges, k)


# ---------------------------------------------------------------------------
# closed-form quantities
# ---------------------------------------------------------------------------

# the largest z whose fraction prints: every z up to it has both terms within
# 4300 digits, the default int-to-str limit, and z = 796 does not
TURAN_MAX_Z = 795


def turan_random_uncovered(z):
    """Fraction of z-cliques missed by the extremal (C(z,2)-1)-partition graph.

    Product form prod_{i=1}^{z} (1 - (i-1)/w) = perm(w, z) / w^z with
    w = C(z,2) - 1, exact rational; tends to 1/e as z grows.  z runs from 3
    (w = 2, the least w > 0) to TURAN_MAX_Z.
    """
    if not 3 <= z <= TURAN_MAX_Z:
        raise ValueError(f"need 3 <= z <= {TURAN_MAX_Z}, got {z}")
    w = math.comb(z, 2) - 1
    return Fraction(math.perm(w, z), w ** z)


class FactorTable(namedtuple("FactorTable", "p delta alpha gamma_lower gamma_sq zeta1 zeta2")):
    """Inapproximability factors derived from a coverage gap alpha.

    gamma_lower is a certified lower bound on the embedding gap ratio for
    co-arity delta; zeta1 = 1 + (1-alpha)(gamma-1) is the median-side factor
    and zeta2 = 1 + (1-alpha)(gamma^2-1) the means-side factor.
    """
    __slots__ = ()


def inapprox_factors(p, delta, alpha):
    """Factor table for p in {1, 2}.

    p=1: gamma = (delta+2)/delta exactly.  p=2: gamma^2 = (delta+2)/delta
    (the scaled-embedding bound in the limit of large set size), so zeta2 is
    exact there too while zeta1 needs a square root.  Rational alpha keeps
    every exact quantity a Fraction.
    """
    if delta < 1:
        raise ValueError("need delta >= 1")
    if not 0 <= alpha <= 1:
        raise ValueError("need 0 <= alpha <= 1")
    gamma_sq = Fraction(delta + 2, delta)
    if p == 1:
        gamma = Fraction(delta + 2, delta)
        gamma_sq = gamma * gamma
    elif p == 2:
        gamma = math.sqrt(gamma_sq)
    else:
        raise ValueError("closed forms cover p in {1, 2}; other p is certified "
                         "empirically through the embedding verifier")
    one_minus = 1 - alpha
    zeta1 = 1 + one_minus * (gamma - 1)
    zeta2 = 1 + one_minus * (gamma_sq - 1)
    return FactorTable(p=p, delta=delta, alpha=alpha, gamma_lower=gamma,
                       gamma_sq=gamma_sq, zeta1=zeta1, zeta2=zeta2)
