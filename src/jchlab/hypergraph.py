"""Weighted 3-hypergraphs from layered projection systems, plus densification.

A layered system has vertex layers V_1..V_ell with alphabet sizes per layer
and surjective projections on edges that always point from a higher layer to
a lower one.  The produced hypergraph lives on (layer, vertex, cube point)
triples: picking a lower-layer cube point x and two correlated upper-layer
cube points y, z per the sampling procedure.  All exact-mode weights are
rationals and sum to one.  Densification replicates weighted edges into a
blown-up vertex set and deletes every multiply-hit triple, leaving a simple
unweighted hypergraph.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import BudgetExceededError

DEFAULT_EXACT_BUDGET = 1 << 22


@dataclass(frozen=True)
class LayeredPcp:
    """Layers of vertices, per-layer alphabet sizes, projection edges (i < j)."""

    layers: tuple          # per layer: tuple of vertex names
    alphabets: tuple       # per layer: alphabet size
    edges: tuple           # (i, j, v_i, v_j, projection) with projection a
                           # tuple over the layer-j alphabet, values in layer i's

    def __post_init__(self):
        if len(self.layers) != len(self.alphabets) or len(self.layers) < 2:
            raise ValueError("need matching layers/alphabets, at least 2 layers")
        if any(a < 1 for a in self.alphabets):
            raise ValueError("alphabet sizes must be at least 1")
        for (i, j, vi, vj, proj) in self.edges:
            if not (1 <= i < j <= self.ell):
                raise ValueError(f"edge layers must satisfy 1 <= i < j <= ell, got {(i, j)}")
            if vi not in self.layers[i - 1] or vj not in self.layers[j - 1]:
                raise ValueError(f"edge endpoints {(vi, vj)} not in layers {(i, j)}")
            if len(proj) != self.alphabets[j - 1]:
                raise ValueError("projection must be total on the upper alphabet")
            if set(proj) != set(range(self.alphabets[i - 1])):
                raise ValueError("projection must be surjective onto the lower alphabet")

    @property
    def ell(self):
        return len(self.layers)

    def edges_between(self, i, j):
        return tuple(e for e in self.edges if (e[0], e[1]) == (i, j))

    def satisfied(self, edge, assignment):
        i, j, vi, vj, proj = edge
        return proj[assignment[(j, vj)]] == assignment[(i, vi)]


def layer_pair_distribution(ell):
    """Exact distribution over layer pairs (i, j), i < j.

    The lower index is drawn proportionally to (ell - i)^2 -- normalizer
    ell(ell-1)(2ell-1)/6, which is exactly sum_i (ell-i)^2 -- and the upper
    index uniformly above it.  The top layer has probability zero as a lower
    index.
    """
    if ell < 2:
        raise ValueError("need at least 2 layers")
    norm = Fraction(ell * (ell - 1) * (2 * ell - 1), 6)
    out = {}
    for i in range(1, ell + 1):
        pi = Fraction((ell - i) ** 2) / norm
        for j in range(i + 1, ell + 1):
            out[(i, j)] = pi / (ell - i)
    return out


def layer_marginal(ell):
    dist = layer_pair_distribution(ell)
    return tuple(sum(p for (i, j), p in dist.items() if i == lo)
                 for lo in range(1, ell + 1))


def _cube(size):
    return list(product((1, -1), repeat=size))


def vertex_weight(pcp, layer):
    return Fraction(1, pcp.ell * len(pcp.layers[layer - 1]) * 2 ** pcp.alphabets[layer - 1])


@dataclass
class WeightedHypergraph3:
    """Vertices (layer, name, cube point) with weights; weighted edge sets.

    Edges are frozensets of vertices; outcomes of the sampling procedure with
    y = z collapse to 2-element sets and keep their probability mass, so the
    edge weights always total 1 in exact mode.
    """

    vertices: tuple            # ((layer, name, x), weight)
    edges: dict                # frozenset(vertices) -> weight
    mode: str                  # "exact" | "montecarlo"

    def vertex_weight_total(self):
        return sum(w for _, w in self.vertices)

    def edge_weight_total(self):
        return sum(self.edges.values())


def _z_factor(xval, yb, zb, delta):
    # probability of z_b given y_b and the projected x coordinate
    if xval == 1:
        return Fraction(1) if zb == -yb else Fraction(0)
    return (1 - delta) if zb == yb else delta


def build_weighted_hypergraph(pcp, delta, mode="exact", samples=None, seed=None,
                              budget=DEFAULT_EXACT_BUDGET):
    """Hypergraph over (layer, vertex, cube point) triples.

    Exact mode enumerates every (x, y, z) outcome per edge--2^(|S_i|+2|S_j|)
    of them--with exact rational weights D(i,j) / |E_ij| * P(x, y, z).
    Monte-Carlo mode samples outcomes with a seeded generator and reports
    empirical frequencies.  Every layer pair with positive sampling weight
    must carry at least one edge, otherwise the weights cannot total 1.
    """
    delta = Fraction(delta)
    if not 0 <= delta <= 1:
        raise ValueError("need delta in [0, 1]")
    dist = layer_pair_distribution(pcp.ell)
    pair_edges = {}
    for (i, j), prob in dist.items():
        pair_edges[(i, j)] = pcp.edges_between(i, j)
        if prob > 0 and not pair_edges[(i, j)]:
            raise ValueError(f"layer pair {(i, j)} has sampling weight {prob} "
                             f"but no edges; weights would not normalize")

    vertices = []
    for layer in range(1, pcp.ell + 1):
        w = vertex_weight(pcp, layer)
        for name in pcp.layers[layer - 1]:
            for x in _cube(pcp.alphabets[layer - 1]):
                vertices.append(((layer, name, x), w))

    if mode == "exact":
        edges = {}
        for (i, j), prob in dist.items():
            if prob == 0:
                continue
            es = pair_edges[(i, j)]
            si, sj = pcp.alphabets[i - 1], pcp.alphabets[j - 1]
            if 2 ** (si + 2 * sj) > budget:
                raise BudgetExceededError(
                    f"exact enumeration needs 2^{si + 2 * sj} outcomes per edge",
                    required=2 ** (si + 2 * sj), budget=budget)
            edge_prob = prob / len(es)
            base = Fraction(1, 2 ** (si + sj))
            for (ei, ej, vi, vj, proj) in es:
                for x in _cube(si):
                    for y in _cube(sj):
                        for z in _cube(sj):
                            pz = Fraction(1)
                            for b in range(sj):
                                pz *= _z_factor(x[proj[b]], y[b], z[b], delta)
                                if pz == 0:
                                    break
                            if pz == 0:
                                continue
                            t = frozenset({(i, vi, x), (j, vj, y), (j, vj, z)})
                            w = edge_prob * base * pz
                            edges[t] = edges.get(t, Fraction(0)) + w
        return WeightedHypergraph3(vertices=tuple(vertices), edges=edges,
                                   mode="exact")

    if mode == "montecarlo":
        if not samples:
            raise ValueError("montecarlo mode needs a sample count")
        rng = random.Random(seed)
        pairs = sorted((pair, p) for pair, p in dist.items() if p > 0)
        cdf = []
        acc = Fraction(0)
        for pair, p in pairs:
            acc += p
            cdf.append((acc, pair))
        counts = {}
        fdelta = float(delta)
        for _ in range(samples):
            r = rng.random()
            for acc, pair in cdf:
                if r < acc:
                    break
            i, j = pair
            ei, ej, vi, vj, proj = rng.choice(pair_edges[pair])
            si, sj = pcp.alphabets[i - 1], pcp.alphabets[j - 1]
            x = tuple(rng.choice((1, -1)) for _ in range(si))
            y = tuple(rng.choice((1, -1)) for _ in range(sj))
            z = tuple(-y[b] if x[proj[b]] == 1
                      else (y[b] if rng.random() < 1 - fdelta else -y[b])
                      for b in range(sj))
            t = frozenset({(i, vi, x), (j, vj, y), (j, vj, z)})
            counts[t] = counts.get(t, 0) + 1
        edges = {t: Fraction(c, samples) for t, c in counts.items()}
        return WeightedHypergraph3(vertices=tuple(vertices), edges=edges,
                                   mode="montecarlo")

    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class CoverCheck:
    cover: frozenset
    all_hit: bool
    weight: Fraction
    witness: object      # a missed edge, when all_hit is False


def completeness_cover_check(pcp, hg, assignment):
    """Half-cube cover induced by an assignment, and whether it hits everything.

    The cover keeps every (layer, vertex, x) with x = -1 at the assigned
    symbol; its weight is exactly 1/2.  For an assignment satisfying every
    projection edge the cover intersects every positive-weight edge of the
    hypergraph; otherwise the first missed edge is returned as a witness.
    """
    for layer in range(1, pcp.ell + 1):
        for name in pcp.layers[layer - 1]:
            if (layer, name) not in assignment:
                raise ValueError(f"assignment misses vertex {(layer, name)}")
            sym = assignment[(layer, name)]
            if not 0 <= sym < pcp.alphabets[layer - 1]:
                raise ValueError(f"assignment symbol {sym} out of range for layer {layer}")
    cover = set()
    weight = Fraction(0)
    for (layer, name, x), w in hg.vertices:
        if x[assignment[(layer, name)]] == -1:
            cover.add((layer, name, x))
            weight += w
    witness = None
    all_hit = True
    for t, w in sorted(hg.edges.items(), key=lambda kv: sorted(map(repr, kv[0]))):
        if w > 0 and not (t & cover):
            all_hit = False
            witness = t
            break
    return CoverCheck(cover=frozenset(cover), all_hit=all_hit, weight=weight,
                      witness=witness)


# ---------------------------------------------------------------------------
# densification
# ---------------------------------------------------------------------------

@dataclass
class SimpleHypergraph:
    edges: tuple           # frozensets of (vertex, coordinate) pairs
    b: int
    source_edges: int
    replicas: int          # edges emitted before duplicate deletion
    deleted: int


def densify(hg, b, c, seed=None):
    """Replicate each weighted edge floor(c*w) times into V x [b] and
    delete every triple that appears more than once.

    Replicas draw one fresh coordinate per vertex from a single seeded
    stream, walking the edges in a deterministic order, so the output is
    reproducible from (b, c, seed) regardless of how callers parallelize
    around it.
    """
    if b < 1 or c < 1:
        raise ValueError("need b >= 1 and c >= 1")
    rng = random.Random(seed)
    ordered = sorted(hg.edges.items(), key=lambda kv: sorted(map(repr, kv[0])))
    seen = {}
    replicas = 0
    for t, w in ordered:
        count = int(math.floor(c * Fraction(w)))
        members = sorted(t, key=repr)
        for _ in range(count):
            replica = frozenset((v, rng.randrange(b)) for v in members)
            seen[replica] = seen.get(replica, 0) + 1
            replicas += 1
    kept = tuple(sorted((t for t, cnt in seen.items() if cnt == 1),
                        key=lambda t: sorted(map(repr, t))))
    deleted = replicas - len(kept)
    return SimpleHypergraph(edges=kept, b=b, source_edges=len(hg.edges),
                            replicas=replicas, deleted=deleted)


def retained_count_bound(c, m, b):
    """The with-probability-0.9 lower bound c - m - 10 c^2 / b^3 on kept edges."""
    return c - m - Fraction(10 * c * c, b ** 3)


def densification_schedule(n, m, beta=5):
    """The asymptotic parameter preset b = max(n, m)^beta, c = b^(5/2).

    With beta = 5 the output has many more edges than squared vertices; at
    desk scale these numbers explode, so densify() takes b and c directly
    and this preset is only the documented reference point.
    """
    b = max(n, m) ** beta
    return b, math.isqrt(b ** 5)


def cover_transfers(cover, dense):
    """True when cover x [b] hits every densified edge."""
    return all(any(v in cover for v, _ in t) for t in dense.edges)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _cube_token(x):
    return "".join("+" if v == 1 else "-" for v in x)


def _parse_cube(tok):
    return tuple(1 if ch == "+" else -1 for ch in tok)


def vertex_token(v):
    layer, name, x = v
    return f"{layer}:{name}:{_cube_token(x)}"


def parse_vertex_token(tok):
    layer, name, cube = tok.split(":")
    return (int(layer), name, _parse_cube(cube))


def write_pcp(pcp, fh):
    fh.write(f"pcp {pcp.ell}\n")
    for layer in range(1, pcp.ell + 1):
        names = " ".join(str(v) for v in pcp.layers[layer - 1])
        fh.write(f"layer {layer} {pcp.alphabets[layer - 1]} {names}\n")
    for (i, j, vi, vj, proj) in pcp.edges:
        fh.write(f"edge {i} {j} {vi} {vj} {' '.join(map(str, proj))}\n")


def read_pcp(fh):
    header = fh.readline().split()
    if len(header) != 2 or header[0] != "pcp":
        raise ValueError("pcp file must start with 'pcp ell'")
    ell = int(header[1])
    layers = [None] * ell
    alphabets = [None] * ell
    edges = []
    for line in fh:
        parts = line.split()
        if not parts:
            continue
        if len(parts) < {"layer": 3, "edge": 5}.get(parts[0], 1):
            raise ValueError(f"{parts[0]} line {line.strip()!r} has too few fields")
        if parts[0] == "layer":
            idx = int(parts[1])
            if not 1 <= idx <= ell:
                raise ValueError(f"layer index {idx} outside 1..{ell}")
            alphabets[idx - 1] = int(parts[2])
            layers[idx - 1] = tuple(parts[3:])
        elif parts[0] == "edge":
            i, j = int(parts[1]), int(parts[2])
            vi, vj = parts[3], parts[4]
            proj = tuple(int(x) for x in parts[5:])
            edges.append((i, j, vi, vj, proj))
        else:
            raise ValueError(f"unknown pcp line {parts[0]!r}")
    if any(l is None for l in layers):
        raise ValueError("missing layer lines")
    return LayeredPcp(layers=tuple(layers), alphabets=tuple(alphabets),
                      edges=tuple(edges))


def write_weighted_hypergraph(hg, fh):
    fh.write("whg3\n")
    for t, w in sorted(hg.edges.items(), key=lambda kv: sorted(map(repr, kv[0]))):
        toks = " ".join(sorted(vertex_token(v) for v in t))
        fh.write(f"{w} {toks}\n")


def read_weighted_hypergraph(fh):
    if fh.readline().strip() != "whg3":
        raise ValueError("weighted hypergraph file must start with 'whg3'")
    edges = {}
    vertices = set()
    for line in fh:
        parts = line.split()
        if not parts:
            continue
        w = Fraction(parts[0])
        t = frozenset(parse_vertex_token(tok) for tok in parts[1:])
        edges[t] = edges.get(t, Fraction(0)) + w
        vertices.update(t)
    verts = tuple((v, Fraction(0)) for v in sorted(vertices, key=repr))
    return WeightedHypergraph3(vertices=verts, edges=edges, mode="file")


def write_simple_hypergraph(dense, fh):
    fh.write(f"hg3 {dense.b}\n")
    for t in dense.edges:
        toks = " ".join(sorted(f"{vertex_token(v)}@{coord}" for v, coord in t))
        fh.write(toks + "\n")
