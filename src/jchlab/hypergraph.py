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

import functools
import math
import random
from bisect import bisect_right
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import islice, product

from .errors import DEFAULT_BUDGET, check_budget, parse_header, parse_lines


class LayeredPcp(namedtuple("LayeredPcp", (
        "layers",           # per layer: tuple of vertex names
        "alphabets",        # per layer: alphabet size
        "edges"))):         # (i, j, v_i, v_j, projection) with projection a
                            # tuple over the layer-j alphabet, values in layer i's
    """Layers of vertices, per-layer alphabet sizes, projection edges (i < j);
    the constructor checks them, which _replace would skip."""
    __slots__ = ()

    def __new__(cls, layers, alphabets, edges):
        if len(layers) != len(alphabets) or len(layers) < 2:
            raise ValueError("need matching layers/alphabets, at least 2 layers")
        if any(a < 1 for a in alphabets):
            raise ValueError("alphabet sizes must be at least 1")
        for (i, j, vi, vj, proj) in edges:
            if not (1 <= i < j <= len(layers)):
                raise ValueError(f"edge layers must satisfy 1 <= i < j <= ell, got {(i, j)}")
            if vi not in layers[i - 1] or vj not in layers[j - 1]:
                raise ValueError(f"edge endpoints {(vi, vj)} not in layers {(i, j)}")
            if len(proj) != alphabets[j - 1]:
                raise ValueError("projection must be total on the upper alphabet")
            if set(proj) != set(range(alphabets[i - 1])):
                raise ValueError("projection must be surjective onto the lower alphabet")
        return super().__new__(cls, layers, alphabets, edges)

    @property
    def ell(self):
        return len(self.layers)

    def edges_between(self, i, j):
        return tuple(e for e in self.edges if (e[0], e[1]) == (i, j))


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


def vertex_weight_total(pcp):
    """The weights of every (layer, vertex, cube point) of the hypergraph of pcp."""
    return sum(len(pcp.layers[layer - 1]) * 2 ** pcp.alphabets[layer - 1]
               * vertex_weight(pcp, layer) for layer in range(1, pcp.ell + 1))


class WeightedHypergraph3(namedtuple("WeightedHypergraph3", (
        "edges",            # frozenset(vertices) -> weight
        "mode"))):          # "exact" | "montecarlo" | "file"
    """Weighted edge sets over (layer, name, cube point) vertices.

    Edges are frozensets of vertices; outcomes of the sampling procedure with
    y = z collapse to 2-element sets and keep their probability mass, so the
    edge weights always total 1 in exact mode.  The vertices and their
    weights follow from the layered system (vertex_weight).
    """
    __slots__ = ()

    def edge_weight_total(self):
        return sum(self.edges.values())


def _z_factor(xval, yb, zb, delta):
    # probability of z_b given y_b and the projected x coordinate
    if xval == 1:
        return Fraction(1) if zb == -yb else Fraction(0)
    return (1 - delta) if zb == yb else delta


def build_weighted_hypergraph(pcp, delta, mode="exact", samples=None, seed=None,
                              budget=DEFAULT_BUDGET):
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

    if mode == "exact":
        edges = {}
        for (i, j), prob in dist.items():
            if prob == 0:
                continue
            es = pair_edges[(i, j)]
            si, sj = pcp.alphabets[i - 1], pcp.alphabets[j - 1]
            check_budget(2 ** (si + 2 * sj), budget, "outcomes per edge")
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
        return WeightedHypergraph3(edges=edges, mode="exact")

    if mode == "montecarlo":
        if samples is None or samples < 1:
            raise ValueError(f"montecarlo mode needs at least 1 sample, got {samples}")
        return WeightedHypergraph3(
            mode="montecarlo", edges=_sample_edges(pcp, dist, pair_edges, delta, samples, seed))

    raise ValueError(f"unknown mode {mode!r}")


def _sample_edges(pcp, dist, pair_edges, delta, samples, seed):
    """Empirical edge frequencies of `samples` seeded draws.

    Each draw takes, from one random.Random(seed) stream: random() for the
    layer pair (the first whose cumulative probability exceeds it), choice()
    of an edge of that pair, choice((1, -1)) for each coordinate of x and
    then of y, and for each coordinate b of z, random() < 1 - delta (keep
    y_b) when x is -1 at proj[b]; z_b = -y_b without a draw otherwise.
    choice(seq) is seq[_randbelow(len(seq))], and _randbelow(n) repeats
    getrandbits(n.bit_length()) until the value is below n, so the calls
    below consume the same words and give the same draws.
    """
    rng = random.Random(seed)
    getrandbits, draw = rng.getrandbits, rng.random
    # random() is m / 2**53 for an integer m, so r < acc exactly when
    # r < ceil(acc * 2**53) / 2**53, a double
    bounds, pairs = [], []
    acc = Fraction(0)
    for pair, p in sorted((pair, p) for pair, p in dist.items() if p > 0):
        acc += p
        bounds.append(math.ceil(acc * 2 ** 53) / 2 ** 53)
        n = len(pair_edges[pair])
        si, sj = (pcp.alphabets[layer - 1] for layer in pair)
        pairs.append((pair, pair_edges[pair], n, n.bit_length(), si, range(si + sj)))
    keep = 1 - float(delta)
    counts = {}
    for _ in range(samples):
        pair, es, n, k, si, xys = pairs[bisect_right(bounds, draw())]
        e = getrandbits(k)
        while e >= n:
            e = getrandbits(k)
        # x then y as bits: 0 is +1 and 1 is -1, the index choice((1, -1)) drew
        xy = []
        for _ in xys:
            v = getrandbits(2)
            while v > 1:
                v = getrandbits(2)
            xy.append(v)
        proj = es[e][4]
        key = (pair, e, *xy, *[1 - yb if not xy[proj[b]] or draw() >= keep else yb
                               for b, yb in enumerate(xy[si:])])
        counts[key] = counts.get(key, 0) + 1
    # fold outcomes into edge sets: swapping y and z, or y = z, gives the same set
    edges = {}
    for ((i, j), e, *bits), count in counts.items():
        vi, vj = pair_edges[(i, j)][e][2:4]
        si, sj = pcp.alphabets[i - 1], pcp.alphabets[j - 1]
        signs = [1 - 2 * v for v in bits]
        x, y, z = tuple(signs[:si]), tuple(signs[si:si + sj]), tuple(signs[si + sj:])
        t = frozenset({(i, vi, x), (j, vj, y), (j, vj, z)})
        edges[t] = edges.get(t, 0) + count
    return {t: Fraction(count, samples) for t, count in edges.items()}


def _sorted_edges(edges):
    """Edge items ordered by their sorted vertex reprs, and each vertex's repr."""
    reprs = {v: repr(v) for v in {v for t in edges for v in t}}
    return sorted(edges.items(), key=lambda kv: sorted(map(reprs.__getitem__, kv[0]))), reprs


class CoverCheck(namedtuple("CoverCheck", (
        "cover", "all_hit", "weight",
        "witness"))):       # a missed edge, when all_hit is False
    __slots__ = ()


def completeness_cover_check(pcp, hg, assignment):
    """Half-cube cover induced by an assignment, and whether it hits everything.

    The cover keeps every (layer, vertex, x) with x = -1 at the assigned
    symbol; its weight is exactly 1/2.  For an assignment satisfying every
    projection edge the cover intersects every positive-weight edge of the
    hypergraph; otherwise the first missed edge is returned as a witness.
    """
    cover = set()
    weight = Fraction(0)
    for layer in range(1, pcp.ell + 1):
        for name in pcp.layers[layer - 1]:
            if (layer, name) not in assignment:
                raise ValueError(f"assignment misses vertex {(layer, name)}")
            sym = assignment[(layer, name)]
            if not 0 <= sym < pcp.alphabets[layer - 1]:
                raise ValueError(f"assignment symbol {sym} out of range for layer {layer}")
            for x in _cube(pcp.alphabets[layer - 1]):
                if x[sym] == -1:
                    cover.add((layer, name, x))
                    weight += vertex_weight(pcp, layer)
    witness = None
    all_hit = True
    for t, w in _sorted_edges(hg.edges)[0]:
        if w > 0 and not (t & cover):
            all_hit = False
            witness = t
            break
    return CoverCheck(cover=frozenset(cover), all_hit=all_hit, weight=weight,
                      witness=witness)


# ---------------------------------------------------------------------------
# densification
# ---------------------------------------------------------------------------

class SimpleHypergraph(namedtuple("SimpleHypergraph", (
        "pairs",            # the distinct drawn (vertex, coordinate) pairs, by repr
        "edges",            # per kept edge, in output order, its pair ranks ascending
        "b", "source_edges",
        "replicas",         # edges emitted before duplicate deletion
        "deleted"))):
    """A densified hypergraph: its drawn pairs and its kept edges as pair ranks."""
    __slots__ = ()


def densify(hg, b, c, seed=None):
    """Replicate each weighted edge floor(c*w) times into V x [b] and
    delete every triple that appears more than once.

    Replicas draw one coordinate per vertex, rng.randrange(b) from a single
    random.Random(seed) stream, walking the edges and each edge's vertices
    in a deterministic order, so the output is reproducible from
    (b, c, seed).  A replica's pairs fix its vertex set and so its source
    edge: duplicates never cross source edges.  So one Counter of coordinate
    tuples per source edge finds the replicas drawn once, which are kept.
    The pairs of every replica, deleted ones included, are ranked by repr at
    the end, and the kept edges become tuples of ascending ranks, sorted.
    More than DEFAULT_BUDGET replicas in all are refused before any draw.
    """
    if b < 1 or c < 1:
        raise ValueError("need b >= 1 and c >= 1")
    ordered, reprs = _sorted_edges(hg.edges)
    copies = [math.floor(c * Fraction(w)) for _, w in ordered]
    replicas = sum(copies)
    check_budget(replicas, DEFAULT_BUDGET, "replicas")
    stream = _randrange_stream(random.Random(seed), b)
    pairs, kept = set(), []
    for (t, _), n in zip(ordered, copies):
        members = sorted(t, key=reprs.__getitem__)
        draws = islice(stream, n * len(members))
        # zip() of no iterators yields nothing: the replicas of an empty edge are all ()
        counts = Counter(zip(*[draws] * len(members))) if members else Counter({(): n})
        for coords, count in counts.items():
            pairs.update(zip(members, coords))
            if count == 1:
                kept.append((members, coords))
    found = sorted(pairs, key=lambda p: f"({reprs[p[0]]}, {p[1]!r})")    # repr(p)
    rank = {p: i for i, p in enumerate(found)}
    edges = sorted(tuple(sorted(map(rank.__getitem__, zip(members, coords))))
                   for members, coords in kept)
    return SimpleHypergraph(pairs=tuple(found), edges=tuple(edges), b=b,
                            source_edges=len(hg.edges), replicas=replicas,
                            deleted=replicas - len(edges))


def _randrange_stream(rng, n):
    """rng.randrange(n) call after call, without end: randrange(n) repeats
    getrandbits(n.bit_length()) until the value is below n, here 1024 at a time."""
    k = n.bit_length()
    while True:
        yield from [x for x in map(rng.getrandbits, [k] * 1024) if x < n]


def retained_count_bound(c, m, b):
    """The with-probability-0.9 lower bound c - m - 10 c^2 / b^3 on kept edges."""
    return c - m - Fraction(10 * c * c, b ** 3)


def cover_transfers(cover, dense):
    """True when cover x [b] hits every densified edge."""
    hit = [v in cover for v, _ in dense.pairs]
    return all(any(map(hit.__getitem__, row)) for row in dense.edges)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _cube_token(x):
    return "".join("+" if v == 1 else "-" for v in x)


def vertex_token(v):
    layer, name, x = v
    return f"{layer}:{name}:{_cube_token(x)}"


def parse_vertex_token(tok):
    layer, name, cube = tok.split(":")
    if cube.strip("+-"):
        raise ValueError(f"hypercube point {cube!r} is not a string of + and -")
    return (int(layer), name, tuple(1 if ch == "+" else -1 for ch in cube))


def write_pcp(pcp, fh):
    fh.write(f"pcp {pcp.ell}\n")
    for layer in range(1, pcp.ell + 1):
        names = " ".join(str(v) for v in pcp.layers[layer - 1])
        fh.write(f"layer {layer} {pcp.alphabets[layer - 1]} {names}\n")
    for (i, j, vi, vj, proj) in pcp.edges:
        fh.write(f"edge {i} {j} {vi} {vj} {' '.join(map(str, proj))}\n")


def read_pcp(fh):
    ell, = parse_header(fh.readline(), "pcp ell")
    layers, edges = {}, []      # layer index -> (alphabet size, vertex names)

    def parse(parts):
        if len(parts) < {"layer": 3, "edge": 5}.get(parts[0], 1):
            raise ValueError(f"{parts[0]} line has too few fields")
        if parts[0] == "layer":
            idx = int(parts[1])
            if not 1 <= idx <= ell:
                raise ValueError(f"layer index {idx} outside 1..{ell}")
            if idx in layers:
                raise ValueError(f"second line for layer {idx}")
            layers[idx] = (int(parts[2]), tuple(parts[3:]))
        elif parts[0] == "edge":
            i, j = int(parts[1]), int(parts[2])
            vi, vj = parts[3], parts[4]
            proj = tuple(int(x) for x in parts[5:])
            edges.append((i, j, vi, vj, proj))
        else:
            raise ValueError(f"unknown pcp line {parts[0]!r}")

    parse_lines(fh, "pcp", parse)
    # every index is in 1..ell: fewer lines than ell means a layer is missing
    if len(layers) < ell:
        raise ValueError("missing layer lines")
    order = [layers[idx] for idx in range(1, ell + 1)]
    return LayeredPcp(layers=tuple(names for _, names in order),
                      alphabets=tuple(size for size, _ in order), edges=tuple(edges))


def write_weighted_hypergraph(hg, fh):
    fh.write("whg3\n")
    token = functools.cache(vertex_token)
    for t, w in _sorted_edges(hg.edges)[0]:
        toks = " ".join(sorted(map(token, t)))
        fh.write(f"{w} {toks}\n")


def _whg3_edge(parts):
    w = Fraction(parts[0])
    if w < 0:
        raise ValueError("negative weight")
    return frozenset(map(parse_vertex_token, parts[1:])), w


def read_weighted_hypergraph(fh):
    parse_header(fh.readline(), "whg3")
    edges = {}
    for t, w in parse_lines(fh, "whg3", _whg3_edge):
        edges[t] = edges.get(t, Fraction(0)) + w
    return WeightedHypergraph3(edges=edges, mode="file")


def write_simple_hypergraph(dense, fh):
    fh.write(f"hg3 {dense.b}\n")
    tokens = [f"{vertex_token(v)}@{coord}" for v, coord in dense.pairs]
    fh.writelines(" ".join(sorted(map(tokens.__getitem__, row))) + "\n"
                  for row in dense.edges)
