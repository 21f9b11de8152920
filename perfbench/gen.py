"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed writes
byte-identical files, another seed writes different ones.  Where a job's
answer is pinned, the seed only relabels a fixed base instance or picks
where planted structure sits, so the pinned optimum holds for every seed
while the witness, the masks and the file bytes change.
"""

import random
from itertools import combinations


def write_jc(path, n, z, y, k, edges):
    """The `jc n z y k` instance format, one sorted edge per line."""
    lines = [f"jc {n} {z} {y} {k}\n"]
    lines += [" ".join(map(str, e)) + "\n" for e in sorted(edges)]
    with open(path, "w") as fh:
        fh.writelines(lines)


def base_edges(n, z, m, base_seed):
    """A fixed random instance: m distinct z-subsets of [n]."""
    rng = random.Random(base_seed)
    return rng.sample(list(combinations(range(1, n + 1), z)), m)


def relabeled(edges, n, seed):
    """The edges under a seeded permutation of [n].

    Coverage optima, clustering costs of eta=1 reductions and every count
    the benchmark pins are invariant under relabeling.
    """
    perm = list(range(1, n + 1))
    random.Random(seed).shuffle(perm)
    return [tuple(sorted(perm[v - 1] for v in e)) for e in edges]


def planted_cover(n, groups, extra, seed):
    """Edges P_g + {c} for disjoint planted (z-1)-sets P_g, `extra` c each.

    The c are drawn (seeded) from the elements outside every P_g.  With
    extra >= 3 a non-planted (z-1)-set covers at most two of these edges
    (one when z >= 4), so the planted sets are the only full cover with
    len(groups) sets and no cover with fewer exists.  The planted sets are
    fixed, so the lexicographic rank of the only full cover is too.
    """
    used = {v for g in groups for v in g}
    free = [v for v in range(1, n + 1) if v not in used]
    rng = random.Random(seed)
    return [tuple(sorted(g + (c,))) for g in groups
            for c in rng.sample(free, extra)]


def toy_pcp(path, seed):
    """The two-symbol identity system of the hypergraph demo.

    The seed names the two vertices.  With one vertex per layer the names
    never decide an ordering, so every pinned hypergraph count holds.
    """
    u, v = f"u{seed}", f"v{seed}"
    with open(path, "w") as fh:
        fh.write(f"pcp 2\nlayer 1 2 {u}\nlayer 2 2 {v}\nedge 1 2 {u} {v} 0 1\n")


def layered_pcp(pcp_path, assignment_path, sizes, alphabets, edges_per_pair,
                seed):
    """A seeded layered projection system with a planted satisfying assignment.

    Each layer pair (i, j), i < j, gets `edges_per_pair` distinct vertex
    pairs.  Every projection is surjective and maps the upper vertex's
    planted symbol to the lower vertex's, so the planted assignment
    satisfies every edge and its half-cube cover must hit every hypergraph
    edge.
    """
    rng = random.Random(seed)
    ell = len(sizes)
    names = [[f"x{i + 1}_{v}" for v in range(size)] for i, size in enumerate(sizes)]
    sigma = {(i + 1, name): rng.randrange(alphabets[i])
             for i in range(ell) for name in names[i]}
    lines = [f"pcp {ell}\n"]
    for i in range(ell):
        lines.append(f"layer {i + 1} {alphabets[i]} {' '.join(names[i])}\n")
    for i in range(1, ell + 1):
        for j in range(i + 1, ell + 1):
            pairs = rng.sample([(a, b) for a in names[i - 1] for b in names[j - 1]],
                               edges_per_pair)
            for vi, vj in sorted(pairs):
                proj = _surjection(rng, alphabets[j - 1], alphabets[i - 1],
                                   sigma[(j, vj)], sigma[(i, vi)])
                lines.append(f"edge {i} {j} {vi} {vj} {' '.join(map(str, proj))}\n")
    with open(pcp_path, "w") as fh:
        fh.writelines(lines)
    with open(assignment_path, "w") as fh:
        for (layer, name), sym in sorted(sigma.items()):
            fh.write(f"{layer} {name} {sym}\n")


def _surjection(rng, upper, lower, src, dst):
    # a map range(upper) -> range(lower) that hits every lower symbol and
    # sends src to dst; needs upper >= lower
    while True:
        proj = [rng.randrange(lower) for _ in range(upper)]
        proj[src] = dst
        if len(set(proj)) == lower:
            return tuple(proj)
