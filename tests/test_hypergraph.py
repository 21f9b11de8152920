import io
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest

from jchlab import (
    BudgetExceededError, LayeredPcp, WeightedHypergraph3,
    layer_pair_distribution, layer_marginal, build_weighted_hypergraph,
    completeness_cover_check, densify, retained_count_bound, cover_transfers,
    read_pcp, write_pcp, read_weighted_hypergraph, write_weighted_hypergraph,
    write_simple_hypergraph,
)
from jchlab import hypergraph
from jchlab.hypergraph import vertex_token, vertex_weight_total

SINGLETON = LayeredPcp(layers=(("a",), ("b",)), alphabets=(1, 1),
                       edges=((1, 2, "a", "b", (0,)),))
TWO_SYMBOL = LayeredPcp(layers=(("u",), ("v",)), alphabets=(2, 2),
                        edges=((1, 2, "u", "v", (0, 1)),))


def test_layer_marginal_3():
    assert layer_marginal(3) == (Fraction(4, 5), Fraction(1, 5), 0)


def test_layer_pairs_2():
    assert layer_pair_distribution(2) == {(1, 2): Fraction(1)}


def test_layer_pairs_sum_to_one():
    for ell in (2, 3, 4, 7):
        dist = layer_pair_distribution(ell)
        assert sum(dist.values()) == 1
        assert all(p >= 0 for p in dist.values())
        assert layer_marginal(ell)[-1] == 0
    with pytest.raises(ValueError):
        layer_pair_distribution(1)


def test_pcp_validation():
    with pytest.raises(ValueError):
        LayeredPcp(layers=(("a",), ("b",)), alphabets=(2, 2),
                   edges=((2, 1, "b", "a", (0, 1)),))         # i >= j
    with pytest.raises(ValueError):
        LayeredPcp(layers=(("a",), ("b",)), alphabets=(2, 2),
                   edges=((1, 2, "a", "b", (0, 0)),))         # not surjective
    with pytest.raises(ValueError):
        LayeredPcp(layers=(("a",), ("b",)), alphabets=(2, 2),
                   edges=((1, 2, "a", "b", (0,)),))           # not total


def test_singleton_exact_weights():
    # delta=0, singleton alphabets: z is forced to -y when x=1, to y when x=-1
    hg = build_weighted_hypergraph(SINGLETON, 0)
    w = {tuple(sorted(t, key=repr)): wt for t, wt in hg.edges.items()}
    a_pos, a_neg = (1, "a", (1,)), (1, "a", (-1,))
    b_pos, b_neg = (2, "b", (1,)), (2, "b", (-1,))
    assert w[tuple(sorted((a_neg, b_neg), key=repr))] == Fraction(1, 4)
    assert w[tuple(sorted((a_neg, b_pos), key=repr))] == Fraction(1, 4)
    assert w[tuple(sorted((a_pos, b_neg, b_pos), key=repr))] == Fraction(1, 2)
    assert hg.edge_weight_total() == 1
    assert vertex_weight_total(SINGLETON) == 1


def test_exact_weights_sum_to_one_general():
    for delta in (0, Fraction(1, 4), Fraction(1, 2)):
        hg = build_weighted_hypergraph(TWO_SYMBOL, delta)
        assert hg.edge_weight_total() == 1
        assert all(wt >= 0 for wt in hg.edges.values())


def test_exact_budget():
    big = LayeredPcp(layers=(("u",), ("v",)), alphabets=(8, 8),
                     edges=((1, 2, "u", "v", tuple(range(8))),))
    with pytest.raises(BudgetExceededError):
        build_weighted_hypergraph(big, 0, budget=1000)


def test_exact_budget_none_is_no_cap():
    assert build_weighted_hypergraph(TWO_SYMBOL, 0, budget=None) == \
        build_weighted_hypergraph(TWO_SYMBOL, 0)


def test_missing_layer_pair_edges_rejected():
    three = LayeredPcp(layers=(("a",), ("b",), ("c",)), alphabets=(1, 1, 1),
                       edges=((1, 2, "a", "b", (0,)),))   # no (1,3), (2,3) edges
    with pytest.raises(ValueError):
        build_weighted_hypergraph(three, 0)


def test_montecarlo_matches_exact():
    samples = 100_000
    exact = build_weighted_hypergraph(SINGLETON, 0)
    mc = build_weighted_hypergraph(SINGLETON, 0, mode="montecarlo",
                                   samples=samples, seed=7)
    for t, w in exact.edges.items():
        p = float(w)
        sigma = math.sqrt(p * (1 - p) / samples)
        assert abs(float(mc.edges.get(t, 0)) - p) <= 3 * sigma


def test_completeness_cover_satisfying():
    hg = build_weighted_hypergraph(TWO_SYMBOL, Fraction(1, 8))
    chk = completeness_cover_check(TWO_SYMBOL, hg, {(1, "u"): 1, (2, "v"): 1})
    assert chk.all_hit and chk.weight == Fraction(1, 2)


def test_completeness_cover_violating():
    hg = build_weighted_hypergraph(TWO_SYMBOL, 0)
    chk = completeness_cover_check(TWO_SYMBOL, hg, {(1, "u"): 0, (2, "v"): 1})
    assert not chk.all_hit
    assert chk.witness is not None
    # the witness really is missed: all its vertices are +1 at assigned symbols
    assignment = {(1, "u"): 0, (2, "v"): 1}
    for layer, name, x in chk.witness:
        assert x[assignment[(layer, name)]] == 1


def test_completeness_cover_vacuous_on_empty_edges():
    hg = WeightedHypergraph3(edges={}, mode="exact")
    chk = completeness_cover_check(SINGLETON, hg, {(1, "a"): 0, (2, "b"): 0})
    assert chk.all_hit and chk.weight == Fraction(1, 2)


def test_cover_check_validates_assignment():
    hg = build_weighted_hypergraph(SINGLETON, 0)
    with pytest.raises(ValueError):
        completeness_cover_check(SINGLETON, hg, {(1, "a"): 0})
    with pytest.raises(ValueError):
        completeness_cover_check(SINGLETON, hg, {(1, "a"): 2, (2, "b"): 0})


def four_edge_graph():
    triples = [("a", "b", "c"), ("a", "d", "e"), ("b", "d", "f"), ("c", "e", "f")]
    edges = {frozenset((1, v, (1,)) for v in t): Fraction(1, 4) for t in triples}
    return WeightedHypergraph3(edges=edges, mode="exact")


def edge_sets(dense):
    """The kept edges as frozensets of (vertex, coordinate) pairs, in output order."""
    return tuple(frozenset(dense.pairs[r] for r in row) for row in dense.edges)


def check_rank_table(dense):
    """Pairs in repr order; rows tuples of ranks, ascending, strictly increasing."""
    assert list(dense.pairs) == sorted(set(dense.pairs), key=repr)
    rows = dense.edges
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    for row in rows:
        assert all(0 <= r < len(dense.pairs) for r in row)
        assert all(x < y for x, y in zip(row, row[1:]))
    assert all(x < y for x, y in zip(rows, rows[1:]))    # sorted and simple


def test_densify_counts_and_simplicity():
    hg = four_edge_graph()
    d = densify(hg, b=8, c=181, seed=1)
    assert d.replicas == 4 * 45
    check_rank_table(d)
    assert d.replicas - d.deleted == len(d.edges)


def test_densify_determinism():
    hg = four_edge_graph()
    assert edge_sets(densify(hg, 8, 181, seed=5)) == edge_sets(densify(hg, 8, 181, seed=5))
    assert edge_sets(densify(hg, 8, 181, seed=5)) != edge_sets(densify(hg, 8, 181, seed=6))


def test_densify_b1_collapses():
    # every replica collides; edges with floor(c*w) >= 2 vanish entirely
    hg = four_edge_graph()
    d = densify(hg, b=1, c=100, seed=0)
    assert len(d.edges) == 0


def test_densify_completeness_transfer():
    hg = four_edge_graph()
    cover = {(1, "a", (1,)), (1, "f", (1,))}
    assert all(any(v in cover for v in t) for t in hg.edges)  # cover hits input
    for seed in range(10):
        d = densify(hg, b=8, c=181, seed=seed)
        assert cover_transfers(cover, d)


def test_retained_bound_formula():
    assert retained_count_bound(181, 4, 8) == 181 - 4 - Fraction(10 * 181 * 181, 512)


def test_densify_validation():
    with pytest.raises(ValueError):
        densify(four_edge_graph(), b=0, c=10)


def test_pcp_file_roundtrip():
    buf = io.StringIO()
    write_pcp(TWO_SYMBOL, buf)
    buf.seek(0)
    assert read_pcp(buf) == TWO_SYMBOL


def test_hypergraph_file_roundtrip():
    hg = build_weighted_hypergraph(TWO_SYMBOL, Fraction(1, 4))
    buf = io.StringIO()
    write_weighted_hypergraph(hg, buf)
    buf.seek(0)
    back = read_weighted_hypergraph(buf)
    assert back.edges == hg.edges


def test_negative_weight_refused():
    with pytest.raises(ValueError, match=r"whg3 line '-1/2 1:a:\+ 1:b:\+': negative weight"):
        read_weighted_hypergraph(io.StringIO("whg3\n-1/2 1:a:+ 1:b:+\n"))


def test_simple_hypergraph_file():
    d = densify(four_edge_graph(), b=4, c=20, seed=2)
    buf = io.StringIO()
    write_simple_hypergraph(d, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "hg3 4"
    assert len(lines) == 1 + len(d.edges)


# ---------------------------------------------------------------------------
# the seeded samplers against their per-draw loops
# ---------------------------------------------------------------------------

def reference_montecarlo(pcp, delta, samples, seed):
    """Monte-Carlo edge weights drawn one rng.choice / rng.random call at a time."""
    dist = layer_pair_distribution(pcp.ell)
    rng = random.Random(seed)
    cdf, acc = [], Fraction(0)
    for pair, p in sorted((pair, p) for pair, p in dist.items() if p > 0):
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
        ei, ej, vi, vj, proj = rng.choice(pcp.edges_between(i, j))
        si, sj = pcp.alphabets[i - 1], pcp.alphabets[j - 1]
        x = tuple(rng.choice((1, -1)) for _ in range(si))
        y = tuple(rng.choice((1, -1)) for _ in range(sj))
        z = tuple(-y[b] if x[proj[b]] == 1
                  else (y[b] if rng.random() < 1 - fdelta else -y[b])
                  for b in range(sj))
        t = frozenset({(i, vi, x), (j, vj, y), (j, vj, z)})
        counts[t] = counts.get(t, 0) + 1
    return {t: Fraction(c, samples) for t, c in counts.items()}


def reference_densify(hg, b, c, seed):
    """Densification drawing one rng.randrange(b) call per coordinate."""
    rng = random.Random(seed)
    ordered = sorted(hg.edges.items(), key=lambda kv: sorted(map(repr, kv[0])))
    seen = {}
    replicas = 0
    for t, w in ordered:
        for _ in range(int(math.floor(c * Fraction(w)))):
            replica = frozenset((v, rng.randrange(b)) for v in sorted(t, key=repr))
            seen[replica] = seen.get(replica, 0) + 1
            replicas += 1
    kept = tuple(sorted((t for t, cnt in seen.items() if cnt == 1),
                        key=lambda t: sorted(map(repr, t))))
    return kept, replicas


def reference_whg3(edges):
    lines = ["whg3\n"]
    for t, w in sorted(edges.items(), key=lambda kv: sorted(map(repr, kv[0]))):
        lines.append(f"{w} {' '.join(sorted(vertex_token(v) for v in t))}\n")
    return "".join(lines)


def reference_hg3(b, edges):
    lines = [f"hg3 {b}\n"]
    for t in edges:
        lines.append(" ".join(sorted(f"{vertex_token(v)}@{coord}" for v, coord in t)) + "\n")
    return "".join(lines)


def written(write, obj):
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


# pairs (1, 2) and (1, 3) carry 3 edges (choice() rejects 3 of 2-bit draws),
# pair (2, 3) carries 4 (choice() rejects 4..7 of 3-bit draws)
THREE_LAYER = LayeredPcp(
    layers=(("a0", "a1"), ("b0", "b1", "b2"), ("c0", "c1")), alphabets=(2, 3, 3),
    edges=((1, 2, "a0", "b0", (0, 1, 1)), (1, 2, "a1", "b1", (1, 0, 0)),
           (1, 2, "a0", "b2", (0, 0, 1)),
           (1, 3, "a0", "c0", (1, 0, 1)), (1, 3, "a1", "c1", (0, 1, 1)),
           (1, 3, "a1", "c0", (0, 0, 1)),
           (2, 3, "b0", "c0", (0, 1, 2)), (2, 3, "b1", "c1", (2, 1, 0)),
           (2, 3, "b2", "c0", (1, 2, 0)), (2, 3, "b2", "c1", (0, 2, 1))))
SYSTEMS = {"singleton": SINGLETON, "two-symbol": TWO_SYMBOL, "three-layer": THREE_LAYER}
DELTAS = [Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(1)]


@pytest.mark.parametrize("system", list(SYSTEMS))
@pytest.mark.parametrize("delta", DELTAS, ids=str)
@pytest.mark.parametrize("samples", [1, 7, 5000])
def test_montecarlo_matches_per_draw_loop(system, delta, samples):
    pcp = SYSTEMS[system]
    for seed in (0, 11):
        hg = build_weighted_hypergraph(pcp, delta, mode="montecarlo", samples=samples,
                                       seed=seed)
        ref = reference_montecarlo(pcp, delta, samples, seed)
        assert hg.edges == ref and list(hg.edges) == list(ref)
        assert written(write_weighted_hypergraph, hg) == reference_whg3(ref)
        if delta == 0 and samples == 5000:    # z = y where x is -1 at every proj[b]
            assert any(len(t) == 2 for t in hg.edges)


@pytest.mark.parametrize("samples", [0, -5, None])
def test_montecarlo_needs_a_sample(samples):
    with pytest.raises(ValueError):
        build_weighted_hypergraph(SINGLETON, 0, mode="montecarlo", samples=samples, seed=1)


DENSIFY_BS = [1, 2, 3, 8, 1000, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 3, 2 ** 70 + 1]


def check_densify_against_loop(b):
    # edges of 0 to 3 vertices, as a whg3 file may hold
    mixed = WeightedHypergraph3(mode="file", edges={
        frozenset(): Fraction(1, 5), frozenset({(1, "a", (1,))}): Fraction(1, 5),
        frozenset({(1, "a", (-1,)), (2, "b", (1,))}): Fraction(2, 5),
        frozenset({(1, "a", (1,)), (2, "b", (1,)), (2, "b", (-1,))}): Fraction(1, 5)})
    sources = [four_edge_graph(), build_weighted_hypergraph(THREE_LAYER, Fraction(1, 8)),
               build_weighted_hypergraph(TWO_SYMBOL, 0, mode="montecarlo", samples=50,
                                         seed=3), mixed]
    for hg in sources:
        for c in (1, 40, 700):
            for seed in (0, 5):
                dense = densify(hg, b, c, seed=seed)
                kept, replicas = reference_densify(hg, b, c, seed)
                check_rank_table(dense)
                assert edge_sets(dense) == kept
                assert (dense.b, dense.source_edges, dense.replicas, dense.deleted) == \
                    (b, len(hg.edges), replicas, replicas - len(kept))
                assert written(write_simple_hypergraph, dense) == reference_hg3(b, kept)


@pytest.mark.parametrize("b", DENSIFY_BS)
def test_densify_matches_per_draw_loop(b):
    check_densify_against_loop(b)


@pytest.mark.parametrize("n", [1, 3, 8, 2 ** 32 - 1, 2 ** 32 + 3, 2 ** 70 + 1])
def test_randrange_stream_matches_per_draw_loop(n):
    counts = [0, 1, 5, 0, 300, 2, 0]
    rng = random.Random(7)
    values = iter([rng.randrange(n) for _ in range(sum(counts))])
    stream = hypergraph._randrange_stream(random.Random(7), n)
    for count in counts:
        assert list(islice(stream, count)) == list(islice(values, count))


def test_densify_memory_stays_within_blocks():
    # 199,648 replicas of the 832-edge THREE_LAYER hypergraph, counted one source
    # edge at a time, traced a 10.3 MiB peak
    hg = build_weighted_hypergraph(THREE_LAYER, Fraction(1, 8))
    tracemalloc.start()
    try:
        dense = densify(hg, 8, 200_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense.replicas == 199_648
    assert peak < 16 * 2 ** 20


class BoundaryRandom(random.Random):
    """Every third random() returns one of `values`, the others are the real stream."""

    values = ()
    calls = 0

    def random(self):
        self.calls += 1
        if self.calls % 3:
            return super().random()
        return self.values[self.calls // 3 % len(self.values)]

    def getrandbits(self, k):     # keeps choice() on getrandbits, as in random.Random
        return super().getrandbits(k)


def test_montecarlo_boundary_draws(monkeypatch):
    # four layers: the cumulative pair probabilities 3/14, 3/7 and 11/14 round
    # down as doubles, so a draw just below one of them tells r < acc from
    # r < float(acc); 7/8 = 1 - delta is a z draw exactly at the keep threshold
    four = LayeredPcp(layers=(("a",), ("b",), ("c",), ("d",)), alphabets=(1, 1, 1, 1),
                      edges=tuple((i, j, "abcd"[i - 1], "abcd"[j - 1], (0,))
                                  for i in range(1, 5) for j in range(i + 1, 5)))
    accs = [sum(list(layer_pair_distribution(4).values())[:n]) for n in range(1, 6)]
    BoundaryRandom.values = tuple(sorted(
        {math.floor(a * 2 ** 53) / 2 ** 53 for a in accs} | {0.875}))
    monkeypatch.setattr(random, "Random", BoundaryRandom)
    delta = Fraction(1, 8)
    hg = build_weighted_hypergraph(four, delta, mode="montecarlo", samples=3000, seed=4)
    assert hg.edges == reference_montecarlo(four, delta, 3000, 4)
