"""The three workloads: seeded inputs, the job list and each job's output check.

A job is one `jchlab` command.  Its check reads the command's text records
(and the files it wrote) and raises CheckError on any mismatch.  Checks use
the paper's closed forms where one exists and otherwise values pinned from
the first benchmarked commit; `gen` keeps every pinned value independent of
the seed.
"""

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import gen


class CheckError(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckError(msg)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    check: object = None        # check(records, workdir) or None
    outputs: tuple = ()         # files the job writes, relative to workdir
    exit: int = 0               # expected exit status


@dataclass(frozen=True)
class Workload:
    setup: object               # setup(workdir, seed) writes the inputs
    jobs: object                # jobs(seed) -> tuple of Job


# ---------------------------------------------------------------------------
# reading command output
# ---------------------------------------------------------------------------

def parse_records(text):
    """Text-format records: one `key=value ...` dict per line."""
    out = []
    for line in text.splitlines():
        if line.strip():
            out.append(dict(item.split("=", 1) for item in line.split(" ")))
    return out


def record(records, kind):
    for rec in records:
        if rec.get("record") == kind:
            return rec
    raise CheckError(f"no record={kind} in output")


def all_records(records, kind):
    return [rec for rec in records if rec.get("record") == kind]


def int_lists(text):
    """A JSON-style list of lists of ints, e.g. [[1,2],[3,4]]."""
    return [tuple(int(v) for v in part.split(",") if v)
            for part in text.strip("[]").split("],[")] if text != "[]" else []


def close(text, expected, rel=1e-9):
    return abs(float(text) - expected) <= rel * max(1.0, abs(expected))


def count_lines(workdir, name):
    with open(os.path.join(workdir, name), "rb") as fh:
        return sum(1 for _ in fh)


def read_edges(workdir, name):
    with open(os.path.join(workdir, name)) as fh:
        header = fh.readline().split()
        edges = [tuple(map(int, line.split())) for line in fh if line.strip()]
    return tuple(map(int, header[1:])), edges


def covered_by(edges, sets):
    return sum(1 for e in edges if any(set(s) <= set(e) for s in sets))


# ---------------------------------------------------------------------------
# check builders
# ---------------------------------------------------------------------------

def check_fields(kind, /, **want):
    """Exact string match of record fields."""
    def check(records, workdir):
        rec = record(records, kind)
        for key, value in want.items():
            expect(rec.get(key) == str(value),
                   f"{kind}.{key} = {rec.get(key)!r}, expected {value!r}")
    return check


def check_brute_coverage(instance, covered):
    """Pinned optimum; the witness is k distinct y-sets that cover exactly it."""
    def check(records, workdir):
        (n, z, y, k), edges = read_edges(workdir, instance)
        rec = record(records, "solution")
        expect(rec["covered"] == str(covered) and rec["total"] == str(len(edges)),
               f"covered {rec['covered']}/{rec['total']}, expected {covered}/{len(edges)}")
        wit = int_lists(rec["witness"])
        expect(len(set(wit)) == k and all(len(s) == y and 1 <= min(s) and max(s) <= n
                                          for s in wit), f"bad witness {wit}")
        expect(covered_by(edges, wit) == covered, f"witness {wit} does not cover {covered}")
    return check


def int_lists_text(groups):
    """The CLI's text form of a list of int tuples, e.g. [[1,2],[3,4]]."""
    return "[" + ",".join("[" + ",".join(map(str, g)) + "]" for g in groups) + "]"


def check_optimum(cost, k, rel=None, points=None):
    """Pinned optimum cost (exact unless rel is given).

    The witness is k distinct center labels, or for a continuous optimum
    (points given) a partition of the points into at most k blocks.
    """
    def check(records, workdir):
        rec = record(records, "optimum")
        if rel is None:
            expect(rec["cost"] == str(cost), f"cost {rec['cost']}, expected {cost}")
        else:
            expect(close(rec["cost"], cost, rel), f"cost {rec['cost']}, expected {cost}")
        wit = int_lists(rec["witness"])
        if points is None:
            expect(len(set(wit)) == len(wit) == k, f"bad witness {wit}")
        else:
            expect(len(wit) <= k and sorted(v for b in wit for v in b) == list(range(points)),
                   f"witness {wit} is not a partition of {points} points")
    return check


def check_pointset(points, centers, dim, base_distance, path, rel=None):
    def check(records, workdir):
        rec = record(records, "pointset")
        want_centers = centers(workdir) if callable(centers) else centers
        for key, value in (("points", points), ("centers", want_centers), ("dim", dim)):
            expect(rec[key] == str(value), f"pointset.{key} = {rec[key]}, expected {value}")
        if rel is None:
            expect(rec["base_distance"] == str(base_distance),
                   f"base distance {rec['base_distance']}, expected {base_distance}")
        else:
            expect(close(rec["base_distance"], base_distance, rel),
                   f"base distance {rec['base_distance']}, expected {base_distance}")
        expect(count_lines(workdir, path) == 1 + points + want_centers,
               f"{path} has the wrong number of rows")
    return check


def check_certified(q, t, s, ratio, exact=False):
    """Exhaustive verification: all C(q,t)*C(q,s) pairs and the closed-form ratio."""
    def check(records, workdir):
        rec = record(records, "certification")
        want = math.comb(q, t) * math.comb(q, s)
        expect(rec["pairs_checked"] == str(want),
               f"pairs_checked {rec['pairs_checked']}, expected {want}")
        if exact:
            expect(rec["certified_ratio"] == str(ratio),
                   f"certified ratio {rec['certified_ratio']}, expected {ratio}")
        else:
            expect(close(rec["certified_ratio"], ratio),
                   f"certified ratio {rec['certified_ratio']}, expected {ratio}")
    return check


def check_sdp(ns, sweeps):
    """Objectives 2*C(n,4) for SDP and LP, a tiny residual, pinned integral sweeps."""
    def check(records, workdir):
        rows = all_records(records, "instance")
        expect([r["n"] for r in rows] == [str(n) for n in ns], "wrong instance rows")
        for r in rows:
            obj = str(2 * math.comb(int(r["n"]), 4))
            expect(r["sdp_objective"] == obj and r["lp_objective"] == obj,
                   f"n={r['n']}: objectives {r['sdp_objective']}/{r['lp_objective']}, "
                   f"expected {obj}")
            expect(float(r["sdp_max_residual"]) <= 1e-8, "SDP residual above 1e-8")
        got = [(int(r["n"]), int(r["k_prime"]), int(r["uncovered"]), r["method"])
               for r in all_records(records, "integral")]
        expect(got == sweeps, f"integral sweeps {got}, expected {sweeps}")
    return check


def check_refusal(records, workdir):
    expect(records == [], "a refused command printed records")


def check_lines(path, lines):
    def check(records, workdir):
        expect(count_lines(workdir, path) == lines, f"{path} should have {lines} lines")
    return check


def both(*checks):
    def check(records, workdir):
        for c in checks:
            c(records, workdir)
    return check


def halfshift_ratio(q, p):
    # distance^p is (q-j)/2^p + j*(3/2)^p with j = |S \ T|; j=0 on edges, j=1 at the floor
    return ((q - 1 + 3 ** p) / q) ** (1.0 / p)


def l2_scaled_ratio(t, s):
    return math.sqrt(1.0 + 1.0 / (math.sqrt(t * s) - s))


# ---------------------------------------------------------------------------
# readme: the README command block, at README sizes
# ---------------------------------------------------------------------------

def readme_setup(workdir, seed):
    gen.toy_pcp(os.path.join(workdir, "toy.pcp"), seed)


def readme_jobs(seed):
    alpha = 0.6321
    return (
        Job("gen-jc", ("gen-jc", "--kind", "complete", "--n", "6", "--z", "3", "--y", "2",
                       "--k", "3", "-o", "inst.jc"),
            both(check_fields("instance", edges=20), check_lines("inst.jc", 21)),
            outputs=("inst.jc",)),
        Job("solve-brute", ("solve-jc", "-i", "inst.jc", "--alg", "brute"),
            check_fields("solution", covered=12, total=20, complete=False,
                         witness="[[1,2],[3,4],[5,6]]")),
        Job("solve-fpt", ("solve-jc", "-i", "inst.jc", "--alg", "fpt"),
            check_fields("decision", full_cover=False)),
        Job("embed", ("embed", "--metric", "l1", "--q", "5", "--t", "3", "--s", "2",
                      "-o", "realization.txt"),
            both(check_fields("realization", beta=1, lambda_claimed=Fraction(3 - 2 + 2, 3 - 2)),
                 check_lines("realization.txt", math.comb(5, 3) + math.comb(5, 2))),
            outputs=("realization.txt",)),
        Job("verify-embed", ("verify-embed", "--metric", "l2", "--q", "5", "--t", "3",
                             "--s", "2"),
            check_certified(5, 3, 2, l2_scaled_ratio(3, 2))),
        # the README line itself: q^eta = 5 < n = 6, a usage error
        Job("reduce-q5", ("reduce", "-i", "inst.jc", "--mode", "discrete", "--metric", "l1",
                          "--q", "5", "--eta", "1", "-o", "pts.txt"),
            check_refusal, exit=2),
        Job("reduce-q7", ("reduce", "-i", "inst.jc", "--mode", "discrete", "--metric", "l1",
                          "--q", "7", "--eta", "1", "-o", "pts.txt"),
            check_pointset(20, 15, 49, 7, "pts.txt"), outputs=("pts.txt",)),
        Job("cost", ("cost", "-i", "pts.txt", "--centers", "1,2", "3,4"),
            check_fields("cost", total=308)),
        Job("brute-opt", ("brute-opt", "-i", "pts.txt", "--mode", "discrete"),
            check_fields("optimum", cost=252, witness="[[1,2],[3,4],[5,6]]")),
        Job("sdp-gap", ("sdp-gap", "--n", "6", "8", "--t", "5"),
            check_sdp([6, 8], [(6, 3, 0, "exact"), (6, 3, 0, "exact"), (6, 3, 0, "exact"),
                               (8, 5, 12, "exact"), (8, 5, 12, "exact"),
                               (8, 6, 6, "exact")])),
        Job("hvc-build", ("hvc-build", "-i", "toy.pcp", "--delta", "1/8", "-o", "toy.whg3"),
            check_fields("hypergraph", edges=20, edge_weight_total=1, vertex_weight_total=1),
            outputs=("toy.whg3",)),
        Job("densify", ("densify", "-i", "toy.whg3", "--b", "8", "--c", "181", "--seed", "1",
                        "-o", "toy.hg3"),
            both(check_fields("densified", replicas=168, kept=166, deleted=2,
                              meets_bound=True),
                 check_lines("toy.hg3", 167)),
            outputs=("toy.hg3",)),
        Job("factors", ("factors", "--p", "1", "--delta", "1", "--alpha", str(alpha)),
            check_zetas(3, alpha)),
        Job("turan", ("turan", "--z", "4"),
            check_fields("turan", uncovered_fraction=turan(4))),
    )


def check_zetas(gamma, alpha, rel=None):
    """zeta1 = 1 + (1-a)(g-1), zeta2 = 1 + (1-a)(g^2-1)."""
    def check(records, workdir):
        rec = record(records, "factors")
        g = float(rec["gamma"])
        if rel is None:
            expect(rec["gamma"] == str(gamma), f"gamma {rec['gamma']}, expected {gamma}")
        else:
            expect(close(rec["gamma"], gamma, rel), f"gamma {rec['gamma']}, expected {gamma}")
        expect(close(rec["zeta1"], 1 + (1 - alpha) * (g - 1)), f"zeta1 {rec['zeta1']}")
        expect(close(rec["zeta2"], 1 + (1 - alpha) * (g * g - 1)), f"zeta2 {rec['zeta2']}")
    return check


def turan(z):
    w = math.comb(z, 2) - 1
    out = Fraction(1)
    for i in range(1, z + 1):
        out *= 1 - Fraction(i - 1, w)
    return out


# ---------------------------------------------------------------------------
# search: the exact-enumeration oracles
# ---------------------------------------------------------------------------

# One full cover, planted at candidate pairs whose collection sits about half
# way through the lexicographic scan, so the early exit always runs the same
# share of C(78, 4) = 1,426,425 collections.
EARLY_GROUPS = ((2, 3), (5, 6), (8, 9), (11, 12))
FPT_GROUPS = tuple((v, v + 1, v + 2) for v in range(1, 37, 4))


def search_setup(workdir, seed):
    p = lambda name: os.path.join(workdir, name)
    gen.write_jc(p("early.jc"), 13, 3, 2, 4, gen.planted_cover(13, EARLY_GROUPS, 3, seed))
    gen.write_jc(p("scan13.jc"), 13, 3, 2, 4,
                 gen.relabeled(gen.base_edges(13, 3, 50, 1), 13, seed))
    gen.write_jc(p("scan10.jc"), 10, 3, 2, 4,
                 gen.relabeled(gen.base_edges(10, 3, 40, 2), 10, seed))
    fpt = gen.planted_cover(38, FPT_GROUPS, 3, seed)
    gen.write_jc(p("fpt-yes.jc"), 38, 4, 3, len(FPT_GROUPS), fpt)
    gen.write_jc(p("fpt-no.jc"), 38, 4, 3, len(FPT_GROUPS) - 1, fpt)
    gen.write_jc(p("n6.jc"), 6, 3, 2, 3, gen.relabeled(gen.base_edges(6, 3, 10, 3), 6, seed))
    gen.write_jc(p("cont.jc"), 9, 3, 2, 3, gen.relabeled(gen.base_edges(9, 3, 9, 4), 9, seed))


def search_jobs(seed):
    return (
        Job("brute-early-exit", ("solve-jc", "-i", "early.jc", "--alg", "brute"),
            check_fields("solution", complete=True, witness=int_lists_text(EARLY_GROUPS))),
        Job("brute-1.4M", ("solve-jc", "-i", "scan13.jc", "--alg", "brute"),
            check_brute_coverage("scan13.jc", 16)),
        Job("brute-149k", ("solve-jc", "-i", "scan10.jc", "--alg", "brute"),
            check_brute_coverage("scan10.jc", 18)),
        Job("fpt-yes", ("solve-jc", "-i", "fpt-yes.jc", "--alg", "fpt"),
            check_fields("decision", full_cover=True, witness=int_lists_text(FPT_GROUPS))),
        Job("fpt-no", ("solve-jc", "-i", "fpt-no.jc", "--alg", "fpt"),
            check_fields("decision", full_cover=False, witness=None)),
        Job("brute-refused", ("solve-jc", "-i", "scan13.jc", "--alg", "brute",
                              "--budget", "100000"),
            check_refusal, exit=3),
        Job("sdp-gap-7-8", ("sdp-gap", "--n", "7", "8"),
            check_sdp([7, 8], [(7, 4, 4, "exact"), (7, 4, 4, "exact"), (7, 4, 4, "exact"),
                               (8, 5, 12, "exact"), (8, 5, 12, "exact"),
                               (8, 6, 6, "exact")])),
        Job("reduce-l1-relaxed", ("reduce", "-i", "n6.jc", "--mode", "discrete", "--metric",
                                  "l1", "--relaxed", "-o", "relaxed.pts"),
            both(check_fields("code", q=197, eta=1),
                 check_pointset(10, 15, 197 * 197, 197, "relaxed.pts")),
            outputs=("relaxed.pts",)),
        Job("brute-opt-l1-relaxed", ("brute-opt", "-i", "relaxed.pts", "--mode", "discrete"),
            check_optimum(2758, 3)),
        Job("reduce-l2-q13", ("reduce", "-i", "n6.jc", "--mode", "discrete", "--metric", "l2",
                              "--q", "13", "-o", "l2q13.pts"),
            check_pointset(10, 15, 169, 13 ** 0.5 * math.sqrt(2 * (3 - 6 ** 0.5)),
                           "l2q13.pts", rel=1e-9),
            outputs=("l2q13.pts",)),
        Job("brute-opt-l2-q13", ("brute-opt", "-i", "l2q13.pts", "--mode", "discrete"),
            check_optimum(206.81940018873627, 3, rel=1e-9)),
        Job("reduce-means", ("reduce", "-i", "cont.jc", "--mode", "continuous", "--metric",
                             "l2", "-o", "means.pts"),
            check_fields("pointset", points=9, centers=0, dim=9), outputs=("means.pts",)),
        Job("brute-opt-means", ("brute-opt", "-i", "means.pts", "--mode", "continuous"),
            check_optimum(22 / 3, 3, rel=1e-9, points=9)),
        Job("reduce-medians", ("reduce", "-i", "cont.jc", "--mode", "continuous", "--metric",
                               "l1", "--exponent", "1", "-o", "medians.pts"),
            check_fields("pointset", points=9, centers=0, dim=9), outputs=("medians.pts",)),
        Job("brute-opt-medians", ("brute-opt", "-i", "medians.pts", "--mode", "continuous"),
            check_optimum(11, 3, rel=1e-9, points=9)),
    )


# ---------------------------------------------------------------------------
# build: constructions and certificates
# ---------------------------------------------------------------------------

PCP_SIZES, PCP_ALPHABETS, PCP_EDGES_PER_PAIR = (3, 3, 3), (2, 3, 3), 3
HVC_SAMPLES = 200_000
DENSIFY_B, DENSIFY_C = 8, 200_000


def build_setup(workdir, seed):
    p = lambda name: os.path.join(workdir, name)
    gen.write_jc(p("q401.jc"), 12, 3, 2, 3, gen.relabeled(gen.base_edges(12, 3, 8, 5), 12, seed))
    gen.write_jc(p("q197.jc"), 8, 3, 2, 3, gen.relabeled(gen.base_edges(8, 3, 8, 6), 8, seed))
    gen.layered_pcp(p("l3.pcp"), p("l3.asg"), PCP_SIZES, PCP_ALPHABETS,
                    PCP_EDGES_PER_PAIR, seed)


def edge_centers(workdir):
    _, edges = read_edges(workdir, "q401.jc")
    return len({s for e in edges for s in combinations(e, 2)})


def check_whg3(path):
    """Exact weights total 1 and one line per hypergraph edge."""
    def check(records, workdir):
        rec = record(records, "hypergraph")
        expect(rec["edge_weight_total"] == "1" and rec["vertex_weight_total"] == "1",
               f"weights total {rec['edge_weight_total']}/{rec['vertex_weight_total']}")
        expect(count_lines(workdir, path) == 1 + int(rec["edges"]),
               f"{path} does not hold {rec['edges']} edges")
    return check


def check_densified(src, path, b, c):
    """Replicas = sum floor(c*w) over the source edges; kept + deleted = replicas."""
    def check(records, workdir):
        with open(os.path.join(workdir, src)) as fh:
            fh.readline()
            replicas = sum(math.floor(c * Fraction(line.split(None, 1)[0]))
                           for line in fh if line.strip())
        rec = record(records, "densified")
        kept = int(rec["kept"])
        expect(rec["replicas"] == str(replicas), f"replicas {rec['replicas']}, expected {replicas}")
        expect(kept + int(rec["deleted"]) == replicas, "kept + deleted != replicas")
        expect(rec["meets_bound"] == "True", "densify misses its retained bound")
        expect(count_lines(workdir, path) == 1 + kept, f"{path} does not hold {kept} edges")
    return check


def build_jobs(seed):
    alpha = 0.6321
    return (
        Job("verify-l1-int", ("verify-embed", "--metric", "l1", "--q", "12", "--t", "5",
                              "--s", "3"),
            check_certified(12, 5, 3, Fraction(5 - 3 + 2, 5 - 3), exact=True)),
        Job("verify-l2-float", ("verify-embed", "--metric", "l2", "--q", "14", "--t", "5",
                                "--s", "2"),
            check_certified(14, 5, 2, l2_scaled_ratio(5, 2))),
        Job("verify-lp-fraction", ("verify-embed", "--metric", "lp", "--q", "10", "--t", "3",
                                   "--p", "3"),
            check_certified(10, 3, 2, halfshift_ratio(10, 3))),
        Job("factors-p3", ("factors", "--p", "3", "--delta", "1", "--alpha", str(alpha),
                           "--q", "10"),
            both(check_zetas(halfshift_ratio(10, 3), alpha, rel=1e-9),
                 check_fields("factors", kind="halfshift",
                              pairs_checked=math.comb(10, 2) * 10))),
        Job("embed-q13", ("embed", "--metric", "l1", "--q", "13", "--t", "4", "--s", "2",
                          "-o", "emb13.txt"),
            both(check_fields("realization", beta=2, lambda_claimed=2),
                 check_lines("emb13.txt", math.comb(13, 4) + math.comb(13, 2))),
            outputs=("emb13.txt",)),
        Job("reduce-l1-q401", ("reduce", "-i", "q401.jc", "--mode", "discrete", "--metric",
                               "l1", "--q", "401", "--centers-from-edges", "-o", "q401.pts"),
            check_pointset(8, edge_centers, 401 * 401, 401, "q401.pts"),
            outputs=("q401.pts",)),
        Job("reduce-l2-q197", ("reduce", "-i", "q197.jc", "--mode", "discrete", "--metric",
                               "l2", "--q", "197", "-o", "q197.pts"),
            check_pointset(8, math.comb(8, 2), 197 * 197,
                           197 ** 0.5 * math.sqrt(2 * (3 - 6 ** 0.5)), "q197.pts", rel=1e-9),
            outputs=("q197.pts",)),
        Job("sdp-gap-16-20", ("sdp-gap", "--n", "16", "20", "--extra-centers"),
            check_sdp([16, 20], [])),
        Job("hvc-exact", ("hvc-build", "-i", "l3.pcp", "--delta", "1/8", "--assignment",
                          "l3.asg", "-o", "l3.whg3"),
            both(check_whg3("l3.whg3"),
                 check_fields("cover-check", all_hit=True, cover_weight=Fraction(1, 2))),
            outputs=("l3.whg3",)),
        Job("hvc-montecarlo", ("hvc-build", "-i", "l3.pcp", "--delta", "1/8", "--mode",
                               "montecarlo", "--samples", str(HVC_SAMPLES), "--seed", str(seed),
                               "-o", "l3mc.whg3"),
            both(check_whg3("l3mc.whg3"),
                 check_fields("hypergraph", provenance="sampled")),
            outputs=("l3mc.whg3",)),
        Job("densify", ("densify", "-i", "l3.whg3", "--b", str(DENSIFY_B), "--c",
                        str(DENSIFY_C), "--seed", str(seed), "-o", "l3.hg3"),
            check_densified("l3.whg3", "l3.hg3", DENSIFY_B, DENSIFY_C),
            outputs=("l3.hg3",)),
    )


WORKLOADS = {
    "readme": Workload(readme_setup, readme_jobs),
    "search": Workload(search_setup, search_jobs),
    "build": Workload(build_setup, build_jobs),
}
