"""Acceptance suite: one callable per criterion, shared heavy fixtures.

Closed-form stochastic laws are hard gates; geometric statistics gate the
stated windows and trend assertions.  Every criterion is deterministic
(fixed internal seeds) and prints one pass/fail line through
:func:`run_suite`.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from .csbp import (LawCheck, absorption_cutoff, csbp_marginals,
                   lamperti_csbp_to_levy, lamperti_levy_to_csbp,
                   merge_ppp_counts, sample_levy, survival_prob, u_t)
from .gaussian import sample_excursion, sample_snake_labels
from .geodesics import (_line_fit, classify_network, enumerate_geodesics,
                        frame_box_dimension, isotonic_fit,
                        space_box_dimension, star_census,
                        strong_confluence_statistic)
from .gff import (DEFAULT_GAMMA, dgff_batch, dirichlet_green_matrix,
                  geodesic_overlay, path_length, sample_dgff, GffField)
from .planar_map import (LabeledPlaneTree, bfs_metric, cvs_construct,
                         sample_labeled_tree)
from .rng import RngStream
from .snake_map import d_circ_matrix, quotient_metric
from .spaces import GraphSpace

__all__ = ["CriterionResult", "AcceptanceContext", "run_criterion",
           "run_suite", "CRITERIA"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}] {tag} {self.name} ({self.seconds:.1f}s)"

    def to_record(self) -> dict:
        return {"criterion": self.number, "name": self.name,
                "passed": bool(self.passed), "seconds": round(self.seconds, 2),
                **{k: v for k, v in self.details.items()
                   if isinstance(v, (int, float, str, bool, list))}}


class AcceptanceContext:
    """Lazily built shared fixtures (the big quadrangulation dominates)."""

    def __init__(self, fast: bool = False):
        self.fast = fast
        self.quad_faces = 5_000 if fast else 50_000
        self.laplace_reps = 10_000 if fast else 100_000
        self.ks_reps = 10_000 if fast else 100_000
        self._cache: dict = {}

    def quad(self):
        if "quad" not in self._cache:
            tree = sample_labeled_tree(self.quad_faces, RngStream(7).named("acc-quad"))
            q = cvs_construct(tree, 1)
            q.validate()
            self._cache["quad"] = (q, tree)
        return self._cache["quad"]

    def quad_space(self):
        if "quad_space" not in self._cache:
            self._cache["quad_space"] = GraphSpace.from_quad(self.quad()[0])
        return self._cache["quad_space"]

    def laplace_run(self):
        if "laplace" not in self._cache:
            vals, ext = csbp_marginals(
                1.5, 1.0, 1.0, [0.25, 1.0], 1e-3,
                RngStream(42).named("acc-laplace"), size=self.laplace_reps)
            self._cache["laplace"] = (vals, ext)
        return self._cache["laplace"]


# ---------------------------------------------------------------------------
# stochastic laws

def c1_csbp_laplace(ctx: AcceptanceContext) -> CriterionResult:
    vals, _ = ctx.laplace_run()
    details = {}
    ok = True
    for j, t in enumerate((0.25, 1.0)):
        for lam in (0.5, 1.0, 2.0):
            check = LawCheck.from_samples(
                "csbp_laplace", np.exp(-lam * vals[:, j]),
                np.exp(-u_t(1.5, 1.0, lam, t)), abs_slack=0.01)
            err = abs(check.estimate - check.target)
            ok &= check.passed
            details[f"t{t}_lam{lam}"] = f"err {err:.4f} tol {check.tolerance:.4f}"
    details["reference_t1_lam1"] = float(np.exp(-0.25))
    return CriterionResult(1, "csbp-laplace-law", bool(ok), details)


def c2_extinction_law(ctx: AcceptanceContext) -> CriterionResult:
    _, ext = ctx.laplace_run()
    surv = float(np.mean(ext > 1.0))
    target = survival_prob(1.5, 1.0, 1.0, 1.0)
    return CriterionResult(2, "csbp-extinction-law", abs(surv - target) < 0.01,
                           {"survival": surv, "target": target})


def c3_scaling_ks(ctx: AcceptanceContext) -> CriterionResult:
    reps, c_fac, t, dt = ctx.ks_reps, 4.0, 0.5, 1e-3
    cut = absorption_cutoff(1.5, 1.0, dt)
    a, _ = csbp_marginals(1.5, 1.0, c_fac, [np.sqrt(c_fac) * t],
                          np.sqrt(c_fac) * dt, RngStream(88).named("acc-ks-a"),
                          size=reps, cutoff=c_fac * cut)
    b, _ = csbp_marginals(1.5, 1.0, 1.0, [t], dt,
                          RngStream(89).named("acc-ks-b"), size=reps)
    ks = _ks_two_sample(a[:, 0] / c_fac, b[:, 0])
    return CriterionResult(3, "csbp-scaling-ks", ks < 0.02, {"ks": ks})


def c4_lamperti_round_trip(ctx: AcceptanceContext) -> CriterionResult:
    dt = 1e-3
    n_paths = 1000 if not ctx.fast else 200
    failures = 0
    for rep in range(n_paths):
        lp = sample_levy(1.5, 2.0, 1.0, 1.0, dt,
                         RngStream(1000).named("acc-rt").split(rep))
        cp = lamperti_levy_to_csbp(lp)
        back = lamperti_csbp_to_levy(cp)
        m = min(len(lp.path), len(back.path))
        if lp.path.values[-1] <= 0:
            m -= 1
        sup = float(np.max(np.abs(lp.path.values)))
        dev = float(np.max(np.abs(back.path.times[:m] - lp.path.times[:m])))
        if dev > 10.0 * np.sqrt(dt) * sup or \
                not np.array_equal(back.path.values[:m], lp.path.values[:m]):
            failures += 1
    return CriterionResult(4, "lamperti-round-trip",
                           failures <= n_paths // 100,
                           {"paths": n_paths, "failures": failures})


# ---------------------------------------------------------------------------
# snake metric

def c5_snake_map_invariants(ctx: AcceptanceContext) -> CriterionResult:
    n = 128 if ctx.fast else 512
    x = sample_excursion(n, 1.0, RngStream(5).named("acc-snake-x"))
    snake = sample_snake_labels(x, RngStream(5).named("acc-snake-y"))
    bm = quotient_metric(snake)
    d = bm.dmat
    scale = max(float(d.max()), 1.0)
    tol = 1e-9 * scale
    ok = bool(np.array_equal(d, d.T)) and bool(np.all(np.diag(d) == 0.0))
    triangle_ok = True
    for k in range(n):
        if not np.all(d <= d[:, k, None] + d[None, k, :] + tol):
            triangle_ok = False
            break
    seed = d_circ_matrix(snake)
    dom_ok = bool(np.all(d <= seed + tol))
    y = snake.y_values
    cactus_ok = bool(np.all(d >= np.abs(y[:, None] - y[None, :]) - tol))
    root_ok = bool(np.allclose(d[bm.root_index], y - y[bm.root_index],
                               rtol=1e-9, atol=tol))
    # brute-force chain oracle at n=6
    x6 = sample_excursion(6, 1.0, RngStream(6).named("acc-n6-x"))
    s6 = sample_snake_labels(x6, RngStream(6).named("acc-n6-y"))
    bm6 = quotient_metric(s6)
    brute = _brute_chain_closure(d_circ_matrix(s6))
    brute_ok = bool(np.allclose(bm6.dmat, brute, rtol=1e-12, atol=1e-12))
    ok = ok and triangle_ok and dom_ok and cactus_ok and root_ok and brute_ok
    return CriterionResult(5, "snake-map-invariants", ok, {
        "n": n, "triangle": triangle_ok, "dominated": dom_ok,
        "cactus": cactus_ok, "root_formula": root_ok, "brute_n6": brute_ok})


def _brute_chain_closure(seed):
    n = seed.shape[0]
    best = seed.copy()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            others = [k for k in range(n) if k not in (i, j)]
            for r in range(1, n - 1):
                for mid in permutations(others, r):
                    chain = [i, *mid, j]
                    tot = sum(seed[a][b] for a, b in zip(chain, chain[1:]))
                    if tot < best[i][j]:
                        best[i][j] = tot
    return best


# ---------------------------------------------------------------------------
# quadrangulations

def c6_cvs_correctness(ctx: AcceptanceContext) -> CriterionResult:
    keys = set()
    inputs = 0
    for n in (1, 2, 3):
        for contour in _all_contours(n):
            for incs in product((-1, 0, 1), repeat=n):
                tree = _tree_from(contour, incs)
                for sign in (1, -1):
                    quad = cvs_construct(tree, sign)
                    quad.validate()
                    keys.add(quad.canonical_key())
                    inputs += 1
    injective = len(keys) == inputs
    n_big = 1000 if ctx.fast else 10_000
    samples = 20 if ctx.fast else 100
    identity_ok = True
    euler_ok = True
    for r in range(samples):
        tree = sample_labeled_tree(n_big, RngStream(61).named("acc-cvs").split(r))
        quad = cvs_construct(tree, 1)
        euler_ok &= (quad.n_vertices == n_big + 2 and quad.n_edges == 2 * n_big
                     and quad.n_faces == n_big)
        dist = bfs_metric(quad, quad.pointed_vertex)
        expect = tree.labels - tree.labels.min() + 1
        identity_ok &= bool(np.array_equal(dist[: n_big + 1], expect))
    ok = injective and identity_ok and euler_ok
    return CriterionResult(6, "corner-chaining-correctness", ok, {
        "exhaustive_inputs": inputs, "distinct_images": len(keys),
        "identity_samples": samples, "identity": identity_ok,
        "euler": euler_ok})


def c7_ball_volume_exponent(ctx: AcceptanceContext) -> CriterionResult:
    quad, _ = ctx.quad()
    gen = RngStream(9).named("acc-ballvol").generator()
    centers = gen.integers(quad.n_vertices, size=50)
    radii = np.array([2, 4, 8, 16, 32])
    logs = []
    for c in centers:
        dist = bfs_metric(quad, int(c))
        # open metric balls {d < r}
        logs.append([np.count_nonzero(dist < r) for r in radii])
    y = np.log(np.asarray(logs, dtype=float)).ravel()
    x = np.tile(np.log(radii.astype(float)), len(centers))
    slope, _ = _line_fit(x, y)
    lo, hi = (2.5, 4.7) if ctx.fast else (3.3, 4.7)
    return CriterionResult(7, "ball-volume-exponent", lo <= slope <= hi,
                           {"slope": slope, "window": [lo, hi]})


def c8_two_sampler_agreement(ctx: AcceptanceContext) -> CriterionResult:
    quad_reps = 2 if ctx.fast else 6
    snake_reps = 8 if ctx.fast else 40
    snake_n = 512 if ctx.fast else 2048
    quad_dists = []
    for r in range(quad_reps):
        tree = sample_labeled_tree(ctx.quad_faces,
                                   RngStream(81).named("acc-2s-q").split(r))
        quad = cvs_construct(tree, 1)
        dist = bfs_metric(quad, quad.pointed_vertex)
        quad_dists.append(dist.astype(float))
    snake_dists = []
    for r in range(snake_reps):
        x = sample_excursion(snake_n, 1.0,
                             RngStream(82).named("acc-2s-x").split(r))
        s = sample_snake_labels(x, RngStream(83).named("acc-2s-y").split(r))
        snake_dists.append(s.y_values - s.y_values.min())
    from .planar_map import calibrate_scaling
    kappa = calibrate_scaling(quad_dists, snake_dists)
    q = kappa * np.concatenate(quad_dists)
    s = np.concatenate(snake_dists)
    ks = _ks_two_sample(q, s)
    return CriterionResult(8, "two-sampler-agreement", ks < 0.08,
                           {"ks": ks, "kappa": kappa})


def c9_merge_ppp(ctx: AcceptanceContext) -> CriterionResult:
    reps = 500 if ctx.fast else 3000
    x_min, w, ell = 0.02, 0.1, 1.0
    counts = merge_ppp_counts(x_min, w, ell, RngStream(90).named("acc-ppp"), reps)
    check = LawCheck.from_samples("merge_ppp_count", counts, ell / (2 * w * w))
    return CriterionResult(9, "merge-ppp-consistency", check.passed,
                           {"mean": check.estimate, "target": check.target,
                            "tol": check.tolerance})


# ---------------------------------------------------------------------------
# geodesic analytics

def c10_geodesic_oracles(ctx: AcceptanceContext) -> CriterionResult:
    ok = True
    details = {}
    # random graph with integer weights (exact ties, so pairs with several
    # geodesics) vs exhaustive path enumeration, every ordered pair
    sp = _random_weighted_fixture(RngStream(100).named("acc-geo"))
    several = 0
    for a, b in permutations(range(sp.n), 2):
        want = set(_brute_graph_bundle(sp, a, b))
        ok &= {tuple(p.vertices) for p in enumerate_geodesics(sp, a, b)} == want
        several += len(want) > 1
    ok &= several > 0
    details["weighted_oracle"] = ok
    details["weighted_pairs_with_several_geodesics"] = several
    # graph bundle vs exhaustive path enumeration on a 9-vertex fixture
    sp9 = _graph_fixture(9, [(0, 1), (1, 2), (2, 8), (0, 3), (3, 4), (4, 8),
                             (1, 4), (3, 7), (7, 8), (2, 5), (5, 6), (6, 8)])
    got9 = {tuple(p.vertices) for p in enumerate_geodesics(sp9, 0, 8)}
    want9 = set(_brute_graph_bundle(sp9, 0, 8))
    ok &= got9 == want9
    details["graph_oracle"] = sorted(got9) == sorted(want9)
    # normal networks classify as (j, k, j-1)
    for (j, k) in ((2, 2), (3, 3), (2, 3)):
        spn, u, v = _network_fixture(j, k)
        sig = classify_network(spn, u, v)
        ok &= sig == (j, k, j - 1)
        details[f"network_{j}{k}"] = list(sig)
    # star census greedy equals exhaustive on a 10-point fixture
    sp10 = _graph_fixture(10, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5),
                               (5, 6), (6, 4), (1, 7), (7, 8), (8, 9)])
    exact = star_census(sp10, 4, 2.0, [2], RngStream(101), exhaustive_max=10)[0]
    greedy = star_census(sp10, 4, 2.0, [2], RngStream(101), exhaustive_max=0,
                         restarts=32)[0]
    ok &= exact.k == greedy.k
    details["star_exact_vs_greedy"] = [exact.k, greedy.k]
    return CriterionResult(10, "geodesic-analytics-oracles", bool(ok), details)


def c11_frame_sparsity(ctx: AcceptanceContext) -> CriterionResult:
    space = ctx.quad_space()
    pairs = 10 if ctx.fast else 50
    scales = [3, 6, 12, 30]
    fslope, _ = frame_box_dimension(space, pairs, scales,
                                    RngStream(110).named("acc-frame"))
    sslope, _ = space_box_dimension(space, scales)
    frame_ok = 0.7 <= fslope <= 1.8
    gap_ok = (sslope - fslope) >= 1.0
    fractions = []
    sizes = (16, 32, 64) if ctx.fast else (64, 128, 256)
    for nside in sizes:
        fld = sample_dgff(nside, RngStream(111).named(f"acc-gff{nside}"))
        mult = geodesic_overlay(fld, DEFAULT_GAMMA,
                                RngStream(112).named(f"acc-gffp{nside}"),
                                n_random_pairs=16)
        fractions.append(float(np.count_nonzero(mult)) / mult.size)
    trend_ok = fractions[0] > fractions[1] > fractions[2]
    ok = frame_ok and gap_ok and trend_ok
    return CriterionResult(11, "frame-sparsity", bool(ok), {
        "frame_slope": fslope, "space_slope": sslope,
        "gff_fractions": fractions})


def c12_dgff_law(ctx: AcceptanceContext) -> CriterionResult:
    reps = 2000 if ctx.fast else 10_000
    fields = dgff_batch(9, RngStream(120).named("acc-dgff"), reps)
    interior = fields[:, 1:-1, 1:-1].reshape(reps, -1)
    green = dirichlet_green_matrix(9)
    center = interior.shape[1] // 2
    sq = interior[:, center] ** 2
    se = sq.std(ddof=1) / np.sqrt(reps)
    var_ok = abs(float(sq.mean()) - green[center, center]) < 3 * se
    flat = GffField(np.zeros((5, 5)))
    fix1 = path_length(flat, DEFAULT_GAMMA, [(0, 0), (0, 1), (1, 1)]) == 3.0
    vals = np.zeros((3, 3))
    vals[1, 1] = np.log(2.0)
    fix2 = abs(path_length(GffField(vals), 1.0, [(1, 1)]) - 2.0) < 1e-12
    ok = var_ok and fix1 and fix2
    return CriterionResult(12, "dgff-law", bool(ok), {
        "variance": float(sq.mean()), "green": float(green[center, center]),
        "tol": 3 * se, "fixtures": bool(fix1 and fix2)})


def c13_confluence_report(ctx: AcceptanceContext) -> CriterionResult:
    space = ctx.quad_space()
    n_pairs = 60 if ctx.fast else 200
    rows, samples = strong_confluence_statistic(
        space, [1, 2, 3, 4], RngStream(130).named("acc-conf"),
        n_pairs=n_pairs, return_samples=True)
    zero_ok = all(d == 0.0 for (dh, d) in samples if dh == 0.0)
    filled = [r for r in rows if not r["empty"]]
    ys = [r["mean_deficit"] for r in filled]
    ws = [r["count"] for r in filled]
    fit = isotonic_fit(ys, ws)
    denom = float(np.sum(np.asarray(ws) * np.abs(ys)))
    viol = float(np.sum(np.asarray(ws) * np.abs(np.asarray(ys) - fit)))
    viol_mass = viol / denom if denom > 0 else 0.0
    ok = zero_ok and viol_mass < 0.05 and len(filled) >= 2
    return CriterionResult(13, "strong-confluence-report", bool(ok), {
        "rows": [[r["epsilon"], r["count"],
                  None if r["mean_deficit"] is None else round(r["mean_deficit"], 3)]
                 for r in rows],
        "zero_pairs_zero_deficit": zero_ok,
        "monotone_violation_mass": viol_mass})


def c14_determinism(ctx: AcceptanceContext) -> CriterionResult:
    import contextlib
    import io as _io

    from . import cli

    commands = [
        ["sample-snake", "--n", "96", "--seed", "3", "--out", "m.json",
         "--csv", "m.csv"],
        ["sample-quad", "--n", "400", "--seed", "4", "--reps", "2",
         "--out", "q.json", "--records", "q.jsonl"],
        ["csbp", "--alpha", "1.5", "--c", "1", "--y0", "1", "--t", "0.25",
         "--lambda", "1", "--reps", "2000", "--dt", "0.01", "--seed", "7",
         "--out", "c.jsonl"],
        ["merge-ppp", "--x-min", "0.02", "--w", "0.1", "--reps", "200",
         "--seed", "8", "--out", "p.jsonl"],
        ["gff", "--n", "24", "--pairs", "3", "--seed", "9",
         "--field-csv", "f.csv", "--overlay-csv", "o.csv", "--svg", "o.svg",
         "--records", "g.jsonl"],
        ["analyze", "--kind", "quad", "--n", "1500", "--pairs", "6",
         "--star-centers", "2", "--confluence-pairs", "20", "--seed", "11",
         "--out", "a.jsonl"],
        ["analyze", "--kind", "snake", "--n", "300", "--pairs", "6",
         "--seed", "12", "--out", "s.jsonl"],
    ]
    ok = True
    details = {}
    for argv in commands:
        digests = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as tmp:
                old = os.environ.get("BML_DATA_DIR")
                os.environ["BML_DATA_DIR"] = tmp
                try:
                    with contextlib.redirect_stdout(_io.StringIO()), \
                            contextlib.redirect_stderr(_io.StringIO()):
                        code = cli.run(argv)
                finally:
                    if old is None:
                        os.environ.pop("BML_DATA_DIR", None)
                    else:
                        os.environ["BML_DATA_DIR"] = old
                if code != 0:
                    ok = False
                h = hashlib.sha256()
                for name in sorted(os.listdir(tmp)):
                    if name.endswith(".manifest.json"):
                        continue  # manifests carry timestamps
                    with open(os.path.join(tmp, name), "rb") as fp:
                        h.update(name.encode())
                        h.update(fp.read())
                digests.append(h.hexdigest())
        same = digests[0] == digests[1]
        ok &= same
        key = argv[0] if argv[0] != "analyze" else f"analyze-{argv[2]}"
        details[key] = "identical" if same else "DIFFERS"
    return CriterionResult(14, "determinism", bool(ok), details)


# ---------------------------------------------------------------------------
# helpers

def _ks_two_sample(a, b):
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def _all_contours(n):
    out = []

    def rec(seq, height, ups):
        if len(seq) == 2 * n:
            if height == 0:
                out.append(tuple(seq))
            return
        if ups < n:
            rec(seq + [1], height + 1, ups + 1)
        if height > 0:
            rec(seq + [-1], height - 1, ups)

    rec([], 0, 0)
    return out


def _tree_from(contour, incs):
    return LabeledPlaneTree(len(contour) // 2, contour, incs)


def _graph_fixture(n, edges, weights=None):
    adj = [[] for _ in range(n)]
    for k, (u, v) in enumerate(edges):
        w = 1.0 if weights is None else float(weights[k])
        adj[u].append((v, w))
        adj[v].append((u, w))
    indptr = [0]
    indices = []
    ws = []
    for lst in adj:
        for v, w in sorted(lst):
            indices.append(v)
            ws.append(w)
        indptr.append(len(indices))
    return GraphSpace(np.array(indptr), np.array(indices),
                      None if weights is None else np.array(ws))


def _random_weighted_fixture(rng, n=10):
    """A path 0..n-1 with random chords, weights drawn from {1, 2, 3}:
    exact sums, so ties and pairs with several geodesics."""
    gen = rng.generator()
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if j == i + 1 or gen.uniform() < 0.3]
    return _graph_fixture(n, edges, gen.integers(1, 4, size=len(edges)))


def _network_fixture(j, k):
    """j arms from u merge at p1, one trunk edge, split into k arms to v."""
    u, p1, p2, v = 0, 1, 2, 3
    edges = [(p1, p2)]
    nid = 4
    for _ in range(j):
        edges += [(u, nid), (nid, p1)]
        nid += 1
    for _ in range(k):
        edges += [(p2, nid), (nid, v)]
        nid += 1
    return _graph_fixture(nid, edges), u, v


def _brute_graph_bundle(sp, a, b):
    da = sp.dist_from(a)
    db = sp.dist_from(b)
    out = []

    def rec(chain, length):
        u = chain[-1]
        if u == b:
            if length == da[b]:
                out.append(tuple(chain))
            return
        vs, ws = sp.neighbors(u)
        for v, w in zip(vs, ws):
            if v not in chain and length + w + db[v] <= da[b]:
                rec(chain + [int(v)], length + w)

    rec([a], 0.0)
    return out


CRITERIA = [c1_csbp_laplace, c2_extinction_law, c3_scaling_ks,
            c4_lamperti_round_trip, c5_snake_map_invariants,
            c6_cvs_correctness, c7_ball_volume_exponent,
            c8_two_sampler_agreement, c9_merge_ppp, c10_geodesic_oracles,
            c11_frame_sparsity, c12_dgff_law, c13_confluence_report,
            c14_determinism]


RUNTIME_BUDGETS = {1: 120.0, 5: 60.0, 7: 300.0}


def run_criterion(number: int, ctx: AcceptanceContext) -> CriterionResult:
    fn = CRITERIA[number - 1]
    t0 = time.time()
    res = fn(ctx)
    res.seconds = time.time() - t0
    budget = RUNTIME_BUDGETS.get(number)
    if budget is not None:
        res.details["runtime_budget_s"] = budget
        if res.seconds >= budget:
            res.passed = False
            res.details["runtime_exceeded"] = True
    return res


def run_suite(fast: bool = False) -> list[CriterionResult]:
    ctx = AcceptanceContext(fast=fast)
    results = []
    for k in range(1, len(CRITERIA) + 1):
        res = run_criterion(k, ctx)
        print(res.line(), flush=True)
        results.append(res)
    return results
