import numpy as np
import pytest

from bmlab.errors import UnclassifiableBundleError
from bmlab.geodesics import (GeodesicPath, _line_fit, classify_network,
                             coalescence_point,
                             end_deficit, enumerate_geodesics,
                             extract_geodesic, frame_box_dimension,
                             geodesic_dag, greedy_ball_cover_count,
                             hausdorff_distance, isotonic_fit, space_box_dimension,
                             star_census, strong_confluence_statistic)
from bmlab.planar_map import bfs_metric, cvs_construct, sample_labeled_tree
from bmlab.rng import RngStream
from bmlab.spaces import DenseSpace, GraphSpace


def graph_space(n, edges, weights=None):
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


def path_graph(n):
    return graph_space(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_space(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(legs, leg_len=3):
    edges = []
    nid = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_len):
            edges.append((prev, nid))
            prev = nid
            nid += 1
    return graph_space(nid, edges)


def network_graph(j, k):
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
    return graph_space(nid, edges), u, v


# ---------------------------------------------------------------------------
# enumeration

def test_path_graph_unique_geodesic():
    sp = path_graph(3)
    bundle = enumerate_geodesics(sp, 0, 2)
    assert len(bundle) == 1
    assert bundle.paths[0].vertices == [0, 1, 2]
    assert bundle.paths[0].length == 2.0
    with pytest.raises(ValueError):
        enumerate_geodesics(sp, 1, 1)


def test_four_cycle_antipodal_two_geodesics():
    sp = cycle_graph(4)
    bundle = enumerate_geodesics(sp, 0, 2)
    assert len(bundle) == 2
    assert {tuple(p.vertices) for p in bundle.paths} == {(0, 1, 2), (0, 3, 2)}


def _brute_force_bundle_dense(sp, a, b, eps):
    """All insertion-maximal tight chains, by direct enumeration."""
    d = sp.dmat
    n = sp.n
    total = d[a, b]
    out = []

    def tight(u, v):
        return d[u, v] > 0 and d[a, u] + d[u, v] + d[v, b] <= total + eps

    def maximal(chain):
        for (u, v) in zip(chain[:-1], chain[1:]):
            for z in range(n):
                if z in chain:
                    continue
                if d[a, u] < d[a, z] < d[a, v] \
                        and d[u, z] + d[z, v] <= d[u, v] + eps and d[u, z] > 0 \
                        and d[z, v] > 0:
                    return False
        return True

    def rec(chain):
        u = chain[-1]
        if u == b:
            if maximal(chain):
                out.append(tuple(chain))
            return
        for v in range(n):
            if v not in chain and d[a, v] > d[a, u] and tight(u, v):
                rec(chain + [v])

    rec([a])
    return out


def test_dense_bundle_matches_brute_force_random_metric():
    gen = RngStream(42).generator()
    n = 8
    w = gen.uniform(0.5, 2.0, size=(n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    # metric closure to guarantee the triangle inequality
    d = w.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    sp = DenseSpace(d)
    for (a, b) in ((0, 7), (1, 5), (2, 6)):
        eps = 1e-9 * d[a, b]
        bundle = enumerate_geodesics(sp, a, b)
        got = {tuple(p.vertices) for p in bundle.paths}
        want = set(_brute_force_bundle_dense(sp, a, b, eps))
        assert got == want


def _brute_force_bundle_graph(sp, a, b):
    da = sp.dist_from(a)
    out = []

    def rec(chain, length):
        u = chain[-1]
        if u == b:
            if length == da[b]:
                out.append(tuple(chain))
            return
        vs, ws = sp.neighbors(u)
        for v, w in zip(vs, ws):
            if v not in chain and length + w + sp.dist_from(b)[v] <= da[b]:
                rec(chain + [int(v)], length + w)

    rec([a], 0.0)
    return out


def test_graph_bundle_matches_brute_force():
    gen = RngStream(43).generator()
    n = 9
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if gen.uniform() < 0.45]
    sp = graph_space(n, edges)
    if not np.isfinite(sp.dist_from(0)).all():
        pytest.skip("disconnected sample")
    for (a, b) in ((0, 8), (2, 7)):
        bundle = enumerate_geodesics(sp, a, b)
        got = {tuple(p.vertices) for p in bundle.paths}
        want = set(_brute_force_bundle_graph(sp, a, b))
        assert got == want


def test_bundle_cap_sets_truncated_flag():
    sp, u, v = network_graph(3, 3)
    bundle = enumerate_geodesics(sp, u, v, cap=4)
    assert bundle.truncated
    with pytest.raises(UnclassifiableBundleError):
        classify_network(bundle)


def test_geodesic_dag_structure_on_path():
    sp = path_graph(5)
    dag = geodesic_dag(sp, 4)
    assert dag[0].tolist() == [1]
    assert dag[3].tolist() == [4]
    assert dag[4].tolist() == []


def test_extract_geodesic_is_tight_and_deterministic():
    sp, u, v = network_graph(2, 3)
    g1 = extract_geodesic(sp, u, v, RngStream(7))
    g2 = extract_geodesic(sp, u, v, RngStream(7))
    assert g1.vertices == g2.vertices
    assert g1.length == sp.dist(u, v)


# ---------------------------------------------------------------------------
# set statistics

def test_hausdorff_basics_and_oracle():
    sp = path_graph(10)
    assert hausdorff_distance(sp, [2, 3], [2, 3]) == 0.0
    assert hausdorff_distance(sp, [1], [7]) == 6.0
    gen = RngStream(8).generator()
    dmat = np.abs(np.subtract.outer(np.arange(10.0), np.arange(10.0)))
    for _ in range(20):
        a = gen.choice(10, size=3, replace=False)
        b = gen.choice(10, size=3, replace=False)
        direct = max(max(min(dmat[x, y] for y in b) for x in a),
                     max(min(dmat[x, y] for x in a) for y in b))
        assert hausdorff_distance(sp, a, b) == direct
    with pytest.raises(ValueError):
        hausdorff_distance(sp, [], [1])


def test_hausdorff_pseudometric_on_random_triples():
    gen = RngStream(9).generator()
    n = 30
    pts = gen.uniform(size=(n, 2))
    dmat = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    sp = DenseSpace(dmat)
    for _ in range(40):
        sets = [gen.choice(n, size=gen.integers(1, 5), replace=False)
                for _ in range(3)]
        dab = hausdorff_distance(sp, sets[0], sets[1])
        dbc = hausdorff_distance(sp, sets[1], sets[2])
        dac = hausdorff_distance(sp, sets[0], sets[2])
        assert dab == hausdorff_distance(sp, sets[1], sets[0])
        assert dac <= dab + dbc + 1e-12


def test_coalescence_point_cases():
    sp = path_graph(6)
    g = extract_geodesic(sp, 0, 5)
    assert coalescence_point(sp, 5, g, g) == (0, 5.0)
    # a 7-vertex tree: two branches merging at vertex 2, root at 4
    tree = graph_space(7, [(0, 1), (1, 2), (5, 6), (6, 2), (2, 3), (3, 4)])
    g1 = extract_geodesic(tree, 0, 4)
    g2 = extract_geodesic(tree, 5, 4)
    vtx, dist = coalescence_point(tree, 4, g1, g2)
    assert vtx == 2 and dist == 2.0
    # star: two legs sharing only the hub (root)
    star = star_graph(2, leg_len=2)
    ga = extract_geodesic(star, 2, 0)
    gb = extract_geodesic(star, 4, 0)
    assert coalescence_point(star, 0, ga, gb) == (0, 0.0)
    with pytest.raises(ValueError):
        coalescence_point(tree, 3, g1, g2)


# ---------------------------------------------------------------------------
# network signatures

def test_single_geodesic_signature():
    sp = path_graph(4)
    bundle = enumerate_geodesics(sp, 0, 3)
    assert classify_network(bundle) == (1, 1, 0)


@pytest.mark.parametrize("j,k", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_normal_network_signatures(j, k):
    sp, u, v = network_graph(j, k)
    bundle = enumerate_geodesics(sp, u, v)
    assert len(bundle) == j * k
    assert classify_network(bundle) == (j, k, j - 1)
    swapped = enumerate_geodesics(sp, v, u)
    assert classify_network(swapped) == (k, j, k - 1)


def test_classification_invariant_under_path_relabeling():
    sp, u, v = network_graph(3, 2)
    bundle = enumerate_geodesics(sp, u, v)
    sig = classify_network(bundle)
    gen = RngStream(10).generator()
    order = gen.permutation(len(bundle.paths))
    shuffled = type(bundle)((u, v), [bundle.paths[i] for i in order],
                            slack=bundle.slack)
    assert classify_network(shuffled) == sig


# ---------------------------------------------------------------------------
# star census

def test_star_census_path_interior_two_directions():
    sp = path_graph(21)
    reports = star_census(sp, 4, 3.0, [10], RngStream(11))
    assert reports[0].k == 2
    for a, b in ((0, 1), (0, 2), (1, 2)) if len(reports[0].witnesses) >= 3 else ():
        pass
    pref = [set(w.vertices[1:][: 3]) for w in reports[0].witnesses]
    assert not (pref[0] & pref[1])


def test_star_census_star_graph_center():
    for legs in (3, 5):
        sp = star_graph(legs, leg_len=4)
        reports = star_census(sp, legs, 2.0, [0], RngStream(12))
        assert reports[0].k == legs


def test_star_census_matches_exhaustive_small():
    # 10-point fixture: two triangles joined by a path
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4),
             (1, 7), (7, 8), (8, 9)]
    sp = graph_space(10, edges)
    rep = star_census(sp, 4, 2.0, [2], RngStream(13), exhaustive_max=10)[0]
    greedy = star_census(sp, 4, 2.0, [2], RngStream(13), exhaustive_max=0,
                         restarts=32)[0]
    assert rep.k == greedy.k


def test_star_census_respects_degree_and_skips():
    sp = star_graph(3, leg_len=2)
    rep = star_census(sp, 5, 1.5, [0], RngStream(14))[0]
    assert rep.k <= 3  # degree bound
    tiny = star_census(sp, 2, 100.0, [0], RngStream(15))[0]
    assert tiny.skipped
    with pytest.raises(ValueError):
        star_census(sp, 1, 1.0, [0], RngStream(16))


# ---------------------------------------------------------------------------
# covering slopes

def test_frame_slope_path_graph_near_one():
    # dyadic scales: the farthest-point cover of a segment is dyadic, so
    # non-dyadic scale ratios would bend the fitted slope
    sp = path_graph(5001)
    slope, stderr = frame_box_dimension(sp, 1, [5, 10, 20, 40, 80],
                                        RngStream(47))
    assert abs(slope - 1.0) < 0.05


class L1GridSpace:
    """Coordinate-backed grid metric (same metric as the 4-neighbor graph)."""

    is_graph = False
    integer_metric = True

    def __init__(self, side):
        self.side = side
        self.n = side * side
        self.r, self.c = np.divmod(np.arange(self.n), side)

    def dist_from(self, i):
        return (np.abs(self.r - self.r[i]) + np.abs(self.c - self.c[i])).astype(float)

    def dist(self, i, j):
        return float(self.dist_from(i)[j])

    def dist_to_set(self, sources):
        return np.min([self.dist_from(int(s)) for s in sources], axis=0)


def test_cover_slope_grid_near_two():
    # full-dimensional set: the covering slope of the whole grid
    slope, _ = space_box_dimension(L1GridSpace(320), [5, 10, 20, 50])
    assert abs(slope - 2.0) < 0.2


def test_frame_slope_below_space_slope():
    sp = path_graph(2001)
    fslope, _ = frame_box_dimension(sp, 2, [16, 40, 160], RngStream(18))
    sslope, _ = space_box_dimension(sp, [16, 40, 160])
    assert fslope <= sslope + 0.1


def test_frame_scale_validation():
    sp = path_graph(100)
    with pytest.raises(ValueError):
        frame_box_dimension(sp, 2, [2, 4], RngStream(19))
    with pytest.raises(ValueError):
        frame_box_dimension(sp, 2, [2, 4, 8], RngStream(19))


def test_line_fit_slope_and_stderr():
    x = np.arange(6.0)
    slope, stderr = _line_fit(x, 2.0 * x + 1.0)
    assert slope == pytest.approx(2.0) and stderr == pytest.approx(0.0, abs=1e-9)
    slope, stderr = _line_fit(x, x * x)  # residuals: a positive stderr
    assert slope == pytest.approx(5.0) and stderr > 0


def test_box_dimension_stderr_is_nan_without_scale_spread():
    # all scales equal: x has no spread, so the slope's stderr is undefined
    _, stderr = _line_fit(np.ones(3), [1.0, 2.0, 3.0])
    assert np.isnan(stderr)
    _, stderr = space_box_dimension(path_graph(50), [4, 4, 4])
    assert np.isnan(stderr)


def test_greedy_cover_count_on_segment():
    sp = path_graph(101)
    pts = np.arange(101)
    assert greedy_ball_cover_count(sp, pts, 50.0) <= 2
    assert greedy_ball_cover_count(sp, pts, 0.4) == 101


# ---------------------------------------------------------------------------
# confluence statistic

def test_end_deficit_cases():
    g1 = GeodesicPath(list(range(9)), np.arange(9.0))
    assert end_deficit(g1, g1) == 0.0
    # shares exactly the middle half: deficit is a quarter length per end
    g2 = GeodesicPath([2, 3, 4, 5, 6], np.arange(5.0))
    assert end_deficit(g1, g2) == 2.0
    g3 = GeodesicPath([100, 101], np.arange(2.0))
    assert end_deficit(g1, g3) == 8.0


def test_isotonic_fit_pava():
    y = [1.0, 2.0, 1.5, 3.0]
    fit = isotonic_fit(y)
    assert np.all(np.diff(fit) >= 0)
    assert fit[1] == pytest.approx(1.75)
    assert np.allclose(isotonic_fit([1, 2, 3]), [1, 2, 3])


def test_confluence_statistic_on_grid_space():
    n = 40
    edges = []
    ids = np.arange(n * n).reshape(n, n)
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                edges.append((ids[r, c], ids[r, c + 1]))
            if r + 1 < n:
                edges.append((ids[r, c], ids[r + 1, c]))
    sp = graph_space(n * n, edges)
    rows = strong_confluence_statistic(sp, [1, 2, 4], RngStream(20),
                                       n_pairs=40)
    assert len(rows) == 3
    filled = [r for r in rows if not r["empty"]]
    assert filled, "expected at least one nonempty row"
    for r in filled:
        assert r["mean_deficit"] >= 0.0
    with pytest.raises(ValueError):
        strong_confluence_statistic(path_graph(50), [1], RngStream(21))


def test_distance_fields_are_read_only():
    sp = cycle_graph(8)
    fresh = sp.dist_from(0)
    cached = sp.dist_from(0)
    assert cached is fresh
    dense = DenseSpace(np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0))))
    for field in (fresh, dense.dist_from(2)):
        with pytest.raises(ValueError):
            field[1] = -1.0
    assert sp.dist_from(0)[1] == 1.0
    assert dense.dmat[2, 1] == 1.0


def test_unit_weight_ball_is_the_bfs_ball_nearest_first():
    quad = cvs_construct(sample_labeled_tree(500, RngStream(22)))
    sp = GraphSpace.from_quad(quad)
    for src in (0, quad.pointed_vertex, 137):
        dist = bfs_metric(quad, src)
        for r in (0, 1, 2.5, 3, 10**6):
            ball = sp.ball(src, r)
            assert ball[0] == src
            assert np.array_equal(np.sort(ball), np.flatnonzero(dist <= np.floor(r)))
            assert np.all(np.diff(dist[ball]) >= 0)
