import hashlib
import json
import math
import time
from collections import Counter
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

from bmlab import geodesics
from bmlab.acceptance import (_brute_graph_bundle, _graph_fixture,
                              _network_fixture, _random_weighted_fixture)
from bmlab.cli import run
from bmlab.errors import ResourceLimitError
from bmlab.geodesics import (GeodesicPath, _corridor_levels, _geodesic_dag,
                             _line_fit, _meet, _tight_steps, classify_network,
                             coalescence_point,
                             end_deficit, enumerate_geodesics,
                             extract_geodesic, frame_box_dimension,
                             greedy_ball_cover_count,
                             hausdorff_distance, isotonic_fit, space_box_dimension,
                             star_census, strong_confluence_statistic)
from bmlab.gaussian import sample_excursion, sample_snake_labels
from bmlab.gff import DEFAULT_GAMMA, GffField, sample_dgff
from bmlab.planar_map import bfs_metric, cvs_construct, sample_labeled_tree
from bmlab.rng import RngStream
from bmlab.snake_map import snake_space
from bmlab.spaces import GraphSpace, _levels, space_from_field


def path_graph(n):
    return _graph_fixture(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return _graph_fixture(n, [(i, (i + 1) % n) for i in range(n)])


def snake_graph(n, rng):
    """(space, vertex_of_grid_point) of a snake metric on n grid points."""
    exc = sample_excursion(n, 1.0, rng.named("excursion"))
    return snake_space(sample_snake_labels(exc, rng.named("labels")))


def star_graph(legs, leg_len=3):
    edges = []
    nid = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_len):
            edges.append((prev, nid))
            prev = nid
            nid += 1
    return _graph_fixture(nid, edges)


# ---------------------------------------------------------------------------
# enumeration

def test_path_graph_unique_geodesic():
    sp = path_graph(3)
    paths = enumerate_geodesics(sp, 0, 2)
    assert len(paths) == 1
    assert paths[0].vertices == [0, 1, 2]
    assert paths[0].length == 2.0
    with pytest.raises(ValueError):
        enumerate_geodesics(sp, 1, 1)


def test_four_cycle_antipodal_two_geodesics():
    sp = cycle_graph(4)
    paths = enumerate_geodesics(sp, 0, 2)
    assert len(paths) == 2
    assert {tuple(p.vertices) for p in paths} == {(0, 1, 2), (0, 3, 2)}


def test_weighted_bundle_matches_brute_force_random_graph():
    several = 0
    for seed in (42, 44, 45):
        sp = _random_weighted_fixture(RngStream(seed), n=9)
        for a, b in permutations(range(sp.n), 2):
            got = {tuple(p.vertices) for p in enumerate_geodesics(sp, a, b)}
            want = set(_brute_graph_bundle(sp, a, b))
            assert got == want
            several += len(want) > 1
    assert several > 0  # integer weights tie


def test_graph_bundle_matches_brute_force():
    gen = RngStream(43).generator()
    n = 9
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if gen.uniform() < 0.45]
    sp = _graph_fixture(n, edges)
    if not np.isfinite(sp.dist_from(0)).all():
        pytest.skip("disconnected sample")
    for (a, b) in ((0, 8), (2, 7)):
        got = {tuple(p.vertices) for p in enumerate_geodesics(sp, a, b)}
        want = set(_brute_graph_bundle(sp, a, b))
        assert got == want


def test_more_geodesics_than_the_cap_raise_naming_the_exact_count():
    sp, u, v = _network_fixture(3, 3)
    with pytest.raises(ResourceLimitError, match=f"^9 geodesics join {u} and {v}, "
                       "more than the cap of 4$"):
        enumerate_geodesics(sp, u, v, cap=4)
    assert len(enumerate_geodesics(sp, u, v, cap=9)) == 9
    assert classify_network(sp, u, v) == (3, 3, 2)
    with pytest.raises(ValueError, match="cap must be at least 1"):
        enumerate_geodesics(sp, u, v, cap=0)
    # opposite corners of a flat 40 x 40 box: C(78, 39) > 2**63 monotone
    # staircases, counted on the DAG before any path is walked
    flat = space_from_field(GffField(np.zeros((40, 40))), 1.0)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError,
                       match=f"^{math.comb(78, 39)} geodesics join 0 and 1599"):
        enumerate_geodesics(flat, 0, 40 * 40 - 1)
    assert time.perf_counter() - t0 < 2.0


def test_snake_geodesics_reach_identified_targets_and_lie_in_their_bundle():
    # the quotient identifies the excursion's two ends (D(0, n - 1) = 0):
    # they are one vertex of the snake graph, which geodesics reach
    to_ends = 0
    for seed in range(1, 7):
        sp, vertex = snake_graph(48, RngStream(seed).named("snake"))
        assert vertex[0] == vertex[-1] == 0
        gen = RngStream(7).named(f"snake{seed}").generator()
        for k in range(40):
            a, b = (int(vertex[x]) for x in gen.integers(len(vertex), size=2))
            if a == b:
                continue
            to_ends += b == 0
            members = [p.vertices for p in enumerate_geodesics(sp, a, b)]
            assert members
            for d in range(3):
                assert extract_geodesic(sp, a, b, RngStream(k, d)).vertices in members
            assert extract_geodesic(sp, a, b).vertices in members
    assert to_ends > 0


def test_extract_geodesic_is_tight_and_deterministic():
    sp, u, v = _network_fixture(2, 3)
    g1 = extract_geodesic(sp, u, v, RngStream(7))
    g2 = extract_geodesic(sp, u, v, RngStream(7))
    assert g1.vertices == g2.vertices
    assert g1.length == sp.dist_from(u)[v]


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
    sp, _ = snake_graph(31, RngStream(9).named("snake"))
    n = sp.n
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
    tree = _graph_fixture(7, [(0, 1), (1, 2), (5, 6), (6, 2), (2, 3), (3, 4)])
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
    assert classify_network(path_graph(4), 0, 3) == (1, 1, 0)


@pytest.mark.parametrize("j,k", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_normal_network_signatures(j, k):
    sp, u, v = _network_fixture(j, k)
    assert len(enumerate_geodesics(sp, u, v)) == j * k
    assert classify_network(sp, u, v) == (j, k, j - 1)
    assert classify_network(sp, v, u) == (k, j, k - 1)


def _bundle_signature_oracle(paths):
    """(I, J, K) from every geodesic of a pair: distinct first and last
    steps, and (distinct predecessors - 1) over interior vertices."""
    first = {p.vertices[1] for p in paths}
    last = {p.vertices[-2] for p in paths}
    preds: dict[int, set[int]] = {}
    for p in paths:
        for pos in range(1, len(p) - 1):
            preds.setdefault(p.vertices[pos], set()).add(p.vertices[pos - 1])
    return len(first), len(last), sum(len(s) - 1 for s in preds.values())


def _small_spaces():
    for seed in range(12):
        yield _quad_space(60, 200 + seed)
    for seed in range(5):
        yield space_from_field(sample_dgff(12, RngStream(220 + seed)), DEFAULT_GAMMA)
    for seed in range(6):
        yield snake_graph(48, RngStream(230 + seed).named("snake"))[0]


def test_dag_signature_equals_bundle_oracle_on_every_complete_bundle():
    complete = 0
    for i, sp in enumerate(_small_spaces()):
        gen = RngStream(240).named(f"space{i}").generator()
        for _ in range(40):
            a, b = (int(x) for x in gen.integers(sp.n, size=2))
            if a == b:
                continue
            try:
                paths = enumerate_geodesics(sp, a, b)
            except ResourceLimitError:
                continue
            complete += 1
            assert classify_network(sp, a, b) == _bundle_signature_oracle(paths)
    assert complete >= 900


def _through_spaces():
    """Flat boxes (the 2 x 2 one bare, since a field needs a zero frame),
    random fields of side 8 to 16, quadrangulations (parallel edges) and
    a snake metric's visible-pair graph."""
    yield space_from_field(SimpleNamespace(values=np.zeros((2, 2))), 1.0)
    for side in (6, 12):
        yield space_from_field(GffField(np.zeros((side, side))), 1.0)
    for side in (8, 10, 12, 14, 16):
        yield space_from_field(sample_dgff(side, RngStream(260 + side)), DEFAULT_GAMMA)
    for seed in range(3):
        yield _quad_space(60, 270 + seed)
    yield snake_graph(48, RngStream(280).named("snake"))[0]


def test_through_counts_equal_enumerated_multiplicities():
    checked, several = 0, 0
    for i, sp in enumerate(_through_spaces()):
        gen = RngStream(290).named(f"space{i}").generator()
        pairs = [(0, sp.n - 1)] + [tuple(int(x) for x in gen.integers(sp.n, size=2))
                                   for _ in range(30)]
        for a, b in pairs:
            if a == b:
                continue
            through = _geodesic_dag(sp, a, b)[3]
            try:
                paths = enumerate_geodesics(sp, a, b)
            except ResourceLimitError:
                assert through[a] > 4096
                continue
            assert through == Counter(v for p in paths for v in p.vertices)
            assert through[a] == through[b] == len(paths)
            checked += 1
            several += len(paths) > 1
    assert checked >= 350 and several >= 120


def test_pair_past_the_path_cap_classifies_quickly():
    sp = _quad_space(5000, 250)
    gen = RngStream(251).generator()
    for _ in range(50):
        a, b = (int(x) for x in gen.integers(sp.n, size=2))
        if a == b:
            continue
        try:
            enumerate_geodesics(sp, a, b)
        except ResourceLimitError:
            break
    else:
        pytest.fail("no pair passed the path cap")
    t0 = time.perf_counter()
    i, j, k = classify_network(sp, a, b)
    assert time.perf_counter() - t0 < 1.0
    assert i >= 1 and j >= 1 and k >= 0


# ---------------------------------------------------------------------------
# star census

def test_star_census_path_interior_two_directions():
    sp = path_graph(21)
    reports = star_census(sp, 4, 3.0, [10], RngStream(11))
    assert reports[0].k == 2
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
    sp = _graph_fixture(10, edges)
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

    def __init__(self, side):
        self.side = side
        self.n = side * side
        self.r, self.c = np.divmod(np.arange(self.n), side)

    def dist_from(self, i):
        return (np.abs(self.r - self.r[i]) + np.abs(self.c - self.c[i])).astype(float)

    def dist_to_set(self, sources):
        return np.min([self.dist_from(int(s)) for s in sources], axis=0)

    def ball(self, src, r):
        return np.flatnonzero(self.dist_from(src) <= r)


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


def test_frame_counts_that_never_change_give_no_slope():
    # every scale covers the 5-vertex path's frame with one ball
    with pytest.raises(ValueError, match="cover count is 1 at every scale"):
        frame_box_dimension(path_graph(5), 4, [10, 20, 100], RngStream(20))


def test_line_fit_slope_and_stderr():
    x = np.arange(6.0)
    slope, stderr = _line_fit(x, 2.0 * x + 1.0)
    assert slope == pytest.approx(2.0) and stderr == pytest.approx(0.0, abs=1e-9)
    slope, stderr = _line_fit(x, x * x)  # residuals: a positive stderr
    assert slope == pytest.approx(5.0) and stderr > 0


def test_box_dimension_stderr_is_nan_without_scale_spread():
    # all scales equal: x has no spread, so the slope's stderr is undefined;
    # box-count slopes refuse such scales before they fit
    _, stderr = _line_fit(np.ones(3), [1.0, 2.0, 3.0])
    assert np.isnan(stderr)
    with pytest.raises(ValueError, match="spanning a decade"):
        space_box_dimension(path_graph(50), [4, 4, 4])


def test_space_box_dimension_rejects_bad_scales_with_one_error(capfd):
    # unchecked, [0, 1, 10] made LAPACK print and raise LinAlgError, and a
    # nan scale reached a ball
    sp = path_graph(30)
    for scales in ([0, 1, 10], [1, 10, np.nan], [1, 10, np.inf], [-1, 1, 10],
                   [1, 5], [1, 2, 4]):
        with pytest.raises(ValueError) as exc:
            space_box_dimension(sp, scales)
        assert str(exc.value) == "need at least 3 positive finite scales " \
            "spanning a decade"
    assert capfd.readouterr() == ("", "")


def test_greedy_cover_count_on_segment():
    sp = path_graph(101)
    pts = np.arange(101)
    wide, fine = greedy_ball_cover_count(sp, pts, [50.0, 0.4])
    assert wide <= 2 and fine == 101


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
    sp = _graph_fixture(n * n, edges)
    rows = strong_confluence_statistic(sp, [1, 2, 4], RngStream(20),
                                       n_pairs=40)
    assert len(rows) == 3
    filled = [r for r in rows if not r["empty"]]
    assert filled, "expected at least one nonempty row"
    for r in filled:
        assert r["mean_deficit"] >= 0.0
    with pytest.raises(ValueError, match="at least 1000 points"):
        strong_confluence_statistic(path_graph(50), [1], RngStream(21))
    for bad in ([], [-1.0], [2.0, -0.5]):
        with pytest.raises(ValueError, match="nonnegative epsilons"):
            strong_confluence_statistic(sp, bad, RngStream(22), n_pairs=4)


def test_distance_fields_are_read_only():
    sp = cycle_graph(8)
    fresh = sp.dist_from(0)
    weighted = _graph_fixture(5, [(i, i + 1) for i in range(4)], [1.0] * 4)
    for field in (fresh, weighted.dist_from(2)):
        with pytest.raises(ValueError):
            field[1] = -1.0
    assert sp.dist_from(0)[1] == 1.0
    assert weighted.dist_from(2)[1] == 1.0


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


def _dijkstra_oracle(space, sources, limit=np.inf):
    """scipy's Dijkstra on the space's adjacency: the distance to the
    nearest source, inf beyond ``limit``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra
    graph = csr_matrix((np.ones(len(space.indices)), space.indices, space.indptr),
                       shape=(space.n, space.n))
    return dijkstra(graph, directed=True, min_only=True, limit=limit,
                    indices=np.asarray(sources, dtype=np.int64))


def _levels_oracle(indptr, indices, sources, seen, radius=None):
    """The breadth-first levels with ``np.unique`` removing repeats."""
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    seen[frontier] = True
    out, steps = [frontier], 0
    while radius is None or steps < radius:
        nbrs = np.concatenate([indices[indptr[v]:indptr[v + 1]] for v in frontier]
                              + [np.empty(0, dtype=np.int64)])
        nbrs = nbrs[~seen[nbrs]]
        if nbrs.size == 0:
            break
        frontier = np.unique(nbrs)
        seen[frontier] = True
        steps += 1
        out.append(frontier)
    return out


def _unit_weight_spaces():
    """Quadrangulations of several sizes (those of 2 and 3 faces have
    parallel edges) and a graph in two components."""
    spaces = [_quad_space(faces, 80 + faces) for faces in (1, 2, 3, 5, 60, 2000)]
    spaces.append(_graph_fixture(7, [(0, 1), (1, 2), (1, 2), (3, 4), (4, 5), (5, 3)]))
    return spaces


def test_breadth_first_fields_equal_dijkstra_oracle():
    spaces = _unit_weight_spaces()
    assert any(np.any(np.diff(sp.indices[sp.indptr[v]:sp.indptr[v + 1]]) == 0)
               for sp in spaces[1:3] for v in range(sp.n))  # parallel edges
    for sp in spaces:
        gen = RngStream(sp.n).named("sources").generator()
        before = sp.indices.copy()
        for v in {0, sp.n - 1, int(gen.integers(sp.n))}:
            field = sp.dist_from(v)
            assert np.array_equal(field, _dijkstra_oracle(sp, [v]))
            assert field.dtype == float and not field.flags.writeable
            with pytest.raises(ValueError):
                field[v] = 1.0
        many = gen.integers(sp.n, size=3).tolist()
        for sources in ([int(many[0])], many, many + many[:2], []):
            for limit in (0, 0.5, 1, 2.5, 7, np.inf):
                want = _dijkstra_oracle(sp, sources, limit)
                assert np.array_equal(sp.dist_to_set(sources, limit), want)
                if len(sources) == 1:
                    assert np.array_equal(np.sort(sp.ball(sources[0], limit)),
                                          np.flatnonzero(np.isfinite(want)))
        assert np.array_equal(sp.indices, before)
    split = spaces[-1]
    assert split.dist_from(0).tolist() == [0, 1, 2, np.inf, np.inf, np.inf, np.inf]
    assert split.dist_to_set([3, 6]).tolist() == [np.inf] * 3 + [0, 1, 1, 0]
    assert split.ball(4, np.inf).tolist() == [4, 3, 5]


def test_levels_equal_np_unique_oracle():
    for sp in _unit_weight_spaces():
        gen = RngStream(sp.n).named("levels").generator()
        blocked = gen.random(sp.n) < 0.2
        for sources in (int(gen.integers(sp.n)), gen.integers(sp.n, size=4), []):
            for radius in (None, 0, 2):
                for mask in (np.zeros(sp.n, dtype=bool), blocked):
                    seen, want_seen = mask.copy(), mask.copy()
                    got = list(_levels(sp.indptr, sp.indices, sources, seen, radius))
                    want = _levels_oracle(sp.indptr, sp.indices, sources,
                                          want_seen, radius)
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype and np.array_equal(g, w)
                    assert np.array_equal(seen, want_seen)


def test_search_radius_edges():
    quad, grid = _quad_space(300, 83), space_from_field(sample_dgff(8, RngStream(84)),
                                                        DEFAULT_GAMMA)
    snake = snake_graph(64, RngStream(85).named("snake"))[0]
    for sp in (quad, grid, snake):
        assert np.array_equal(np.sort(sp.ball(2, np.inf)), np.arange(sp.n))
    for sp in (quad, grid):
        for bad in (-1, -0.5):
            with pytest.raises(ValueError, match="limit must be >= 0"):
                sp.dist_to_set([2], limit=bad)
        with pytest.raises(ValueError, match="limit must be >= 0"):
            sp.ball(2, -1)
    with pytest.raises(ValueError, match="limit must be >= 0"):
        quad.dist_to_set([2], limit=np.nan)


def test_non_finite_statistic_parameters_are_value_errors():
    sp = _quad_space(1000, 85)
    for scales in ([1.0, 10.0, np.inf], [1.0, 10.0, np.nan]):
        with pytest.raises(ValueError, match="finite scales"):
            frame_box_dimension(sp, 3, scales, RngStream(86))
    for radius in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            star_census(sp, 3, radius, [0], RngStream(87))
    for eps in ([np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            strong_confluence_statistic(sp, eps, RngStream(88), n_pairs=2)
    with pytest.raises(ValueError, match="nonnegative"):
        greedy_ball_cover_count(sp, [0, 5], [1.0, np.nan])


# ---------------------------------------------------------------------------
# one field per geodesic, bounded searches: oracles with the two-field rule
# and full fields

def _quad_space(faces, seed):
    return GraphSpace.from_quad(cvs_construct(sample_labeled_tree(faces,
                                                                  RngStream(seed))))


def _extract_oracle(space, a, b, rng=None):
    """Forward walk over the successors that are tight for da and db."""
    da, db = space.dist_from(a), space.dist_from(b)
    gen = rng.generator() if rng is not None else None
    verts = [a]
    while verts[-1] != b:
        u = verts[-1]
        vs, ws = space.neighbors(u)
        choices = vs[(ws > 0) & (da[u] + ws + db[vs] <= da[b]) & (da[vs] > da[u])]
        verts.append(int(choices[gen.integers(choices.size)]) if gen is not None
                     else int(choices[0]))
    return verts


def _bundle_oracle(space, a, b, cap):
    """(paths, more): depth-first enumeration over two-field tight edges,
    in the order of ``enumerate_geodesics``, stopped with ``more`` True once
    there are more than ``cap``."""
    da, db = space.dist_from(a), space.dist_from(b)
    paths, stack = [], [[a]]
    while stack:
        verts = stack.pop()
        u = verts[-1]
        if u == b:
            if len(paths) >= cap:
                return paths, True
            paths.append(tuple(verts))
            continue
        vs, ws = space.neighbors(u)
        ok = (da[u] + ws + db[vs] <= da[b]) & (da[vs] > da[u])
        for v in sorted(vs[ok].tolist(), reverse=True):
            stack.append(verts + [v])
    return paths, False


def _hausdorff_oracle(space, sa, sb):
    """Two unbounded multi-source searches (on weighted grids a search from
    the other set can differ in the last bit, so the oracle searches from
    the same side)."""
    sa, sb = np.asarray(sa), np.asarray(sb)
    return float(max(space.dist_to_set(sb)[sa].max(), space.dist_to_set(sa)[sb].max()))


def _cover_oracle(space, pts, eps):
    """Farthest-first cover for one scale, full fields throughout."""
    mind = np.full(len(pts), np.inf)
    count, cur = 0, 0
    while True:
        count += 1
        mind = np.minimum(mind, space.dist_from(int(pts[cur]))[pts])
        far = int(np.argmax(mind))
        if mind[far] <= eps:
            return count
        cur = far


@pytest.mark.parametrize("faces,pairs", [(40, 150), (300, 150), (5000, 40)])
def test_extract_geodesic_equals_two_field_oracle(faces, pairs):
    for seed in (31, 32):
        sp = _quad_space(faces, seed)
        gen = RngStream(seed).named("pairs").generator()
        for k in range(pairs):
            a, b = (int(x) for x in gen.integers(sp.n, size=2))
            if a == b:
                continue
            g = extract_geodesic(sp, a, b, RngStream(seed, k))
            assert g.vertices == _extract_oracle(sp, a, b, RngStream(seed, k))
            assert np.array_equal(g.cumlen, np.arange(len(g), dtype=float))
            assert extract_geodesic(sp, a, b).vertices == _extract_oracle(sp, a, b)


def test_enumerated_bundles_equal_two_field_oracle_duplicates_included():
    repeats = 0
    for faces, seed in ((40, 33), (40, 34), (300, 35)):
        sp = _quad_space(faces, seed)
        gen = RngStream(seed).named("pairs").generator()
        for _ in range(60):
            a, b = (int(x) for x in gen.integers(sp.n, size=2))
            if a == b:
                continue
            want, more = _bundle_oracle(sp, a, b, 256)
            if more:
                with pytest.raises(ResourceLimitError, match="more than the cap of 256"):
                    enumerate_geodesics(sp, a, b, cap=256)
                continue
            got = [tuple(p.vertices) for p in enumerate_geodesics(sp, a, b, cap=256)]
            assert got == want
            repeats += len(got) - len(set(got))
    assert repeats > 0  # parallel edges repeat a vertex sequence


def test_hausdorff_equals_full_field_formula():
    sp = path_graph(300)
    # 0.0, then far sets that take the limit from 1 up through 256
    for sa, sb in (([4], [4]), ([0, 1], [250]), ([0], [299, 150]), ([10, 290], [150])):
        assert hausdorff_distance(sp, sa, sb) == _hausdorff_oracle(sp, sa, sb)
    assert hausdorff_distance(sp, [0], [250]) == 250.0
    grid = space_from_field(sample_dgff(20, RngStream(36)), DEFAULT_GAMMA)
    for space, seed in ((_quad_space(2000, 37), 38), (grid, 39)):
        gen = RngStream(seed).generator()
        for _ in range(25):
            a, b, c, d = (int(x) for x in gen.integers(space.n, size=4))
            sa = extract_geodesic(space, a, b).vertices if a != b else [a]
            sb = extract_geodesic(space, c, d).vertices if c != d else [c]
            assert hausdorff_distance(space, sa, sb) == _hausdorff_oracle(space, sa, sb)
            small = gen.choice(space.n, size=3, replace=False)
            assert hausdorff_distance(space, small, sb) == \
                _hausdorff_oracle(space, small, sb)


def test_cover_counts_equal_per_scale_farthest_first_oracle():
    scales = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 1e9]
    grid = space_from_field(sample_dgff(20, RngStream(40)), DEFAULT_GAMMA)
    for space, seed in ((_quad_space(300, 41), 42), (_quad_space(2000, 43), 44),
                        (grid, 45)):
        gen = RngStream(seed).generator()
        frame = set()
        for _ in range(6):
            a, b = (int(x) for x in gen.integers(space.n, size=2))
            if a != b:
                frame.update(extract_geodesic(space, a, b).vertices)
        for pts in (np.array(sorted(frame)), gen.choice(space.n, size=60, replace=False)):
            want = [_cover_oracle(space, pts, e) for e in scales]
            assert greedy_ball_cover_count(space, pts, scales) == want
            assert [greedy_ball_cover_count(space, pts, [e])[0] for e in scales] == want
    assert greedy_ball_cover_count(path_graph(5), [], [1.0, 2.0]) == [0, 0]
    with pytest.raises(ValueError):
        greedy_ball_cover_count(path_graph(5), [0, 4], [-1.0])


def test_geodesic_analytics_golden_digest():
    # SHA-256 of these outputs recorded with the two-field rule and full
    # fields; one field per geodesic and bounded searches must not move it
    sp = _quad_space(3000, 61)
    rows, samples = strong_confluence_statistic(sp, [1, 2, 3, 4], RngStream(62),
                                                n_pairs=30, return_samples=True)
    slope, stderr, counts = frame_box_dimension(sp, 8, [2, 4, 8, 20], RngStream(63),
                                                return_counts=True)
    stars = star_census(sp, 5, 3.0, [0, 17, 400], RngStream(64), restarts=2)
    out = {"rows": rows, "samples": samples,
           "frame": [slope, stderr, sorted(counts.items())],
           "star": [[r.center, r.k, [w.vertices for w in r.witnesses]] for r in stars]}
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == \
        "544c3776ac06f2a2039f22a69d84fc331c20cf4ae369c31605ba383b95890cea"


# ---------------------------------------------------------------------------
# BFS balls that meet in the middle: oracles with two full fields, and the
# full fields each statistic computes

def _corridor_oracle(space, a, b):
    """{v: d(a, v)} over the v with d(a, v) + d(v, b) <= d(a, b) + eps, from
    two full fields; eps is 0 on unit weights."""
    da, db = space.dist_from(a), space.dist_from(b)
    eps = 0.0 if space.weights is None else 1e-9 * max(da[b], 1.0)
    on = np.flatnonzero(da + db <= da[b] + eps)
    return dict(zip(on.tolist(), da[on].tolist()))


def _check_corridors(space, pairs, limits):
    """Meet-search (unit weights only) and given-field corridors against the
    oracle; returns how many pairs met at more than one vertex.  ``limits``
    is the search log of ``_count_searches``."""
    several = 0
    for a, b in pairs:
        want = _corridor_oracle(space, a, b)
        if space.weights is None:
            searches = len(limits)
            assert _corridor_levels(space, a, b) == want
            assert len(limits) == searches  # the meet search runs no search
            several += len(_meet(space, a, b)[2]) > 1
        assert _corridor_levels(space, a, b, space.dist_from(a)) == want
    return several


@pytest.mark.parametrize("faces,pairs,seed", [(40, 150, 50), (300, 150, 51),
                                              (5000, 40, 52)])
def test_meet_corridor_equals_two_field_corridor(faces, pairs, seed, monkeypatch):
    sp = _quad_space(faces, seed)
    limits = _count_searches(monkeypatch)
    gen = RngStream(seed).named("meet").generator()
    chosen = []
    for _ in range(pairs):
        a, b = (int(x) for x in gen.integers(sp.n, size=2))
        if a != b:
            chosen.append((a, b))
        chosen.append((a, int(sp.neighbors(a)[0][-1])))  # adjacent: d = 1
    assert _check_corridors(sp, chosen, limits) > 0


def test_meet_corridor_on_paths_and_cycles(monkeypatch):
    limits = _count_searches(monkeypatch)
    several = 0
    for sp in (path_graph(9), cycle_graph(8), cycle_graph(9)):
        several += _check_corridors(sp, [(a, b) for a in range(sp.n)
                                         for b in range(sp.n) if a != b], limits)
    assert several > 0  # even cycles meet at both antipodal arcs
    split = _graph_fixture(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    for da in (split.dist_from(0), None):
        with pytest.raises(AssertionError, match="not reachable"):
            _corridor_levels(split, 0, 5, da)


def _numpy_succ(space, a, b, eps):
    """The two-field tight rule as one numpy expression per vertex: the
    oracle for the one-field rule."""
    da, db = space.dist_from(a), space.dist_from(b)
    bound = da[b] + eps

    def succ(u):
        vs, ws = space.neighbors(u)
        return vs[(ws > 0) & (da[u] + ws + db[vs] <= bound)
                  & (da[vs] > da[u])].tolist()
    return succ


def _pruned_dag(succ, a, b):
    """The DAG ``_geodesic_dag`` would collect from a rule ``succ``: its
    steps from a, largest first, without those that reach no b."""
    good = {b: True}

    def reaches(u):
        if u not in good:
            good[u] = False
            good[u] = any([reaches(v) for v in succ(u)])
        return good[u]
    if not reaches(a):
        return {}
    return {u: [] if u == b else sorted((v for v in succ(u) if good[v]),
                                        reverse=True)
            for u, ok in good.items() if ok}


def test_one_field_tight_steps_equal_the_two_field_rule(monkeypatch):
    # free-field grids at random pairs, and snake graphs at every ordered
    # pair: there ties between chains of visible pairs are exact in the
    # reals, so many pairs have several geodesics
    inputs = []
    for s in (56, 57):
        space = space_from_field(sample_dgff(16, RngStream(s)), DEFAULT_GAMMA)
        gen = RngStream(59).generator()
        pairs = [tuple(int(x) for x in gen.integers(space.n, size=2))
                 for _ in range(12)]
        inputs.append((space, [(a, b) for a, b in pairs if a != b]))
    for s in (75, 76):
        sp = snake_graph(48, RngStream(s).named("snake"))[0]
        inputs.append((sp, list(permutations(range(sp.n), 2))))
    limits = _count_searches(monkeypatch)
    several = 0
    for space, pairs in inputs:
        for a, b in pairs:
            searches = len(limits)
            total, eps, succ = _tight_steps(space, a, b)
            assert limits[searches:] == [np.inf]  # a's field alone
            assert total == space.dist_from(a)[b]
            assert eps == 1e-9 * max(total, 1.0)
            ref = _numpy_succ(space, a, b, eps)
            assert [succ(u) for u in range(space.n)] == \
                [ref(u) for u in range(space.n)]
            several += _geodesic_dag(space, a, b)[3][a] > 1
        _check_corridors(space, pairs, limits)
    assert several > 1000
    # weights of 0 and below eps: the two-field rule also lists steps into
    # vertices whose only way on to b is an edge to a vertex as far from a,
    # which no step takes; the DAGs agree, and the one-field rule lists no
    # such step
    tiny = _graph_fixture(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4),
                              (2, 4), (4, 5), (3, 5)],
                          [1.0, 1.0, 1e-12, 1.0, 1.0, 0.5, 2.0, 0.0, 0.5])
    for a, b in permutations(range(tiny.n), 2):
        total, eps, succ = _tight_steps(tiny, a, b)
        dag = _geodesic_dag(tiny, a, b)[2]
        assert dag == _pruned_dag(_numpy_succ(tiny, a, b, eps), a, b)
        assert all(sorted(succ(u), reverse=True) == vs for u, vs in dag.items()
                   if u != b)


def _count_searches(monkeypatch):
    """Record the limit of every search a graph space runs: inf for each
    full field (``dist_from``), the bound of each ``dist_to_set``."""
    real_from, real_to_set, limits = GraphSpace.dist_from, GraphSpace.dist_to_set, []

    def dist_from(self, i):
        limits.append(np.inf)
        return real_from(self, i)

    def dist_to_set(self, sources, limit=np.inf):
        limits.append(limit)
        return real_to_set(self, sources, limit)
    monkeypatch.setattr(GraphSpace, "dist_from", dist_from)
    monkeypatch.setattr(GraphSpace, "dist_to_set", dist_to_set)
    return limits


def _csgraph_searches(monkeypatch):
    """Record the name of every scipy.sparse.csgraph search that runs."""
    import scipy.sparse.csgraph as csgraph
    names = []
    for name in ("dijkstra", "bellman_ford", "johnson", "shortest_path",
                 "floyd_warshall", "breadth_first_order", "depth_first_order",
                 "breadth_first_tree", "depth_first_tree"):
        def spy(*args, _real=getattr(csgraph, name), _name=name, **kwargs):
            names.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(csgraph, name, spy)
    return names


def test_unit_weight_tracing_and_enumeration_run_no_search(monkeypatch):
    sp = _quad_space(2000, 60)
    limits = _count_searches(monkeypatch)
    scipy_searches = _csgraph_searches(monkeypatch)
    gen = RngStream(61).generator()
    for k in range(20):
        a, b = (int(x) for x in gen.integers(sp.n, size=2))
        if a != b:
            extract_geodesic(sp, a, b, RngStream(k))
            try:
                enumerate_geodesics(sp, a, b, cap=16)
            except ResourceLimitError:
                pass  # counted on the DAG, which needs no search either
    assert limits == []
    assert scipy_searches == []


def test_confluence_anchors_are_bounded_searches(monkeypatch):
    sp = _quad_space(1000, 65)
    limits = _count_searches(monkeypatch)
    real, totals = geodesics._tight_steps, []

    def spy(*args):
        rule = real(*args)
        totals.append(rule[0])
        return rule
    monkeypatch.setattr(geodesics, "_tight_steps", spy)
    # anchors lie 4 * 2.5 = 10 apart; the rule of the first geodesic gives
    # each anchor's distance, so rejected anchors cost no search, and the
    # only searches are the doubling rounds of the Hausdorff distances
    _, samples = strong_confluence_statistic(sp, [1, 2.5], RngStream(66),
                                             n_pairs=15, return_samples=True)
    assert len(samples) == 15 and any(t < 10.0 for t in totals)
    assert limits and set(limits) <= {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}


def test_rejected_weighted_anchor_costs_one_field(monkeypatch, tmp_path):
    # on a weighted graph every anchor costs a's field alone, whether it is
    # rejected on d(a, b) or traced
    fields = []
    real_from = GraphSpace.dist_from

    def dist_from(self, i):
        fields.append(i)
        return real_from(self, i)
    monkeypatch.setattr(GraphSpace, "dist_from", dist_from)
    real, stepped = geodesics._tight_steps, []

    def spy(*args):
        total, eps, succ = real(*args)
        stepped.append(False)
        k = len(stepped) - 1

        def counted(u):
            stepped[k] = True
            return succ(u)
        return total, eps, counted
    monkeypatch.setattr(geodesics, "_tight_steps", spy)
    sp, _ = snake_graph(1024, RngStream(73).named("snake"))
    strong_confluence_statistic(sp, [0.25], RngStream(74), n_pairs=10)
    assert not all(stepped) and any(stepped)
    assert len(fields) == len(stepped)
    # the analyze records are those of the two-field rules, which ran 2,444
    # fields here with b's field up front and 1,247 with it on first use
    fields.clear()
    monkeypatch.setenv("BML_DATA_DIR", str(tmp_path))
    assert run(["analyze", "--kind", "snake", "--n", "1024", "--seed", "3",
                "--out", "a.jsonl"]) == 0
    assert hashlib.sha256((tmp_path / "a.jsonl").read_bytes()).hexdigest() == \
        "833dab0ecf80cab5eea529936f198a1729e83b0f23db9053cefcdffde5a18293"
    assert len(fields) == 1227


def test_star_census_computes_one_field_per_centre(monkeypatch):
    sp = _quad_space(2000, 67)
    limits = _count_searches(monkeypatch)
    centers = [0, 17, 400]
    star_census(sp, 5, 3.0, centers, RngStream(68), restarts=4)
    assert limits == [np.inf] * len(centers)


def test_weighted_star_census_reuses_the_centre_field(monkeypatch):
    # one full field per centre, handed to every geodesic traced from it:
    # each target's corridor is a walk down the centre's field
    sp = space_from_field(sample_dgff(24, RngStream(69)), DEFAULT_GAMMA)
    limits = _count_searches(monkeypatch)
    real, traced = geodesics._trace, []

    def spy(*args):
        traced.append(args[2])
        return real(*args)
    monkeypatch.setattr(geodesics, "_trace", spy)
    centers = [0, 300, 555]
    reports = star_census(sp, 3, 2.0, centers, RngStream(70), restarts=3)
    assert all(not r.skipped for r in reports) and traced
    assert limits == [np.inf] * len(centers)


def test_identified_endpoints_and_nonpositive_scales_are_value_errors():
    # the excursion's two ends are one point of the snake metric: one vertex
    sp, vertex = snake_graph(24, RngStream(72).named("snake"))
    for fn in (extract_geodesic, enumerate_geodesics):
        with pytest.raises(ValueError, match="distinct"):
            fn(sp, int(vertex[0]), int(vertex[-1]))
    for scales in ([0.0, 1.0, 10.0], [0.0, 0.0, 0.0], [-1.0, 1.0, 10.0]):
        with pytest.raises(ValueError, match="spanning a decade"):
            frame_box_dimension(path_graph(30), 4, scales, RngStream(71))


def test_unreachable_target_raises_instead_of_hanging():
    edges = [(0, 1), (1, 2), (3, 4), (4, 5)]
    for sp in (_graph_fixture(6, edges), _graph_fixture(6, edges, [0.5, 1.5, 2.0, 0.25])):
        with pytest.raises(AssertionError, match="not reachable"):
            extract_geodesic(sp, 0, 5, RngStream(46))
        with pytest.raises(AssertionError, match="not reachable"):
            enumerate_geodesics(sp, 0, 5)
        assert hausdorff_distance(sp, [0, 1], [4]) == np.inf
        assert extract_geodesic(sp, 3, 5).vertices == [3, 4, 5]


def test_adjacency_is_read_only_through_every_return_value():
    quad = cvs_construct(sample_labeled_tree(50, RngStream(47)))
    sp = GraphSpace.from_quad(quad)
    indptr, indices = quad.adjacency()
    before = indices.copy()
    vs, _ = sp.neighbors(0)
    grid = space_from_field(sample_dgff(6, RngStream(48)), DEFAULT_GAMMA)
    _, ws = grid.neighbors(7)
    for arr in (vs, indptr, indices, sp.indptr, sp.indices, ws, grid.weights):
        with pytest.raises(ValueError):
            arr[0] = arr[-1]
    assert np.array_equal(quad.adjacency()[1], before)
    own = np.array([0, 1, 2])
    GraphSpace(own, np.array([1, 0]))
    own[0] = 0  # the caller's array keeps its own flags


def test_weighted_ball_is_the_bounded_search_ball(monkeypatch):
    sp = space_from_field(sample_dgff(16, RngStream(49)), DEFAULT_GAMMA)
    radii = (0.0, 0.5, 1.7, 4.0, 1e9)
    limits = _count_searches(monkeypatch)
    balls = {(src, r): sp.ball(src, r) for src in (0, 100, 255) for r in radii}
    assert limits == [r for _, r in balls]  # one search bounded by each radius
    for (src, r), ball in balls.items():
        dist = sp.dist_from(src)
        assert np.array_equal(ball, np.flatnonzero(dist <= r))
        edge = float(dist[37])  # a radius met exactly by a vertex
        assert np.array_equal(sp.ball(src, edge), np.flatnonzero(dist <= edge))
