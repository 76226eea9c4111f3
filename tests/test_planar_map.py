import hashlib
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chisquare

from bmlab.acceptance import _all_contours, _tree_from
from bmlab.planar_map import (MAX_EDGES, LabeledPlaneTree, Quadrangulation,
                              _corner_successors, _hull_levels, bfs_metric,
                              boundary_length_process, calibrate_scaling,
                              cvs_construct, sample_labeled_tree)
from bmlab.rng import RngStream


def _successors_oracle(corner_labels):
    """Scalar cyclic scan: from each corner walk forward along the contour
    to the first corner whose label is one less (-1 at the minimal label)."""
    labels = [int(x) for x in corner_labels]
    n2 = len(labels)
    lmin = min(labels)
    succ = []
    for k, lab in enumerate(labels):
        if lab == lmin:
            succ.append(-1)
            continue
        j = (k + 1) % n2
        while labels[j] != lab - 1:
            j = (j + 1) % n2
        succ.append(j)
    return np.array(succ, dtype=np.int64), lmin


def _cvs_oracle(tree, sign=1):
    """Corner chaining with explicit per-corner and per-vertex lists, the
    loop form that ``cvs_construct`` replaced; kept to pin its output."""
    n = tree.n_edges
    n2 = 2 * n
    verts = tree.contour_vertices()
    succ, lmin = _successors_oracle(tree.labels[verts])
    star = int(n + 1)
    incoming = [[] for _ in range(n2)]
    star_sources = []
    for k in range(n2):
        tgt = succ[k]
        if tgt < 0:
            star_sources.append(k)
        else:
            incoming[tgt].append(k)
    for k in range(n2):
        if len(incoming[k]) > 1:
            incoming[k].sort(key=lambda src: (k - src) % n2)
    tail = np.empty(2 * n2, dtype=np.int64)
    tail[0::2] = verts[np.arange(n2)]
    tail[1::2] = np.where(succ >= 0, verts[succ], star)
    corners_of_vertex = [[] for _ in range(n + 1)]
    for k in range(n2):
        corners_of_vertex[verts[k]].append(k)
    rotations = [[] for _ in range(n + 2)]
    for v in range(n + 1):
        for k in corners_of_vertex[v]:
            for src in incoming[k]:
                rotations[v].append(2 * src + 1)
            rotations[v].append(2 * k)
    rotations[star] = [2 * k + 1 for k in reversed(star_sources)]
    next_out = np.empty(2 * n2, dtype=np.int64)
    for rot in rotations:
        r = np.asarray(rot)
        next_out[r] = np.roll(r, -1)
    return Quadrangulation(tail, next_out, 0 if sign == 1 else 1, star, n,
                           meta={"label_min": lmin})


def _assert_same_quad(quad, ref):
    assert quad.tail.dtype == ref.tail.dtype == np.int64
    assert quad.next_out.dtype == ref.next_out.dtype == np.int64
    assert np.array_equal(quad.tail, ref.tail)
    assert np.array_equal(quad.next_out, ref.next_out)
    assert quad.root_half_edge == ref.root_half_edge
    assert quad.pointed_vertex == ref.pointed_vertex
    assert quad.n_faces == ref.n_faces
    assert quad.meta == ref.meta


# ---------------------------------------------------------------------------
# trees

def test_single_edge_tree_is_unique_shape():
    t = sample_labeled_tree(1, RngStream(0))
    assert t.n_edges == 1
    assert t.contour.tolist() == [1, -1]
    assert abs(int(t.labels[1])) <= 1


def test_tree_label_increment_distribution():
    vals = [int(sample_labeled_tree(1, RngStream(1).split(r)).labels[1])
            for r in range(30_000)]
    counts = np.bincount(np.array(vals) + 1, minlength=3)
    _, p = chisquare(counts)
    assert p > 1e-3


def test_tree_shapes_uniform_over_catalan5():
    # n=3 has Catalan(3) = 5 plane trees
    shapes = {}
    for r in range(100_000):
        t = sample_labeled_tree(3, RngStream(2).split(r))
        shapes[tuple(t.contour.tolist())] = shapes.get(tuple(t.contour.tolist()), 0) + 1
    assert len(shapes) == 5
    _, p = chisquare(np.array(list(shapes.values())))
    assert p > 1e-3


def test_contour_nonnegative_and_validation():
    for r in range(50):
        t = sample_labeled_tree(17, RngStream(3).split(r))
        walk = np.cumsum(t.contour)
        assert walk[-1] == 0 and np.all(walk[:-1] >= 0)
    with pytest.raises(ValueError):
        sample_labeled_tree(0, RngStream(0))
    with pytest.raises(ValueError):
        LabeledPlaneTree(1, np.array([1, -1]), np.array([5]))


def _walk_oracle(contour, incs):
    """Labels and contour vertices from two separate stack walks, the form
    the one-walk ``LabeledPlaneTree`` replaced; kept to pin its output."""
    labels = np.zeros(len(contour) // 2 + 1, dtype=np.int64)
    stack = [0]
    nxt = 1
    for step in contour:
        if step == 1:
            labels[nxt] = labels[stack[-1]] + incs[nxt - 1]
            stack.append(nxt)
            nxt += 1
        else:
            stack.pop()
    verts = np.empty(len(contour), dtype=np.int64)
    stack = [0]
    nxt = 1
    for k, step in enumerate(contour):
        verts[k] = stack[-1]
        if step == 1:
            stack.append(nxt)
            nxt += 1
        else:
            stack.pop()
    return labels, verts


def _assert_matches_walk_oracle(tree):
    labels, verts = _walk_oracle(tree.contour.tolist(), tree.increments.tolist())
    assert tree.labels.dtype == tree.contour_vertices().dtype == np.int64
    assert np.array_equal(tree.labels, labels)
    assert np.array_equal(tree.contour_vertices(), verts)
    for derived in (tree.labels, tree.contour_vertices()):
        with pytest.raises(ValueError, match="read-only"):
            derived[0] += 1


def test_one_walk_matches_two_walk_oracle():
    for n in (1, 2, 3):
        for contour in _all_contours(n):
            for incs in product((-1, 0, 1), repeat=n):
                _assert_matches_walk_oracle(_tree_from(contour, incs))
    for n in (1, 5, 60, 700, 4000):
        for r in range(4):
            _assert_matches_walk_oracle(sample_labeled_tree(n, RngStream(7).split(n + r)))


def test_tree_rejects_bad_increments_and_contours():
    up_down = np.array([1, 1, -1, -1])
    for incs in ([0], [0, 1, 1], []):  # one increment per edge
        with pytest.raises(ValueError):
            LabeledPlaneTree(2, up_down, np.array(incs))
    with pytest.raises(ValueError):
        LabeledPlaneTree(2, up_down, np.array([0, 5]))
    with pytest.raises(ValueError):
        LabeledPlaneTree(2, np.array([1, -1, -1, 1]), np.array([0, 0]))
    with pytest.raises(ValueError):  # steps must be +-1
        LabeledPlaneTree(1, np.array([2, -2]), np.array([0]))
    with pytest.raises(ValueError):
        LabeledPlaneTree(0, np.array([]), np.array([]))


def test_tree_and_quadrangulation_golden_digest():
    # digest of labels, contour vertices, rotations and BFS distances,
    # pinned before the tree's two contour walks became one
    h = hashlib.sha256()
    for n in (1, 2, 3, 7, 40, 300, 4000, 50000):
        for r in range(30 if n < 5000 else 2):
            t = sample_labeled_tree(n, RngStream(5).split(n * 100 + r))
            q = cvs_construct(t)
            q.validate()
            h.update(t.labels.tobytes() + t.contour_vertices().tobytes()
                     + q.next_out.tobytes() + q.tail.tobytes()
                     + bfs_metric(q, q.pointed_vertex).tobytes())
    assert h.hexdigest() == \
        "274316a3291ca9cd92426249927b78af6be7a1620beb97d51dac652332a54852"


# ---------------------------------------------------------------------------
# corner-chaining construction

def test_construction_exhaustive_small_sizes():
    # validity, distance identity, injectivity, and full image coverage
    # (input count equals the known count of rooted pointed maps)
    for n in (1, 2, 3):
        keys = set()
        inputs = 0
        for contour in _all_contours(n):
            for incs in product((-1, 0, 1), repeat=n):
                tree = _tree_from(contour, incs)
                for sign in (1, -1):
                    quad = cvs_construct(tree, sign)
                    quad.validate()
                    dist = bfs_metric(quad, quad.pointed_vertex)
                    expect = tree.labels - tree.labels.min() + 1
                    assert np.array_equal(dist[: n + 1], expect)
                    keys.add(quad.canonical_key())
                    inputs += 1
        assert len(keys) == inputs  # injective, image multiplicity one


def _assert_successors(corner_labels):
    succ, lmin = _corner_successors(np.asarray(corner_labels, dtype=np.int64))
    want, want_min = _successors_oracle(corner_labels)
    assert succ.dtype == np.int64
    assert np.array_equal(succ, want) and lmin == want_min


def test_corner_successors_match_cyclic_scan():
    inputs = 0
    for n in (1, 2, 3):
        for contour in _all_contours(n):
            for incs in product((-1, 0, 1), repeat=n):
                tree = _tree_from(contour, incs)
                _assert_successors(tree.labels[tree.contour_vertices()])
                inputs += 1
    assert inputs == 3 * 1 + 9 * 2 + 27 * 5
    # long runs of equal labels: mostly zero increments, so one label owns
    # many corners and the wrap to a group's start is taken often
    for r in range(40):
        gen = RngStream(23).split(r).generator()
        n = int(gen.integers(1, 300))
        contour = sample_labeled_tree(n, RngStream(24).split(r)).contour
        incs = gen.choice([-1, 0, 1], size=n, p=[0.04, 0.92, 0.04])
        tree = LabeledPlaneTree(n, contour, incs)
        _assert_successors(tree.labels[tree.contour_vertices()])
    # label sequences that are not tree contours: plateaus and cliffs
    for labels in ([0], [5, 5, 5], [0, 1, 1, 1, 0, 1, 2, 2, 1],
                   [3, 2, 2, 3, 4, 4, 3, 2, 1, 1]):
        _assert_successors(labels)


def test_construction_matches_loop_oracle_exhaustive():
    inputs = 0
    for n in (1, 2, 3, 4):
        for contour in _all_contours(n):
            for incs in product((-1, 0, 1), repeat=n):
                tree = _tree_from(contour, incs)
                for sign in (1, -1):
                    _assert_same_quad(cvs_construct(tree, sign),
                                      _cvs_oracle(tree, sign))
                    inputs += 1
    assert inputs == 2580


@pytest.mark.parametrize("n", [5, 17, 100, 4000])
def test_construction_matches_loop_oracle_random(n):
    for r in range(6 if n < 4000 else 2):
        tree = sample_labeled_tree(n, RngStream(10).split(n).split(r))
        for sign in (1, -1):
            _assert_same_quad(cvs_construct(tree, sign),
                              _cvs_oracle(tree, sign))


@pytest.mark.parametrize("seed,digest", [
    (41, "7a1c880948dee03ca1c42ae7a2c08ea84fc420d9b07eb2089d409f09f0059f84"),
    (42, "06cc2989f4f5ef6bf1f9f3b4d6d715811603e308231e37dfc11ea3e0e8574685"),
])
def test_construction_golden_digest(seed, digest):
    # SHA-256 of tail + next_out (little-endian int64) at 4000 faces
    quad = cvs_construct(sample_labeled_tree(4000, RngStream(seed).named("golden")))
    payload = quad.tail.astype("<i8").tobytes() + quad.next_out.astype("<i8").tobytes()
    assert hashlib.sha256(payload).hexdigest() == digest


def test_adjacency_is_the_stable_order_by_tail():
    # geodesic traces index into this neighbour order, so it is pinned
    for n in list(range(1, 61)) + [4000]:
        quad = cvs_construct(sample_labeled_tree(n, RngStream(31).split(n)))
        order = np.argsort(quad.tail, kind="stable")
        want_indptr = np.concatenate([[0], np.cumsum(np.bincount(quad.tail))])
        indptr, indices = quad.adjacency()
        assert indptr.dtype == indices.dtype == np.int64
        assert np.array_equal(indptr, want_indptr)
        assert np.array_equal(indices, quad.tail[order ^ 1])


def test_sort_key_fits_int64_at_the_largest_accepted_size():
    # the key (tail * b + corner) * b + sub, b = 2n + 1, has tail <= n + 1
    # and corner, sub <= 2n, so it stays below (n + 2) b^2
    n = MAX_EDGES
    b = 2 * n + 1
    assert (n + 1) * b * b + 2 * n * b + 2 * n < (n + 2) * b * b <= 2 ** 63 - 1
    # the first rejected size: refused before any array is built
    too_big = SimpleNamespace(n_edges=MAX_EDGES + 1)
    with pytest.raises(ValueError, match="at most 1,300,000 edges"):
        cvs_construct(too_big)


def _valid_quad():
    return cvs_construct(sample_labeled_tree(30, RngStream(12)))


def test_validate_rejects_faces_of_degree_two_and_three():
    quad = Quadrangulation(np.array([0, 1]), np.array([0, 1]), 0, 1, 1)
    with pytest.raises(ValueError, match="all faces must have degree 4"):
        quad.validate()
    # a triangle: two faces of degree 3
    tri = Quadrangulation(np.array([0, 1, 1, 2, 2, 0]),
                          np.array([5, 2, 1, 4, 3, 0]), 0, 2, 1)
    with pytest.raises(ValueError, match="all faces must have degree 4"):
        tri.validate()


def test_validate_rejects_a_disconnected_map():
    # a valid map plus a one-vertex, one-face torus: the counts still hold
    quad = _valid_quad()
    v, m = quad.n_vertices, quad.n_half_edges
    quad.validate()
    union = Quadrangulation(np.concatenate([quad.tail, [v] * 4]),
                            np.concatenate([quad.next_out, m + np.array([2, 3, 1, 0])]),
                            0, 0, quad.n_faces + 1)
    with pytest.raises(ValueError, match="map is not connected"):
        union.validate()


def test_validate_rejects_a_non_permutation():
    quad = _valid_quad()
    quad.next_out[0] = quad.next_out[1]
    with pytest.raises(ValueError, match="next_out is not a permutation"):
        quad.validate()
    quad = _valid_quad()
    quad.next_out = quad.next_out[:-2]
    with pytest.raises(ValueError, match="next_out is not a permutation"):
        quad.validate()


def test_validate_rejects_a_rotation_off_the_tail():
    quad = _valid_quad()
    assert quad.tail[0] != quad.tail[1]
    quad.next_out[[0, 1]] = quad.next_out[[1, 0]]
    with pytest.raises(ValueError, match="next_out must preserve the tail vertex"):
        quad.validate()


def test_validate_rejects_a_wrong_face_count():
    quad = _valid_quad()
    quad.validate()
    quad.n_faces += 1
    with pytest.raises(ValueError, match="face/edge/vertex counts are inconsistent"):
        quad.validate()


def test_counts_and_structure_random_samples():
    for r in range(20):
        n = int(RngStream(5).split(r).generator().integers(2, 60))
        tree = sample_labeled_tree(n, RngStream(6).split(r))
        quad = cvs_construct(tree, 1)
        quad.validate()
        assert quad.n_vertices == n + 2
        assert quad.n_edges == 2 * n
        assert quad.n_faces == n


def test_distance_identity_large_samples():
    for r in range(4):
        tree = sample_labeled_tree(10_000, RngStream(7).split(r))
        quad = cvs_construct(tree, 1)
        dist = bfs_metric(quad, quad.pointed_vertex)
        expect = tree.labels - tree.labels.min() + 1
        assert np.array_equal(dist[: 10_001], expect)


def test_bfs_metric_fixture_n1():
    # single-edge tree with label increment -1: path map r - a - v*
    tree = _tree_from((1, -1), (-1,))
    quad = cvs_construct(tree, 1)
    d = bfs_metric(quad, quad.pointed_vertex)
    assert d[quad.pointed_vertex] == 0
    assert sorted(d.tolist()) == [0, 1, 2]
    # bipartite parity: distances change parity across each edge
    tails = quad.tail
    heads = quad.tail[np.arange(quad.n_half_edges) ^ 1]
    dd = bfs_metric(quad, 0)
    assert np.all((dd[tails] - dd[heads]) % 2 == 1)


def test_bfs_parity_on_random_quad():
    tree = sample_labeled_tree(200, RngStream(8))
    quad = cvs_construct(tree, 1)
    d = bfs_metric(quad, 5)
    tails = quad.tail
    heads = quad.tail[np.arange(quad.n_half_edges) ^ 1]
    assert np.all((d[tails] - d[heads]) % 2 == 1)
    assert d[5] == 0


# ---------------------------------------------------------------------------
# hulls

def _fixture_quad():
    tree = sample_labeled_tree(60, RngStream(9))
    return cvs_construct(tree, 1)


def _complement_components(quad, ball):
    """Component id per vertex of the ball's complement (-1 on the ball),
    by a plain depth-first search."""
    comp = -np.ones(quad.n_vertices, dtype=int)
    indptr, indices = quad.adjacency()
    cid = 0
    for s in range(quad.n_vertices):
        if ball[s] or comp[s] >= 0:
            continue
        stack = [s]
        comp[s] = cid
        while stack:
            v = stack.pop()
            for w in indices[indptr[v]:indptr[v + 1]]:
                if not ball[w] and comp[w] < 0:
                    comp[w] = cid
                    stack.append(w)
        cid += 1
    return comp


def _oracle_hull(quad, dist, basepoint, r):
    """The ball of radius r with every hole that misses the basepoint
    filled: all but the basepoint's component of the ball's complement."""
    comp = _complement_components(quad, dist <= r)
    return comp != comp[basepoint]


def _edges_out_of(quad, mask):
    heads = quad.tail[np.arange(quad.n_half_edges) ^ 1]
    return int(np.count_nonzero(mask[quad.tail] & ~mask[heads]))


def test_hulls_contain_the_ball_exclude_the_basepoint_and_nest():
    quad = _fixture_quad()
    center = quad.pointed_vertex
    dist = bfs_metric(quad, center)
    basepoint = int(np.argmax(dist))
    dcb = int(dist[basepoint])
    assert dcb >= 3
    levels = _hull_levels(quad, center, basepoint)
    assert levels[center] == 0 and levels[basepoint] == dcb
    prev = None
    for r in range(1, dcb):
        hull = levels <= r
        assert hull[center] and not hull[basepoint]
        assert np.all(hull[dist <= r])  # contains the metric ball
        if prev is not None:
            assert np.all(prev <= hull)  # nesting
        prev = hull


def _pairs(faces, count, seed):
    """``count`` (map, centre, basepoint) triples at ``faces`` faces: a
    uniform centre, and a uniform basepoint at distance 2 or more and at
    least half the centre's eccentricity."""
    out = []
    for k in range(count):
        quad = cvs_construct(sample_labeled_tree(faces, RngStream(seed).split(k)), 1)
        gen = RngStream(seed + 1).split(k).generator()
        center = int(gen.integers(quad.n_vertices))
        dist = bfs_metric(quad, center)
        basepoint = int(gen.choice(np.flatnonzero(dist >= max(2, dist.max() // 2))))
        out.append((quad, center, basepoint))
    return out


@pytest.mark.parametrize("faces,count", [(40, 8), (300, 4), (5000, 2)])
def test_hulls_match_the_component_oracle_at_every_radius(faces, count):
    # independent oracle: enumerate the components of the ball's complement
    # directly, at every admissible radius, on random (centre, basepoint)
    # pairs and, at the smallest size, a hand fixture from v*
    cases = _pairs(faces, count, 70 + faces)
    if faces == 40:
        quad = cvs_construct(_tree_from((1, 1, -1, -1, 1, -1), (1, -1, 1)), 1)
        far = int(np.argmax(bfs_metric(quad, quad.pointed_vertex)))
        cases.append((quad, quad.pointed_vertex, far))
    for quad, center, basepoint in cases:
        dist = bfs_metric(quad, center)
        levels = _hull_levels(quad, center, basepoint)
        ls = boundary_length_process(quad, center, basepoint)
        assert len(ls) == dist[basepoint] - 1
        for r in range(1, int(dist[basepoint])):
            hull = _oracle_hull(quad, dist, basepoint, r)
            assert np.array_equal(levels <= r, hull)
            assert ls[r - 1] == _edges_out_of(quad, hull)


def test_boundary_length_process_positive_and_hand_checked():
    quad = _fixture_quad()
    center = quad.pointed_vertex
    dist = bfs_metric(quad, center)
    basepoint = int(np.argmax(dist))
    ls = boundary_length_process(quad, center, basepoint)
    assert len(ls) == int(dist[basepoint]) - 1
    assert np.all(ls >= 1)
    assert ls[0] == _edges_out_of(quad, _oracle_hull(quad, dist, basepoint, 1))
    near = int(quad.tail[np.flatnonzero(quad.tail == center)[0] ^ 1])
    for too_close in (center, near):
        with pytest.raises(ValueError, match="d\\(center, basepoint\\) >= 2"):
            boundary_length_process(quad, center, too_close)
        with pytest.raises(ValueError):
            _hull_levels(quad, center, too_close)


# (faces, map, centre, basepoint, process): the maps are
# RngStream(61).split(map); basepoint -1 is the pointed vertex v*
_PINNED_PROCESSES = [
    (300, 0, 196, 165, [10, 29, 51, 15, 7, 4, 4, 4, 2]),
    (300, 1, 138, 213, [5, 14, 15, 18, 32, 11, 11, 13, 8, 7, 4, 1]),
    (300, 2, 293, 253, [2, 8, 5, 3, 5, 13, 17, 6, 4, 4, 4, 4, 4, 3, 1]),
    (300, 3, 112, -1, [4, 8, 18, 41, 11, 20, 15, 12, 4]),
    (5000, 0, 3253, 973, [5, 3, 24, 21, 27, 46, 42, 49, 54, 46, 59, 106, 121,
                          234, 46, 25, 2, 5, 14, 16, 24, 19, 16, 21, 2, 2, 2,
                          8, 4, 2, 1]),
    (5000, 1, 2294, 4757, [26, 42, 58, 73, 88, 166, 146, 143, 141, 113, 139,
                           124, 132, 22, 21, 22, 9, 18, 29, 47, 82, 21, 9, 14,
                           31, 4, 3, 3, 2, 1]),
    (5000, 2, 4867, -1, [2, 5, 10, 19, 41, 66, 96, 57, 85, 37, 27, 31, 24]),
]


@pytest.mark.parametrize("faces,k,center,basepoint,want", _PINNED_PROCESSES)
def test_boundary_length_process_pinned(faces, k, center, basepoint, want):
    quad = cvs_construct(sample_labeled_tree(faces, RngStream(61).split(k)), 1)
    if basepoint < 0:
        basepoint = quad.pointed_vertex
    assert center != quad.pointed_vertex
    ls = boundary_length_process(quad, center, basepoint)
    assert ls.dtype == np.int64
    assert ls.tolist() == want


# ---------------------------------------------------------------------------
# scaling calibration

def test_calibrate_scaling_identity_and_equivariance():
    a = [np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0])]
    assert calibrate_scaling(a, a) == pytest.approx(1.0)
    doubled = [2 * x for x in a]
    assert calibrate_scaling(a, doubled) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        calibrate_scaling([], a)


def test_calibrated_scale_tracks_quarter_power():
    # kappa(n) * n^(1/4) approximately constant across sizes
    snake_ref = [np.array([1.0])]  # fixed reference family
    kappas = {}
    for n in (2000, 4000, 8000):
        dists = []
        for r in range(40):
            tree = sample_labeled_tree(n, RngStream(20 + n).split(r))
            dists.append(tree.labels - tree.labels.min() + 1)
        kappas[n] = calibrate_scaling(dists, snake_ref) * n ** 0.25
    vals = np.array(list(kappas.values()))
    assert vals.max() / vals.min() < 1.10


def test_max_boundary_tail_report_emits_slope_and_ci():
    from bmlab.planar_map import max_boundary_tail_report
    maxima = []
    for r in range(24):
        tree = sample_labeled_tree(400, RngStream(30).split(r))
        quad = cvs_construct(tree, 1)
        dist = bfs_metric(quad, quad.pointed_vertex)
        far = int(np.argmax(dist))
        ls = boundary_length_process(quad, quad.pointed_vertex, far)
        maxima.append(int(ls.max()))
    rep = max_boundary_tail_report(maxima)
    assert np.isfinite(rep["tail_slope"])
    assert rep["ci95"][0] <= rep["tail_slope"] <= rep["ci95"][1]
    assert rep["samples"] == 24
    with pytest.raises(ValueError):
        max_boundary_tail_report([1, 2, 3])


def test_quad_json_roundtrip():
    quad = _fixture_quad()
    back = Quadrangulation.from_json(quad.to_json())
    assert np.array_equal(back.tail, quad.tail)
    assert np.array_equal(back.next_out, quad.next_out)
    assert back.pointed_vertex == quad.pointed_vertex
    back.validate()
