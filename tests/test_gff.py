import math

import numpy as np
import pytest

from bmlab.geodesics import enumerate_geodesics
from bmlab.gff import (DEFAULT_GAMMA, GffField, dgff_batch,
                       dirichlet_green_matrix, geodesic_overlay, overlay_csv,
                       overlay_svg, path_length, sample_dgff)
from bmlab.rng import RngStream
from bmlab.spaces import space_from_field


def vertex_path_length_of(fld, gamma, geo):
    """Vertex-sum length of a geodesic produced on the weighted grid space:
    the edge-metric length plus half the endpoint weights (the split-vertex
    correction), which should match ``path_length`` exactly."""
    w = np.exp(gamma * fld.values).ravel()
    a, b = geo.vertices[0], geo.vertices[-1]
    return float(geo.length + 0.5 * (w[a] + w[b]))


def test_frame_is_exactly_zero():
    for seed in (1, 2):
        f = sample_dgff(12, RngStream(seed))
        assert np.all(f.values[0] == 0) and np.all(f.values[-1] == 0)
        assert np.all(f.values[:, 0] == 0) and np.all(f.values[:, -1] == 0)
        assert np.any(f.values[1:-1, 1:-1] != 0)
    with pytest.raises(ValueError):
        sample_dgff(2, RngStream(0))


def test_field_covariance_matches_green_function():
    # MC variance and covariance vs the direct linear-solve inverse of the
    # same degree-minus-adjacency operator
    n, reps = 9, 10_000
    fields = dgff_batch(n, RngStream(5), reps)
    interior = fields[:, 1:-1, 1:-1].reshape(reps, -1)
    green = dirichlet_green_matrix(n)
    m = interior.shape[1]
    center = m // 2
    sq = interior[:, center] ** 2
    se = sq.std(ddof=1) / np.sqrt(reps)
    assert abs(sq.mean() - green[center, center]) < 3 * se
    # off-diagonal entries
    gen = RngStream(6).generator()
    for _ in range(6):
        a, b = gen.integers(m, size=2)
        prod = interior[:, a] * interior[:, b]
        se = prod.std(ddof=1) / np.sqrt(reps)
        assert abs(prod.mean() - green[a, b]) < 3 * se + 1e-12


def test_path_length_fixtures():
    flat = GffField(np.zeros((5, 5)))
    path = [(0, 0), (0, 1), (1, 1), (2, 1)]
    assert path_length(flat, DEFAULT_GAMMA, path) == pytest.approx(4.0)
    vals = np.zeros((3, 3))
    vals[1, 1] = np.log(2.0)
    f = GffField(vals)
    assert path_length(f, 1.0, [(1, 1)]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        path_length(flat, 1.0, [(0, 0), (1, 1)])  # diagonal step
    with pytest.raises(ValueError):
        path_length(flat, 1.0, [])
    with pytest.raises(ValueError):
        path_length(flat, 1.0, [(0, 0), (0, -1)])


def test_path_length_matches_independent_resummation():
    f = sample_dgff(8, RngStream(7))
    gen = RngStream(8).generator()
    path = [(4, 4)]
    for _ in range(9):
        r, c = path[-1]
        opts = [(r + dr, c + dc) for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0))
                if 0 <= r + dr < 8 and 0 <= c + dc < 8]
        path.append(opts[gen.integers(len(opts))])
    expect = sum(np.exp(0.3 * f.values[r, c]) for r, c in path)
    assert path_length(f, 0.3, path) == pytest.approx(float(expect), rel=1e-12)


def test_path_length_concatenation_additivity():
    f = sample_dgff(9, RngStream(9))
    path = [(1, 1), (1, 2), (2, 2), (3, 2), (3, 3), (4, 3)]
    for cut in (1, 2, 3, 4):
        left, right = path[: cut + 1], path[cut:]
        shared = np.exp(DEFAULT_GAMMA * f.values[path[cut]])
        total = path_length(f, DEFAULT_GAMMA, left) \
            + path_length(f, DEFAULT_GAMMA, right) - shared
        assert total == pytest.approx(path_length(f, DEFAULT_GAMMA, path), rel=1e-12)


def test_flat_field_geodesics_are_l1_staircases():
    flat = GffField(np.zeros((6, 6)))
    space = space_from_field(flat, 1.0)
    a, b = 0, 35  # opposite corners of the 6x6 box
    paths = enumerate_geodesics(space, a, b)
    # C(10, 5) 11-vertex monotone staircase paths; vertex-sum length = 11
    assert len(paths) == math.comb(10, 5)
    assert all(len(p) == 11 for p in paths)
    assert vertex_path_length_of(flat, 1.0, paths[0]) == pytest.approx(11.0)


def test_flat_2x2_bundle_has_exactly_two_paths():
    # 2x2 grid: the two opposite corners are joined by exactly 2 geodesics
    # (bare weighted grid; the field type itself requires a zero frame)
    from types import SimpleNamespace
    space = space_from_field(SimpleNamespace(values=np.zeros((2, 2))), 1.0)
    assert len(enumerate_geodesics(space, 0, 3)) == 2


def test_weighted_shortest_paths_match_brute_force():
    n = 6
    f = sample_dgff(n, RngStream(11))
    space = space_from_field(f, DEFAULT_GAMMA)
    w = np.exp(DEFAULT_GAMMA * f.values).ravel()

    def brute(a, b):
        best = [np.inf]

        def rec(v, seen, acc):
            if acc >= best[0]:
                return
            if v == b:
                best[0] = acc
                return
            r, c = divmod(v, n)
            for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < n and 0 <= cc < n:
                    u = rr * n + cc
                    if u not in seen:
                        rec(u, seen | {u}, acc + w[u])
        rec(a, {a}, w[a])
        return best[0]

    for (a, b) in ((0, n * n - 1), (2, 33), (7, 30)):
        d_engine = space.dist_from(a)[b] + 0.5 * (w[a] + w[b])
        assert d_engine == pytest.approx(brute(a, b), rel=1e-9)


def test_geodesic_length_equals_vertex_path_length_exactly():
    f = sample_dgff(10, RngStream(12))
    space = space_from_field(f, DEFAULT_GAMMA)
    for a, b in ((0, 99), (3, 90), (9, 40), (50, 59)):
        for p in enumerate_geodesics(space, a, b)[:3]:
            coords = [divmod(v, 10) for v in p.vertices]
            assert vertex_path_length_of(f, DEFAULT_GAMMA, p) \
                == pytest.approx(path_length(f, DEFAULT_GAMMA, coords), rel=1e-12)


def test_overlay_and_svg_outputs():
    f = sample_dgff(8, RngStream(14))
    mult = geodesic_overlay(f, DEFAULT_GAMMA, RngStream(15), n_random_pairs=3)
    assert mult.shape == (8, 8)
    assert mult.sum() >= 2
    csv = overlay_csv(mult)
    assert csv.startswith("x,y,multiplicity")
    svg = overlay_svg(f, mult)
    assert svg.startswith("<svg") and svg.endswith("</svg>")


def test_frame_fraction_decreases_with_size():
    # vertex fraction covered by geodesics shrinks as the box grows
    fractions = []
    for n in (16, 32, 64):
        f = sample_dgff(n, RngStream(16).named(f"n{n}"))
        mult = geodesic_overlay(f, DEFAULT_GAMMA, RngStream(17).named(f"n{n}"),
                                n_random_pairs=6)
        fractions.append(np.count_nonzero(mult) / mult.size)
    assert fractions[0] > fractions[1] > fractions[2]


def test_flat_overlay_counts_exceed_int64_exactly():
    # on a flat box the geodesics from a to b are the monotone lattice
    # staircases, so v lies on C(|a - v|_1, .) * C(|v - b|_1, .) of them;
    # the pairs are the distinct frame vertices the overlay's rng draws
    n = 40
    flat = GffField(np.zeros((n, n)))
    mult = geodesic_overlay(flat, 1.0, RngStream(28), n_random_pairs=4)
    gen = RngStream(28).generator()
    border = np.concatenate([np.arange(n), (n - 1) * n + np.arange(n),
                             n * np.arange(1, n - 1), n * np.arange(1, n - 1) + n - 1])
    want = np.zeros((n, n), dtype=object)
    for _ in range(4):
        (ra, ca), (rb, cb) = (divmod(int(v), n)
                              for v in gen.choice(border, size=2, replace=False))
        for r in range(min(ra, rb), max(ra, rb) + 1):
            for c in range(min(ca, cb), max(ca, cb) + 1):
                want[r, c] += math.comb(abs(r - ra) + abs(c - ca), abs(r - ra)) \
                    * math.comb(abs(r - rb) + abs(c - cb), abs(r - rb))
    assert mult.tolist() == want.tolist()
    assert max(mult.ravel()) > 2 ** 63
