import csv
import json
import tracemalloc

import numpy as np
import pytest

from bmlab.acceptance import _brute_chain_closure
from bmlab.cli import run
from bmlab.errors import ResourceLimitError
from bmlab.gaussian import BrownianSnakeSample, sample_excursion, sample_snake_labels
from bmlab.geodesics import extract_geodesic
from bmlab.paths import GridPath
from bmlab.rng import RngStream
from bmlab.snake_map import (IDENTIFY_TOL, SIZE_CAP, d_circ, d_circ_matrix,
                             quotient_metric, snake_space)
from bmlab.spaces import GraphSpace


def _fixture_snake(y):
    y = np.asarray(y, dtype=float)
    n = len(y)
    x = np.concatenate([[0.0], np.full(n - 2, 1.0), [0.0]])
    xp = GridPath(np.linspace(0, 1, n), x, "excursion")
    return BrownianSnakeSample(xp, y - y[0], int(np.argmin(y)))


def _fw_oracle(seed):
    """Dense Floyd-Warshall closure of a seed matrix, O(n^3)."""
    d = seed.copy()
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def _graph_metric(snake):
    """D read off ``snake_space``: graph distances between the vertices of
    every two grid points."""
    sp, vertex = snake_space(snake)
    fields = np.array([sp.dist_from(v) for v in range(sp.n)])
    return fields[np.ix_(vertex, vertex)]


def test_d_circ_hand_fixture():
    # Y = [0, 1, 0.5, 2, 0]: pair (1,3) has inner arc min 0.5, wrap min 0
    snake = _fixture_snake([0.0, 1.0, 0.5, 2.0, 0.0])
    assert d_circ(snake, 1, 3) == pytest.approx(2.0, abs=1e-12)
    assert d_circ(snake, 3, 1) == pytest.approx(2.0, abs=1e-12)
    assert d_circ(snake, 2, 2) == 0.0
    with pytest.raises(ValueError):
        d_circ(snake, 0, 5)


def test_d_circ_matrix_matches_pointwise_and_label_bound():
    x = sample_excursion(40, 1.0, RngStream(1))
    snake = sample_snake_labels(x, RngStream(2))
    mat = d_circ_matrix(snake)
    for i in range(0, 40, 7):
        for j in range(0, 40, 5):
            assert mat[i, j] == pytest.approx(d_circ(snake, i, j), abs=1e-12)
    y = snake.y_values
    assert np.all(mat >= np.abs(y[:, None] - y[None, :]) - 1e-12)


def test_quotient_matches_brute_force_chains_n6():
    x = sample_excursion(6, 1.0, RngStream(3))
    snake = sample_snake_labels(x, RngStream(4))
    bm = quotient_metric(snake)
    brute = _brute_chain_closure(d_circ_matrix(snake))
    assert np.allclose(bm.dmat, brute, rtol=1e-12, atol=1e-12)


def _check_invariants(bm, snake):
    d = bm.dmat
    assert np.allclose(d, d.T, rtol=0, atol=0)
    assert np.all(np.diag(d) == 0.0)
    scale = max(float(d.max()), 1.0)
    # triangle inequality via one matrix pass
    viol = d[:, :, None] - (d[:, None, :] + d[None, :, :])
    assert viol.max() <= 1e-9 * scale
    seed = d_circ_matrix(snake)
    assert np.all(d <= seed + 1e-9 * scale)
    y = snake.y_values
    assert np.all(d >= np.abs(y[:, None] - y[None, :]) - 1e-9 * scale)
    root = bm.root_index
    assert np.allclose(d[root], y - y[root], rtol=1e-9, atol=1e-12 * scale)


def test_metric_invariants_midsize():
    x = sample_excursion(96, 1.0, RngStream(5))
    snake = sample_snake_labels(x, RngStream(6))
    bm = quotient_metric(snake)
    _check_invariants(bm, snake)


def test_monotone_refinement_under_subsampling():
    # refining the grid deepens the observed arc minima, so seed distances
    # on common pairs grow; the quotient on common points never shrinks
    # (beyond roundoff), and chains restricted to the coarse subset stay
    # available (closing over fewer points can only give larger values)
    x = sample_excursion(129, 1.0, RngStream(7))
    fine = sample_snake_labels(x, RngStream(8))
    coarse = fine.subsample(2)
    bm_f = quotient_metric(fine)
    bm_c = quotient_metric(coarse)
    tol = 1e-9 * max(bm_c.dmat.max(), 1.0)
    assert np.all(d_circ_matrix(fine)[::2, ::2] >= d_circ_matrix(coarse) - tol)
    fine_on_coarse = bm_f.dmat[::2, ::2]
    assert np.all(fine_on_coarse >= bm_c.dmat - tol)
    # subset-chain closure of the fine seed dominates the full fine metric
    sub_seed = d_circ_matrix(fine)[::2, ::2]
    sub_closure = _fw_oracle(sub_seed)
    assert np.all(fine_on_coarse <= sub_closure + tol)


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_sparse_closure_matches_dense_oracle(seed):
    x = sample_excursion(257, 1.0, RngStream(seed).named("x"))
    snake = sample_snake_labels(x, RngStream(seed).named("y"))
    bm = quotient_metric(snake)
    assert np.max(np.abs(bm.dmat - _fw_oracle(d_circ_matrix(snake)))) <= 1e-12


@pytest.mark.parametrize("y", [
    [0.0, 1.0, 0.5, 0.5, 1.5, 0.0],
    [0.0, 1.0, 1.0, 1.0, 0.0],
    [0.0, -1.0, -1.0, -1.0, 0.0],
    [0.0, 2.0, 1.0, 2.0, 1.0, 2.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, -1.0, 0.0, -1.0, 0.0],
    [0.0, 0.0],
])
def test_sparse_closure_on_tied_labels_and_plateaus(y):
    snake = _fixture_snake(y)
    oracle = _fw_oracle(d_circ_matrix(snake))
    assert np.max(np.abs(quotient_metric(snake).dmat - oracle)) <= 1e-12
    assert np.max(np.abs(_graph_metric(snake) - oracle)) <= 1e-12


def test_sparse_closure_on_random_small_integer_labels():
    # few distinct values make ties on almost every arc
    gen = np.random.default_rng(24)
    for _ in range(300):
        y = gen.integers(-2, 3, size=int(gen.integers(2, 41))).astype(float)
        y[0] = y[-1] = 0.0
        snake = _fixture_snake(y)
        oracle = _fw_oracle(d_circ_matrix(snake))
        assert np.max(np.abs(quotient_metric(snake).dmat - oracle)) <= 1e-12
        assert np.max(np.abs(_graph_metric(snake) - oracle)) <= 1e-12


def test_closure_invariants_above_1024_points():
    n = 1025
    x = sample_excursion(n, 1.0, RngStream(5).named("x"))
    snake = sample_snake_labels(x, RngStream(5).named("y"))
    d = quotient_metric(snake).dmat
    assert d[0, n - 1] == 0.0
    assert np.array_equal(d, d.T)
    assert np.all(d <= d_circ_matrix(snake) + 1e-12)
    y = snake.y_values
    np.testing.assert_allclose(d[snake.s_star_index], y - y.min(),
                               rtol=0, atol=1e-12)


def test_closure_invariants_at_the_size_cap():
    n = SIZE_CAP
    x = sample_excursion(n, 1.0, RngStream(6).named("x"))
    snake = sample_snake_labels(x, RngStream(6).named("y"))
    d = quotient_metric(snake).dmat
    assert np.array_equal(d, d.T)
    assert not np.diagonal(d).any()
    assert d[0, n - 1] == 0.0
    y = snake.y_values
    np.testing.assert_allclose(d[snake.s_star_index], y - y.min(),
                               rtol=0, atol=1e-12)


def test_closure_peak_memory_is_about_its_output():
    n = 1024
    x = sample_excursion(n, 1.0, RngStream(7).named("x"))
    snake = sample_snake_labels(x, RngStream(7).named("y"))
    tracemalloc.start()
    try:
        quotient_metric(snake)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n


def test_size_cap():
    snake = _fixture_snake(np.zeros(SIZE_CAP + 1))
    with pytest.raises(ResourceLimitError, match=f"n={SIZE_CAP + 1} exceeds"):
        quotient_metric(snake)


def test_identified_points_are_tagged_not_collapsed():
    # duplicate grid points at the same tree position have distance 0: the
    # matrix keeps a row for each, the graph gives them one vertex
    snake = _fixture_snake([0.0, 1.0, 0.5, 0.5, 1.5, 0.0])
    d = quotient_metric(snake).dmat
    vertex = snake_space(snake)[1]
    pairs = [[i, j] for i in range(6) for j in range(i + 1, 6)]
    assert d.shape == (6, 6)
    assert [[i, j] for i, j in pairs if d[i, j] <= IDENTIFY_TOL] == [[0, 5], [2, 3]]
    assert [[i, j] for i, j in pairs if vertex[i] == vertex[j]] == [[0, 5], [2, 3]]


def test_snake_space_is_the_quotient_metric_as_a_graph(tmp_path, monkeypatch,
                                                      capsys):
    # the exit edges of label elimination (visible pairs), identified
    # points merged into one vertex, carry D
    fixture = _fixture_snake([0.0, 1.0, 0.5, 0.5, 1.5, 0.0])
    assert snake_space(fixture)[1].tolist() == [0, 1, 2, 2, 3, 0]
    # ties chain 1, 2 and 3 into one vertex; their 1.4e-12 pair is no loop
    chained = _fixture_snake([0.0, 1.0, 1 + 0.9e-12, 1 - 0.5e-12, 0.0])
    sp, vertex = snake_space(chained)
    assert vertex.tolist() == [0, 1, 1, 1, 0] and sp.indices.tolist() == [1, 0]
    snakes = [fixture]
    for n in (257, 1025, 2049):
        x = sample_excursion(n, 1.0, RngStream(n).named("x"))
        snakes.append(sample_snake_labels(x, RngStream(n).named("y")))
    for snake in snakes:
        sp, vertex = snake_space(snake)
        d = quotient_metric(snake).dmat
        fields = np.array([sp.dist_from(v) for v in range(sp.n)])
        assert np.max(np.abs(fields[np.ix_(vertex, vertex)] - d)) <= 1e-12 * d.max()
        assert sp.weights.min() > IDENTIFY_TOL
        for v in range(sp.n):  # a merge keeps one copy of a repeated edge
            nbrs = sp.neighbors(v)[0].tolist()
            assert len(set(nbrs)) == len(nbrs) and v not in nbrs
        gen = RngStream(len(snake)).named("pairs").generator()
        for k in range(20):
            a, b = (int(u) for u in gen.integers(sp.n, size=2))
            if a != b:
                g = extract_geodesic(sp, a, b, RngStream(k))
                assert g.length == pytest.approx(sp.dist_from(a)[b], rel=1e-9)
    # two grid points are the excursion's identified ends: one vertex
    x = sample_excursion(2, 1.0, RngStream(2).named("x"))
    sp, vertex = snake_space(sample_snake_labels(x, RngStream(2).named("y")))
    assert sp.n == 1 and vertex.tolist() == [0, 0] and sp.indices.size == 0
    assert sp.dist_from(0).tolist() == [0.0]
    # analysis has no matrix, so no size cap
    monkeypatch.setenv("BML_DATA_DIR", str(tmp_path))
    assert run(["analyze", "--kind", "snake", "--n", "5000", "--pairs", "4",
                "--star-centers", "1", "--confluence-pairs", "2",
                "--seed", "1"]) == 0
    assert capsys.readouterr().err == ""


def _sample_snake_file(tmp_path, monkeypatch, n, seed):
    """Run ``sample-snake`` and return (its snake, re-sampled from the
    command's seed streams; the file's JSON; the file's graph as a space;
    the CSV's rows)."""
    monkeypatch.setenv("BML_DATA_DIR", str(tmp_path))
    assert run(["sample-snake", "--n", str(n), "--seed", str(seed),
                "--out", "m.json", "--csv", "m.csv"]) == 0
    rng = RngStream(seed).named("sample-snake")
    snake = sample_snake_labels(sample_excursion(n, 1.0, rng.named("excursion")),
                                rng.named("labels"))
    g = json.loads((tmp_path / "m.json").read_text())
    u, v, w = (np.array(g[k]) for k in ("u", "v", "weight"))
    assert np.all(u < v) and w.min() > IDENTIFY_TOL
    sp = GraphSpace.from_edges(g["header"]["n_vertices"], u, v, w)
    with open(tmp_path / "m.csv", newline="") as fp:
        rows = list(csv.reader(fp))
    return snake, g, sp, rows


@pytest.mark.parametrize("n", [96, 512])
def test_sample_snake_writes_the_exit_graph_of_d(tmp_path, monkeypatch, n):
    snake, g, sp, rows = _sample_snake_file(tmp_path, monkeypatch, n, 3)
    y = snake.y_values
    assert g["header"] == {"kind": "snake-exit-graph-v1", "n_grid_points": n,
                           "n_vertices": sp.n,
                           "root_grid_point": snake.s_star_index}
    assert g["labels"] == y.tolist()
    vertex = np.array(g["vertex_of_grid_point"])
    assert vertex.tolist() == snake_space(snake)[1].tolist()
    fields = np.array([sp.dist_from(v) for v in range(sp.n)])
    d = quotient_metric(snake).dmat
    assert np.max(np.abs(fields[np.ix_(vertex, vertex)] - d)) <= 1e-12 * d.max()
    assert rows[0] == ["index", "time", "x", "y", "dist_to_root"]
    assert np.array_equal([float(r[-1]) for r in rows[1:]], y - y.min())


def test_sample_snake_has_no_size_cap(tmp_path, monkeypatch):
    n = 5000
    snake, g, sp, rows = _sample_snake_file(tmp_path, monkeypatch, n, 4)
    assert len(g["u"]) < 2 * n
    # invariants at a size the matrix refuses: D(root, .) = Y - min Y, and
    # the excursion's two ends are one point
    y = snake.y_values
    vertex = np.array(g["vertex_of_grid_point"])
    root = sp.dist_from(vertex[g["header"]["root_grid_point"]])[vertex]
    np.testing.assert_allclose(root, y - y.min(), rtol=0, atol=1e-12 * np.ptp(y))
    assert vertex[0] == vertex[n - 1]
    assert np.array_equal([float(r[-1]) for r in rows[1:]], y - y.min())
