"""The benchmark's own tests: each checker rejects one corrupted output, and
every workload runs whole at a tiny size, untraced and traced."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import run

run.import_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from bmlab import csbp, gaussian, planar_map, snake_map  # noqa: E402
from bmlab.rng import RngStream  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

TINY = {
    "quad-build": dict(faces=60),
    "geodesics": dict(faces=4000, pairs=1, frame_pairs=2,
                      scales=(2.0, 4.0, 8.0, 20.0), star_k=3),
    "snake-metric": dict(n=33),
    "csbp-laws": dict(replicas=300),
}


def _quad(seed=1, faces=80):
    tree = planar_map.sample_labeled_tree(faces, RngStream(seed))
    quad = planar_map.cvs_construct(tree)
    return tree, quad, planar_map.bfs_metric(quad, quad.pointed_vertex)


def test_quad_check_rejects_labels_shifted_by_one():
    tree, quad, dist = _quad()
    checks.check_quad(tree, quad, dist)
    shifted = dataclasses.replace(tree)
    shifted.labels = tree.labels + 1
    with pytest.raises(checks.CheckError, match="root label"):
        checks.check_quad(shifted, quad, dist)
    one = dataclasses.replace(tree)
    one.labels = tree.labels.copy()
    one.labels[int(np.argmax(tree.labels))] += 1
    with pytest.raises(checks.CheckError, match="label - min"):
        checks.check_quad(one, quad, dist)


def test_quad_check_rejects_a_broken_face():
    tree, quad, dist = _quad()
    broken = dataclasses.replace(quad, next_out=quad.next_out.copy())
    # swap the rotation successors of two half-edges at one vertex of degree >= 3
    v = int(np.flatnonzero(np.bincount(quad.tail) >= 3)[0])
    a, b = np.flatnonzero(quad.tail == v)[:2]
    broken.next_out[[a, b]] = broken.next_out[[b, a]]
    with pytest.raises(checks.CheckError):
        checks.check_quad(tree, broken, dist)


@pytest.fixture(scope="module")
def geo():
    w = workloads.Geodesics(3, **TINY["geodesics"])
    w.setup()
    return w


def test_star_check_rejects_a_non_neighbour_vertex(geo):
    (report,) = geo.item(2)
    keys = checks.edge_keys(geo.quad)
    checks.check_star(geo.quad, keys, report, geo.star_k, geo.STAR_RADIUS)
    w = report.witnesses[0]
    dist = planar_map.bfs_metric(geo.quad, report.center)
    far = int(np.argmax(dist))  # no neighbour of anything near the centre
    verts = list(w.vertices)
    verts[1] = far
    bad = dataclasses.replace(report, witnesses=[dataclasses.replace(w, vertices=verts)]
                              + report.witnesses[1:])
    with pytest.raises(checks.CheckError, match="off an edge"):
        checks.check_star(geo.quad, keys, bad, geo.star_k, geo.STAR_RADIUS)


def test_confluence_and_frame_checks_reject_inconsistent_tables(geo):
    rows, samples = geo.item(0)
    checks.check_confluence(rows, samples, geo.EPSILONS)
    with pytest.raises(checks.CheckError):
        checks.check_confluence(rows, [(0.0, 1.0)] + samples, geo.EPSILONS)
    slope, stderr, counts = geo.item(1)
    checks.check_frame(slope, stderr, counts)
    scales = sorted(counts)
    swapped = {**counts, scales[0]: counts[scales[-1]], scales[-1]: counts[scales[0]] + 1}
    with pytest.raises(checks.CheckError, match="increases"):
        checks.check_frame(slope, stderr, swapped)


def test_snake_check_rejects_an_entry_above_the_seed_distance():
    x = gaussian.sample_excursion(65, 1.0, RngStream(4).named("x"))
    snake = gaussian.sample_snake_labels(x, RngStream(4).named("y"))
    bm = snake_map.quotient_metric(snake)
    y = snake.y_values
    np.testing.assert_allclose(checks.seed_distance(y), snake_map.d_circ_matrix(snake),
                               rtol=0, atol=1e-12)
    checks.check_snake(y, bm, np.random.default_rng(0))
    bad = dataclasses.replace(bm, dmat=bm.dmat.copy())
    d0 = checks.seed_distance(y)
    bad.dmat[5, 40] = bad.dmat[40, 5] = d0[5, 40] + 0.1  # d° undercuts D here
    with pytest.raises(checks.CheckError, match="exceeds"):
        checks.check_snake(y, bad, np.random.default_rng(0))


def test_csbp_law_check_rejects_a_five_se_shift():
    w = workloads.CsbpLaws(5, replicas=1500)
    vals, ext = csbp.csbp_marginals(w.ALPHA, w.C, w.Y0, w.TARGETS, w.DT,
                                    RngStream(5), size=w.replicas)
    w.check(0, (vals, ext))
    rows = checks.check_csbp_laws(w.pool)
    row = next(r for r in rows if r["name"] == "laplace_t1.0_lam1.0")
    # move the lam = 1 estimate at t = 1 by 5 SE, away from the target
    delta = 5 * row["se"] * np.sign(row["estimate"] - row["target"] or 1.0)
    shifted = vals.copy()
    shifted[:, 1] -= np.log1p(delta / row["estimate"])
    pool = checks.LawPool(w.ALPHA, w.C, w.Y0, w.TARGETS)
    pool.add(shifted, ext)
    with pytest.raises(checks.CheckError, match="laplace_t1.0_lam1.0"):
        checks.check_csbp_laws(pool)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name):
    cls = workloads.WORKLOADS[name]
    result = run.run_workload(cls(7, **TINY[name]), seconds=0.0, min_items=4)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0
    assert result["attempted"] % len(cls.kinds) == 0
    spec = run.load_spec()
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v > 0 for v in result["metrics"].values())

    traced = run.run_workload(cls(7, **TINY[name]), seconds=0.0, min_items=4,
                              trace=True)
    assert traced["digest"] == result["digest"]
    layers = workloads.layer_metrics(summarize(traced["spans"]), spec["per_layer"])
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    busy = {"quad-build": "planar_map.cvs_construct.s",
            "geodesics": "spaces.dist_from.misses",
            "snake-metric": "snake_map.quotient_metric.self_s",
            "csbp-laws": "stable.stable_increments.draws"}[name]
    assert layers[busy]["value"] > 0



def test_segments_pool_items_and_carried_state():
    w = workloads.CsbpLaws(7, **TINY["csbp-laws"])
    w.segments = 4
    result = run.run_workload(w, seconds=0.3, min_items=2, trace=True)
    assert len(result["segment_items"]) > 1
    assert sum(result["segment_items"]) == result["attempted"] == len(result["item_times_s"])
    assert result["correct"], result["errors"]
    assert w.pool.n == w.replicas * result["attempted"]
    summary = summarize(result["spans"])
    assert summary["setup"]["roots"] == len(result["segment_items"])
    assert summary["item.item"]["roots"] == result["attempted"]

    one = run.run_workload(workloads.CsbpLaws(7, **TINY["csbp-laws"]), seconds=0.0,
                           min_items=result["attempted"])
    assert one["segment_items"] == [result["attempted"]]
    assert one["digest"] == result["digest"]


def test_tracer_close_removes_every_wrapper():
    tracer = Tracer()
    workloads.install_tracer(tracer)
    assert hasattr(planar_map.cvs_construct, "__wrapped__")
    tracer.close()
    for fn in (planar_map.cvs_construct, planar_map.Quadrangulation.validate,
               csbp.stable_increments, csbp.extinction_time_from):
        assert not hasattr(fn, "__wrapped__"), "a wrapper was left installed"
