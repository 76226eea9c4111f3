"""The benchmark's four workloads.

A workload builds its shared state in ``setup`` (timed, repeated), then
runs items from a fixed schedule: item ``i`` has kind
``kinds[i % len(kinds)]`` and draws its inputs from the stream
``RngStream(seed).named(<workload>).named("items").split(i)``, so the same
kind of item lands at each rank in every run and equal seeds give equal
inputs.  ``item`` is the timed call into the program; ``check`` and
``digest`` run outside the timer.

Calls into the program go through module attributes
(``planar_map.cvs_construct`` rather than a name imported from it), so a
traced run's wrappers see them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.csgraph  # noqa: F401  imported up front, not in set-up
from bmlab import csbp, gaussian, geodesics, planar_map, snake_map, spaces
from bmlab.rng import RngStream

import checks


class Workload:
    name = ""
    kinds: tuple[str, ...] = ("item",)
    # Attributes that items or checks update and that must outlive the
    # segment process the items ran in; it hands them back to the run.
    carried: tuple[str, ...] = ()
    segments = 10  # fresh processes per run, each with its own set-up

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.stream = RngStream(self.seed).named(self.name)

    def item_stream(self, i: int) -> RngStream:
        return self.stream.named("items").split(i)

    def setup(self) -> None:
        """Shared state and first-call warm-up: one item off the schedule."""
        self.item_from(self.stream.named("warm-up"), self.kinds[0])

    def item(self, i: int):
        return self.item_from(self.item_stream(i), self.kinds[i % len(self.kinds)])

    def item_from(self, stream: RngStream, kind: str):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError

    def digest(self, out) -> bytes:
        raise NotImplementedError

    def counts(self, kind: str, out) -> dict:
        """Units an item processed, attached to its span when traced."""
        return {}

    def finish(self) -> dict:
        """Checks over the whole run; returns details for the run record."""
        return {}

    def trace(self, tracer) -> None:
        """Wrap state built in set-up, for a traced run."""


class QuadBuild(Workload):
    """One rooted pointed quadrangulation per item, built and validated."""

    name = "quad-build"

    def __init__(self, seed: int, faces: int = 4000):
        super().__init__(seed)
        self.faces = faces

    def item_from(self, stream, kind):
        tree = planar_map.sample_labeled_tree(self.faces, stream)
        quad = planar_map.cvs_construct(tree)
        quad.validate()
        return tree, quad, planar_map.bfs_metric(quad, quad.pointed_vertex)

    def check(self, i, out):
        checks.check_quad(*out)

    def digest(self, out):
        tree, quad, dist = out
        return quad.next_out.tobytes() + quad.tail.tobytes() + dist.tobytes()


class Geodesics(Workload):
    """Geodesic analytics on one large quadrangulation built in set-up.

    Items cycle through a confluence batch, a frame box-dimension batch and
    one star-census centre.
    """

    name = "geodesics"
    kinds = ("confluence", "frame", "star")
    EPSILONS = (1.0, 2.0, 3.0, 4.0)
    STAR_RADIUS = 3.0
    # The default 16 restarts cost about 3 s per centre on a 50k-face map,
    # too long for one item.
    STAR_RESTARTS = 1
    segments = 4  # each segment's set-up takes about 1.2 s

    def __init__(self, seed: int, faces: int = 50_000, pairs: int = 3,
                 frame_pairs: int = 3, scales=(4.0, 8.0, 16.0, 40.0),
                 star_k: int = 5):
        super().__init__(seed)
        self.faces, self.pairs, self.frame_pairs = faces, pairs, frame_pairs
        self.scales, self.star_k = scales, star_k
        self.quad = self.space = self._keys = None

    def setup(self):
        self.quad = self.space = self._keys = None
        tree = planar_map.sample_labeled_tree(self.faces, self.stream.named("map"))
        quad = planar_map.cvs_construct(tree)
        quad.validate()
        space = spaces.GraphSpace.from_quad(quad)
        space.dist_from(quad.pointed_vertex)  # builds the sparse matrix
        self.quad, self.space = quad, space

    def item_from(self, stream, kind):
        if kind == "confluence":
            return geodesics.strong_confluence_statistic(
                self.space, self.EPSILONS, stream, n_pairs=self.pairs,
                return_samples=True)
        if kind == "frame":
            return geodesics.frame_box_dimension(
                self.space, self.frame_pairs, self.scales, stream,
                return_counts=True)
        center = int(stream.named("center").generator().integers(self.space.n))
        return geodesics.star_census(self.space, self.star_k, self.STAR_RADIUS,
                                     [center], stream.named("star"),
                                     restarts=self.STAR_RESTARTS)

    def check(self, i, out):
        kind = self.kinds[i % len(self.kinds)]
        if kind == "confluence":
            checks.check_confluence(*out, self.EPSILONS)
        elif kind == "frame":
            checks.check_frame(*out)
        else:
            if self._keys is None:
                self._keys = checks.edge_keys(self.quad)
            (report,) = out
            checks.check_star(self.quad, self._keys, report, self.star_k,
                              self.STAR_RADIUS)

    def digest(self, out):
        return repr(out).encode()

    def trace(self, tracer):
        tracer.wrap_space(self.space)

    def counts(self, kind, out):
        if kind == "confluence":
            return {"pairs": len(out[1])}
        if kind == "star":
            return {"centers": len(out)}
        return {}


class SnakeMetric(Workload):
    """One snake-built metric space per item: excursion, labels, closure."""

    name = "snake-metric"

    def __init__(self, seed: int, n: int = 384):
        super().__init__(seed)
        self.n = n

    def item_from(self, stream, kind):
        x = gaussian.sample_excursion(self.n, 1.0, stream.named("x"))
        snake = gaussian.sample_snake_labels(x, stream.named("y"))
        return snake, snake_map.quotient_metric(snake)

    def check(self, i, out):
        snake, bm = out
        checks.check_snake(snake.y_values, bm,
                           self.item_stream(i).named("check").generator())

    def digest(self, out):
        return out[1].dmat.tobytes()


class CsbpLaws(Workload):
    """One batch of branching-process marginals per item; the laws are
    checked on the replicas pooled over the run."""

    name = "csbp-laws"
    carried = ("pool",)
    ALPHA, C, Y0, TARGETS, DT = 1.5, 1.0, 1.0, (0.25, 1.0), 1e-3

    def __init__(self, seed: int, replicas: int = 600):
        super().__init__(seed)
        self.replicas = replicas
        self.pool = checks.LawPool(self.ALPHA, self.C, self.Y0, self.TARGETS)

    def item_from(self, stream, kind):
        return csbp.csbp_marginals(self.ALPHA, self.C, self.Y0, self.TARGETS,
                                   self.DT, stream, size=self.replicas)

    def check(self, i, out):
        vals, ext = out
        checks.check_csbp_batch(vals, ext, self.TARGETS, self.replicas)
        self.pool.add(vals, ext)

    def digest(self, out):
        return out[0].tobytes() + out[1].tobytes()

    def counts(self, kind, out):
        return {"replicas": self.replicas}

    def finish(self):
        return {"law_checks": checks.check_csbp_laws(self.pool)}


WORKLOADS = {w.name: w for w in (QuadBuild, Geodesics, SnakeMetric, CsbpLaws)}


# ---------------------------------------------------------------------------
# traced runs

def install_tracer(tracer) -> None:
    """Wrap every layer entry point the per-layer metrics name."""
    for module, prefix, names in (
            (planar_map, "planar_map", ("sample_labeled_tree", "cvs_construct",
                                        "bfs_metric")),
            (gaussian, "gaussian", ("sample_excursion", "sample_snake_labels")),
            (snake_map, "snake_map", ("d_circ_matrix", "quotient_metric")),
            (geodesics, "geodesics", ("strong_confluence_statistic",
                                      "frame_box_dimension", "star_census",
                                      "extract_geodesic", "hausdorff_distance",
                                      "greedy_ball_cover_count")),
            (csbp, "csbp", ("csbp_marginals",))):
        for fn in names:
            tracer.wrap_attr(module, fn, f"{prefix}.{fn}")
    for fn in ("validate", "faces"):
        tracer.wrap_attr(planar_map.Quadrangulation, fn, f"planar_map.{fn}")

    def count_size(idx, args, kwargs):  # stable_increments(..., size=k)
        tracer.count(idx, "draws", kwargs.get("size", 1))

    def count_y(idx, args, kwargs):  # extinction_time_from(alpha, c, y, gen)
        tracer.count(idx, "draws", np.size(args[2]))

    # csbp_marginals looks these up in its own module's namespace
    tracer.wrap_attr(csbp, "stable_increments", "stable.stable_increments",
                     count_size)
    tracer.wrap_attr(csbp, "extinction_time_from", "csbp.extinction_time_from",
                     count_y)


def layer_metrics(summary: dict, spec: list[dict]) -> dict:
    """The per-layer metrics ``spec`` names, from a tracer summary.

    ``<layer>.<field>`` is the field summed over spans inside items, per
    item; a layer that runs only in set-up (``cvs_construct`` on
    geodesics) is reported per set-up instead, and a layer the workload
    never calls reads 0.  The ratios divide full distance fields (misses
    plus set fields) by the confluence pairs and star centres they served,
    and stable draws by the replicas simulated.
    """
    items = {k: g for k, g in summary.items() if k.startswith("item")}
    n_items = sum(g["roots"] for g in items.values())
    setup = summary.get("setup", {"roots": 0, "layers": {}})

    def total(groups, layer, field):
        return sum(g["layers"].get(layer, {}).get(field, 0) for g in groups)

    def per_unit(layer, field):
        if total(items.values(), layer, "calls"):
            return total(items.values(), layer, field) / n_items
        if total([setup], layer, "calls"):
            return total([setup], layer, field) / setup["roots"]
        return 0.0

    def fields_per(kind, unit):
        group = items.get(f"item.{kind}")
        if group is None or not group["counts"].get(unit):
            return 0.0
        fields = total([group], "spaces.dist_from", "misses") + \
            total([group], "spaces.dist_to_set", "calls")
        return fields / group["counts"][unit]

    replicas = sum(g["counts"].get("replicas", 0) for g in items.values())
    out = {}
    for metric in spec:
        name = metric["name"]
        if name == "geodesics.fields_per_pair":
            value = fields_per("confluence", "pairs")
        elif name == "geodesics.fields_per_star_center":
            value = fields_per("star", "centers")
        elif name == "csbp.replica_steps_per_replica":
            value = total(items.values(), "stable.stable_increments", "draws") / max(replicas, 1)
        else:
            layer, field = name.rsplit(".", 1)
            value = per_unit(layer, field)
        out[name] = {"value": float(value), "unit": metric["unit"]}
    return out
