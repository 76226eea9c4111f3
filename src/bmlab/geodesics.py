"""Geodesic extraction and geometric statistics on finite metric spaces.

Works over graph spaces: quadrangulations (unit weights), free-field grids
and snake metrics' visible-pair graphs (real weights).  Geodesics from a to
b are the paths of the tight-edge DAG: the edges (u, v) with
d(a, u) < d(a, v) and d(a, u) + w(u, v) <= d(a, v) + eps inside the
corridor of vertices from which such edges lead to b, with eps = 0 on
unit-weight graphs and a relative rounding tolerance elsewhere.  One rule,
``_tight_steps``, gives these successors: the tracer walks it lazily, and
``_geodesic_dag`` collects it, with exact path counts, for enumeration,
overlays and network signatures.  It needs a's distance field alone, down
which one walk from b marks the corridor: a weighted geodesic costs one
Dijkstra field, and a star census one field per centre.  A unit-weight
geodesic needs no full field: BFS balls from a and from b meet in the
middle, and walks from where they meet mark the corridor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .rng import RngStream
from .spaces import _levels

__all__ = [
    "GeodesicPath",
    "StarReport",
    "enumerate_geodesics",
    "extract_geodesic",
    "hausdorff_distance",
    "coalescence_point",
    "classify_network",
    "star_census",
    "frame_box_dimension",
    "space_box_dimension",
    "greedy_ball_cover_count",
    "strong_confluence_statistic",
    "end_deficit",
    "isotonic_fit",
]

LENGTH_RTOL = 1e-9


@dataclass
class GeodesicPath:
    """A geodesic as a vertex sequence with cumulative lengths."""

    vertices: list[int]
    cumlen: np.ndarray

    def __post_init__(self):
        self.cumlen = np.asarray(self.cumlen, dtype=float)
        if len(self.vertices) != len(self.cumlen) or self.cumlen[0] != 0.0:
            raise ValueError("cumlen must align with vertices and start at 0")
        if np.any(np.diff(self.cumlen) < 0):
            raise ValueError("cumlen must be nondecreasing")

    @property
    def length(self) -> float:
        return float(self.cumlen[-1])

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass
class StarReport:
    """Geodesics around a center that stay disjoint inside a ball."""

    center: int
    k: int
    witnesses: list[GeodesicPath]
    disjoint_radius: float
    skipped: bool = False


def _build_path(space, verts) -> GeodesicPath:
    if space.weights is None:
        cumlen = np.arange(len(verts), dtype=float)
    else:
        cumlen = np.cumsum([0.0] + [space.edge_weight(u, v)
                                    for u, v in zip(verts[:-1], verts[1:])])
    return GeodesicPath(list(map(int, verts)), cumlen)


# ---------------------------------------------------------------------------
# tight successors, tracing and enumeration

def _meet(space, a, b):
    """Breadth-first balls from a and from b, grown until they touch.

    Each round grows by one level the side whose outer level is smaller
    (a's on a tie), until a new level touches the other ball.  With radii
    r_a and r_b at that point, d(a, b) = r_a + r_b, and the new level meets
    only the other ball's outer level: the meeting set is every vertex at
    distance r_a from a and r_b from b.  Returns the BFS distances from a
    and from b (-1 outside the balls) and the meeting set.  a and b must
    differ; raises when the balls never touch.
    """
    seen = [np.zeros(space.n, dtype=bool) for _ in range(2)]
    dist = [np.full(space.n, -1, dtype=np.int64) for _ in range(2)]
    walkers = [_levels(space.indptr, space.indices, src, s)
               for src, s in zip((a, b), seen)]
    fronts = [next(w) for w in walkers]
    radii = [0, 0]
    dist[0][a] = dist[1][b] = 0
    while True:
        s = 0 if fronts[0].size <= fronts[1].size else 1
        level = next(walkers[s], None)
        if level is None:
            raise AssertionError("no geodesic: the target is not reachable")
        radii[s] += 1
        dist[s][level] = radii[s]
        fronts[s] = level
        meet = level[seen[1 - s][level]]
        if meet.size:
            return dist[0], dist[1], meet.tolist()


def _csr(space):
    """(indptr, indices, weights) of ``space`` as memoryviews; unit weights
    are a zero-stride view of one 1, which copies nothing."""
    ws = space.weights
    if ws is None:
        ws = np.ndarray(space.indices.size, np.int64, np.int64(1).tobytes(),
                        strides=(0,))
    return memoryview(space.indptr), memoryview(space.indices), memoryview(ws)


def _walk_down(space, dist, front, eps) -> dict:
    """``{v: dist[v]}`` over ``front`` and every vertex reached from it by
    steps down ``dist``: from x to a neighbour u, over an edge of weight w,
    when 0 <= dist[u] < dist[x] and dist[u] + w <= dist[x] + eps.

    ``dist`` is a's field or one of ``_meet``'s balls: the -1 outside a
    ball and an unreachable vertex's inf both fail the first test.
    A scalar loop over memoryviews, since corridors hold few vertices.
    """
    indptr, indices, ws = _csr(space)
    dist = memoryview(dist)
    out = {v: dist[v] for v in front}
    todo = list(front)
    while todo:
        x = todo.pop()
        dx = dist[x]
        top = dx + eps
        for i in range(indptr[x], indptr[x + 1]):
            u = indices[i]
            du = dist[u]
            if du < dx and du >= 0 and du + ws[i] <= top and u not in out:
                out[u] = du
                todo.append(u)
    return out


def _corridor_levels(space, a, b, da=None) -> dict:
    """``{v: d(a, v)}`` over the vertices on some geodesic from a to b; the
    entry of b is d(a, b).

    One walk from b down a's field finds them, with the pair's eps (see
    ``_tight_steps``).  The field is ``da`` when the caller holds it, and
    otherwise one ``dist_from(a)``, except on a unit-weight graph, which
    needs none: ``_meet`` grows BFS balls from both ends, and walks from
    the meeting set go down each ball.  On a's side the level is a's BFS
    distance, on b's side d(a, b) minus b's; both are exact on the
    corridor.
    """
    if da is None and space.weights is None:
        da, db, meet = _meet(space, a, b)
        lev = _walk_down(space, da, meet, 0)
        total = int(da[meet[0]] + db[meet[0]])
        for v, k in _walk_down(space, db, meet, 0).items():
            lev[v] = total - k
        return lev
    if da is None:
        da = space.dist_from(a)
    if not np.isfinite(da[b]):
        raise AssertionError("no geodesic: the target is not reachable")
    return _walk_down(space, da, [b], _tolerance(space, da[b]))


def _tolerance(space, total) -> float:
    return 0.0 if space.weights is None else LENGTH_RTOL * max(float(total), 1.0)


def _tight_steps(space, a, b, da=None):
    """(d(a, b), eps, succ): the distance, the tolerance and the
    tight-successor rule toward b.

    eps is 0 on a unit-weight graph and ``LENGTH_RTOL * max(d(a, b), 1)``
    on a weighted one.  ``succ(u)`` lists u's tight successors in neighbour
    order (parallel edges repeat a vertex): the v on the corridor of
    ``_corridor_levels`` with d(a, u) < d(a, v) and
    d(a, u) + w(u, v) <= d(a, v) + eps, none when u is off it.  ``da`` is
    a's field when the caller holds it; otherwise a weighted graph computes
    it, and a unit-weight one needs none.  ``succ`` is a scalar loop that
    returns a list.  Raises ValueError when a == b.
    """
    if a == b:
        raise ValueError("endpoints must be distinct")
    lev = _corridor_levels(space, a, b, da)
    total = float(lev[b])
    eps = _tolerance(space, total)
    indptr, indices, ws = _csr(space)

    def succ(u):
        lu, out = lev.get(u, np.inf), []  # inf off the corridor: no v passes
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            lv = lev.get(v, -1)
            if lv > lu and lu + ws[i] <= lv + eps:
                out.append(v)
        return out
    return total, eps, succ


def _geodesic_dag(space, a, b):
    """(d(a, b), eps, dag, through): the DAG of tight steps from a to b and
    the number of geodesics through each of its vertices.

    ``dag[u]`` lists u's next vertices, largest first (parallel edges
    repeat a vertex), over every vertex reached from a that also reaches
    b (none if a reaches no b).  The steps are ``_tight_steps``' successors.

    The walk that collects the steps finishes each vertex after every vertex
    it steps to.  In that order one pass counts, in Python ints, the paths
    from each vertex to b, pruning those with none; in reverse, the paths
    from a.  ``through[v]``, their product, counts the geodesics through v
    (each parallel edge apart), so ``through[a]`` is their number.
    """
    total, eps, steps = _tight_steps(space, a, b)
    out: dict[int, list[int]] = {}
    finished: list[int] = []
    stack: list[tuple[int, bool]] = [(a, False)]
    while stack:
        u, done = stack.pop()
        if done:
            finished.append(u)
        elif u not in out:
            out[u] = [] if u == b else sorted(steps(u), reverse=True)
            stack.append((u, True))
            stack.extend((v, False) for v in out[u] if v not in out)
    down: dict[int, int] = {}
    for u in finished:
        down[u] = 1 if u == b else sum(down[v] for v in out[u])
    dag = {u: [v for v in vs if down[v]] for u, vs in out.items() if down[u]}
    up = {u: int(u == a) for u in dag}
    for u in reversed(finished):
        for v in dag.get(u, ()):
            up[v] += up[u]
    return total, eps, dag, {v: up[v] * down[v] for v in dag}


def enumerate_geodesics(space, a: int, b: int,
                        cap: int = 4096) -> list[GeodesicPath]:
    """Every geodesic from a to b, as a depth-first walk over
    ``_geodesic_dag``, smallest next vertex first.

    A geodesic is a sequence of tight edges, so on a multigraph a vertex
    sequence is listed once per choice of parallel edge.  Raises
    ResourceLimitError, naming the exact count, when there are more than
    ``cap`` geodesics; no path is walked then.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    total, eps, dag, through = _geodesic_dag(space, a, b)
    count = through.get(a, 0)
    if count > cap:
        raise ResourceLimitError(f"{count} geodesics join {a} and {b}, "
                                 f"more than the cap of {cap}")
    paths: list[GeodesicPath] = []
    stack: list[list[int]] = [[a]] if dag else []
    while stack:
        verts = stack.pop()
        u = verts[-1]
        if u == b:
            paths.append(_build_path(space, verts))
            continue
        stack.extend(verts + [v] for v in dag[u])
    for p in paths:
        tol = eps * max(len(p) - 1, 1) + LENGTH_RTOL * max(total, 1.0)
        if abs(p.length - total) > tol:
            raise AssertionError("enumerated path is not tight")
    return paths


def extract_geodesic(space, a: int, b: int,
                     rng: RngStream | None = None) -> GeodesicPath:
    """One geodesic from a to b, uniform random tie-breaking at branches.

    Each step from a goes to one of the tight successors, chosen uniformly.
    Cost: a walk over the a-b corridor (see ``_corridor_levels``) down a's
    distance field, one Dijkstra search on a weighted graph; on a
    unit-weight graph, two BFS balls that meet in the middle instead.
    """
    return _trace(space, a, b, _tight_steps(space, a, b)[2], rng)


def _trace(space, a, b, succ, rng) -> GeodesicPath:
    """The walk of ``extract_geodesic`` over a rule ``succ`` from
    ``_tight_steps(space, a, b)``, for callers that hold the rule."""
    gen = rng.generator() if rng is not None else None
    verts = [a]
    u = a
    while u != b:
        choices = succ(u)
        if len(choices) == 0:
            raise AssertionError("dead end while tracing a geodesic")
        u = int(choices[gen.integers(len(choices))]) if gen is not None \
            else int(choices[0])
        verts.append(u)
    return _build_path(space, verts)


# ---------------------------------------------------------------------------
# set statistics

def hausdorff_distance(space, set_a, set_b) -> float:
    """max of the two directed sup-inf distances between point sets (exact)."""
    sa = np.asarray(list(set_a), dtype=np.int64)
    sb = np.asarray(list(set_b), dtype=np.int64)
    if sa.size == 0 or sb.size == 0:
        raise ValueError("both sets must be nonempty")
    return max(_sup_inf(space, sb, sa), _sup_inf(space, sa, sb))


def _sup_inf(space, sources, targets) -> float:
    """Largest distance from a target to its nearest source.

    Multi-source searches bounded by a limit that starts at 1 and doubles
    until every target is reached, so each search explores only about the
    ball the answer needs; entries within the limit are exact.  A round that
    reaches no new vertex is followed by one unbounded search, which also
    ends the loop when a target lies out of reach.
    """
    limit, reached = 1.0, -1
    while True:
        field = space.dist_to_set(sources, limit=limit)
        d = field[targets]
        if limit == np.inf or np.isfinite(d).all():
            return float(d.max())
        now = np.count_nonzero(np.isfinite(field))
        limit = 2.0 * limit if now > reached else np.inf
        reached = now


def coalescence_point(space, root: int, g1: GeodesicPath,
                      g2: GeodesicPath) -> tuple[int, float]:
    """First shared-suffix vertex of two geodesics into ``root`` and its
    distance to the root; (root, 0) when only the root is shared."""
    if g1.vertices[-1] != root or g2.vertices[-1] != root:
        raise ValueError("both geodesics must end at the root")
    k = 0
    m = min(len(g1), len(g2))
    while k < m and g1.vertices[-1 - k] == g2.vertices[-1 - k]:
        k += 1
    merge_pos = len(g1) - k
    vertex = g1.vertices[merge_pos]
    dist_to_root = g1.length - float(g1.cumlen[merge_pos])
    return int(vertex), dist_to_root


# ---------------------------------------------------------------------------
# network signatures

def classify_network(space, a: int, b: int) -> tuple[int, int, int]:
    """(I, J, K) signature of the geodesic network from a to b.

    Read off ``_geodesic_dag``, so it needs no list of paths and holds for
    any number of geodesics.  I and J count the distinct first steps from a
    and last steps into b.  K counts splitting points seen walking from b
    toward a: each interior vertex contributes (number of distinct vertices
    that step into it) - 1.
    """
    dag = _geodesic_dag(space, a, b)[2]
    if not dag:
        raise AssertionError("dead end: no geodesic from a reaches b")
    preds: dict[int, set[int]] = {}
    for u, vs in dag.items():
        for v in vs:
            preds.setdefault(v, set()).add(u)
    k = sum(len(us) - 1 for v, us in preds.items() if v != b)
    return len(set(dag[a])), len(preds[b]), k


# ---------------------------------------------------------------------------
# star census

def star_census(space, k: int, radius: float, sample_centers, rng: RngStream,
                restarts: int = 16, exhaustive_max: int = 10) -> list[StarReport]:
    """Largest m <= k pairwise-disjoint geodesic germs at sampled centers.

    Greedy with restarts above ``exhaustive_max`` points; tiny spaces are
    searched exhaustively.  Centers whose eccentricity is below the radius
    are skipped with a flag.  Cost per center: one distance field, from the
    center (breadth-first on unit weights, Dijkstra otherwise), which every
    geodesic it traces is handed, so each of up to ``restarts`` x 4k
    targets costs a corridor walk and no search.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    gen = rng.generator()
    reports = []
    for center in sample_centers:
        center = int(center)
        dc = space.dist_from(center)
        far = np.flatnonzero(dc > radius)
        if far.size == 0:
            reports.append(StarReport(center, 0, [], radius, skipped=True))
            continue
        if space.n <= exhaustive_max:
            best = _best_star_exhaustive(space, center, k, radius, far)
        else:
            best = _best_star_greedy(space, center, dc, k, radius, far, gen,
                                     restarts)
        reports.append(StarReport(center, len(best), best, radius))
    return reports


def _ball_prefix(path: GeodesicPath, radius: float) -> frozenset:
    inside = [v for v, c in zip(path.vertices[1:], path.cumlen[1:]) if c <= radius]
    return frozenset(inside)


def _max_disjoint(prefixes, k):
    """Largest pairwise-disjoint subfamily (exact, small inputs)."""
    best: list[int] = []

    def grow(start, chosen, used):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) == k:
            return
        for i in range(start, len(prefixes)):
            if not (prefixes[i] & used):
                grow(i + 1, chosen + [i], used | prefixes[i])

    grow(0, [], frozenset())
    return best


def _best_star_exhaustive(space, center, k, radius, far):
    cands = []
    for t in far:
        cands.extend(enumerate_geodesics(space, center, int(t)))
    prefixes = [_ball_prefix(p, radius) for p in cands]
    chosen = _max_disjoint(prefixes, k)
    return [cands[i] for i in chosen]


def _best_star_greedy(space, center, dc, k, radius, far, gen, restarts):
    best: list[GeodesicPath] = []
    n_targets = min(4 * k, far.size)
    for _ in range(restarts):
        targets = gen.choice(far, size=n_targets, replace=False)
        paths = []
        for t in targets:
            sub = RngStream(int(gen.integers(1 << 62)), 0)
            succ = _tight_steps(space, center, int(t), dc)[2]
            paths.append(_trace(space, center, int(t), succ, sub))
        order = gen.permutation(len(paths))
        chosen: list[GeodesicPath] = []
        used: set[int] = set()
        for idx in order:
            pref = _ball_prefix(paths[idx], radius)
            if not (pref & used):
                chosen.append(paths[idx])
                used |= pref
                if len(chosen) == k:
                    break
        if len(chosen) > len(best):
            best = chosen
        if len(best) == k:
            break
    return best


# ---------------------------------------------------------------------------
# covering dimension estimates

def greedy_ball_cover_count(space, points: np.ndarray, scales) -> list[int]:
    """Number of balls a farthest-point greedy cover of ``points`` needs at
    each of the given scales, one count per scale.

    The centres run farthest first from the first point, a sequence that
    does not depend on the scale, so the count at eps is the first step
    whose covering radius is <= eps.  Lazy: one distance field from the
    first centre, then one search per centre bounded by the current
    covering radius (beyond it a centre lowers no distance).  Each search
    is breadth-first on a unit-weight graph and Dijkstra on a weighted one.
    """
    scales = np.asarray(scales, dtype=float)
    pts = np.asarray(points, dtype=np.int64)
    if pts.size == 0:
        return [0] * len(scales)
    if not (scales >= 0).all():
        raise ValueError(f"scales must be nonnegative, got {scales.tolist()}")
    mind = space.dist_from(int(pts[0]))[pts]
    radii = [mind.max()]
    while radii[-1] > scales.min():
        far = int(pts[np.argmax(mind)])
        mind = np.minimum(mind, space.dist_to_set([far], limit=radii[-1])[pts])
        radii.append(mind.max())
    return [1 + next(k for k, r in enumerate(radii) if r <= e) for e in scales]


def frame_box_dimension(space, pair_count: int, scales, rng: RngStream,
                        return_counts: bool = False):
    """Box-count slope of the geodesic frame of sampled pairs.

    The frame is the union of one geodesic per sampled pair minus that
    pair's endpoints.  Returns (slope, stderr) of log cover-count against
    log(1/eps) over the given scales.  Raises ValueError when every scale
    needs the same number of balls, since such counts carry no slope.
    """
    scales = _box_scales(scales)
    gen = rng.generator()
    frame: set[int] = set()
    for r in range(pair_count):
        a = int(gen.integers(space.n))
        b = int(gen.integers(space.n))
        if a == b:
            continue
        g = extract_geodesic(space, a, b, RngStream(int(gen.integers(1 << 62))))
        frame.update(g.vertices[1:-1])
    pts = np.array(sorted(frame), dtype=np.int64)
    if pts.size == 0:
        raise ValueError(f"empty frame: none of the {pair_count} sampled pairs "
                         "has a geodesic with an interior point")
    counts = greedy_ball_cover_count(space, pts, scales)
    if len(set(counts)) == 1:
        raise ValueError(f"the cover count is {counts[0]} at every scale, "
                         "so it gives no slope")
    slope, stderr = _loglog_slope(scales, counts)
    if return_counts:
        return slope, stderr, dict(zip(scales.tolist(), counts))
    return slope, stderr


def space_box_dimension(space, scales) -> tuple[float, float]:
    """Box-count slope of the whole space.

    Scan-order greedy cover with radius-truncated balls; cheaper than
    farthest-point at full size and shifts only the intercept.  Takes the
    scales ``frame_box_dimension`` takes.
    """
    scales = _box_scales(scales)
    counts = []
    for e in scales:
        covered = np.zeros(space.n, dtype=bool)
        cnt = 0
        for v in range(space.n):
            if covered[v]:
                continue
            cnt += 1
            covered[space.ball(v, e)] = True
        counts.append(cnt)
    return _loglog_slope(scales, counts)


def _box_scales(scales) -> np.ndarray:
    """The scales of a box-count slope, sorted; raises ValueError unless
    there are at least 3, all positive and finite, spanning a decade."""
    scales = np.asarray(sorted(scales), dtype=float)
    if (len(scales) < 3 or not np.isfinite(scales).all() or scales[0] <= 0
            or scales[-1] / scales[0] < 10.0 - 1e-9):
        raise ValueError("need at least 3 positive finite scales spanning "
                         "a decade")
    return scales


def _loglog_slope(scales, counts) -> tuple[float, float]:
    x = np.log(1.0 / np.asarray(scales, dtype=float))
    y = np.log(np.maximum(np.asarray(counts, dtype=float), 1.0))
    return _line_fit(x, y)


def _line_fit(x, y) -> tuple[float, float]:
    """Least-squares slope of y against x and its standard error (nan
    when x has no spread)."""
    x = np.asarray(x, dtype=float)
    a = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(a, np.asarray(y, dtype=float), rcond=None)
    dof = max(len(x) - 2, 1)
    s2 = (res[0] / dof) if len(res) else 0.0
    sxx = np.sum((x - x.mean()) ** 2)
    return float(coef[0]), float(np.sqrt(s2 / sxx)) if sxx > 0 else float("nan")


# ---------------------------------------------------------------------------
# strong-confluence statistic

def end_deficit(g1: GeodesicPath, g2: GeodesicPath) -> float:
    """Largest end-segment of either geodesic not contained in the other.

    For one direction: the length of the prefix before the first vertex
    lying on the other path, or of the suffix after the last such vertex
    (the whole length if they are disjoint).  The pair deficit is the max
    over both directions.
    """
    def one_sided(p: GeodesicPath, other: GeodesicPath) -> float:
        members = set(other.vertices)
        hits = [i for i, v in enumerate(p.vertices) if v in members]
        if not hits:
            return p.length
        prefix = float(p.cumlen[hits[0]])
        suffix = p.length - float(p.cumlen[hits[-1]])
        return max(prefix, suffix)

    return max(one_sided(g1, g2), one_sided(g2, g1))


def strong_confluence_statistic(space, epsilon_list, rng: RngStream,
                                n_pairs: int = 200,
                                return_samples: bool = False):
    """Mean end deficit of geodesic pairs, tabulated by Hausdorff closeness.

    Samples anchor pairs at least 4 max(epsilon) apart, perturbs the
    endpoints within balls of radius 0, 1/4, 1/2 or 1 times max(epsilon) to
    get a second geodesic, and reports for each epsilon the mean deficit over
    pairs whose Hausdorff distance is at most epsilon (each epsilon >= 0).
    Rows with no qualifying pairs are flagged empty.  An anchor's distance is the one
    the first geodesic's rule finds, so testing it costs no search.
    """
    eps_sorted = sorted(float(e) for e in epsilon_list)
    if not np.isfinite(eps_sorted).all():
        raise ValueError(f"epsilons must be finite, got {eps_sorted}")
    if not eps_sorted or eps_sorted[0] < 0:
        raise ValueError("need a nonempty list of nonnegative epsilons, "
                         f"got {eps_sorted}")
    if space.n < 1000:
        raise ValueError("need a space with at least 1000 points")
    gen = rng.generator()
    top = max(eps_sorted)
    anchor_min_dist = 4.0 * top
    perturb_radii = (0.0, top / 4.0, top / 2.0, top)
    samples: list[tuple[float, float]] = []  # (hausdorff, deficit)
    attempts = 0
    while len(samples) < n_pairs and attempts < 20 * n_pairs:
        attempts += 1
        a = int(gen.integers(space.n))
        b = int(gen.integers(space.n))
        if a == b:
            continue
        total, _, succ = _tight_steps(space, a, b)
        if total < anchor_min_dist:
            continue
        r = float(perturb_radii[gen.integers(len(perturb_radii))])
        if r == 0:
            a2, b2 = a, b
        else:
            near_a = np.sort(space.ball(a, r))
            near_b = np.sort(space.ball(b, r))
            a2 = int(near_a[gen.integers(near_a.size)])
            b2 = int(near_b[gen.integers(near_b.size)])
            if a2 == b2:
                continue
        g1 = _trace(space, a, b, succ, RngStream(int(gen.integers(1 << 62))))
        if (a2, b2) != (a, b):
            succ = _tight_steps(space, a2, b2)[2]
        g2 = _trace(space, a2, b2, succ, RngStream(int(gen.integers(1 << 62))))
        dh = hausdorff_distance(space, g1.vertices, g2.vertices)
        samples.append((dh, end_deficit(g1, g2)))
    rows = []
    for e in eps_sorted:
        sel = [d for (dh, d) in samples if dh <= e]
        rows.append({
            "epsilon": e,
            "count": len(sel),
            "mean_deficit": float(np.mean(sel)) if sel else None,
            "empty": not sel,
        })
    if return_samples:
        return rows, samples
    return rows


def isotonic_fit(values, weights=None) -> np.ndarray:
    """Nondecreasing least-squares fit (pool adjacent violators)."""
    y = [float(v) for v in values]
    w = [1.0] * len(y) if weights is None else [float(x) for x in weights]
    blocks = [[y[i] * w[i], w[i], 1] for i in range(len(y))]  # sum, weight, count
    out: list[list[float]] = []
    for blk in blocks:
        out.append(blk)
        while len(out) > 1 and out[-2][0] / out[-2][1] > out[-1][0] / out[-1][1]:
            s, ww, c = out.pop()
            out[-1][0] += s
            out[-1][1] += ww
            out[-1][2] += c
    fitted = []
    for s, ww, c in out:
        fitted.extend([s / ww] * int(c))
    return np.array(fitted)
