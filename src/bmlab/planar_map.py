"""Random labeled plane trees and their quadrangulations.

A uniform plane tree with i.i.d. {-1,0,+1} edge-label increments is turned
into a rooted pointed quadrangulation by corner chaining: every corner is
joined to the next corner (cyclically along the contour) whose label is one
less, and the corners of minimal label are joined to an extra vertex placed
at label min-1.  The resulting arcs form a half-edge map whose faces all
have degree 4 and whose graph distance from the extra vertex to any tree
vertex is label(u) - min_label + 1.

Half-edge conventions: arc a yields half-edges 2a (tail side) and 2a+1;
``opp`` is the pairing h ^ 1; ``next_out`` is the counterclockwise rotation
among half-edges sharing a tail; faces are orbits of h -> next_out[h ^ 1].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geodesics import _line_fit
from .rng import RngStream
from .spaces import _levels, _rows

__all__ = [
    "LabeledPlaneTree",
    "Quadrangulation",
    "sample_labeled_tree",
    "cvs_construct",
    "bfs_metric",
    "boundary_length_process",
    "max_boundary_tail_report",
    "calibrate_scaling",
]


# ---------------------------------------------------------------------------
# labeled plane trees

@dataclass
class LabeledPlaneTree:
    """Plane tree given by its contour steps (+1 down into a child, -1 up)
    plus one label increment in {-1, 0, +1} per edge, in the order the
    contour first walks down each edge.

    One walk over the contour numbers the vertices in order of first visit
    (root 0) and labels each vertex with the sum of the increments on its
    path from the root, so the root carries label 0 and labels change by
    at most 1 across edges."""

    n_edges: int
    contour: np.ndarray     # +-1, length 2 n_edges
    increments: np.ndarray  # -1, 0 or +1, length n_edges
    labels: np.ndarray = field(init=False)  # per vertex, root first; read-only

    def __post_init__(self):
        self.contour = np.asarray(self.contour, dtype=np.int64)
        self.increments = np.asarray(self.increments, dtype=np.int64)
        if self.n_edges < 1:
            raise ValueError("n_edges must be at least 1")
        if len(self.contour) != 2 * self.n_edges:
            raise ValueError("contour length must be 2 * n_edges")
        walk = np.cumsum(self.contour)
        if (np.any(np.abs(self.contour) != 1) or walk[-1] != 0
                or np.any(walk[:-1] < 0)):
            raise ValueError("contour must be a nonnegative +-1 walk returning to 0")
        if len(self.increments) != self.n_edges or np.any(np.abs(self.increments) > 1):
            raise ValueError("need one increment in {-1, 0, +1} per edge")
        incs = iter(self.increments.tolist())
        verts, labels, stack = [], [0], [0]
        for step in self.contour.tolist():
            verts.append(stack[-1])
            if step == 1:
                stack.append(len(labels))
                labels.append(labels[stack[-2]] + next(incs))
            else:
                stack.pop()
        self._verts = np.array(verts, dtype=np.int64)
        self._verts.flags.writeable = False
        self.labels = np.array(labels, dtype=np.int64)
        self.labels.flags.writeable = False

    def contour_vertices(self) -> np.ndarray:
        """Vertex id visited at each contour time 0 .. 2n-1 (root = 0), ids
        assigned in order of first visit; computed once, read-only."""
        return self._verts


def sample_labeled_tree(n_edges: int, rng: RngStream) -> LabeledPlaneTree:
    """Uniform plane tree with i.i.d. uniform {-1,0,+1} label increments.

    The contour is drawn by the cycle lemma: a uniform arrangement of n up
    and n+1 down steps has exactly one rotation that stays nonnegative
    until its final down step, and dropping that step is uniform over
    contours.
    """
    if n_edges < 1:
        raise ValueError("n_edges must be at least 1")
    gen = rng.generator()
    seq = np.concatenate([np.ones(n_edges, dtype=np.int64),
                          -np.ones(n_edges + 1, dtype=np.int64)])
    gen.shuffle(seq)
    walk = np.cumsum(seq)
    pivot = int(np.argmin(walk))  # first index attaining the minimum (= -1 level)
    rot = np.roll(seq, -(pivot + 1))
    return LabeledPlaneTree(n_edges, rot[:-1], gen.integers(-1, 2, size=n_edges))


# ---------------------------------------------------------------------------
# quadrangulations as half-edge maps

# the most edges cvs_construct takes: its sort key stays below
# (n + 2)(2n + 1)^2 <= 2^63 - 1
MAX_EDGES = 1_300_000


@dataclass
class Quadrangulation:
    """Rooted pointed quadrangulation, half-edge representation."""

    tail: np.ndarray        # tail vertex per half-edge
    next_out: np.ndarray    # ccw next half-edge around the tail vertex
    root_half_edge: int
    pointed_vertex: int
    n_faces: int
    meta: dict = field(default_factory=dict)
    _csr: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.tail = np.asarray(self.tail, dtype=np.int64)
        self.next_out = np.asarray(self.next_out, dtype=np.int64)

    @property
    def n_half_edges(self) -> int:
        return len(self.tail)

    @property
    def n_edges(self) -> int:
        return self.n_half_edges // 2

    @property
    def n_vertices(self) -> int:
        return int(self.tail.max()) + 1

    def faces(self) -> list[list[int]]:
        """Orbits of the facial walk; each orbit lists half-edges."""
        seen = np.zeros(self.n_half_edges, dtype=bool)
        out = []
        for h0 in range(self.n_half_edges):
            if seen[h0]:
                continue
            cyc = []
            h = h0
            while not seen[h]:
                seen[h] = True
                cyc.append(h)
                h = int(self.next_out[h ^ 1])
            out.append(cyc)
        return out

    def validate(self) -> None:
        """Structural checks: permutations, all faces degree 4, vertex, edge
        and face counts, and connectivity (scipy's breadth-first order from
        vertex 0 reaches every vertex).

        Faces are the orbits of phi(h) = next_out[h ^ 1].  Every orbit has
        size 4 exactly when phi^4 is the identity and phi^2 has no fixed
        point (a fixed point of phi is one of phi^2), so there are m / 4
        faces and no orbit is walked.
        """
        m = self.n_half_edges
        if m % 2:
            raise ValueError("odd number of half-edges")
        nxt = self.next_out
        if (nxt.shape != (m,) or np.any((nxt < 0) | (nxt >= m))
                or np.any(np.bincount(nxt, minlength=m) != 1)):
            raise ValueError("next_out is not a permutation")
        if np.any(self.tail[nxt] != self.tail):
            raise ValueError("next_out must preserve the tail vertex")
        ids = np.arange(m)
        phi = nxt[ids ^ 1]
        phi2 = phi[phi]
        if np.any(phi2[phi2] != ids) or np.any(phi2 == ids):
            raise ValueError("all faces must have degree 4")
        v, e, f = self.n_vertices, self.n_edges, m // 4
        if f != self.n_faces or e != 2 * self.n_faces or v != self.n_faces + 2:
            raise ValueError("face/edge/vertex counts are inconsistent")
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order
        indptr, indices = self.adjacency()
        graph = csr_matrix((np.ones(m), indices, indptr), shape=(v, v))
        if breadth_first_order(graph, 0, return_predecessors=False).size != v:
            raise ValueError("map is not connected")

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, indices) over directed half-edges, cached and
        read-only."""
        if self._csr is None:
            m = self.n_half_edges
            counts = np.bincount(self.tail, minlength=self.n_vertices)
            # half-edges by tail, in index order within a tail (the keys
            # are unique, so any sort gives the stable order)
            order = np.argsort(self.tail * m + np.arange(m))
            indices = self.tail[order ^ 1]
            indptr = np.concatenate([[0], np.cumsum(counts)])
            indptr.flags.writeable = indices.flags.writeable = False
            object.__setattr__(self, "_csr", (indptr, indices))
        return self._csr

    def canonical_key(self) -> bytes:
        """Canonical encoding of the rooted pointed map.

        Half-edges are relabeled by a deterministic traversal from the root
        half-edge using (next_out, opp); the key is the relabeled next_out
        table plus the pointed vertex's orbit position.
        """
        m = self.n_half_edges
        new = -np.ones(m, dtype=np.int64)
        order = []
        stackless = [self.root_half_edge]
        while stackless:
            h = stackless.pop()
            if new[h] >= 0:
                continue
            new[h] = len(order)
            order.append(h)
            stackless.append(int(self.next_out[h]))
            stackless.append(h ^ 1)
        relabeled_next = new[self.next_out[order]]
        relabeled_opp = new[np.asarray(order) ^ 1]
        pointed_flag = (self.tail[order] == self.pointed_vertex).astype(np.int8)
        return (relabeled_next.astype("<i8").tobytes()
                + relabeled_opp.astype("<i8").tobytes()
                + pointed_flag.tobytes())

    def to_json(self) -> str:
        payload = {
            "header": {
                "kind": "quadrangulation-halfedge-v1",
                "n_faces": int(self.n_faces),
                "n_vertices": int(self.n_vertices),
                "root_half_edge": int(self.root_half_edge),
                "pointed_vertex": int(self.pointed_vertex),
                "opp_convention": "xor1",
                **{k: v for k, v in self.meta.items()
                   if isinstance(v, (int, float, str))},
            },
            "tail": self.tail.tolist(),
            "next_out": self.next_out.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Quadrangulation":
        payload = json.loads(text)
        h = payload["header"]
        return cls(np.array(payload["tail"]), np.array(payload["next_out"]),
                   int(h["root_half_edge"]), int(h["pointed_vertex"]),
                   int(h["n_faces"]), meta=dict(h))


def _corner_successors(corner_labels: np.ndarray) -> tuple[np.ndarray, int]:
    """succ[k] = first corner cyclically after k with label one less;
    -1 marks corners of minimal label (they chain to the extra vertex).

    One sort of the unique keys (label - min) * 2n + k lists the corners by
    label, each label in contour order.  The first key above key[k] - 2n is
    then the first corner after k of label one less, unless the search runs
    into k's own label, where it wraps to the start of the label below."""
    n2 = len(corner_labels)
    lmin = int(corner_labels.min())
    rel = corner_labels - lmin
    key = rel * n2 + np.arange(n2)
    order = np.argsort(key)
    pos = np.searchsorted(key[order], key - n2, side="right")
    # starts[r] = first sorted position of label lmin + r; starts[-1] = n2
    starts = np.concatenate([[0], np.cumsum(np.bincount(rel))])
    wrap = pos >= starts[rel]
    pos[wrap] = starts[rel[wrap] - 1]  # the minimal label lands on n2 ...
    return np.append(order, -1)[pos], lmin  # ... which reads -1


def cvs_construct(tree: LabeledPlaneTree, sign: int = 1) -> Quadrangulation:
    """Corner-chaining construction of a rooted pointed quadrangulation.

    Each corner k emits one arc to its successor corner (or to the extra
    vertex when its label is minimal).  Within a corner the incoming arc
    ends are ordered nearest source first, then the outgoing end; this is
    the unique noncrossing attachment order.  The extra vertex sees its arcs
    in reverse corner order.  All rotations come from one argsort of the
    half-edges by the int64 key (tail, corner, position in the corner) in
    base 2n + 1, below (n + 2)(2n + 1)^2; that caps n at ``MAX_EDGES``,
    where the key still fits.  The root edge is corner 0's arc, oriented
    away from corner 0 for sign=+1 and reversed for sign=-1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = tree.n_edges
    if n > MAX_EDGES:
        raise ValueError(f"corner chaining takes at most {MAX_EDGES:,} edges "
                         f"(its int64 sort key), got {n:,}")
    n2 = 2 * n
    verts = tree.contour_vertices()
    corner_labels = tree.labels[verts]
    succ, lmin = _corner_successors(corner_labels)
    star = int(n + 1)  # the extra vertex id

    # arc k goes from corner k to succ[k]: half-edge 2k sits at corner k,
    # 2k+1 at corner succ[k] or at the extra vertex
    star_arc = succ < 0
    tail = np.empty(2 * n2, dtype=np.int64)
    tail[0::2] = verts
    tail[1::2] = np.where(star_arc, star, verts[succ])

    # an incoming end's position is its source's distance back along the
    # contour, the outgoing end comes last; the extra vertex is interior, so
    # its corner key n2 - k winds the other way
    ks = np.arange(n2)
    corner = np.empty(2 * n2, dtype=np.int64)
    corner[0::2] = ks
    corner[1::2] = np.where(star_arc, n2 - ks, succ)
    sub = np.full(2 * n2, n2, dtype=np.int64)
    sub[1::2] = (succ - ks) % n2
    base = n2 + 1
    order = np.argsort((tail * base + corner) * base + sub)

    # next_out: the next entry of the same vertex group, wrapping to its start
    counts = np.bincount(tail, minlength=n + 2)
    starts = np.cumsum(counts) - counts
    pos = np.arange(1, 2 * n2 + 1)
    pos[starts + counts - 1] = starts
    next_out = np.empty(2 * n2, dtype=np.int64)
    next_out[order] = order[pos]

    root_he = 0 if sign == 1 else 1
    quad = Quadrangulation(tail, next_out, root_he, star, n,
                           meta={"label_min": lmin})
    return quad


# ---------------------------------------------------------------------------
# graph metric

def bfs_metric(quad: Quadrangulation, source: int) -> np.ndarray:
    """Exact graph distances from ``source`` (int32, -1 unreachable)."""
    n = quad.n_vertices
    dist = np.full(n, -1, dtype=np.int32)
    seen = np.zeros(n, dtype=bool)
    for d, level in enumerate(_levels(*quad.adjacency(), source, seen)):
        dist[level] = d
    return dist


# ---------------------------------------------------------------------------
# hulls and boundary lengths

def _hull_levels(quad: Quadrangulation, center: int,
                 basepoint: int) -> np.ndarray:
    """J per vertex: the largest t at which it joins ``basepoint`` inside
    {d(center, .) >= t}, else 0, so that the hull of radius r (the ball with
    every hole that misses the basepoint filled) is {J <= r}.  Levels open
    from the top down; each floods from its settled neighbours."""
    indptr, indices = quad.adjacency()
    dist = bfs_metric(quad, center)
    top = int(dist[basepoint])
    if top < 2:
        raise ValueError("need d(center, basepoint) >= 2")
    by_level = np.split(np.argsort(dist), np.cumsum(np.bincount(dist))[:-1])
    joins = np.zeros(quad.n_vertices, dtype=np.int64)
    joins[basepoint] = top
    seen = dist < top
    sources = basepoint
    for t in range(top, 0, -1):
        flood = _levels(indptr, indices, sources, seen)
        next(flood)  # the sources, settled already
        for level in flood:
            joins[level] = t
        seen[by_level[t - 1]] = False
        nbrs = _rows(indptr, indices, by_level[t - 1])
        sources = nbrs[joins[nbrs] > 0]
    return joins


def boundary_length_process(quad: Quadrangulation, center: int,
                            basepoint: int) -> np.ndarray:
    """Edges across the hull at radii 1 .. d(center, basepoint) - 1: an edge
    crosses it at radius r when min J <= r < max J over its two ends."""
    joins = _hull_levels(quad, center, basepoint)
    ends = np.sort(joins[quad.tail.reshape(-1, 2)], axis=1)  # arc a: 2a, 2a + 1
    top = int(joins[basepoint])
    change = np.bincount(ends[:, 0], minlength=top + 1)
    change -= np.bincount(ends[:, 1], minlength=top + 1)
    return np.cumsum(change)[1:top]


def max_boundary_tail_report(max_lengths) -> dict:
    """Log-log tail slope of max boundary lengths across samples, with CI.

    Fits log P[M > m] against log m over the upper half of the sample;
    exploratory output, never gated.
    """
    m = np.sort(np.asarray(max_lengths, dtype=float))
    if len(m) < 8:
        raise ValueError("need at least 8 samples for a tail fit")
    k0 = len(m) // 2
    xs, ys = [], []
    for k in range(k0, len(m) - 1):
        if m[k] <= 0:
            continue
        xs.append(np.log(m[k]))
        ys.append(np.log(1.0 - (k + 1) / (len(m) + 1)))
    slope, stderr = _line_fit(xs, ys)
    return {"tail_slope": slope, "stderr": stderr,
            "ci95": [slope - 1.96 * stderr, slope + 1.96 * stderr],
            "samples": len(m)}


def calibrate_scaling(quad_root_dists, snake_root_dists) -> float:
    """Distance rescaling matching mean distance-to-root across samplers.

    Accepts sequences of per-sample distance arrays; returns the factor to
    multiply the first family by so the pooled means agree.
    """
    q = np.concatenate([np.asarray(a, dtype=float).ravel() for a in quad_root_dists]) \
        if len(quad_root_dists) else np.array([])
    s = np.concatenate([np.asarray(a, dtype=float).ravel() for a in snake_root_dists]) \
        if len(snake_root_dists) else np.array([])
    if q.size == 0 or s.size == 0:
        raise ValueError("both sample families must be nonempty")
    mq = float(np.mean(q))
    if mq == 0:
        raise ValueError("degenerate first family (zero mean distance)")
    return float(np.mean(s)) / mq
