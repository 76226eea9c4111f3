"""Finite metric spaces behind the geodesic analytics.

One flavor: a graph space over a sparse adjacency structure, unit-weight
(a quadrangulation) or real-weighted (a free-field grid, a snake metric's
visible-pair graph).  It exposes single-source and source-set distance
fields and keeps none: each ``dist_from`` call runs one search,
breadth-first on a unit-weight graph and Dijkstra only on a weighted one,
so a caller that reuses a field holds it.  Fields and the adjacency arrays
are read-only, so a caller cannot corrupt the graph through them.  The
breadth-first level walk over CSR rows lives here too: bounded and
multi-source unit-weight searches use it, and so do a quadrangulation's
``bfs_metric`` and hulls,
which keeps ``bfs_metric`` an oracle that shares no code with the scipy
search behind full fields and the connectivity check.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GraphSpace", "space_from_field"]


def _sorted_unique(a):
    """``a`` sorted in place, without repeats (a sort and an adjacent-difference
    mask, far cheaper than the hash-based ``np.unique`` on a level)."""
    a.sort()
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _rows(indptr, indices, vertices):
    """The CSR rows of the int64 array ``vertices``, concatenated: entry j in
    row v's block reads indices[indptr[v] + j - block start]."""
    starts = indptr[vertices]
    counts = indptr[vertices + 1]
    counts -= starts
    ends = np.cumsum(counts)
    starts -= ends
    starts += counts
    offs = np.repeat(starts, counts)
    offs += np.arange(offs.size)
    return indices[offs]


def _levels(indptr, indices, sources, seen, radius=None):
    """Breadth-first levels from ``sources`` (a vertex or a set of them,
    repeats allowed), nearest first, each sorted without repeats.

    Level 0 is the sources.  A vertex already set in the boolean ``seen``
    is never entered, so a caller blocks a region by presetting it; ``seen``
    is updated in place.  With ``radius`` the walk stops after that many
    steps.
    """
    frontier = _sorted_unique(np.array(sources, dtype=np.int64, ndmin=1))
    seen[frontier] = True
    yield frontier
    steps = 0
    while radius is None or steps < radius:
        nbrs = _rows(indptr, indices, frontier)
        fresh = seen[nbrs]
        np.logical_not(fresh, out=fresh)
        nbrs = nbrs[fresh]
        if nbrs.size == 0:
            return
        frontier = _sorted_unique(nbrs)
        seen[frontier] = True
        steps += 1
        yield frontier


def _unit_steps(radius: float) -> int | None:
    """Whole unit-weight steps within ``radius``: None when it is inf."""
    radius = float(radius)
    if not radius >= 0:
        raise ValueError(f"limit must be >= 0, got {radius}")
    return None if radius == np.inf else int(radius)


def _read_only(a, dtype) -> np.ndarray:
    """A read-only view of ``a`` as ``dtype``; the caller's array keeps its
    own flags."""
    view = np.asarray(a, dtype=dtype).view()
    view.flags.writeable = False
    return view


class GraphSpace:
    """Metric space of a connected graph, CSR adjacency.

    ``weights`` is None for the unit-weight (integer) graph metric.
    """

    def __init__(self, indptr, indices, weights=None):
        self.indptr = _read_only(indptr, np.int64)
        self.indices = _read_only(indices, np.int64)
        self.weights = None if weights is None else _read_only(weights, float)
        self.n = len(self.indptr) - 1
        self._sparse = None

    @classmethod
    def from_quad(cls, quad) -> "GraphSpace":
        indptr, indices = quad.adjacency()
        return cls(indptr, indices)

    @classmethod
    def from_edges(cls, n: int, u, v, weights) -> "GraphSpace":
        """Weighted space on vertices 0..n-1 with one edge (u[k], v[k]) of
        weight weights[k] for each k.  A vertex lists its neighbours in edge
        order: first the edges that list it in ``u``, then those in ``v``."""
        src = np.concatenate([u, v]).astype(np.int64)
        dst = np.concatenate([v, u])
        order = np.argsort(src, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
        return cls(indptr, dst[order], np.concatenate([weights, weights])[order])

    def neighbors(self, i: int):
        sl = slice(self.indptr[i], self.indptr[i + 1])
        w = np.ones(sl.stop - sl.start) if self.weights is None else self.weights[sl]
        return self.indices[sl], w

    def edge_weight(self, u: int, v: int) -> float:
        """Distance between adjacent vertices (edges are always tight here:
        every 2-hop detour costs at least one extra nonnegative weight)."""
        vs, ws = self.neighbors(u)
        hit = ws[vs == v]
        if hit.size == 0:
            raise ValueError(f"vertices {u} and {v} are not adjacent")
        return float(hit.min())

    def _as_sparse(self):
        if self._sparse is None:
            from scipy.sparse import csr_matrix
            data = np.ones(len(self.indices)) if self.weights is None else self.weights
            self._sparse = csr_matrix((data, self.indices, self.indptr),
                                      shape=(self.n, self.n))
        return self._sparse

    def dist_from(self, i: int) -> np.ndarray:
        """The full distance field from i, read-only; one search per call,
        breadth-first on unit weights and Dijkstra otherwise."""
        if self.weights is not None:
            from scipy.sparse.csgraph import dijkstra
            # adjacency is stored symmetrized, so directed search is equivalent
            d = dijkstra(self._as_sparse(), directed=True, indices=i)
        else:
            d = self._bfs_field(i)
        d.flags.writeable = False
        return d

    def _bfs_field(self, i: int) -> np.ndarray:
        """Hop counts from i by scipy's breadth-first order.  A vertex joins
        the queue after its predecessor, so the predecessors' positions in
        that order never decrease, and level d + 1 ends where they first
        reach past the end of level d."""
        from scipy.sparse.csgraph import breadth_first_order
        order, pred = breadth_first_order(self._as_sparse(), i, directed=True,
                                          return_predecessors=True)
        pos = np.empty(self.n, dtype=np.int64)
        pos[order] = np.arange(order.size)
        pred_pos = pos[pred[order[1:]]]
        ends = [1]
        while ends[-1] < order.size:
            ends.append(int(np.searchsorted(pred_pos, ends[-1])) + 1)
        d = np.full(self.n, np.inf)
        d[order] = np.repeat(np.arange(len(ends), dtype=float),
                             np.diff(ends, prepend=0))
        return d

    def dist_to_set(self, sources, limit: float = np.inf) -> np.ndarray:
        """Distance to the nearest source.  Entries within ``limit`` are
        exact; the search stops there.  Farther entries read inf on unit
        weights (a breadth-first walk of ``floor(limit)`` levels) and may
        read inf on weighted graphs (a Dijkstra search bounded by
        ``limit``)."""
        if self.weights is None:
            d = np.full(self.n, np.inf)
            seen = np.zeros(self.n, dtype=bool)
            for k, level in enumerate(_levels(self.indptr, self.indices, sources,
                                              seen, _unit_steps(limit))):
                d[level] = k
            return d
        sources = np.asarray(sources, dtype=np.int64)
        from scipy.sparse.csgraph import dijkstra
        return dijkstra(self._as_sparse(), directed=True, indices=sources,
                        min_only=True, limit=limit)

    def ball(self, src: int, radius: float) -> np.ndarray:
        """Vertices within ``radius`` of src: a local flood, nearest first,
        for unit weights; a search bounded by the radius, in index order,
        otherwise."""
        if self.weights is not None:
            return np.flatnonzero(self.dist_to_set([src], limit=radius) <= radius)
        seen = np.zeros(self.n, dtype=bool)
        return np.concatenate(list(_levels(self.indptr, self.indices, src,
                                           seen, _unit_steps(radius))))


def space_from_field(field, gamma: float) -> GraphSpace:
    """Weighted grid space for a scalar field: 4-neighbor lattice with edge
    weight (w(u) + w(v)) / 2 where w = exp(gamma * field).

    With half weights on entry and exit, edge-path lengths reproduce
    vertex-sum lengths up to the fixed endpoint correction, so standard
    shortest paths apply exactly.
    """
    h = np.asarray(field.values, dtype=float)
    n = h.shape[0]
    w = np.exp(gamma * h).ravel()
    ids = np.arange(n * n).reshape(n, n)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return GraphSpace.from_edges(n * n, u, v, 0.5 * (w[u] + w[v]))
