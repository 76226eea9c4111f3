"""Finite metric spaces behind the geodesic analytics.

Two concrete flavors: a dense space wrapping a full distance matrix (the
underlying graph is complete), and a graph space over a sparse adjacency
structure, unit-weight or real-weighted.  Both expose single-source and
source-set distance fields; graph spaces keep a small cache of Dijkstra
results.  Single-source fields and the adjacency arrays are read-only, so a
caller cannot corrupt the cache, the matrix or the graph through them.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .planar_map import _levels

__all__ = ["DenseSpace", "GraphSpace", "space_from_field"]

_CACHE_SIZE = 128


def _read_only(a, dtype) -> np.ndarray:
    """A read-only view of ``a`` as ``dtype``; the caller's array keeps its
    own flags."""
    view = np.asarray(a, dtype=dtype).view()
    view.flags.writeable = False
    return view


class DenseSpace:
    """Metric space given by an explicit symmetric distance matrix."""

    is_graph = False
    integer_metric = False

    def __init__(self, dmat: np.ndarray):
        self.dmat = np.asarray(dmat, dtype=float)
        self.n = self.dmat.shape[0]

    def dist(self, i: int, j: int) -> float:
        return float(self.dmat[i, j])

    def dist_from(self, i: int) -> np.ndarray:
        row = self.dmat[i]
        row.flags.writeable = False
        return row

    def dist_to_set(self, sources, limit: float = np.inf) -> np.ndarray:
        """Distance to the nearest source; exact everywhere (``limit`` is
        accepted for the common interface and not needed)."""
        return self.dmat[np.asarray(sources, dtype=np.int64)].min(axis=0)

    def ball(self, src: int, radius: float) -> np.ndarray:
        """Points within ``radius`` of src, in index order."""
        return np.flatnonzero(self.dmat[src] <= radius)


class GraphSpace:
    """Metric space of a connected graph, CSR adjacency.

    ``weights`` is None for the unit-weight (integer) graph metric.
    """

    is_graph = True

    def __init__(self, indptr, indices, weights=None):
        self.indptr = _read_only(indptr, np.int64)
        self.indices = _read_only(indices, np.int64)
        self.weights = None if weights is None else _read_only(weights, float)
        self.n = len(self.indptr) - 1
        self.integer_metric = weights is None
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._sparse = None

    @classmethod
    def from_quad(cls, quad) -> "GraphSpace":
        indptr, indices = quad.adjacency()
        return cls(indptr, indices)

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

    def held_field(self, i: int) -> np.ndarray | None:
        """The field from i if the cache holds it, else None; never searches."""
        hit = self._cache.get(i)
        if hit is not None:
            self._cache.move_to_end(i)
        return hit

    def dist_from(self, i: int) -> np.ndarray:
        hit = self.held_field(i)
        if hit is not None:
            return hit
        from scipy.sparse.csgraph import dijkstra
        # adjacency is stored symmetrized, so directed search is equivalent
        d = dijkstra(self._as_sparse(), directed=True, indices=i)
        d.flags.writeable = False
        self._cache[i] = d
        if len(self._cache) > _CACHE_SIZE:
            self._cache.popitem(last=False)
        return d

    def dist(self, i: int, j: int) -> float:
        return float(self.dist_from(i)[j])

    def dist_to_set(self, sources, limit: float = np.inf) -> np.ndarray:
        """Distance to the nearest source.  Entries within ``limit`` are
        exact; the search stops there, and farther entries may read inf."""
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
                                           seen, int(radius))))


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
    pairs = []
    pairs.append((ids[:, :-1].ravel(), ids[:, 1:].ravel()))
    pairs.append((ids[:-1, :].ravel(), ids[1:, :].ravel()))
    u = np.concatenate([p[0] for p in pairs] + [p[1] for p in pairs])
    v = np.concatenate([p[1] for p in pairs] + [p[0] for p in pairs])
    ew = 0.5 * (w[u] + w[v])
    order = np.argsort(u, kind="stable")
    u, v, ew = u[order], v[order], ew[order]
    counts = np.bincount(u, minlength=n * n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return GraphSpace(indptr, v, ew)
